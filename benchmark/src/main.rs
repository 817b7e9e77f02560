//! The repo's one wall-clock benchmark. See `benchmark/README.md`.
//!
//! ```text
//! repose-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one process; the last stdout line is the result the
//!     BENCHMARK.json contract asks for
//! repose-benchmark run <workload> [--seed n] [--seconds s] [--trace] [--smoke]
//! repose-benchmark all [--seed n] [--seconds s] [--trace] [--smoke]
//!     every workload, each in its own child process (so peak_rss_mb is per
//!     workload), as one JSON document with units, bounds and sample counts
//! repose-benchmark repeat [--seed n] [--seconds s] [--smoke]
//!     `all --trace` twice; fails if the two sets disagree beyond the bounds
//! ```

mod host;
mod probes;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use serde_json::{json, Map, Value};
use spec::Spec;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{Params, RunOutput};

/// 50.0 x the generator's base size = 120,000 trajectories.
const FULL_SCALE: f64 = 50.0;
const SMOKE_SCALE: f64 = 1.0;
const SMOKE_SECONDS: f64 = 2.0;
const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            FULL_SCALE
        }
    }

    fn seconds(&self, spec: &Spec) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            spec.run_seconds as f64
        })
    }

    fn params(&self, spec: &Spec) -> Params {
        let seconds = self.seconds(spec);
        Params {
            seed: self.seed,
            window: Duration::from_secs_f64(seconds),
            warmup: Duration::from_secs_f64((seconds / 20.0).clamp(0.2, 1.0)),
            scale: self.scale(),
            setup_reps: if self.smoke { 1 } else { 3 },
            trace: self.trace,
            out_dir: out_dir(),
        }
    }
}

/// `benchmark/out` of the checkout the program is run from (the driver and
/// the scripts run it from the checkout's root); failing that, next to the
/// manifest it was built from. Either way inside a checkout.
fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    let package = if here.join("Cargo.toml").is_file() {
        std::fs::canonicalize(here).expect("benchmark/ resolves")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    let dir = package.join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out inside the checkout");
    dir
}

fn usage() -> ! {
    eprintln!(
        "usage: repose-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      repose-benchmark run <workload> | all | repeat  [--seed n] [--seconds s] [--trace] [--smoke]\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2)
}

/// Parses the flags after the mode word. `--trace` takes `0|1` in the
/// driver form and nothing in the human forms.
fn parse_flags(mut it: impl Iterator<Item = String>, driver: bool) -> (Args, Option<String>) {
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
        v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload", it.next())),
            "--seed" => args.seed = value("--seed", it.next()),
            "--seconds" => args.seconds = Some(value("--seconds", it.next())),
            "--trace" if driver => args.trace = value::<u8>("--trace", it.next()) != 0,
            "--trace" => args.trace = true,
            "--smoke" => args.smoke = true,
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    (args, workload)
}

fn run_workload(name: &str, p: &Params) -> RunOutput {
    match name {
        "single_hausdorff" => workloads::single_hausdorff::run(p),
        "batch_dtw" => workloads::batch_dtw::run(p),
        "serve_mixed" => workloads::serve_mixed::run(p),
        "shard_scatter" => workloads::shard_scatter::run(p),
        other => {
            eprintln!("unknown workload `{other}`");
            usage()
        }
    }
}

fn header(args: &Args, spec: &Spec) -> Value {
    json!({
        "seed": args.seed,
        "scale": args.scale(),
        "window_s": args.seconds(spec),
        "k": sut::K,
        "partitions": sut::PARTITIONS,
        "nproc": sut::default_pool_threads(),
        "pool_threads": sut::default_pool_threads(),
        "simd_backend": sut::active_backend(),
    })
}

/// One workload in this process. Prints a detail line, then the contract's
/// result line last. `None` if no result could be printed; otherwise
/// whether the run was correct.
fn run_one(name: &str, args: &Args, spec: &Spec) -> Option<bool> {
    let p = args.params(spec);
    eprintln!(
        "[{name}] seed {} scale {} window {:?} trace {}",
        p.seed, p.scale, p.window, p.trace
    );
    let out = run_workload(name, &p);
    if let Err(why) = spec.check(p.trace, &out.metrics) {
        eprintln!("[{name}] {why}");
        return None;
    }
    let mut metrics = Map::new();
    for m in spec.listed(p.trace) {
        let (_, v) = out
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .expect("checked above");
        metrics.insert(
            m.name.clone(),
            json!({ "value": *v, "unit": m.unit.as_str() }),
        );
    }
    let detail = json!({ "workload": name, "header": header(args, spec), "detail": out.detail });
    println!("{}", serde_json::to_string(&detail).expect("detail line"));
    let result = json!({
        "correct": out.correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&result).expect("result line"));
    if !out.correct {
        eprintln!(
            "[{name}] INCORRECT: {} of {} operations failed",
            out.failed, out.attempted
        );
    }
    Some(out.correct)
}

/// Runs one workload in a child process and returns `(detail, result)`.
fn spawn_one(name: &str, args: &Args, spec: &Spec, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds(spec).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.smoke.then_some("--smoke"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.ok_or("missing output line")?)
            .map_err(|e| format!("{name}: {e:?}"))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    Ok((detail, result))
}

/// `all`: every workload in its own child, one document out.
fn run_all(args: &Args, spec: &Spec) -> (Value, bool) {
    let mut ok = true;
    let mut per_workload = Map::new();
    for (name, why) in &spec.workloads {
        let mut entry = Map::new();
        entry.insert("why".to_string(), json!(why.as_str()));
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            match spawn_one(name, args, spec, traced) {
                Err(why) => {
                    eprintln!("{why}");
                    ok = false;
                }
                Ok((detail, result)) => {
                    ok &= result["correct"].as_bool() == Some(true);
                    let attempted = result["attempted"].as_f64().unwrap_or(1.0);
                    let failed = result["failed"].as_f64().unwrap_or(0.0);
                    let mut section = Map::new();
                    section.insert("correct".to_string(), result["correct"].clone());
                    section.insert("attempted".to_string(), result["attempted"].clone());
                    section.insert("failed".to_string(), result["failed"].clone());
                    section.insert("failed_share".to_string(), json!(failed / attempted));
                    let mut metrics = Map::new();
                    for m in spec.listed(traced) {
                        let mut row = Map::new();
                        row.insert(
                            "value".to_string(),
                            result["metrics"][m.name.as_str()]["value"].clone(),
                        );
                        row.insert("unit".to_string(), json!(m.unit.as_str()));
                        row.insert(
                            "better".to_string(),
                            json!(if m.higher_is_better {
                                "higher"
                            } else {
                                "lower"
                            }),
                        );
                        if let Some(b) = m.bound {
                            row.insert("bound".to_string(), json!(b));
                        }
                        metrics.insert(m.name.clone(), Value::Object(row));
                    }
                    section.insert("metrics".to_string(), Value::Object(metrics));
                    section.insert("detail".to_string(), detail["detail"].clone());
                    let key = if traced { "traced" } else { "end_to_end" };
                    entry.insert(key.to_string(), Value::Object(section));
                }
            }
        }
        per_workload.insert(name.clone(), Value::Object(entry));
    }
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut head = header(args, spec);
    head["rustc"] = json!(rustc);
    let doc = json!({
        "schema": 1,
        "header": head,
        "correct": ok,
        "workloads": Value::Object(per_workload),
    });
    (doc, ok)
}

fn write_out(name: &str, doc: &Value) {
    let text = serde_json::to_string_pretty(doc).expect("document");
    let path = out_dir().join(name);
    std::fs::write(&path, &text).expect("document inside the checkout");
    println!("{text}");
    eprintln!("wrote {}", path.display());
}

/// `repeat`: the full set twice. Every end-to-end metric must agree
/// within its bound and every exact-count layer metric exactly.
fn run_repeat(args: &Args, spec: &Spec) -> bool {
    let args = Args {
        trace: true,
        ..args.clone()
    };
    let (first, ok1) = run_all(&args, spec);
    let (second, ok2) = run_all(&args, spec);
    let mut ok = ok1 && ok2;
    let mut rows = Vec::new();
    for (name, _) in &spec.workloads {
        for (section, listed) in [
            ("end_to_end", &spec.end_to_end),
            ("traced", &spec.per_layer),
        ] {
            for m in listed {
                let get = |doc: &Value| {
                    doc["workloads"][name.as_str()][section]["metrics"][m.name.as_str()]["value"]
                        .as_f64()
                };
                let (Some(a), Some(b)) = (get(&first), get(&second)) else {
                    ok = false;
                    continue;
                };
                let mid = (a + b) / 2.0;
                let rel = if mid == 0.0 {
                    0.0
                } else {
                    (a - b).abs() / mid.abs()
                };
                let verdict = match m.bound {
                    Some(bound) if rel > bound => "BEYOND_BOUND",
                    None if spec::repeats_exactly(&m.name) && a != b => "COUNT_DIFFERS",
                    _ => "ok",
                };
                ok &= verdict == "ok";
                rows.push(json!({
                    "workload": name.as_str(),
                    "metric": m.name.as_str(),
                    "unit": m.unit.as_str(),
                    "first": a,
                    "second": b,
                    "median": mid,
                    "relative_difference": rel,
                    "bound": m.bound,
                    "verdict": verdict,
                }));
            }
        }
    }
    write_out(
        "repeat.json",
        &json!({ "schema": 1, "agree": ok, "header": first["header"].clone(), "metrics": rows }),
    );
    ok
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let mut argv = std::env::args().skip(1).peekable();
    let exit = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match argv.peek().map(String::as_str) {
        Some("all") => {
            let (args, _) = parse_flags(argv.skip(1), false);
            let (doc, ok) = run_all(&args, &spec);
            write_out("summary.json", &doc);
            exit(ok)
        }
        Some("repeat") => {
            let (args, _) = parse_flags(argv.skip(1), false);
            exit(run_repeat(&args, &spec))
        }
        Some("run") => {
            argv.next();
            let Some(name) = argv.next() else { usage() };
            let (args, _) = parse_flags(argv, false);
            exit(run_one(&name, &args, &spec) == Some(true))
        }
        Some(flag) if flag.starts_with("--") => {
            let (args, workload) = parse_flags(argv, true);
            let Some(name) = workload else { usage() };
            // The driver reads `correct` from the result line; a non-zero
            // exit means no result could be printed at all.
            exit(run_one(&name, &args, &spec).is_some())
        }
        _ => usage(),
    }
}
