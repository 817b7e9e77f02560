//! The Section VII experiment driver.
//!
//! ```sh
//! cargo run --release -p repose-bench --bin experiments -- list
//! cargo run --release -p repose-bench --bin experiments -- table4 --scale 0.5
//! cargo run --release -p repose-bench --bin experiments -- all --scale 0.25 --queries 3
//! ```
//!
//! Each experiment prints a paper-style table and writes machine-readable
//! JSON to `results/<name>.json`.

use repose_bench::exp;
use repose_bench::runner::ExpConfig;
use std::time::Instant;

const USAGE: &str = "usage: experiments <name|all> [--scale S] [--queries N] [--k K] \
                     [--partitions P] [--seed S] [--seeds N] [--repro FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        eprintln!("{USAGE}");
        eprintln!("experiments:");
        for e in exp::ALL {
            eprintln!("  {:<8} {}", e.name, e.what);
        }
        return;
    }
    let which = args[0].as_str();
    let cfg = ExpConfig::from_args(&args[1..]).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{USAGE}");
        std::process::exit(2);
    });
    std::fs::create_dir_all("results").expect("create results dir");
    eprintln!(
        "config: scale {}, {} queries, k = {}, {} partitions, {}x{} cluster",
        cfg.scale,
        cfg.queries,
        cfg.k,
        cfg.partitions,
        cfg.cluster.workers,
        cfg.cluster.cores_per_worker
    );
    for e in exp::ALL {
        if which != "all" && which != e.name {
            continue;
        }
        eprintln!("\n###### {} — {} ######", e.name, e.what);
        let t0 = Instant::now();
        let value = (e.run)(&cfg);
        let path = format!("results/{}.json", e.name);
        std::fs::write(&path, serde_json::to_string_pretty(&value).expect("json"))
            .expect("write results");
        eprintln!("[{}] finished in {:.1?}, wrote {path}", e.name, t0.elapsed());
    }
}
