//! The simulated world as data: one [`Scenario`] is the *complete* input
//! of a simulation run — topology, initial dataset, and a single ordered
//! op stream that interleaves workload (upserts, deletes, queries,
//! compactions, restarts) with chaos (fault armings and virtual-time
//! jumps).
//!
//! Keeping the fault schedule *inline* in the op list (rather than as a
//! separate plan) is what makes shrinking trivial: a failing run minimizes
//! by plain subsequence selection over one list, and the shrunk repro
//! serializes to a small JSON file a human can read and re-run.
//!
//! Scenarios are generated from a seed ([`Scenario::generate`]) — the
//! same seed always yields the same scenario — or loaded from a repro
//! file ([`Scenario::from_json`]). Coordinates travel through JSON as
//! IEEE-754 bit patterns so a repro replays *bitwise* identically.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use repose_distance::Measure;
use repose_model::Point;
use serde_json::{Map, Number, Value};

/// Which stack a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// One durable [`repose_service::ReposeService`] (WAL + archives) with
    /// `wal.*` / `arc.*` fail points and crash-restart ops.
    SingleNode,
    /// A [`repose_shard::ShardCluster`] topology over the simulated
    /// network with net faults (drop/delay/dup/reorder/partition/crash).
    Sharded,
}

/// One step of the simulated workload-plus-chaos schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOp {
    /// Insert or replace trajectory `id`.
    Upsert {
        /// Trajectory id (ids collide deliberately: upsert-over-upsert and
        /// delete-then-upsert orders are part of the search space).
        id: u64,
        /// Sample points.
        points: Vec<Point>,
    },
    /// Delete trajectory `id` (deleting an absent id is a valid op).
    Delete {
        /// Trajectory id.
        id: u64,
    },
    /// Top-k query, answer checked against the shadow oracle.
    Query {
        /// Result size.
        k: usize,
        /// Query polyline.
        points: Vec<Point>,
    },
    /// Fold the delta into rebuilt tries (single-node; no-op sharded).
    Compact,
    /// Crash the process and recover from disk (single-node; no-op
    /// sharded — sharded crashes come from `crash` net faults).
    Restart,
    /// Jump virtual time forward — lets heartbeat timeouts, promotions
    /// and retries fire between ops (sharded; single-node only logs it,
    /// since nothing in one service reads time).
    AdvanceTime {
        /// Microseconds of virtual time to add.
        micros: u64,
    },
    /// Arm one fault at one site of the unified registry: `wal.*` /
    /// `arc.*` durability fail points (single-node) or
    /// `coord|shard<N>|replica<N>[.tx|.rx]` net sites (sharded). Sites
    /// from the wrong mode are skipped with a logged event, so a repro
    /// file edited by hand can never panic the driver.
    ArmFault {
        /// Fail-point or net-fault site name.
        site: String,
        /// Action spec (`io`/`short`/`crash` or
        /// `drop`/`dup`/`reorder`/`partition`/`crash`/`delay<ms>`).
        action: String,
        /// Hits to let pass before firing (exactly-once after that).
        after: u32,
    },
}

/// A complete simulation input; a pure function of its seed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed this scenario was generated from (0 for loaded repros
    /// unless the file says otherwise).
    pub seed: u64,
    /// Which stack to drive.
    pub mode: SimMode,
    /// Distance measure of the deployment (all six are exercised).
    pub measure: Measure,
    /// Shard count (sharded mode).
    pub shards: usize,
    /// Whether every shard gets a follower replica (sharded mode).
    pub replicate: bool,
    /// Trajectories the deployment is built over.
    pub initial: Vec<(u64, Vec<Point>)>,
    /// The interleaved workload + chaos schedule.
    pub ops: Vec<SimOp>,
}

/// Ids are drawn from a small universe so writes collide: re-upserts,
/// delete-then-reinsert and cross-shard routing all happen by chance.
const ID_SPACE: u64 = 24;

/// All durability fail-point sites, with the actions that make sense at
/// each (every action is valid at every site).
fn durability_sites() -> Vec<(String, Vec<String>)> {
    repose_durability::POINTS
        .iter()
        .map(|p| {
            (
                p.to_string(),
                vec!["io".to_string(), "short".to_string(), "crash".to_string()],
            )
        })
        .collect()
}

/// All net-fault sites of a `shards`/`replicate` topology. Coordinator
/// links only get link-level faults (drop/dup/reorder/delay): crashing or
/// partitioning the coordinator makes every answer trivially degraded,
/// which tests nothing the per-shard variants don't.
fn net_sites(shards: usize, replicate: bool) -> Vec<(String, Vec<String>)> {
    let link = ["drop", "dup", "reorder", "delay3"];
    let node = ["drop", "dup", "reorder", "delay3", "partition", "crash"];
    let mut sites = Vec::new();
    for suffix in [".tx", ".rx"] {
        sites.push((
            format!("coord{suffix}"),
            link.iter().map(|s| s.to_string()).collect(),
        ));
    }
    let mut node_labels = Vec::new();
    for i in 0..shards {
        node_labels.push(format!("shard{i}"));
        if replicate {
            node_labels.push(format!("replica{i}"));
        }
    }
    for label in node_labels {
        for suffix in ["", ".tx", ".rx"] {
            sites.push((
                format!("{label}{suffix}"),
                node.iter().map(|s| s.to_string()).collect(),
            ));
        }
    }
    sites
}

fn gen_points(rng: &mut StdRng) -> Vec<Point> {
    let n = rng.random_range(2usize..8);
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..32.0), rng.random_range(0.0..32.0)))
        .collect()
}

impl Scenario {
    /// The scenario for `seed` — topology, dataset, and the interleaved
    /// workload/chaos schedule, all drawn from one [`StdRng`].
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let mode = if rng.random_range(0u32..2) == 0 {
            SimMode::SingleNode
        } else {
            SimMode::Sharded
        };
        let measure = Measure::ALL[rng.random_range(0usize..Measure::ALL.len())];
        let shards = rng.random_range(1usize..4);
        let replicate = rng.random_range(0u32..2) == 0;

        let n_initial = rng.random_range(8u64..20);
        let initial: Vec<(u64, Vec<Point>)> =
            (0..n_initial).map(|id| (id, gen_points(&mut rng))).collect();

        let sites = match mode {
            SimMode::SingleNode => durability_sites(),
            SimMode::Sharded => net_sites(shards, replicate),
        };

        let n_ops = rng.random_range(24usize..56);
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let roll = rng.random_range(0u32..100);
            let op = match roll {
                0..=29 => SimOp::Upsert {
                    id: rng.random_range(0..ID_SPACE),
                    points: gen_points(&mut rng),
                },
                30..=41 => SimOp::Delete { id: rng.random_range(0..ID_SPACE) },
                42..=71 => SimOp::Query {
                    k: rng.random_range(1usize..8),
                    points: gen_points(&mut rng),
                },
                72..=77 if mode == SimMode::SingleNode => SimOp::Compact,
                78..=85 => {
                    let (site, actions) = &sites[rng.random_range(0usize..sites.len())];
                    SimOp::ArmFault {
                        site: site.clone(),
                        action: actions[rng.random_range(0usize..actions.len())].clone(),
                        after: rng.random_range(0u32..3),
                    }
                }
                94..=99 if mode == SimMode::SingleNode => SimOp::Restart,
                _ => SimOp::AdvanceTime { micros: rng.random_range(500u64..400_000) },
            };
            ops.push(op);
        }

        Scenario { seed, mode, measure, shards, replicate, initial, ops }
    }

    /// Serializes the scenario as a pretty-printed repro file. Coordinates
    /// are written as `f64::to_bits` integers: the replay is bitwise.
    pub fn to_json(&self) -> String {
        let mut root = Map::new();
        root.insert("seed".into(), Value::Number(Number::U(self.seed)));
        root.insert(
            "mode".into(),
            Value::String(
                match self.mode {
                    SimMode::SingleNode => "single",
                    SimMode::Sharded => "sharded",
                }
                .into(),
            ),
        );
        root.insert("measure".into(), Value::String(self.measure.name().into()));
        root.insert("shards".into(), Value::Number(Number::U(self.shards as u64)));
        root.insert("replicate".into(), Value::Bool(self.replicate));
        root.insert(
            "initial".into(),
            Value::Array(
                self.initial
                    .iter()
                    .map(|(id, pts)| {
                        Value::Array(vec![
                            Value::Number(Number::U(*id)),
                            points_to_value(pts),
                        ])
                    })
                    .collect(),
            ),
        );
        root.insert(
            "ops".into(),
            Value::Array(self.ops.iter().map(op_to_value).collect()),
        );
        serde_json::to_string_pretty(&Value::Object(root)).expect("value trees always serialize")
    }

    /// Parses a repro file written by [`Scenario::to_json`] (or by hand).
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let seed = get_u64(&root, "seed")?;
        let mode = match get_str(&root, "mode")? {
            "single" => SimMode::SingleNode,
            "sharded" => SimMode::Sharded,
            other => return Err(format!("unknown mode `{other}`")),
        };
        let measure: Measure = get_str(&root, "measure")?
            .parse()
            .map_err(|e: String| e)?;
        let shards = get_u64(&root, "shards")? as usize;
        if shards == 0 {
            return Err("shards must be >= 1".into());
        }
        let replicate = root
            .get("replicate")
            .and_then(Value::as_bool)
            .ok_or("missing bool `replicate`")?;
        let mut initial = Vec::new();
        for entry in get_array(&root, "initial")? {
            let pair = entry.as_array().ok_or("initial entries are [id, points]")?;
            if pair.len() != 2 {
                return Err("initial entries are [id, points]".into());
            }
            let id = pair[0].as_u64().ok_or("trajectory id must be u64")?;
            initial.push((id, points_from_value(&pair[1])?));
        }
        let mut ops = Vec::new();
        for entry in get_array(&root, "ops")? {
            ops.push(op_from_value(entry)?);
        }
        Ok(Scenario { seed, mode, measure, shards, replicate, initial, ops })
    }
}

fn points_to_value(pts: &[Point]) -> Value {
    Value::Array(
        pts.iter()
            .map(|p| {
                Value::Array(vec![
                    Value::Number(Number::U(p.x.to_bits())),
                    Value::Number(Number::U(p.y.to_bits())),
                ])
            })
            .collect(),
    )
}

fn points_from_value(v: &Value) -> Result<Vec<Point>, String> {
    let arr = v.as_array().ok_or("points must be an array")?;
    let mut pts = Vec::with_capacity(arr.len());
    for p in arr {
        let xy = p.as_array().ok_or("a point is [xbits, ybits]")?;
        if xy.len() != 2 {
            return Err("a point is [xbits, ybits]".into());
        }
        let x = xy[0].as_u64().ok_or("coordinate bits must be u64")?;
        let y = xy[1].as_u64().ok_or("coordinate bits must be u64")?;
        pts.push(Point::new(f64::from_bits(x), f64::from_bits(y)));
    }
    Ok(pts)
}

fn op_to_value(op: &SimOp) -> Value {
    let mut m = Map::new();
    match op {
        SimOp::Upsert { id, points } => {
            m.insert("op".into(), Value::String("upsert".into()));
            m.insert("id".into(), Value::Number(Number::U(*id)));
            m.insert("points".into(), points_to_value(points));
        }
        SimOp::Delete { id } => {
            m.insert("op".into(), Value::String("delete".into()));
            m.insert("id".into(), Value::Number(Number::U(*id)));
        }
        SimOp::Query { k, points } => {
            m.insert("op".into(), Value::String("query".into()));
            m.insert("k".into(), Value::Number(Number::U(*k as u64)));
            m.insert("points".into(), points_to_value(points));
        }
        SimOp::Compact => {
            m.insert("op".into(), Value::String("compact".into()));
        }
        SimOp::Restart => {
            m.insert("op".into(), Value::String("restart".into()));
        }
        SimOp::AdvanceTime { micros } => {
            m.insert("op".into(), Value::String("advance".into()));
            m.insert("micros".into(), Value::Number(Number::U(*micros)));
        }
        SimOp::ArmFault { site, action, after } => {
            m.insert("op".into(), Value::String("fault".into()));
            m.insert("site".into(), Value::String(site.clone()));
            m.insert("action".into(), Value::String(action.clone()));
            m.insert("after".into(), Value::Number(Number::U(*after as u64)));
        }
    }
    Value::Object(m)
}

fn op_from_value(v: &Value) -> Result<SimOp, String> {
    Ok(match get_str(v, "op")? {
        "upsert" => SimOp::Upsert {
            id: get_u64(v, "id")?,
            points: points_from_value(v.get("points").ok_or("upsert needs points")?)?,
        },
        "delete" => SimOp::Delete { id: get_u64(v, "id")? },
        "query" => SimOp::Query {
            k: get_u64(v, "k")? as usize,
            points: points_from_value(v.get("points").ok_or("query needs points")?)?,
        },
        "compact" => SimOp::Compact,
        "restart" => SimOp::Restart,
        "advance" => SimOp::AdvanceTime { micros: get_u64(v, "micros")? },
        "fault" => SimOp::ArmFault {
            site: get_str(v, "site")?.to_string(),
            action: get_str(v, "action")?.to_string(),
            after: get_u64(v, "after")? as u32,
        },
        other => return Err(format!("unknown op `{other}`")),
    })
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing u64 `{key}`"))
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn get_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        let a = Scenario::generate(7);
        let b = Scenario::generate(7);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.measure, b.measure);
    }

    #[test]
    fn different_seeds_diverge() {
        // Not a tautology: a buggy generator that ignores its rng would
        // pass same_seed_same_scenario and fail here.
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        assert!(a.ops != b.ops || a.initial != b.initial);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        for seed in [0, 1, 42, 0xDEAD] {
            let sc = Scenario::generate(seed);
            let text = sc.to_json();
            let back = Scenario::from_json(&text).unwrap();
            assert_eq!(back.seed, sc.seed);
            assert_eq!(back.mode, sc.mode);
            assert_eq!(back.measure, sc.measure);
            assert_eq!(back.shards, sc.shards);
            assert_eq!(back.replicate, sc.replicate);
            assert_eq!(back.initial, sc.initial);
            assert_eq!(back.ops, sc.ops);
        }
    }

    #[test]
    fn coordinate_bits_survive_nonfinite_and_negative() {
        let sc = Scenario {
            seed: 0,
            mode: SimMode::SingleNode,
            measure: Measure::Hausdorff,
            shards: 1,
            replicate: false,
            initial: vec![(3, vec![Point::new(-1.5, f64::NAN)])],
            ops: vec![],
        };
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        let p = &back.initial[0].1[0];
        assert_eq!(p.x.to_bits(), (-1.5f64).to_bits());
        assert_eq!(p.y.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn generated_fault_sites_parse_in_their_registries() {
        use repose_durability::spec::FaultAction;
        use repose_durability::FailAction;
        use repose_shard::NetFault;
        for seed in 0..40u64 {
            let sc = Scenario::generate(seed);
            for op in &sc.ops {
                if let SimOp::ArmFault { site, action, .. } = op {
                    let ok = match sc.mode {
                        SimMode::SingleNode => {
                            FailAction::valid_site(site) && action.parse::<FailAction>().is_ok()
                        }
                        SimMode::Sharded => {
                            NetFault::valid_site(site) && action.parse::<NetFault>().is_ok()
                        }
                    };
                    assert!(ok, "seed {seed}: `{site}={action}` is no {:?} fault", sc.mode);
                }
            }
        }
    }
}
