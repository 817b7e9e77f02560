//! One module per table/figure of Section VII, plus the `sim` soak. Every
//! `run` prints a paper-style table and returns the JSON record the
//! `experiments` binary writes to `results/<name>.json`.

pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod sim;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;

use crate::runner::ExpConfig;
use serde_json::Value;

/// An experiment's name + runner, for the binary's dispatch table.
pub struct Experiment {
    /// CLI name (e.g. "table4").
    pub name: &'static str,
    /// What it reproduces.
    pub what: &'static str,
    /// Runner.
    pub run: fn(&ExpConfig) -> Value,
}

/// All experiments in paper order.
pub const ALL: &[Experiment] = &[
    Experiment { name: "table4", what: "Performance overview (QT/IS/IT)", run: table4::run },
    Experiment { name: "fig6", what: "Query time when varying k", run: fig6::run },
    Experiment { name: "table5", what: "Query time vs grid side delta", run: table5::run },
    Experiment { name: "table6", what: "Query time vs pivot count Np", run: table6::run },
    Experiment { name: "fig7", what: "Optimized-trie improvement", run: fig7::run },
    Experiment { name: "fig8", what: "Effect of dataset cardinality", run: fig8::run },
    Experiment { name: "fig9", what: "Effect of the number of partitions", run: fig9::run },
    Experiment { name: "table7", what: "Effect of partitioning strategy", run: table7::run },
    Experiment { name: "table8", what: "Heterogeneous partitioning in DITA", run: table8::run },
    Experiment { name: "table9", what: "Heterogeneous partitioning in DFT", run: table9::run },
    Experiment {
        name: "sim",
        what: "Deterministic simulation soak: seeded chaos schedules vs the shadow oracle",
        run: sim::run,
    },
];
