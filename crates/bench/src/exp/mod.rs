//! One runner per table/figure shape of Section VII, plus the `sim` soak:
//! figures or tables that differ only in a swept knob or a baseline share
//! a module. Every runner prints a paper-style table and returns the JSON
//! record the `experiments` binary writes to `results/<name>.json`.

pub mod fig6;
pub mod fig7;
pub mod heter;
pub mod scaling;
pub mod sim;
pub mod table4;
pub mod table7;
pub mod tuning;

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
    Experiment { name: "table5", what: "Query time vs grid side delta", run: tuning::table5 },
    Experiment { name: "table6", what: "Query time vs pivot count Np", run: tuning::table6 },
    Experiment { name: "fig7", what: "Optimized-trie improvement", run: fig7::run },
    Experiment { name: "fig8", what: "Effect of dataset cardinality", run: scaling::fig8 },
    Experiment { name: "fig9", what: "Effect of the number of partitions", run: scaling::fig9 },
    Experiment { name: "table7", what: "Effect of partitioning strategy", run: table7::run },
    Experiment { name: "table8", what: "Heterogeneous partitioning in DITA", run: heter::table8 },
    Experiment { name: "table9", what: "Heterogeneous partitioning in DFT", run: heter::table9 },
    Experiment {
        name: "sim",
        what: "Deterministic simulation soak: seeded chaos schedules vs the shadow oracle",
        run: sim::run,
    },
];
