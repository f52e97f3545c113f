//! End-to-end experiment runner reproducing the Mosaic paper's
//! evaluation (§V).
//!
//! One path runs every experiment cell, offline or live:
//!
//! ```text
//! Scenario → Simulation → engine::run_cell → AllocationCore ← NodeSession
//! ```
//!
//! * [`scenario`] — the declarative experiment spec: a [`Scenario`]
//!   names a trace source, a parameter grid ([`GridAxis`] over
//!   `k`/`η`/`τ`/`β`/`λ`/capacity), the strategy set, grid parallelism
//!   and observers, and round-trips through a text format. The
//!   experiment presets are the checked-in `scenarios/*.scenario` files
//!   (`quick` for tests, `default` for commodity hardware, `full` for
//!   the paper's 200-epoch protocol, `effectiveness-*`, `beta-sweep-*`
//!   and `ablation-*` for the `mosaic-bench` reports);
//! * [`session`] — [`Simulation`], the runnable form of a scenario: it
//!   expands the grid into cells, shares one trace across them, maps
//!   the cells over [`Parallelism`] lanes in input order and fans every
//!   epoch row to the observer stack;
//! * [`engine`] — [`engine::run_cell`], the offline driver that reads a
//!   window stream into the core, and the [`EpochStrategy`] trait every
//!   allocation mechanism implements;
//! * [`alloc_core`] — [`AllocationCore`], the §V-A protocol as an
//!   event-driven state machine: training cut, τ-block epochs, strategy
//!   decision, commit ≤ λ, metric row, and an always-queryable
//!   `shard_of` map. `mosaic-node` sessions feed the same core from a
//!   socket;
//! * [`Strategy`] — the five allocation strategies under test: Mosaic
//!   (client-driven Pilot), G-TxAllo, A-TxAllo, Metis, and hash-based
//!   Random — plus the registry ([`Strategy::build`]) resolving each to
//!   its [`EpochStrategy`] implementation;
//! * [`runner`] — [`ExperimentConfig`] and [`ExperimentResult`], one
//!   cell and its measured outcome;
//! * [`experiments`] — one function per paper table/figure (Tables I–VI,
//!   Figure 1), each returning a [`mosaic_metrics::TextTable`] shaped
//!   like the original.
//!
//! # Responsibility boundaries
//!
//! In scope: turning a block-ordered transaction sequence into training
//! chunks and τ-block epochs (in [`AllocationCore`] and nowhere else),
//! driving strategies and the ledger through the epoch protocol,
//! expanding scenarios into cells, and reporting per-epoch rows and
//! per-cell summaries.
//!
//! Out of scope: producing transactions (`mosaic-workload`), the
//! allocation algorithms (`mosaic-partition`, `mosaic-txallo`,
//! `mosaic-core`), chain state and the migration commit rules
//! (`mosaic-chain`), metric definitions and CSV encoding
//! (`mosaic-metrics`), and sockets, codecs and per-connection sessions
//! (`mosaic-node`). One thread drives a cell; only whole cells and
//! Pilot's scoring pass (`MosaicFramework::propose`) run in parallel,
//! and neither changes an output byte.
//!
//! # Example
//!
//! ```no_run
//! use mosaic_sim::{experiments, Scenario, Simulation};
//!
//! // The paper's Tables I–IV grid as data: materialise the trace once,
//! // run every cell, render Table I.
//! let scenario = Scenario::load("scenarios/effectiveness-quick.scenario").unwrap();
//! let report = Simulation::from_scenario(scenario).unwrap().run().unwrap();
//! println!("{}", experiments::table1(&report.cells));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod alloc_core;
pub mod engine;
pub mod experiments;
mod parallel;
pub mod radar;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod strategy;

pub use alloc_core::{AllocationCore, LoadReport, ShardLoad};
pub use engine::{EpochCtx, EpochDecision, EpochStrategy, MigrationCount, MosaicStrategy};
pub use parallel::Parallelism;
pub use runner::{ExperimentConfig, ExperimentResult};
pub use scenario::{Capacity, GridAxis, ObserverSpec, RunTarget, Scenario};
pub use session::{GridCell, RunObserver, Simulation, SimulationReport};
pub use strategy::Strategy;

/// The checked-in specs the unit tests run.
#[cfg(test)]
mod specs {
    use crate::Scenario;

    fn parse(text: &str) -> Scenario {
        Scenario::parse(text).expect("checked-in specs parse")
    }

    /// `scenarios/quick.scenario`: the base point, every strategy.
    pub(crate) fn quick() -> Scenario {
        parse(SCALES[0].1)
    }

    /// `scenarios/effectiveness-quick.scenario`: Tables I–IV's grid.
    pub(crate) fn effectiveness_quick() -> Scenario {
        parse(include_str!(
            "../../../scenarios/effectiveness-quick.scenario"
        ))
    }

    /// `scenarios/beta-sweep-quick.scenario`: Table V's β axis.
    pub(crate) fn beta_quick() -> Scenario {
        parse(include_str!("../../../scenarios/beta-sweep-quick.scenario"))
    }

    /// The scale ladder, smallest first: `scenarios/quick.scenario`,
    /// `default.scenario` and `full.scenario`, as (file, text).
    pub(crate) const SCALES: [(&str, &str); 3] = [
        ("quick", include_str!("../../../scenarios/quick.scenario")),
        (
            "default",
            include_str!("../../../scenarios/default.scenario"),
        ),
        ("full", include_str!("../../../scenarios/full.scenario")),
    ];

    /// The experiment presets, as (file, text): the scale ladder, the
    /// per-table grids at both sizes, and the 10M-account scenario.
    pub(crate) const PRESETS: [(&str, &str); 10] = [
        SCALES[0],
        SCALES[1],
        SCALES[2],
        (
            "effectiveness-quick",
            include_str!("../../../scenarios/effectiveness-quick.scenario"),
        ),
        (
            "effectiveness-default",
            include_str!("../../../scenarios/effectiveness-default.scenario"),
        ),
        (
            "beta-sweep-quick",
            include_str!("../../../scenarios/beta-sweep-quick.scenario"),
        ),
        (
            "beta-sweep-default",
            include_str!("../../../scenarios/beta-sweep-default.scenario"),
        ),
        (
            "ablation-quick",
            include_str!("../../../scenarios/ablation-quick.scenario"),
        ),
        (
            "ablation-default",
            include_str!("../../../scenarios/ablation-default.scenario"),
        ),
        ("huge", include_str!("../../../scenarios/huge.scenario")),
    ];
}

/// The scale ladder — quick, default, full — is the three files in
/// [`specs::SCALES`]; these tests hold it to the shape every report
/// assumes.
#[cfg(test)]
mod scale {
    mod tests {
        use crate::specs::SCALES;
        use crate::Scenario;

        #[test]
        fn presets_are_internally_consistent() {
            let mut previous_txs = 0;
            for (file, text) in SCALES {
                let scenario = Scenario::parse(text).unwrap();
                let workload = scenario.workload().expect("a scale generates its trace");
                workload.validate().unwrap();
                let tau = u64::from(scenario.base.tau());
                assert!(tau > 0 && scenario.eval_epochs > 0, "{file}");
                // Every evaluated epoch fits in the tail after the training cut.
                let cut = (workload.blocks as f64 * scenario.train_fraction).floor() as u64;
                assert!(
                    workload.blocks - cut >= scenario.eval_epochs as u64 * tau,
                    "{file}: {} eval epochs of {tau} blocks overrun the tail",
                    scenario.eval_epochs
                );
                assert!(workload.total_txs() > previous_txs, "{file} is not larger");
                previous_txs = workload.total_txs();
            }
        }
    }
}
