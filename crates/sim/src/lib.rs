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
//!   the cells over [`Parallelism`] lanes in input order, fans every
//!   epoch row to the observer stack and returns one [`GridCell`] — the
//!   cell's label, [`ExperimentConfig`], rows and [`engine::RunSummary`]
//!   — per cell;
//! * [`engine`] — [`ExperimentConfig`], one cell of the protocol;
//!   [`engine::run_cell`], the offline driver that reads a window stream
//!   into the core; and the [`EpochStrategy`] trait every allocation
//!   mechanism implements;
//! * [`alloc_core`] — [`AllocationCore`], the §V-A protocol as an
//!   event-driven state machine: training cut, τ-block epochs, strategy
//!   decision, commit ≤ λ, metric row, and an always-queryable
//!   `shard_of` map. `mosaic-node` sessions feed the same core from a
//!   socket;
//! * [`Strategy`] — the five allocation strategies under test: Mosaic
//!   (client-driven Pilot), G-TxAllo, A-TxAllo, Metis, and hash-based
//!   Random — plus the registry ([`Strategy::build`]) resolving each to
//!   its [`EpochStrategy`] implementation;
//! * [`experiments`] — one function per paper table/figure (Tables I–VI,
//!   Figure 1), each returning a [`mosaic_metrics::TextTable`] shaped
//!   like the original, and the studies beyond the paper.
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
//! use mosaic_sim::experiments::{effectiveness, Effectiveness};
//! use mosaic_sim::{Scenario, Simulation};
//!
//! // The paper's Tables I–IV grid as data: materialise the trace once,
//! // run every cell, render Table I.
//! let scenario = Scenario::load("scenarios/effectiveness-quick.scenario").unwrap();
//! let cells = Simulation::from_scenario(scenario).unwrap().run().unwrap();
//! println!("{}", effectiveness(&cells, Effectiveness::CrossRatio));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod alloc_core;
pub mod engine;
pub mod experiments;
mod parallel;
mod radar;
pub mod scenario;
pub mod session;
pub mod strategy;

pub use alloc_core::{AllocationCore, LoadReport, ShardLoad};
pub use engine::{EpochCtx, EpochDecision, EpochStrategy, ExperimentConfig, MosaicStrategy};
pub use parallel::Parallelism;
pub use scenario::{Capacity, GridAxis, ObserverSpec, RunTarget, Scenario};
pub use session::{GridCell, RunObserver, Simulation};
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
        parse(include_str!("../../../scenarios/quick.scenario"))
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

    /// `scenarios/ablation-quick.scenario`: the ablations' base point.
    pub(crate) fn ablation_quick() -> Scenario {
        parse(include_str!("../../../scenarios/ablation-quick.scenario"))
    }
}
