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
//!   and observers, and round-trips through a text format so studies
//!   live as checked-in `.scenario` files;
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
//! * [`Scale`] — workload/epoch presets (`quick` for tests, `default`
//!   for commodity-hardware runs, `full` for the paper's 200-epoch
//!   protocol);
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
//! use mosaic_sim::{experiments, Scale, Scenario, Simulation};
//!
//! // The paper's Tables I–IV grid as data: materialise the trace once,
//! // run every cell, render Table I.
//! let scenario = Scenario::effectiveness(&Scale::quick());
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
pub mod scale;
pub mod scenario;
pub mod session;
pub mod strategy;

pub use alloc_core::{AllocationCore, LoadReport, ShardLoad};
pub use engine::{EpochCtx, EpochDecision, EpochStrategy, MigrationCount, MosaicStrategy};
pub use parallel::Parallelism;
pub use runner::{ExperimentConfig, ExperimentResult};
pub use scale::Scale;
pub use scenario::{Capacity, GridAxis, ObserverSpec, RunTarget, Scenario};
pub use session::{GridCell, RunObserver, Simulation, SimulationReport};
pub use strategy::Strategy;
