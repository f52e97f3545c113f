//! Evaluation metrics for the Mosaic reproduction (§V-A of the paper).
//!
//! Three effectiveness metrics:
//!
//! * **Cross-shard transaction ratio** — cross-shard transactions over all
//!   transactions (lower is better);
//! * **Workload deviation** — `(Σ(ω_i − ω̄)² / (k·ω̄))^0.5` over per-shard
//!   workloads `ω_i = |T_I_i| + η·|T_C_i|` (lower is better);
//! * **System throughput** — transactions processed per epoch under the
//!   per-shard capacity `λ`, normalised as `Λ/λ` so that a non-sharded
//!   chain scores 1 (higher is better).
//!
//! Two efficiency metrics:
//!
//! * **Execution time** — measured with [`timing::time_it`];
//! * **Input data size** — bytes of input an allocation algorithm consumes
//!   ([`data_size`]).
//!
//! [`EpochLoad`] computes all effectiveness metrics in one sequential
//! pass over an epoch's transactions given an allocation.
//! [`report::EpochCsvWriter`] streams per-epoch rows to disk so
//! arbitrarily long protocols run in bounded memory.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod data_size;
pub mod load;
pub mod report;
pub mod timing;

pub use load::{EpochLoad, LoadParams};
pub use report::{Aggregate, AggregateBuilder, EpochCsvWriter, EpochMetrics, TextTable};
