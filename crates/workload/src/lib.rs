//! Synthetic Ethereum-like transaction traces for the Mosaic reproduction.
//!
//! The paper evaluates on an Ethereum ETL dump (blocks 10,000,000 to
//! 10,600,000 — about 91 million transactions across 12 million accounts).
//! That dataset is not redistributable and far exceeds commodity-hardware
//! scale, so this crate provides a **deterministic synthetic generator**
//! that reproduces the structural properties the allocation algorithms
//! actually consume:
//!
//! * **heavy-tailed activity** — account transaction counts follow a Zipf
//!   law (a handful of exchange/contract accounts dominate traffic);
//! * **community locality** — accounts cluster into latent communities and
//!   transact preferentially within them (this is the signal graph
//!   partitioners exploit);
//! * **hub traffic** — a small set of contract-like hubs receives a large,
//!   configurable share of all transactions;
//! * **account churn** — fresh accounts keep arriving during the evaluation
//!   window (graph-based baselines cannot place them; Mosaic clients place
//!   themselves);
//! * **temporal drift** — community membership slowly shifts, so a one-shot
//!   historical partition decays.
//!
//! Real data can still be used: [`csv`] reads the `block,from,to[,kind]`
//! format that an Ethereum ETL export reduces to.
//!
//! # Example
//!
//! ```
//! use mosaic_workload::{WorkloadConfig, generate};
//!
//! let trace = generate(&WorkloadConfig::small_test(42)).into_trace();
//! assert!(trace.len() > 0);
//! let (train, eval) = trace.split_at_fraction(0.9);
//! assert!(train.len() >= eval.len());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod csv;
pub mod generator;
pub mod source;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod zipf;

pub use config::WorkloadConfig;
pub use generator::{generate, GeneratedStream, GeneratedWorkload};
pub use source::TraceSource;
pub use stats::TraceStats;
pub use stream::EpochWindowStream;
pub use trace::{EpochWindows, TransactionTrace};
pub use zipf::ZipfSampler;
