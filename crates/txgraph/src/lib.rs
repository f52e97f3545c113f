//! Account-interaction graphs for the Mosaic reproduction.
//!
//! The miner-driven baselines (Metis-style partitioning, TxAllo) operate on
//! the *historical transaction graph*: an undirected weighted graph whose
//! vertices are accounts and whose edge weights count the transactions
//! between a pair of accounts. Vertex weights count transaction endpoints
//! (an account's share of total processing workload).
//!
//! The crate provides:
//!
//! * [`GraphBuilder`] — accumulates transactions (or raw weighted edges)
//!   into an adjacency map;
//! * [`TxGraph`] — a compressed-sparse-row (CSR) snapshot with
//!   deterministic neighbour ordering, the format consumed by the
//!   partitioners;
//! * the **delta path** — [`GraphBuilder::drain_delta`] drains a window
//!   of updates as a sorted [`GraphDelta`] and [`TxGraph::merge_delta`]
//!   sort-merges it into the existing CSR buffers in place, so
//!   maintaining a growing history costs per-epoch work proportional to
//!   the delta instead of a full rebuild (the full
//!   [`GraphBuilder::build`] path remains as the reference oracle);
//! * [`GrowingGraph`] — the one owner of a CSR plus its pending delta:
//!   it merges on a geometric schedule (when the pending edges reach an
//!   eighth of the CSR's) or when a reader asks for the whole graph, so
//!   a stream of small batches costs O(log E) merges, not one per batch;
//! * [`analysis`] — edge-cut, balance, and modularity measures over a
//!   partition vector.
//!
//! # Example
//!
//! ```
//! use mosaic_txgraph::GraphBuilder;
//! use mosaic_types::{AccountId, BlockHeight, Transaction, TxId};
//!
//! let mut builder = GraphBuilder::new();
//! builder.add_transaction(&Transaction::new(
//!     TxId::new(0),
//!     AccountId::new(1),
//!     AccountId::new(2),
//!     BlockHeight::new(0),
//! ));
//! let graph = builder.build();
//! assert_eq!(graph.node_count(), 2);
//! assert_eq!(graph.edge_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod builder;
pub mod csr;
pub mod growing;

pub use builder::{GraphBuilder, GraphDelta};
pub use csr::{CsrParts, NodeId, TxGraph};
pub use growing::GrowingGraph;
