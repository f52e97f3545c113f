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
//! * [`TxGraph`] — a compressed-sparse-row (CSR) snapshot with
//!   deterministic node and neighbour ordering, the format consumed by
//!   the partitioners; [`TxGraph::from_transactions`] builds one from a
//!   slice of transactions by sorting (A-TxAllo's window graph);
//! * [`GrowingGraph`] — the one graph that grows: until a reader asks
//!   for its rows it logs each edge as a node pair, and after that it
//!   patches a [`TxGraph`] in place per transaction and keeps new edges
//!   in per-row overflow blocks; new accounts go past the last node. A
//!   fold merges both into the CSR in place, in account order, on a
//!   geometric schedule or when a reader asks for the whole graph. The
//!   miners' history and Pilot's client population are both one;
//! * [`GraphBuilder`] — accumulates transactions (or raw weighted edges)
//!   into an adjacency map and builds a [`TxGraph`] from scratch: the
//!   reference oracle of [`GrowingGraph`] and of
//!   [`TxGraph::from_transactions`];
//! * [`analysis`] — edge-cut and balance measures over a
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

pub use builder::GraphBuilder;
pub use csr::{NodeId, TxGraph};
pub use growing::GrowingGraph;
