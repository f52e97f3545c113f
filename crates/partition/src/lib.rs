//! Miner-driven allocation baselines for the Mosaic reproduction.
//!
//! The paper compares Mosaic against two families of miner-driven account
//! allocation:
//!
//! * **Hash-based** ([`HashAllocator`]) — `SHA256(address) mod k`
//!   (Chainspace), the [`mosaic_types::hash_shard`] rule every ϕ falls
//!   back to, so its ϕ holds no explicit entry and it never reads the
//!   graph. Static, pattern-blind, perfectly balanced in expectation.
//! * **Graph-based** ([`MetisPartitioner`]) — a from-scratch multilevel
//!   k-way partitioner in the METIS family: heavy-edge-matching
//!   coarsening, greedy region-growing initial partitioning, and FM-style
//!   boundary refinement under a vertex-weight balance constraint.
//!
//! Both implement [`GlobalAllocator`], the interface of a miner-driven
//! algorithm: consume the whole historical transaction graph, emit a full
//! account-shard mapping ϕ.
//!
//! # Example
//!
//! ```
//! use mosaic_partition::{GlobalAllocator, HashAllocator, MetisPartitioner};
//! use mosaic_txgraph::GraphBuilder;
//! use mosaic_types::AccountId;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(AccountId::new(1), AccountId::new(2), 10);
//! b.add_edge(AccountId::new(3), AccountId::new(4), 10);
//! let graph = b.build();
//!
//! let phi = MetisPartitioner::default().allocate(&graph, 2);
//! // The heavy pairs end up co-located.
//! assert_eq!(phi.shard_of(AccountId::new(1)), phi.shard_of(AccountId::new(2)));
//! assert_eq!(phi.shard_of(AccountId::new(3)), phi.shard_of(AccountId::new(4)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod dense;
pub mod hash_alloc;
pub mod metis;
mod traits;

pub use dense::DenseHistogram;
pub use hash_alloc::HashAllocator;
pub use metis::{overweight_parts, MetisConfig, MetisPartitioner};
pub use traits::GlobalAllocator;
