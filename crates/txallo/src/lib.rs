//! Reimplementation of **TxAllo** (Zhang, Pan, Yu — ICDE 2023), the
//! state-of-the-art miner-driven allocation baseline the Mosaic paper
//! compares against.
//!
//! The original TxAllo source is not available offline, so this crate
//! reimplements the published design from its description:
//!
//! * a **throughput-driven objective** — co-locating interacting accounts
//!   saves the `2η − 1` extra workload units a cross-shard transaction
//!   costs over an intra-shard one, while overloading a shard beyond its
//!   processing capacity wastes throughput linearly ([`objective`]);
//! * **G-TxAllo** ([`GTxAllo`]) — the complete, deterministic global
//!   algorithm: starting from hash allocation, accounts are repeatedly
//!   re-assigned (in descending activity order) to the shard with the
//!   best objective delta, until a fixed point — a community-detection
//!   style optimisation on the *full* historical graph;
//! * **A-TxAllo** ([`ATxAllo`]) — the fast adaptive variant: only the
//!   accounts active in the *recent window* recompute their best shard,
//!   everything else keeps its previous allocation.
//!
//! Both are **deterministic**, as the Mosaic paper stresses miner-driven
//! methods must be (every miner must reach the same ϕ without extra
//! consensus).
//!
//! The evaluation wires both in through abstractions rather than by
//! name: [`GTxAllo`] implements
//! [`mosaic_partition::GlobalAllocator`] (and is thereby an
//! `EpochStrategy` via `mosaic-sim`'s blanket adapter), while
//! [`ATxAllo`]'s incremental update is wrapped by the sim engine's
//! `AdaptiveTxAllo` adapter.
//!
//! # Example
//!
//! ```
//! use mosaic_partition::GlobalAllocator;
//! use mosaic_txallo::GTxAllo;
//! use mosaic_txgraph::GraphBuilder;
//! use mosaic_types::AccountId;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(AccountId::new(1), AccountId::new(2), 50);
//! b.add_edge(AccountId::new(3), AccountId::new(4), 50);
//! let graph = b.build();
//! let phi = GTxAllo::default().allocate(&graph, 2);
//! assert_eq!(phi.shard_of(AccountId::new(1)), phi.shard_of(AccountId::new(2)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod adaptive;
pub mod certificate;
pub mod config;
pub mod global;
pub mod objective;
mod sweep;

pub use adaptive::{ATxAllo, WindowRefinement};
pub use certificate::improving_moves;
pub use config::TxAlloConfig;
pub use global::GTxAllo;
pub use objective::AlloObjective;
