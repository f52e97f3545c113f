//! Sharded blockchain substrate for the Mosaic reproduction (§III of the
//! paper).
//!
//! Models the ledger `L = (S₁, …, S_k, BC)`:
//!
//! * [`ShardChain`] — one chain of [`Block`]s per shard, committing the
//!   transactions ϕ routes to it;
//! * [`BeaconChain`] — the coordination chain: collects client-submitted
//!   [`mosaic_types::MigrationRequest`]s, commits at most `λ` per epoch
//!   (highest potential gain first, one per account), and serves as the
//!   consistent view of allocation for all miners;
//! * [`MinerSet`] — miners with periodic deterministic reshuffling across
//!   shards at every epoch reconfiguration (the standard single-shard-
//!   takeover defence);
//! * [`reconfig`] — the epoch reconfiguration of §III-B1: miners sync the
//!   beacon chain, update their local ϕ, and migrate account state
//!   concurrently with reshuffling (byte costs accounted by
//!   [`NetworkMeter`]);
//! * [`Ledger`] — ties everything together: an epoch-at-a-time state
//!   machine the experiment runner drives.
//!
//! # Example
//!
//! ```
//! use mosaic_chain::Ledger;
//! use mosaic_types::{AccountShardMap, SystemParams};
//!
//! # fn main() -> Result<(), mosaic_types::Error> {
//! let params = SystemParams::builder().shards(2).tau(10).build()?;
//! let mut ledger = Ledger::new(params, AccountShardMap::new(2), 8)?;
//! let outcome = ledger.process_epoch(&[]);
//! assert_eq!(outcome.load.total_txs(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod beacon;
pub mod block;
pub mod ledger;
pub mod miner;
pub mod network;
pub mod reconfig;
pub mod shard;

pub use beacon::BeaconChain;
pub use block::{Block, BlockBody};
pub use ledger::{EpochOutcome, Ledger};
pub use miner::{Miner, MinerSet};
pub use network::NetworkMeter;
pub use reconfig::ReconfigReport;
pub use shard::ShardChain;
