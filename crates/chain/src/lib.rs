//! Sharded blockchain substrate for the Mosaic reproduction (§III of the
//! paper).
//!
//! Models the ledger `L = (S₁, …, S_k, BC)` by what the protocol and
//! every metric read from it — ϕ, each epoch's per-shard loads and the
//! beacon's commitments — not by blocks:
//!
//! * [`BeaconChain`] — the coordination chain: collects client-submitted
//!   [`mosaic_types::MigrationRequest`]s, commits at most `λ` per epoch
//!   (highest potential gain first, one per account), and counts what it
//!   committed;
//! * [`Ledger`] — ties everything together: an epoch-at-a-time state
//!   machine the experiment runner drives. At each epoch boundary it
//!   applies the committed migrations to ϕ (§III-B1's reconfiguration)
//!   before the epoch's transactions are classified per shard, and one
//!   [`Ledger::check_invariants`] covers ϕ and the beacon's round count.
//!
//! Nothing grows with the number of epochs: the ledger holds
//! O(accounts + pending pool).
//!
//! The ledger meters no bytes: the one byte-cost model, which Table VI
//! and Figure 1 read, is `mosaic_metrics::data_size`.
//!
//! # Example
//!
//! ```
//! use mosaic_chain::Ledger;
//! use mosaic_types::{AccountShardMap, SystemParams};
//!
//! # fn main() -> Result<(), mosaic_types::Error> {
//! let params = SystemParams::builder().shards(2).tau(10).build()?;
//! let mut ledger = Ledger::new(params, AccountShardMap::new(2))?;
//! let outcome = ledger.process_epoch(&[]);
//! assert_eq!(outcome.load.total_txs(), 0);
//! ledger.check_invariants()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod beacon;
pub mod ledger;

pub use beacon::BeaconChain;
pub use ledger::{EpochOutcome, Ledger};
