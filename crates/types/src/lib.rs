//! Shared domain types for the Mosaic reproduction.
//!
//! This crate defines the vocabulary used by every other crate in the
//! workspace:
//!
//! * strongly-typed identifiers ([`AccountId`], [`ShardId`], [`EpochId`],
//!   [`BlockHeight`], [`TxId`]),
//! * the [`Transaction`] record and the set of accounts it modifies,
//! * the account-shard mapping ϕ ([`AccountShardMap`], Definition 1 of the
//!   paper: uniqueness + completeness),
//! * the system parameters of §III-A2 ([`SystemParams`]: shard count `k`,
//!   cross-shard difficulty `η`, epoch length `τ`, capacity policy `λ`,
//!   future-knowledge ratio `β`),
//! * client-proposed [`MigrationRequest`]s stored on the beacon chain, and
//! * in-repo hashing ([`hash::sha256`] for the paper's `SHA256(ID) mod k`
//!   hash-based allocation baseline, [`hash::FnvHashMap`] for fast interior
//!   maps).
//!
//! # Example
//!
//! ```
//! use mosaic_types::{AccountId, AccountShardMap, ShardId, SystemParams};
//!
//! # fn main() -> Result<(), mosaic_types::Error> {
//! let params = SystemParams::builder().shards(4).eta(2.0).tau(300).build()?;
//! let mut phi = AccountShardMap::new(params.shards());
//! let alice = AccountId::new(1);
//! // Every account resolves to a shard even before an explicit assignment
//! // (completeness); explicit assignment overrides the hash rule.
//! let initial = phi.shard_of(alice);
//! phi.assign(alice, ShardId::new(2))?;
//! assert_eq!(phi.shard_of(alice), ShardId::new(2));
//! let _ = initial;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod allocation;
pub mod error;
pub mod hash;
pub mod ids;
pub mod interner;
pub mod migration;
pub mod params;
pub mod transaction;

pub use allocation::{hash_shard, AccountShardMap};
pub use error::{Error, Result};
pub use ids::{AccountId, BlockHeight, EpochId, ShardId, TxId};
pub use interner::AccountInterner;
pub use migration::MigrationRequest;
pub use params::{LambdaPolicy, SystemParams, SystemParamsBuilder};
pub use transaction::{Transaction, TxAccounts, TxKind};
