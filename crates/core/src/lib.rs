//! **Mosaic** — the client-driven account allocation framework — and
//! **Pilot**, its reference shard-selection algorithm (§III–IV of the
//! paper).
//!
//! In Mosaic, no miner ever runs a global allocation algorithm. Instead,
//! every client:
//!
//! 1. maintains its own tiny state: the multiset of counterparties it has
//!    transacted with ([`CounterpartySet`], a few hundred bytes), plus
//!    optionally its *expected* future counterparties;
//! 2. derives its interaction distribution `Ψ` across shards (Equation 1,
//!    [`interaction`]), fusing history with expectations by the
//!    future-knowledge ratio `β` (Equation 2, [`fusion`]);
//! 3. downloads the public workload distribution `Ω` (published by an
//!    Etherscan-like mempool analyser; the simulation computes it from
//!    the upcoming epoch's transactions);
//! 4. picks the shard maximising its Potential `P^ν_i` (Equation 4,
//!    [`potential`] — provably equivalent to minimising the full cost
//!    `u^ν_i` of Equation 3, see [`cost`]);
//! 5. if that shard differs from where it lives, submits a
//!    [`mosaic_types::MigrationRequest`] to the beacon chain.
//!
//! [`MosaicFramework`] orchestrates steps 1–5 for a population of
//! simulated clients against a [`mosaic_chain::Ledger`]. Clients are free
//! to run any policy ([`policy`]); [`Pilot`] is the reference.
//!
//! # Responsibility boundaries
//!
//! In scope: what one client knows and decides ([`Client`],
//! [`CounterpartySet`], [`fusion`], [`potential`], [`Pilot`],
//! [`policy`]), and simulating a *population* of such clients
//! ([`MosaicFramework`]). The population is stored as one interaction
//! graph (a `mosaic-txgraph` `GrowingGraph`: a CSR grown in place, plus
//! the edges and clients seen since its last fold, logged while no row
//! is read; row ν is client ν's `T^ν_h`) instead
//! of one hash map per client, but a scoring step for ν reads
//! only row ν, the public ϕ and the public `Ω` — the paper's information
//! boundary — and Table IV's input size is still
//! `16 + 12·deg(ν) + 12·|T^ν_e| + 8k` bytes per decision. [`Client`]
//! stays the wallet-side reference the population path is
//! property-tested against.
//!
//! Out of scope: chain state, the beacon's commit rule and
//! reconfiguration (`mosaic-chain`), the miner-driven allocators the
//! paper compares against (`mosaic-partition`, `mosaic-txallo`), the
//! epoch protocol that drives the framework's hooks (`mosaic-sim`), and
//! any cross-client coordination — clients decide independently from
//! the same public snapshot (§VII-C leaves coordination as future work).
//!
//! # Example
//!
//! ```
//! use mosaic_core::{Pilot, PilotInput};
//! use mosaic_types::ShardId;
//!
//! // A client with interactions [8, 1, 1] across 3 shards and a
//! // balanced workload picks the shard it talks to most.
//! let decision = Pilot::new(2.0).decide(&PilotInput {
//!     psi: &[8.0, 1.0, 1.0],
//!     omega: &[10.0, 10.0, 10.0],
//!     current: ShardId::new(1),
//! });
//! assert_eq!(decision.target, ShardId::new(0));
//! assert!(decision.gain > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod cost;
pub mod framework;
pub mod fusion;
pub mod interaction;
pub mod pilot;
pub mod policy;
pub mod potential;

pub use client::Client;
pub use framework::{FrameworkReport, MosaicFramework};
pub use interaction::CounterpartySet;
pub use pilot::{Pilot, PilotDecision, PilotInput};
pub use policy::{ClientPolicy, PolicyContext};
