//! **mosaic-node** — the live form of the allocation pipeline.
//!
//! The batch simulator and this service are two drivers over the same
//! incremental [`AllocationCore`](mosaic_sim::AllocationCore): the
//! simulator feeds it materialised epoch windows, the node feeds it a
//! transaction stream arriving over TCP and lets the core detect
//! τ-block epoch boundaries itself. Because both paths fold training
//! data and process epochs through the same state machine, a replayed
//! scenario produces **byte-identical** per-epoch CSV to the offline
//! run — asserted by this crate's tests and the `node-smoke` CI job.
//!
//! The protocol is typed ([`Request`] / [`Response`]) and travels over
//! either of two interchangeable codecs ([`Wire`]): the original
//! `nc`-friendly line form, byte-compatible with earlier releases, or
//! length-prefixed binary frames with batched `TX` blocks and a
//! version-negotiating hello. The server is multi-session: every
//! connection negotiates its codec from its first bytes and gets a
//! private session, run on the connection's own handler thread, so N
//! clients replay N scenarios concurrently in full isolation.
//!
//! * [`proto`] — the typed protocol core and its line rendering:
//!   `BEGIN`/`TX`/`END` streaming, `LOOKUP` (shard-of-account), `LOAD`
//!   (per-shard load + migration protocol state), `CSV` (per-epoch
//!   rows), `STATS` (telemetry snapshot), `SHUTDOWN`;
//! * [`wire`] — the codec layer ([`Wire::Line`] / [`Wire::Binary`]) and
//!   the version hello;
//! * [`session`] — [`NodeSession`], the protocol-facing state machine
//!   over one core;
//! * [`stats`] — [`ServerStats`], the per-session telemetry recorders
//!   and the server-wide aggregate behind `STATS`;
//! * [`server`] — [`serve`]: one thread per connection, which decodes,
//!   applies to its own session and replies;
//! * [`client`] — [`MosaicClient`], the typed, codec-generic client
//!   library;
//! * [`replay`] — the replay driver ([`replay()`](replay::replay) /
//!   [`replay_sessions`](replay::replay_sessions)): drives any
//!   checked-in `.scenario` file through a live node and collects the
//!   node-side CSV.
//!
//! The `mosaic-node` binary exposes both sides:
//!
//! ```text
//! mosaic-node serve  --scenario scenarios/quick.scenario --addr 127.0.0.1:4600
//! mosaic-node replay --scenario scenarios/quick.scenario --addr 127.0.0.1:4600 \
//!                    --wire binary --sessions 4 --out node-results
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod proto;
pub mod replay;
pub mod server;
pub mod session;
pub mod stats;
pub mod wire;

pub use client::MosaicClient;
pub use proto::{Request, Response};
pub use replay::{offline_baseline_seconds, CellReplay, ReplayReport};
pub use server::{serve, serve_with_telemetry};
pub use session::NodeSession;
pub use stats::ServerStats;
pub use wire::{Incoming, Wire};

/// `scenarios/quick.scenario`, the spec the unit tests serve.
#[cfg(test)]
fn quick() -> mosaic_sim::Scenario {
    mosaic_sim::Scenario::parse(include_str!("../../../scenarios/quick.scenario")).unwrap()
}
