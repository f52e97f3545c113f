//! Zero-interference observability for the Mosaic reproduction.
//!
//! The stack's instrumentation layer: monotonic [`Counter`]s,
//! last-writer-wins [`Gauge`]s and fixed-bucket duration
//! [`Histogram`]s behind a [`Recorder`] handle, plus a [`Span`] API
//! for the epoch pipeline phases (train / score / commit / migrate)
//! and two exporters — a JSONL event stream and a Prometheus-style
//! text [`Snapshot`].
//!
//! The design invariant: telemetry must never perturb results. The
//! default handle is [`Recorder::disabled`], whose vended handles are
//! all inert — the hot path pays exactly one branch. When enabled,
//! updates are relaxed atomics on pre-registered cells, clocks are
//! only read inside `is_enabled` guards, and the JSONL sink is
//! best-effort (write errors are swallowed). Result CSVs are
//! byte-identical with telemetry on or off; CI enforces this.
//!
//! ```
//! use mosaic_telemetry::Recorder;
//! use std::time::Duration;
//!
//! let recorder = Recorder::enabled();
//! let txs = recorder.counter("core.txs_ingested"); // cold: cache it
//! txs.add(128); // hot: one relaxed fetch_add
//! {
//!     let _span = recorder.span("epoch.commit"); // records on drop
//! }
//! recorder.record("epoch.score", Duration::from_micros(40));
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counters[0], ("core.txs_ingested".into(), 128));
//! println!("{}", snapshot.prometheus());
//! ```
//!
//! Process-wide wiring goes through [`install_global`] / [`global`]:
//! the simulation installs an enabled recorder before its cells start,
//! and every `AllocationCore` captures the global at construction (or
//! is handed a session-scoped clone by the node).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod export;
mod recorder;
mod stats;

use std::sync::{Mutex, OnceLock};

pub use export::{json_f64, HistogramSnapshot, Snapshot};
pub use recorder::{Counter, Gauge, Histogram, Recorder, Span};
pub use stats::{DurationStats, BUCKETS, BUCKET_BOUNDS_NS};

/// The process-wide recorder, disabled until [`install_global`] runs.
static GLOBAL: OnceLock<Mutex<Recorder>> = OnceLock::new();

fn global_cell() -> &'static Mutex<Recorder> {
    GLOBAL.get_or_init(|| Mutex::new(Recorder::disabled()))
}

/// Makes `recorder` the process-wide default returned by [`global`].
/// Cores constructed afterwards pick it up automatically.
pub fn install_global(recorder: Recorder) {
    *global_cell().lock().unwrap() = recorder;
}

/// A clone of the process-wide recorder ([`Recorder::disabled`] until
/// [`install_global`] is called).
pub fn global() -> Recorder {
    global_cell().lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_defaults_to_disabled_and_install_replaces_it() {
        // Runs in one process with other tests; only assert the
        // install/propagate contract, not the initial state.
        let enabled = Recorder::enabled();
        install_global(enabled.clone());
        let got = global();
        assert!(got.is_enabled());
        got.counter("g").incr();
        assert_eq!(enabled.counter("g").value(), 1);
        install_global(Recorder::disabled());
        assert!(!global().is_enabled());
    }
}
