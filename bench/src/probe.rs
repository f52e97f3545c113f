//! The two probes the benchmark attaches to a `Simulation`: a
//! [`Stamper`] observer that timestamps every epoch row, and a
//! [`Timed`] strategy decorator that records a span around each call
//! into the cell's allocation mechanism. Both are transparent — a
//! probed run writes the same CSV bytes as an unprobed one (unit-tested
//! below over all five strategies).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mosaic::chain::Ledger;
use mosaic::metrics::EpochMetrics;
use mosaic::sim::engine::{History, RunSummary};
use mosaic::sim::scenario::CellSpec;
use mosaic::sim::{EpochCtx, EpochDecision, EpochStrategy, RunObserver, Strategy};
use mosaic::types::{AccountShardMap, Transaction};

/// One observed epoch row.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// The epoch index within its cell (0 = the cell's first row).
    pub epoch: usize,
    /// When the row reached the observer.
    pub at: Instant,
    /// The row itself (fed to the standalone CSV-encode sweep).
    pub metrics: EpochMetrics,
}

/// Everything a [`Stamper`] saw during one pass.
#[derive(Debug, Default)]
pub struct Observed {
    /// Every epoch row of every cell, in arrival order. Cells run one
    /// after another, so a new cell starts where `epoch` drops to 0.
    pub stamps: Vec<Stamp>,
    /// One entry per finished cell: when it finished and its summary.
    pub cells: Vec<(Instant, RunSummary)>,
}

/// A `RunObserver` that stamps `Instant::now()` on every epoch row.
/// Cloning shares the log, so the caller keeps one handle and boxes the
/// other into the session.
#[derive(Debug, Clone, Default)]
pub struct Stamper(Arc<Mutex<Observed>>);

impl Stamper {
    /// Takes everything observed so far, leaving the log empty.
    pub fn take(&self) -> Observed {
        std::mem::take(&mut *self.0.lock().expect("stamper log poisoned"))
    }
}

impl RunObserver for Stamper {
    fn on_epoch(&self, _cell: &CellSpec, epoch: usize, metrics: &EpochMetrics) -> bool {
        let at = Instant::now();
        self.0
            .lock()
            .expect("stamper log poisoned")
            .stamps
            .push(Stamp {
                epoch,
                at,
                metrics: *metrics,
            });
        true
    }

    fn on_cell(&self, _cell: &CellSpec, summary: &RunSummary) {
        let at = Instant::now();
        self.0
            .lock()
            .expect("stamper log poisoned")
            .cells
            .push((at, *summary));
    }
}

/// The crate whose code a cell's strategy runs — the layer its spans
/// are booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `mosaic-core`: the client-driven Mosaic framework (Pilot).
    Core,
    /// `mosaic-txallo`: G-TxAllo and A-TxAllo.
    Txallo,
    /// `mosaic-partition`: Metis and the hash-based Random.
    Partition,
}

impl Layer {
    /// All strategy layers, in ledger order.
    pub const ALL: [Layer; 3] = [Layer::Core, Layer::Txallo, Layer::Partition];

    /// The crate that implements `strategy`.
    pub fn of(strategy: Strategy) -> Layer {
        match strategy {
            Strategy::Mosaic => Layer::Core,
            Strategy::GTxAllo | Strategy::ATxAllo => Layer::Txallo,
            Strategy::Metis | Strategy::Random => Layer::Partition,
        }
    }

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Txallo => "txallo",
            Layer::Partition => "partition",
        }
    }
}

/// Which `EpochStrategy` call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `observe_training` (one span per training chunk).
    ObserveTraining,
    /// `initial_allocation` (once per cell).
    InitialAllocation,
    /// `before_epoch` (once per evaluation epoch).
    BeforeEpoch,
    /// `after_epoch` (once per evaluation epoch).
    AfterEpoch,
}

/// One timed call into a strategy.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The crate the call ran in.
    pub layer: Layer,
    /// The call.
    pub call: Call,
    /// Its duration.
    pub took: Duration,
}

/// The in-memory span log a traced pass fills.
pub type SpanLog = Arc<Mutex<Vec<Span>>>;

/// An `EpochStrategy` decorator that times the four calls the epoch
/// protocol makes into a strategy and forwards everything unchanged.
pub struct Timed {
    inner: Box<dyn EpochStrategy>,
    layer: Layer,
    log: SpanLog,
}

impl Timed {
    /// Wraps `inner`, booking its spans to `layer` in `log`.
    pub fn new(inner: Box<dyn EpochStrategy>, layer: Layer, log: SpanLog) -> Self {
        Timed { inner, layer, log }
    }

    fn record(&self, call: Call, start: Instant) {
        let took = start.elapsed();
        self.log.lock().expect("span log poisoned").push(Span {
            layer: self.layer,
            call,
            took,
        });
    }
}

impl EpochStrategy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_client_driven(&self) -> bool {
        self.inner.is_client_driven()
    }

    fn observe_training(&mut self, chunk: &[Transaction]) {
        let start = Instant::now();
        self.inner.observe_training(chunk);
        self.record(Call::ObserveTraining, start);
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        let start = Instant::now();
        let out = self.inner.initial_allocation(history, k);
        self.record(Call::InitialAllocation, start);
        out
    }

    fn consumes_history(&self) -> bool {
        self.inner.consumes_history()
    }

    fn needs_training_graph(&self) -> bool {
        self.inner.needs_training_graph()
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        let start = Instant::now();
        let out = self.inner.before_epoch(ledger, ctx);
        self.record(Call::BeforeEpoch, start);
        out
    }

    fn after_epoch(&mut self, window: &[Transaction]) {
        let start = Instant::now();
        self.inner.after_epoch(window);
        self.record(Call::AfterEpoch, start);
    }
}
