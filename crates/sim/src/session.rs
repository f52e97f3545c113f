//! Simulation sessions: one scenario, many experiment cells.
//!
//! A [`Simulation`] is the runnable form of a [`Scenario`]:
//! [`Simulation::from_scenario`] validates the spec and expands its
//! grid into cells; [`Simulation::run`] maps them over the scenario's
//! `grid_parallelism` lanes and returns one [`GridCell`] per cell, in
//! cell order. A grid run's cells, [`Simulation::stream_cell`]'s and the
//! derived studies' run through one driver: it opens an
//! [`EpochWindowStream`] on the session's trace, scopes the strategy's
//! and the history graph's telemetry to the cell and fans each row
//! [`engine::run_cell`] yields to the sinks and observers its caller
//! passes.
//!
//! Source kinds differ only in where the windows come from. A resident
//! source (`generated`, `csv`) is materialised **once** and shared
//! behind an [`Arc`] — [`Simulation::with_trace`] builds further
//! sessions over the same `Arc`, which is how the derived studies of
//! [`crate::experiments`] run against one workload. A streamed source
//! (`TraceSource::Streamed*`) is never materialised: each cell re-opens
//! it, and session memory is bounded by the window size, not the trace
//! length. The output bytes are the same either way.

use std::fs;
use std::io;
use std::sync::Arc;

use mosaic_metrics::{EpochCsvWriter, EpochMetrics};
use mosaic_telemetry::{json_f64, Recorder};
use mosaic_types::{BlockHeight, Error, Result};
use mosaic_workload::csv::block_span_overflow;
use mosaic_workload::{EpochWindowStream, TransactionTrace};

use crate::engine::{self, EpochStrategy, ExperimentConfig, RunSummary};
use crate::parallel::ordered_map;
use crate::scenario::{CellSpec, ObserverSpec, Scenario};
use crate::strategy::Strategy;

/// One finished grid cell: its parameter label (the paper's row key),
/// the configuration it ran and what running it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Row label: `"k = 4"`, `"η = 5"`, …
    pub param_label: String,
    /// The cell's strategy, parameters and protocol fields.
    pub config: ExperimentConfig,
    /// Per-epoch metric rows; empty unless the scenario carries a
    /// `collect` observer.
    pub per_epoch: Vec<EpochMetrics>,
    /// Means and totals over the evaluation epochs.
    pub summary: RunSummary,
}

impl GridCell {
    /// The cell of `strategy` at the parameter point labelled `label`.
    pub fn find<'a>(cells: &'a [GridCell], label: &str, strategy: Strategy) -> Option<&'a Self> {
        cells
            .iter()
            .find(|c| c.param_label == label && c.config.strategy == strategy)
    }

    /// The distinct parameter-point labels of `cells`, in report order.
    pub fn labels(cells: &[GridCell]) -> Vec<String> {
        let mut labels = Vec::new();
        for cell in cells {
            if !labels.contains(&cell.param_label) {
                labels.push(cell.param_label.clone());
            }
        }
        labels
    }
}

/// Observes every cell a session runs — the custom layer of the
/// scenario observer stack, attached via [`Simulation::with_observer`].
///
/// Implementations must be `Sync`: cells run concurrently across the
/// grid's lanes, so callbacks for *different* cells may arrive from
/// different threads at once (rows *within* one cell always arrive in
/// epoch order).
pub trait RunObserver: Sync {
    /// Called for each evaluation epoch of each cell the moment its
    /// metric row is computed. Returning `false` aborts that cell after
    /// the current epoch (see [`engine::run_cell`]).
    fn on_epoch(&self, cell: &CellSpec, epoch: usize, metrics: &EpochMetrics) -> bool {
        let _ = (cell, epoch, metrics);
        true
    }

    /// Called once when a cell finishes (even if aborted early).
    fn on_cell(&self, cell: &CellSpec, summary: &RunSummary) {
        let _ = (cell, summary);
    }
}

impl<T: RunObserver + ?Sized> RunObserver for &T {
    fn on_epoch(&self, cell: &CellSpec, epoch: usize, metrics: &EpochMetrics) -> bool {
        (**self).on_epoch(cell, epoch, metrics)
    }
    fn on_cell(&self, cell: &CellSpec, summary: &RunSummary) {
        (**self).on_cell(cell, summary)
    }
}

/// A runnable experiment session built from a [`Scenario`].
pub struct Simulation {
    scenario: Scenario,
    /// The shared resident trace; `None` for a streamed source, which
    /// each cell re-opens from `scenario.trace`.
    trace: Option<Arc<TransactionTrace>>,
    cells: Vec<CellSpec>,
    observers: Vec<Box<dyn RunObserver>>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Simulation");
        s.field("scenario", &self.scenario.name);
        match &self.trace {
            Some(trace) => s.field("trace_txs", &trace.len()),
            None => s.field("trace", &"streamed"),
        };
        s.field("cells", &self.cells.len())
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Simulation {
    /// Validates `scenario` and, for resident sources, materialises its
    /// trace (synthetic generation or CSV load) exactly once. Streamed
    /// sources skip materialisation entirely: a 10M-account scenario
    /// costs nothing to open; the windows flow at run time.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors ([`Scenario::validate`]),
    /// [`Error::Io`] / [`Error::ParseTrace`] from trace loading, and
    /// [`Error::EmptyTrace`] if a resident source yields no
    /// transactions (streamed sources report this at run time).
    pub fn from_scenario(scenario: Scenario) -> Result<Self> {
        // Validate before materialising: a spec error must not cost a
        // multi-minute trace generation first.
        scenario.validate()?;
        if scenario.trace.is_streamed() {
            return Simulation::new(scenario, None);
        }
        let trace = Arc::new(scenario.trace.materialize()?);
        Simulation::with_trace(scenario, trace)
    }

    fn new(scenario: Scenario, trace: Option<Arc<TransactionTrace>>) -> Result<Self> {
        let cells = scenario.cells()?;
        Ok(Simulation {
            scenario,
            trace,
            cells,
            observers: Vec::new(),
        })
    }

    /// Builds a session over an already-materialised trace — the
    /// sharing entry point: any number of sessions (strategy variants,
    /// ablations, repeated grids) can hold clones of one [`Arc`] and
    /// never regenerate or copy the transactions.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors, [`Error::EmptyTrace`] on
    /// an empty trace, [`Error::ParseTrace`] if a transaction sits at
    /// block `u64::MAX` (the block span, highest block + 1, would not
    /// fit; the line is the 1-based position of the first such
    /// transaction, the message the CSV readers'), and
    /// [`Error::ParseScenario`] if the scenario declares a streamed
    /// source — sharing one resident trace across
    /// sessions contradicts a spec that promises never to materialise
    /// it, so the combination is rejected rather than silently pinning
    /// the trace in memory.
    pub fn with_trace(scenario: Scenario, trace: Arc<TransactionTrace>) -> Result<Self> {
        if scenario.trace.is_streamed() {
            return Err(Error::ParseScenario {
                line: 0,
                message: format!(
                    "scenario '{}' declares a streamed trace source; a shared \
                     materialised trace would pin the whole trace in memory. \
                     Use Simulation::from_scenario, or switch the source to \
                     its resident counterpart if sharing is intended",
                    scenario.name
                ),
            });
        }
        if trace.is_empty() {
            return Err(Error::EmptyTrace);
        }
        if trace.max_block() == Some(BlockHeight::new(u64::MAX)) {
            let first = trace
                .transactions()
                .partition_point(|tx| tx.block < BlockHeight::new(u64::MAX));
            return Err(block_span_overflow(first + 1));
        }
        Simulation::new(scenario, Some(trace))
    }

    /// Attaches a custom observer (may be called multiple times; the
    /// stack runs in attachment order).
    pub fn with_observer(mut self, observer: Box<dyn RunObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// The scenario this session runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// A clone of the shared resident trace handle (an `Arc` bump, no
    /// copy), or `None` for a streamed session.
    pub fn trace(&self) -> Option<Arc<TransactionTrace>> {
        self.trace.clone()
    }

    /// The expanded cells this session will run, in report order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Runs every cell with its registry strategy
    /// ([`Strategy::build`]) across the scenario's grid lanes and returns
    /// one [`GridCell`] per cell, in cell order.
    ///
    /// # Errors
    ///
    /// Returns the first cell failure in report order — an
    /// [`Error::Io`] from a `stream-csv` observer sink.
    pub fn run(&self) -> Result<Vec<GridCell>> {
        self.run_with_factory(|cell| cell.config.strategy.build(cell.config.params))
    }

    /// [`Simulation::run`] with a caller-supplied strategy factory, for
    /// mechanisms outside the
    /// [`Strategy`] registry (other client policies, experimental
    /// allocators). The factory is called once per cell, possibly from
    /// several threads at once; `cell.config.strategy` still labels the
    /// result.
    ///
    /// # Errors
    ///
    /// Returns the first cell failure in report order.
    pub fn run_with_factory<F>(&self, factory: F) -> Result<Vec<GridCell>>
    where
        F: Fn(&CellSpec) -> Box<dyn EpochStrategy> + Sync,
    {
        let telemetry = self.install_telemetry()?;
        let collect = self.scenario.observers.contains(&ObserverSpec::Collect);
        let single_point = self.scenario.is_single_point();
        let outcomes = ordered_map(&self.cells, self.scenario.grid_parallelism, |cell| {
            let mut sinks: Vec<Sink<'_>> = Vec::new();
            for observer in &self.scenario.observers {
                if let ObserverSpec::StreamCsv(dir) = observer {
                    // Cells race to create the directory; `create_dir_all`
                    // takes one that appears meanwhile as success.
                    fs::create_dir_all(dir).map_err(|e| io_error(dir.display(), &e))?;
                    let path = dir.join(format!("{}.csv", cell.file_stem(single_point)));
                    let name = path.display().to_string();
                    let file = fs::File::create(&path).map_err(|e| io_error(&name, &e))?;
                    sinks.push((name, Box::new(io::BufWriter::new(file))));
                }
            }
            self.drive(cell, factory(cell), sinks, collect, &self.observers)
        });
        if let Some(recorder) = telemetry {
            // Close the event stream with the final metric snapshot and
            // hand the process-wide default back to the no-op recorder.
            recorder.export_snapshot();
            recorder.flush();
            mosaic_telemetry::install_global(Recorder::disabled());
        }
        outcomes.into_iter().collect()
    }

    /// Installs the process-wide telemetry recorder for a
    /// `telemetry=jsonl:<path>` observer, if the scenario carries one.
    /// Cores capture it at construction inside [`engine::run_cell`].
    fn install_telemetry(&self) -> Result<Option<Recorder>> {
        let Some(path) = self.scenario.observers.iter().find_map(|o| match o {
            ObserverSpec::Telemetry(path) => Some(path),
            _ => None,
        }) else {
            return Ok(None);
        };
        // A bare file name's parent is the empty path, which this accepts.
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| io_error(parent.display(), &e))?;
        }
        let file = fs::File::create(path).map_err(|e| io_error(path.display(), &e))?;
        let recorder = Recorder::with_sink(Box::new(io::BufWriter::new(file)));
        mosaic_telemetry::install_global(recorder.clone());
        Ok(Some(recorder))
    }

    /// Streams one cell's per-epoch CSV rows to `out`, byte-identical
    /// to what the `stream-csv` observer writes for the same cell.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on the sink's first failure (the cell
    /// stops at the failing epoch), plus trace open/parse errors.
    pub fn stream_cell(&self, cell: &CellSpec, out: &mut dyn io::Write) -> Result<RunSummary> {
        let strategy = cell.config.strategy.build(cell.config.params);
        let sink: Sink<'_> = ("<stream sink>".to_string(), Box::new(out));
        let grid = self.drive(cell, strategy, vec![sink], false, &[])?;
        Ok(grid.summary)
    }

    /// The one way a cell runs: opens the window stream, drives
    /// [`engine::run_cell`] with telemetry scoped to the cell and
    /// fans each metric row to the CSV `sinks`, the collected rows (if
    /// `collect`), the `epoch` telemetry event and `observers`, in that
    /// order. A sink's first failure stops the cell after that epoch and
    /// is returned as an [`Error::Io`] naming the sink.
    pub(crate) fn drive(
        &self,
        cell: &CellSpec,
        mut strategy: Box<dyn EpochStrategy>,
        sinks: Vec<Sink<'_>>,
        collect: bool,
        observers: &[Box<dyn RunObserver>],
    ) -> Result<GridCell> {
        let mut stream = match &self.trace {
            Some(trace) => EpochWindowStream::resident(Arc::clone(trace)),
            None => self.scenario.trace.window_stream()?,
        };
        let mut writers = Vec::with_capacity(sinks.len());
        for (name, out) in sinks {
            let writer = EpochCsvWriter::new(out).map_err(|e| io_error(&name, &e))?;
            writers.push((name, writer));
        }
        // Scoped per cell so concurrent cells' epoch events, the
        // strategy's gauges and the graph's fold counts stay
        // distinguishable in the shared JSONL stream (disabled — one
        // branch per epoch — unless a recorder is installed).
        let recorder =
            mosaic_telemetry::global().scoped(&cell.file_stem(self.scenario.is_single_point()));
        let mut per_epoch = Vec::new();
        let mut failure = None;
        let mut on_epoch = |epoch: usize, metrics: &EpochMetrics| {
            if collect {
                per_epoch.push(*metrics);
            }
            for (name, writer) in &mut writers {
                if let Err(e) = writer.write_epoch(metrics) {
                    failure = Some(io_error(name, &e));
                    return false;
                }
            }
            recorder.emit(
                "epoch",
                &[
                    ("epoch", epoch.to_string()),
                    ("cross_ratio", json_f64(metrics.cross_ratio)),
                    ("workload_deviation", json_f64(metrics.workload_deviation)),
                    ("txs", metrics.total_txs.to_string()),
                    ("migrations", metrics.migrations.to_string()),
                ],
            );
            observers
                .iter()
                .all(|obs| obs.on_epoch(cell, epoch, metrics))
        };
        let summary = engine::run_cell(
            &cell.config,
            &mut stream,
            &mut *strategy,
            &recorder,
            &mut on_epoch,
        )?;
        if let Some(e) = failure {
            return Err(e);
        }
        for (name, writer) in writers {
            writer.finish().map_err(|e| io_error(&name, &e))?;
        }
        for obs in observers {
            obs.on_cell(cell, &summary);
        }
        Ok(GridCell {
            param_label: cell.label.clone(),
            config: cell.config,
            per_epoch,
            summary,
        })
    }
}

/// One CSV sink of a cell: the name its errors carry, and the writer.
type Sink<'a> = (String, Box<dyn io::Write + 'a>);

fn io_error(path: impl std::fmt::Display, e: &dyn std::fmt::Display) -> Error {
    Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::quick;
    use mosaic_workload::TraceSource;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick_scenario() -> Scenario {
        let quick = quick();
        Scenario::new("session-test", quick.trace, quick.eval_epochs)
            .with_base(quick.base.with_shards(4).unwrap())
            .with_strategies([Strategy::Mosaic, Strategy::Random])
    }

    /// `quick_scenario` with the source flipped to its streamed
    /// counterpart (validation forbids streamed + `collect`, so the
    /// observer becomes `stream-csv` into `dir`).
    fn streamed_quick_scenario(dir: &std::path::Path) -> Scenario {
        let mut scenario = quick_scenario();
        scenario.trace = TraceSource::StreamedGenerated(quick().workload().unwrap().clone());
        scenario.with_observers([ObserverSpec::StreamCsv(dir.to_path_buf())])
    }

    #[test]
    fn with_trace_rejects_streamed_sources() {
        let resident = Simulation::from_scenario(quick_scenario()).unwrap();
        let dir = std::env::temp_dir().join("mosaic-session-reject");
        let trace = resident.trace().unwrap();
        let err = Simulation::with_trace(streamed_quick_scenario(&dir), trace).unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("streamed trace source"), "{err}");
    }

    #[test]
    fn with_trace_rejects_a_block_span_past_u64() {
        let tx = |id: u64, block: u64| {
            mosaic_types::Transaction::new(
                mosaic_types::TxId::new(id),
                mosaic_types::AccountId::new(id),
                mosaic_types::AccountId::new(id + 1),
                BlockHeight::new(block),
            )
        };
        let trace =
            TransactionTrace::new(vec![tx(0, 3), tx(1, u64::MAX), tx(2, 7), tx(3, u64::MAX)]);
        let err = Simulation::with_trace(quick_scenario(), Arc::new(trace)).unwrap_err();
        // Sorted, the first u64::MAX block is the third transaction.
        assert_eq!(err, block_span_overflow(3));
        assert!(err.to_string().contains("must fit in 64 bits"), "{err}");
    }

    #[test]
    fn streamed_session_is_byte_identical_to_materialised() {
        let dir = std::env::temp_dir().join("mosaic-session-streamed");
        let resident = Simulation::from_scenario(quick_scenario()).unwrap();
        let streamed = Simulation::from_scenario(streamed_quick_scenario(&dir)).unwrap();
        assert!(streamed.trace().is_none());
        assert_eq!(resident.cells().len(), streamed.cells().len());
        // Cell-by-cell: the streamed session's CSV stream matches the
        // resident session's exactly.
        for (r, s) in resident.cells().iter().zip(streamed.cells()) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let ra = resident.stream_cell(r, &mut a).unwrap();
            let rb = streamed.stream_cell(s, &mut b).unwrap();
            assert_eq!(a, b, "{}", r.label);
            assert_eq!(ra.aggregate, rb.aggregate, "{}", r.label);
        }
        // And a full run: each stream-csv file the streamed session
        // writes holds those same bytes.
        let report = streamed.run().unwrap();
        assert_eq!(report.len(), resident.cells().len());
        for (cell, grid) in streamed.cells().iter().zip(&report) {
            // No collect observer → nothing accumulated in memory.
            assert!(grid.per_epoch.is_empty());
            let path = dir.join(format!(
                "{}.csv",
                cell.file_stem(streamed.scenario().is_single_point())
            ));
            let mut expected = Vec::new();
            streamed.stream_cell(cell, &mut expected).unwrap();
            assert_eq!(fs::read(&path).unwrap(), expected, "{}", path.display());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sessions_share_one_trace_allocation() {
        let a = Simulation::from_scenario(quick_scenario()).unwrap();
        let b = Simulation::with_trace(quick_scenario(), a.trace().unwrap()).unwrap();
        assert!(Arc::ptr_eq(&a.trace().unwrap(), &b.trace().unwrap()));
        // And grid cells borrow it too: running both sessions never
        // regenerates (pointer equality is the whole test — generation
        // is deterministic so values could never differ).
        assert_eq!(a.run().unwrap().len(), 2);
        assert_eq!(b.run().unwrap().len(), 2);
    }

    #[test]
    fn report_lookup_finds_cells_by_label_and_strategy() {
        let cells = Simulation::from_scenario(quick_scenario())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(GridCell::labels(&cells), ["k = 4"]);
        assert!(GridCell::find(&cells, "k = 4", Strategy::Mosaic).is_some());
        assert!(GridCell::find(&cells, "k = 4", Strategy::Metis).is_none());
        assert!(GridCell::find(&cells, "k = 16", Strategy::Mosaic).is_none());
    }

    #[test]
    fn streaming_run_aborts_on_sink_failure() {
        // A sink with room for the header and roughly one row: the
        // cell stops at the failing epoch with the sink's error.
        let sim = Simulation::from_scenario(quick()).unwrap();
        let mut room = [0u8; mosaic_metrics::report::EPOCH_CSV_HEADER.len() + 40];
        let mut sink = &mut room[..];
        let err = sim.stream_cell(&sim.cells()[0], &mut sink).unwrap_err();
        assert!(
            matches!(&err, Error::Io { path, .. } if path == "<stream sink>"),
            "{err}"
        );
    }

    #[test]
    fn custom_observers_see_every_epoch_and_cell() {
        struct Counter {
            epochs: AtomicUsize,
            cells: AtomicUsize,
        }
        impl RunObserver for Counter {
            fn on_epoch(&self, _: &CellSpec, _: usize, _: &EpochMetrics) -> bool {
                self.epochs.fetch_add(1, Ordering::Relaxed);
                true
            }
            fn on_cell(&self, _: &CellSpec, summary: &RunSummary) {
                assert!(summary.epochs > 0);
                self.cells.fetch_add(1, Ordering::Relaxed);
            }
        }
        let observer: &'static Counter = Box::leak(Box::new(Counter {
            epochs: AtomicUsize::new(0),
            cells: AtomicUsize::new(0),
        }));
        let sim = Simulation::from_scenario(quick_scenario())
            .unwrap()
            .with_observer(Box::new(observer));
        sim.run().unwrap();
        assert_eq!(observer.cells.load(Ordering::Relaxed), 2);
        assert_eq!(
            observer.epochs.load(Ordering::Relaxed),
            2 * quick().eval_epochs
        );
    }

    #[test]
    fn aborting_observer_truncates_the_cell() {
        struct StopAfterOne;
        impl RunObserver for StopAfterOne {
            fn on_epoch(&self, _: &CellSpec, epoch: usize, _: &EpochMetrics) -> bool {
                epoch == 0
            }
        }
        let sim = Simulation::from_scenario(quick_scenario())
            .unwrap()
            .with_observer(Box::new(StopAfterOne));
        for cell in sim.run().unwrap() {
            assert_eq!(cell.per_epoch.len(), 2, "{}", cell.param_label);
        }
    }

    #[test]
    fn telemetry_observer_writes_jsonl_without_perturbing_results() {
        let base = std::env::temp_dir().join("mosaic-session-telemetry");
        let off_dir = base.join("off");
        let on_dir = base.join("on");
        let jsonl = base.join("events.jsonl");

        let off = quick_scenario().with_observers([ObserverSpec::StreamCsv(off_dir.clone())]);
        Simulation::from_scenario(off).unwrap().run().unwrap();

        let on = quick_scenario().with_observers([
            ObserverSpec::StreamCsv(on_dir.clone()),
            ObserverSpec::Telemetry(jsonl.clone()),
        ]);
        let sim = Simulation::from_scenario(on).unwrap();
        sim.run().unwrap();
        // The run hands the global back to the no-op recorder.
        assert!(!mosaic_telemetry::global().is_enabled());

        // Result CSVs are byte-identical with telemetry on vs off.
        for cell in sim.cells() {
            let name = format!("{}.csv", cell.file_stem(sim.scenario().is_single_point()));
            assert_eq!(
                fs::read(off_dir.join(&name)).unwrap(),
                fs::read(on_dir.join(&name)).unwrap(),
                "{name}"
            );
        }

        // The event stream is valid JSONL and carries spans, epoch
        // events and the closing snapshot.
        let events = fs::read_to_string(&jsonl).unwrap();
        assert!(!events.is_empty());
        for line in events.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object line: {line}"
            );
        }
        assert!(events.contains("\"kind\":\"span\""));
        assert!(events.contains("\"kind\":\"epoch\""));
        assert!(events.contains("\"name\":\"core.epochs_processed\""));
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn run_with_factory_relabels_custom_strategies() {
        use crate::engine::MosaicStrategy;
        use mosaic_core::policy::StickyPolicy;
        let sim = Simulation::from_scenario(quick_scenario().with_strategies([Strategy::Mosaic]))
            .unwrap();
        let cells = sim
            .run_with_factory(|cell| {
                Box::new(MosaicStrategy::new(cell.config.params, StickyPolicy))
            })
            .unwrap();
        // Sticky never proposes, so the custom strategy is observably
        // different from the registry Pilot while keeping its label.
        assert_eq!(cells[0].config.strategy, Strategy::Mosaic);
        assert_eq!(cells[0].summary.total_migrations, 0);
    }
}
