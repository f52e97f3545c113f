//! The node-side state machine: one [`AllocationCore`] behind the wire
//! protocol.
//!
//! A [`NodeSession`] owns the scenario's expanded cell list and at most
//! one *active run* — an [`AllocationCore`] plus its strategy, created
//! at `BEGIN` and fed each `TX` / `TxBatch` as it arrives, through the
//! same event API the offline driver (`mosaic_sim::engine::run_cell`)
//! uses. The per-epoch CSV text is appended row-by-row exactly as
//! [`mosaic_metrics::EpochCsvWriter`] would write it, which is what
//! makes the `CSV` reply byte-identical to the offline runner's files.
//!
//! The session is single-threaded by design: the server builds, drives
//! and drops every connection's session on that connection's handler
//! thread, and the core it drives runs no threads of its own, so
//! ordering is the arrival order on the socket and no locking is needed
//! here.

use std::sync::Arc;
use std::time::Duration;

use mosaic_metrics::report::EPOCH_CSV_HEADER;
use mosaic_metrics::EpochMetrics;
use mosaic_sim::scenario::CellSpec;
use mosaic_sim::{AllocationCore, EpochStrategy, LoadReport, RunTarget, Scenario};
use mosaic_telemetry::{Histogram, Recorder};
use mosaic_types::{Result, Transaction};

use crate::proto::{Request, Response};
use crate::stats::ServerStats;

/// The run started by the last `BEGIN`.
struct ActiveRun {
    core: AllocationCore,
    strategy: Box<dyn EpochStrategy>,
    /// Header + one row per processed epoch, byte-identical to the
    /// offline stream-csv output for the same cell.
    csv: String,
    rows_written: usize,
}

/// The protocol-facing state of one `mosaic-node` service.
pub struct NodeSession {
    cells: Vec<CellSpec>,
    active: Option<ActiveRun>,
    /// First error of a fire-and-forget `TX` line, reported at `END`.
    deferred: Option<String>,
    /// Scratch buffer for rows closed by one ingest call.
    rows: Vec<EpochMetrics>,
    /// This session's id in the server's stats registry.
    id: u64,
    /// The session's private recorder; every core built at `BEGIN` is
    /// rebound to it, so `core.*` counters accumulate per session.
    recorder: Recorder,
    /// The `node.wire` span: decoding each request off bytes already
    /// received, recorded by the server's read loop.
    wire_span: Histogram,
    /// The server-wide stats root answering the `STATS` aggregate.
    server: Arc<ServerStats>,
}

impl NodeSession {
    /// Builds a standalone session over `scenario` (its own private
    /// [`ServerStats`], telemetry on), forced to the
    /// [`RunTarget::Node`] target (so `collect`-observer specs are
    /// rejected) and expanded to its cell list.
    ///
    /// # Errors
    ///
    /// Propagates [`Scenario::cells`] validation errors.
    pub fn new(scenario: Scenario) -> Result<Self> {
        Self::with_stats(scenario, &ServerStats::new(true))
    }

    /// Builds a session registered against `stats` — the server's
    /// constructor. The session registers itself here (which is where
    /// its id comes from) and deregisters, folding its counters into
    /// the server aggregate, on drop.
    ///
    /// # Errors
    ///
    /// Propagates [`Scenario::cells`] validation errors.
    pub fn with_stats(scenario: Scenario, stats: &Arc<ServerStats>) -> Result<Self> {
        let cells = scenario.cells_for(RunTarget::Node)?;
        let (id, recorder) = stats.register();
        Ok(NodeSession {
            cells,
            active: None,
            deferred: None,
            rows: Vec::new(),
            id,
            wire_span: recorder.histogram("node.wire"),
            recorder,
            server: Arc::clone(stats),
        })
    }

    /// The expanded cell list clients address by `BEGIN <cell>` index.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// This session's id in the server's stats registry.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Records one request's decode time as the session's `node.wire`
    /// span.
    pub(crate) fn record_decode(&self, elapsed: Duration) {
        self.wire_span.record(elapsed);
    }

    /// Applies one parsed request. `None` exactly when
    /// `!request.expects_reply()` ([`Request::Tx`] /
    /// [`Request::TxBatch`]).
    pub fn apply(&mut self, request: Request) -> Option<Response> {
        match request {
            Request::Begin { cell, blocks } => Some(self.begin(cell, blocks)),
            Request::Tx(tx) => {
                self.ingest(&[tx]);
                None
            }
            Request::TxBatch(txs) => {
                self.ingest(&txs);
                None
            }
            Request::End => Some(self.end()),
            Request::Lookup(account) => Some(
                match self.active.as_ref().and_then(|r| r.core.lookup(account)) {
                    Some(shard) => Response::Shard(shard.as_u16()),
                    None => Response::Error(
                        "no allocation yet; the initial allocation runs once the stream crosses \
                         the training cut"
                            .to_string(),
                    ),
                },
            ),
            Request::Load => Some(
                match self.active.as_ref().and_then(|r| r.core.load_report()) {
                    Some(report) => Response::Load(load_lines(&report)),
                    None => Response::Error("no epoch processed yet".to_string()),
                },
            ),
            Request::Csv => Some(match &self.active {
                Some(run) => Response::Csv(run.csv.lines().map(str::to_string).collect()),
                None => Response::Error("no active run; send BEGIN first".to_string()),
            }),
            Request::Stats => Some(Response::Stats(
                self.server.stats_lines(Some((self.id, &self.recorder))),
            )),
            Request::Shutdown => Some(Response::Ok("shutdown".to_string())),
        }
    }

    fn begin(&mut self, cell: usize, blocks: u64) -> Response {
        self.deferred = None;
        let Some(spec) = self.cells.get(cell) else {
            return Response::Error(format!(
                "cell {cell} out of range (scenario has {} cells)",
                self.cells.len()
            ));
        };
        let mut core = AllocationCore::new(spec.config);
        core.set_recorder(self.recorder.clone());
        let mut strategy = spec.config.strategy.build(spec.config.params);
        strategy.scope_telemetry(&self.recorder);
        match core.begin(blocks) {
            Ok(()) => {
                self.active = Some(ActiveRun {
                    core,
                    strategy,
                    csv: format!("{EPOCH_CSV_HEADER}\n"),
                    rows_written: 0,
                });
                Response::Ok(format!("cell {cell} ({})", spec.config.strategy.name()))
            }
            Err(e) => Response::Error(e.to_string()),
        }
    }

    fn ingest(&mut self, txs: &[Transaction]) {
        if self.deferred.is_some() {
            return;
        }
        let Some(run) = self.active.as_mut() else {
            self.deferred = Some("TX arrived before BEGIN".to_string());
            return;
        };
        self.rows.clear();
        let result = run
            .core
            .ingest_block(run.strategy.as_mut(), txs, &mut self.rows);
        // A faulty batch still ingested its valid prefix, whose rows count.
        append_rows(run, &self.rows);
        if let Err(e) = result {
            self.deferred = Some(e.to_string());
        }
    }

    fn end(&mut self) -> Response {
        if let Some(message) = self.deferred.take() {
            return Response::Error(format!("stream aborted: {message}"));
        }
        let Some(run) = self.active.as_mut() else {
            return Response::Error("END before BEGIN".to_string());
        };
        self.rows.clear();
        match run.core.end_stream(run.strategy.as_mut(), &mut self.rows) {
            Ok(()) => {
                append_rows(run, &self.rows);
                Response::Ok(format!("{} epochs", run.core.epochs_processed()))
            }
            Err(e) => Response::Error(e.to_string()),
        }
    }

    /// Records a fire-and-forget failure (e.g. a malformed `TX` line
    /// classified by the codec) for the `END` reply. First error wins,
    /// matching ingestion errors.
    pub fn defer(&mut self, message: String) {
        if self.deferred.is_none() {
            self.deferred = Some(message);
        }
    }
}

impl Drop for NodeSession {
    fn drop(&mut self) {
        self.server.unregister(self.id);
    }
}

fn append_rows(run: &mut ActiveRun, rows: &[EpochMetrics]) {
    for metrics in rows {
        run.csv.push_str(&metrics.csv_row(run.rows_written));
        run.csv.push('\n');
        run.rows_written += 1;
    }
}

/// The `LOAD` reply body: whole-run and last-epoch protocol counters,
/// then one `shard <i> <intra> <cross>` line per shard.
fn load_lines(report: &LoadReport) -> Vec<String> {
    let mut lines = vec![
        format!("epoch {}", report.epoch),
        format!("epochs_processed {}", report.epochs_processed),
        format!("lambda {}", report.lambda),
        format!("committed_migrations {}", report.committed_migrations),
        format!("migrations_stale {}", report.migrations_stale),
        format!("total_migrations {}", report.total_migrations),
    ];
    for shard in &report.shards {
        lines.push(format!(
            "shard {} {} {}",
            shard.shard, shard.intra_txs, shard.cross_txs
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Incoming, Wire};
    use mosaic_sim::Scenario;
    use mosaic_types::AccountId;

    fn session() -> NodeSession {
        NodeSession::new(crate::quick()).unwrap()
    }

    /// Decodes `text` with the line codec and feeds it to `s` the way
    /// the server's read loop does; returns the replies, in order.
    fn feed(s: &mut NodeSession, text: &str) -> Vec<Response> {
        let mut input = std::io::Cursor::new(text);
        let mut replies = Vec::new();
        while let Some(incoming) = Wire::Line.read_request(&mut input).unwrap() {
            match incoming {
                Incoming::Request(request) => replies.extend(s.apply(request)),
                Incoming::Malformed {
                    message,
                    fire_and_forget: true,
                } => s.defer(message),
                Incoming::Malformed { message, .. } => replies.push(Response::Error(message)),
            }
        }
        replies
    }

    #[test]
    fn collect_observer_scenarios_are_rejected() {
        // Scenario::new defaults to the collect observer, which the node
        // target forbids.
        let scenario = Scenario::parse(include_str!(
            "../../../scenarios/effectiveness-quick.scenario"
        ))
        .unwrap();
        let err = NodeSession::new(scenario).err().expect("must be rejected");
        assert!(err.to_string().contains("node/replay target"), "{err}");
    }

    #[test]
    fn queries_before_begin_are_protocol_errors_not_panics() {
        let mut s = session();
        assert!(matches!(
            s.apply(Request::Lookup(AccountId::new(1))),
            Some(Response::Error(_))
        ));
        assert!(matches!(s.apply(Request::Load), Some(Response::Error(_))));
        assert!(matches!(s.apply(Request::Csv), Some(Response::Error(_))));
        assert!(matches!(s.apply(Request::End), Some(Response::Error(_))));
    }

    #[test]
    fn tx_before_begin_defers_the_error_to_end() {
        let mut s = session();
        assert_eq!(feed(&mut s, "TX 0 0 1 2 transfer\n"), []);
        let Some(Response::Error(message)) = s.apply(Request::End) else {
            panic!("END after a bad TX must fail");
        };
        assert!(message.contains("before BEGIN"), "{message}");
        // The deferred error is consumed: a fresh BEGIN starts clean.
        assert!(matches!(
            s.apply(Request::Begin {
                cell: 0,
                blocks: 100
            }),
            Some(Response::Ok(_))
        ));
        // A malformed TX line gets no reply either; its parse error is
        // what END reports, and later TX lines do not overwrite it.
        let replies = feed(&mut s, "TX broken\nTX 0 0 1 2 transfer\nEND\n");
        let [Response::Error(message)] = &replies[..] else {
            panic!("only END replies: {replies:?}");
        };
        assert!(message.starts_with("stream aborted: "), "{message}");
        assert!(!message.contains("before BEGIN"), "{message}");
    }

    #[test]
    fn stats_answer_before_begin_and_count_ingested_txs() {
        let mut s = session();
        // STATS is session-scoped, not run-scoped: it answers before
        // any BEGIN, with empty counters.
        let Some(Response::Stats(lines)) = s.apply(Request::Stats) else {
            panic!("STATS must answer before BEGIN");
        };
        assert_eq!(lines[0], "telemetry on");
        assert!(lines.contains(&"session 0".to_string()), "{lines:?}");

        assert!(matches!(
            s.apply(Request::Begin {
                cell: 0,
                blocks: 2000
            }),
            Some(Response::Ok(_))
        ));
        let txs: String = (0..5).map(|i| format!("TX {i} 0 1 2 transfer\n")).collect();
        assert_eq!(feed(&mut s, &txs), []);
        let Some(Response::Stats(lines)) = s.apply(Request::Stats) else {
            panic!("STATS must answer mid-stream");
        };
        assert!(
            lines.contains(&"counter core.txs_ingested 5".to_string()),
            "{lines:?}"
        );
        // The server aggregate includes this (only) session.
        assert!(
            lines.contains(&"server counter core.txs_ingested 5".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn begin_rejects_out_of_range_cells() {
        let mut s = session();
        let Some(Response::Error(message)) = s.apply(Request::Begin {
            cell: 99,
            blocks: 10,
        }) else {
            panic!("out-of-range cell must fail");
        };
        assert!(message.contains("out of range"), "{message}");
    }
}
