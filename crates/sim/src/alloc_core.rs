//! The allocation core: the one epoch loop behind every driver.
//!
//! [`AllocationCore`] owns the paper's §V-A protocol end to end: it
//! turns a block-ordered transaction sequence into training chunks and
//! τ-block evaluation windows, folds the training prefix into the
//! incremental [`History`] graph, runs the [`EpochStrategy`]'s initial
//! allocation at the training cut, and at every window boundary runs
//! the epoch — strategy decision, beacon commit bounded by λ,
//! reconfiguration, per-shard processing via [`mosaic_chain::Ledger`],
//! metric row — while keeping `shard_of` queryable throughout.
//!
//! It has one API, driven by events: [`AllocationCore::begin`] declares
//! the block span, which fixes the training cut and the window grid;
//! [`AllocationCore::ingest_block`] delivers a batch of one or more
//! transactions in block order, closing every chunk and epoch it crosses;
//! [`AllocationCore::advance_to`] says "every block below this has been
//! delivered", closing windows no later transaction would reveal;
//! [`AllocationCore::end_stream`] closes what remains. Queries
//! ([`AllocationCore::lookup`], [`AllocationCore::load_report`],
//! [`AllocationCore::summary`]) are answerable at any point.
//!
//! The drivers only move transactions: offline,
//! [`crate::engine::run_cell`], called by the session's cell driver,
//! reads an [`EpochWindowStream`](mosaic_workload::EpochWindowStream) into it;
//! live, a `mosaic-node` session hands it each wire batch. Training
//! ingestion and epoch processing are folds in block order, so the rows
//! do not depend on how the sequence was cut into batches.

use std::collections::HashSet;
use std::time::Duration;

use mosaic_chain::{EpochOutcome, Ledger};
use mosaic_metrics::{AggregateBuilder, EpochMetrics};
use mosaic_telemetry::{Counter, DurationStats, Gauge, Recorder};
use mosaic_types::{ensure, AccountId, Error, MigrationRequest, Result, ShardId, Transaction};

use crate::engine::{EpochCtx, EpochStrategy, ExperimentConfig, History, RunSummary};

/// Per-shard slice of the last processed epoch's load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard.
    pub shard: u16,
    /// Intra-shard transactions the shard processed last epoch.
    pub intra_txs: usize,
    /// Cross-shard transactions the shard was the home shard for.
    pub cross_txs: usize,
}

/// A queryable snapshot of the chain state after the last processed
/// epoch — what a live node serves for "per-shard load metrics",
/// assembled from the last [`mosaic_chain::EpochOutcome`] and the run's
/// migration count.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Identifier of the last processed epoch.
    pub epoch: u64,
    /// Number of evaluation epochs processed so far.
    pub epochs_processed: usize,
    /// The per-shard migration capacity λ used last epoch.
    pub lambda: f64,
    /// Migration requests the beacon committed at the last boundary.
    pub committed_migrations: usize,
    /// Committed migrations whose `from` shard was stale
    /// ([`mosaic_chain::EpochOutcome::migrations_stale`]).
    pub migrations_stale: usize,
    /// Migrations counted over the whole run so far.
    pub total_migrations: usize,
    /// Last epoch's per-shard intra/cross transaction counts.
    pub shards: Vec<ShardLoad>,
}

/// Where the feed currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Ingesting the training prefix `[0, cut_block)`.
    Training,
    /// Ingesting evaluation windows of τ blocks each.
    Evaluating,
    /// `eval_epochs` epochs processed (or the stream ended); further
    /// transactions are ignored, queries stay answerable.
    Done,
}

/// Windowing state of the feed started by [`AllocationCore::begin`].
#[derive(Debug)]
struct Feed {
    blocks: u64,
    tau: u64,
    cut_block: u64,
    /// Start of the last training chunk `[cut − τ, cut)`, which becomes
    /// the first epoch's recent window.
    recent_start: u64,
    phase: Phase,
    /// Start block of the training chunk / evaluation window being
    /// buffered.
    window_start: u64,
    /// No block below this may still arrive: the highest block
    /// ingested or the last [`AllocationCore::advance_to`] mark.
    delivered: u64,
    /// Transactions of the current chunk/window.
    buf: Vec<Transaction>,
    /// The previous epoch's transactions (initially the last τ blocks
    /// of training).
    recent: Vec<Transaction>,
}

impl Feed {
    /// Exclusive end block of the chunk/window being buffered: training
    /// runs in τ-block chunks up to `recent_start`, then the single
    /// `[recent_start, cut)` chunk, then τ-block evaluation windows.
    fn boundary(&self) -> Option<u64> {
        match self.phase {
            Phase::Training if self.window_start >= self.recent_start => Some(self.cut_block),
            Phase::Training => Some((self.window_start + self.tau).min(self.recent_start)),
            Phase::Evaluating => Some(self.window_start + self.tau),
            Phase::Done => None,
        }
    }
}

/// Cached lock-free telemetry handles for the core's counters and
/// gauges — looked up once per recorder so the per-transaction and
/// per-epoch paths never touch the registry (one branch each when
/// telemetry is off).
#[derive(Debug)]
struct CoreMetrics {
    txs: Counter,
    epochs: Counter,
    committed: Counter,
    stale: Counter,
    edges_merged: Counter,
    cross_ratio: Gauge,
    queue_depth: Gauge,
}

impl CoreMetrics {
    fn bind(recorder: &Recorder) -> Self {
        CoreMetrics {
            txs: recorder.counter("core.txs_ingested"),
            epochs: recorder.counter("core.epochs_processed"),
            committed: recorder.counter("core.migrations_committed"),
            stale: recorder.counter("core.migrations_aborted"),
            edges_merged: recorder.counter("core.edges_merged"),
            cross_ratio: recorder.gauge("core.cross_shard_ratio"),
            queue_depth: recorder.gauge("core.queue_depth"),
        }
    }
}

/// The epoch-allocation state machine for one experiment cell.
///
/// Create with [`AllocationCore::new`], declare the feed with
/// [`AllocationCore::begin`], deliver transactions, finish with
/// [`AllocationCore::end_stream`]. See the [module docs](self).
///
/// The core captures the process-wide telemetry recorder at
/// construction (see [`mosaic_telemetry::install_global`]) and emits
/// per-epoch phase spans (`epoch.train` / `epoch.score` /
/// `epoch.migrate` / `epoch.commit`) and `core.*` counters through it;
/// a disabled recorder — the default — makes every emission a single
/// branch, and nothing telemetry does feeds back into results.
#[derive(Debug)]
pub struct AllocationCore {
    config: ExperimentConfig,
    history: History<'static>,
    ledger: Option<Ledger>,
    init_time: Duration,
    aggregate: AggregateBuilder,
    alloc_stats: DurationStats,
    input_bytes_sum: f64,
    input_samples: usize,
    total_migrations: usize,
    /// The last processed epoch, kept for [`AllocationCore::load_report`].
    last_epoch: Option<EpochOutcome>,
    feed: Option<Feed>,
    recorder: Recorder,
    metrics: CoreMetrics,
    /// Merged training-graph edges at the last absorb telemetry
    /// observed (to turn cumulative counts into per-chunk growth).
    edges_seen: usize,
}

impl AllocationCore {
    /// A fresh core for one experiment cell. No allocation exists until
    /// the feed crosses the training cut.
    pub fn new(config: ExperimentConfig) -> Self {
        let recorder = mosaic_telemetry::global();
        let metrics = CoreMetrics::bind(&recorder);
        let mut history = History::new();
        history.set_recorder(&recorder);
        AllocationCore {
            config,
            history,
            ledger: None,
            init_time: Duration::ZERO,
            aggregate: AggregateBuilder::new(),
            alloc_stats: DurationStats::default(),
            input_bytes_sum: 0.0,
            input_samples: 0,
            total_migrations: 0,
            last_epoch: None,
            feed: None,
            recorder,
            metrics,
            edges_seen: 0,
        }
    }

    /// Replaces the core's telemetry recorder (e.g. with a node
    /// session's scoped clone) and rebinds the cached handles. Metrics
    /// accumulated so far stay in the old registry.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.metrics = CoreMetrics::bind(&recorder);
        self.scope_telemetry(&recorder);
        self.recorder = recorder;
    }

    /// Sends the cell's own counts — the history graph's `txgraph.fold`
    /// span and `txgraph.*` fold counters — to `recorder`, the cell's
    /// scoped recorder; the core's spans and counters stay where they
    /// are.
    pub fn scope_telemetry(&mut self, recorder: &Recorder) {
        self.history.set_recorder(recorder);
    }

    /// The chain state, once the initial allocation has built it.
    pub fn ledger(&self) -> Option<&Ledger> {
        self.ledger.as_ref()
    }

    /// Number of evaluation epochs processed so far.
    pub fn epochs_processed(&self) -> usize {
        self.aggregate.epochs()
    }

    /// The run summary over everything processed so far.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            epochs: self.aggregate.epochs(),
            aggregate: self.aggregate.finish(),
            init_seconds: self.init_time.as_secs_f64(),
            mean_alloc_seconds: self.alloc_stats.mean_seconds(),
            mean_input_bytes: if self.input_samples == 0 {
                0.0
            } else {
                self.input_bytes_sum / self.input_samples as f64
            },
            total_migrations: self.total_migrations,
        }
    }

    /// The one consistency check over a cell: the ledger's (which runs
    /// ϕ's), `strategy`'s, the history's and the last
    /// [`mosaic_metrics::EpochLoad`]'s, then the protocol across them.
    /// While the strategy retains the history's graph (before the cut if
    /// it needs the training graph or consumes the history, after it if
    /// it consumes the history) the graph holds every transaction the
    /// history counts, and otherwise it is empty. The last epoch
    /// committed distinct accounts, at most the capacity (`⌊λ⌋` unless
    /// overridden), applied all and flagged at most all stale, and each
    /// now resolves to its request's `to`. A client-driven strategy counted exactly the
    /// beacon's commits, any other left it empty. A ledger exists once
    /// the feed is past the training cut, its clock equals the rows
    /// emitted, the window starts at `cut + epochs · τ`, and the buffer
    /// holds only the window's blocks. Debug builds run this after every
    /// training chunk and epoch the core closes.
    pub fn check_invariants(&self, strategy: &dyn EpochStrategy) -> Result<()> {
        self.check(strategy, self.feed.as_ref())
    }

    /// [`AllocationCore::check_invariants`] against `feed`, which the
    /// closing helpers hold outside `self`.
    fn check(&self, strategy: &dyn EpochStrategy, feed: Option<&Feed>) -> Result<()> {
        const CORE: &str = "core";
        strategy.check_invariants()?;
        self.history.check_invariants()?;
        let rows = self.aggregate.epochs() as u64;
        let built = self.ledger.is_some();
        let cut = feed.is_some_and(|f| f.phase != Phase::Training);
        ensure!(built == cut, CORE, "ledger built {built}, past cut {cut}");
        let retains = strategy.consumes_history() || !built && strategy.needs_training_graph();
        let (kept, nodes) = self.history.retained();
        let len = self.history.len() as u64;
        if retains {
            ensure!(kept == len, CORE, "graph of {kept} txs, history of {len}");
        } else {
            let empty = kept == 0 && nodes == 0;
            ensure!(empty, CORE, "{kept} txs, {nodes} nodes in a released graph");
        }
        if let Some(ledger) = &self.ledger {
            ledger.check_invariants()?;
            let clock = ledger.current_epoch().as_u64();
            ensure!(clock == rows, CORE, "ledger epoch {clock}, {rows} rows");
            let commits = ledger.beacon().committed_len();
            let client = strategy.is_client_driven();
            let counted = if client { self.total_migrations } else { 0 };
            ensure!(commits == counted, CORE, "{commits} commits ≠ {counted}");
        }
        if let (Some(ledger), Some(last)) = (&self.ledger, &self.last_epoch) {
            last.load.check_invariants()?;
            let n = last.committed.len();
            let cap = ledger.migration_capacity();
            let cap = cap.unwrap_or(last.lambda.floor() as usize);
            ensure!(n <= cap, CORE, "{n} commits, capacity {cap}");
            let stale = last.migrations_stale;
            ensure!(stale <= n, CORE, "{n} commits, {stale} stale");
            let mut seen = HashSet::with_capacity(n);
            for &MigrationRequest { account, to, .. } in &last.committed {
                ensure!(seen.insert(account), CORE, "{account} committed twice");
                let now = ledger.phi().shard_of(account);
                ensure!(now == to, CORE, "{account} committed to {to}, in {now}");
            }
        }
        if let Some(feed) = feed {
            let (start, tau) = (feed.window_start, feed.tau);
            let grid = !cut || start == feed.cut_block + rows * tau;
            ensure!(grid, CORE, "window at block {start}, {rows} rows");
            let window = start..feed.boundary().unwrap_or(start);
            let inside = feed.buf.iter().all(|t| window.contains(&t.block.as_u64()));
            ensure!(inside, CORE, "a buffered tx lies outside {window:?}");
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The shard currently responsible for `account`, or `None` before
    /// the initial allocation exists. Total over accounts: unknown
    /// accounts resolve through ϕ's hash-based default rule.
    pub fn lookup(&self, account: AccountId) -> Option<ShardId> {
        self.ledger.as_ref().map(|l| l.phi().shard_of(account))
    }

    /// Per-shard load and migration-protocol state after the last
    /// processed epoch, or `None` before the first epoch completes.
    pub fn load_report(&self) -> Option<LoadReport> {
        let last = self.last_epoch.as_ref()?;
        let shards = last
            .load
            .intra_counts()
            .iter()
            .zip(last.load.cross_counts())
            .enumerate()
            .map(|(shard, (&intra_txs, &cross_txs))| ShardLoad {
                shard: shard as u16,
                intra_txs,
                cross_txs,
            })
            .collect();
        Some(LoadReport {
            epoch: last.epoch.as_u64(),
            epochs_processed: self.aggregate.epochs(),
            lambda: last.lambda,
            committed_migrations: last.committed.len(),
            migrations_stale: last.migrations_stale,
            total_migrations: self.total_migrations,
            shards,
        })
    }

    // ------------------------------------------------------------------
    // Event API
    // ------------------------------------------------------------------

    /// Starts a feed spanning `blocks` blocks: the training prefix is
    /// `[0, ⌊blocks · train_fraction⌋)`, evaluation windows of τ blocks
    /// follow from the cut.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyTrace`] if `blocks` is zero.
    pub fn begin(&mut self, blocks: u64) -> Result<()> {
        if blocks == 0 {
            return Err(Error::EmptyTrace);
        }
        let tau = u64::from(self.config.params.tau());
        let cut_block = ((blocks as f64) * self.config.train_fraction).floor() as u64;
        self.feed = Some(Feed {
            blocks,
            tau,
            cut_block,
            recent_start: cut_block.saturating_sub(tau),
            phase: Phase::Training,
            window_start: 0,
            delivered: 0,
            buf: Vec::new(),
            recent: Vec::new(),
        });
        Ok(())
    }

    /// Exclusive end block of the training chunk or evaluation window
    /// the feed is buffering, so a driver that can choose its batch
    /// sizes can read up to it. `None` when nothing more will be
    /// consumed: before [`AllocationCore::begin`], after `eval_epochs`
    /// rows, and after [`AllocationCore::end_stream`].
    pub fn next_boundary(&self) -> Option<u64> {
        self.feed.as_ref()?.boundary()
    }

    /// Feeds a block-ordered batch — one transaction, one block, or a
    /// span of many windows. Blocks must not decrease, within the batch
    /// or against what was delivered before. Every training chunk the
    /// batch crosses is folded into the history, every evaluation
    /// window it crosses runs the full epoch protocol and pushes its
    /// metric row onto `rows`. Transactions past the `eval_epochs` cap
    /// are checked and dropped.
    ///
    /// # Errors
    ///
    /// [`Error::NotInitialized`] before [`AllocationCore::begin`];
    /// [`Error::ParseTrace`] at the first out-of-order or out-of-range
    /// block, after the valid transactions before it were ingested;
    /// [`Ledger::new`] construction errors at the training cut.
    pub fn ingest_block(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        txs: &[Transaction],
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        let mut feed = self.take_feed("call begin() before ingesting transactions")?;
        let result = self.ingest(strategy, &mut feed, txs, rows);
        self.feed = Some(feed);
        result
    }

    fn ingest(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        feed: &mut Feed,
        txs: &[Transaction],
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        let mut high = feed.delivered;
        let mut fault = None;
        let mut valid = txs.len();
        for (i, tx) in txs.iter().enumerate() {
            let block = tx.block.as_u64();
            if block < high || block >= feed.blocks {
                valid = i;
                fault = Some(block);
                break;
            }
            high = block;
        }
        self.metrics.txs.add(valid as u64);

        let mut rest = &txs[..valid];
        while let Some(first) = rest.first() {
            self.close_through(strategy, feed, first.block.as_u64(), rows)?;
            let Some(end) = feed.boundary() else {
                break;
            };
            let run = rest.partition_point(|tx| tx.block.as_u64() < end);
            feed.buf.extend_from_slice(&rest[..run]);
            rest = &rest[run..];
        }
        feed.delivered = high;

        match fault {
            None => Ok(()),
            Some(block) if block >= feed.blocks => Err(Error::ParseTrace {
                line: 0,
                message: format!(
                    "block {block} out of range (stream declared {} blocks)",
                    feed.blocks
                ),
            }),
            Some(block) => Err(Error::ParseTrace {
                line: 0,
                message: format!(
                    "block {block} arrived after block {high} (stream must be block-ordered)"
                ),
            }),
        }
    }

    /// Declares every block below `block` delivered: each training
    /// chunk and evaluation window ending at or before it is closed,
    /// and a later transaction below it is an ordering error. This is
    /// how a driver closes a window whose successor is empty or not
    /// read yet.
    ///
    /// # Errors
    ///
    /// [`Error::NotInitialized`] before [`AllocationCore::begin`], plus
    /// [`Ledger::new`] construction errors at the training cut.
    pub fn advance_to(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        block: u64,
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        let mut feed = self.take_feed("call begin() before advance_to()")?;
        let block = block.min(feed.blocks);
        feed.delivered = feed.delivered.max(block);
        let result = self.close_through(strategy, &mut feed, block, rows);
        self.feed = Some(feed);
        result
    }

    /// Ends the feed: closes the remaining training chunks (running the
    /// initial allocation if the cut was never crossed), then the
    /// remaining evaluation windows while their start is inside the
    /// block span — so a trailing partial or empty window still yields
    /// its row, up to `eval_epochs`. Queries remain answerable
    /// afterwards. Errors as [`AllocationCore::advance_to`].
    pub fn end_stream(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        let mut feed = self.take_feed("call begin() before end_stream()")?;
        let blocks = feed.blocks;
        let result = self.close_through(strategy, &mut feed, blocks, rows);
        if result.is_ok() {
            while feed.phase == Phase::Evaluating && feed.window_start < feed.blocks {
                self.close_epoch(strategy, &mut feed, rows);
            }
            feed.phase = Phase::Done;
        }
        self.feed = Some(feed);
        result
    }

    /// Moves the feed out of `self` so the closing helpers can borrow
    /// it and the rest of the core separately; callers put it back.
    fn take_feed(&mut self, hint: &'static str) -> Result<Feed> {
        self.feed.take().ok_or(Error::NotInitialized(hint))
    }

    /// Closes every training chunk / evaluation window whose exclusive
    /// end is at or before `block`.
    fn close_through(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        feed: &mut Feed,
        block: u64,
        rows: &mut Vec<EpochMetrics>,
    ) -> Result<()> {
        while let Some(end) = feed.boundary() {
            if block < end {
                break;
            }
            match feed.phase {
                Phase::Training => self.close_training_chunk(strategy, feed, end)?,
                Phase::Evaluating => self.close_epoch(strategy, feed, rows),
                Phase::Done => break,
            }
        }
        Ok(())
    }

    /// Folds the buffered training chunk ending at `end` into the
    /// strategy and the history; at the cut, runs the initial
    /// allocation and hands the chunk over as the first recent window.
    fn close_training_chunk(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        feed: &mut Feed,
        end: u64,
    ) -> Result<()> {
        let at_cut = end == feed.cut_block;
        let span = self.recorder.span("epoch.train");
        strategy.observe_training(&feed.buf);
        if !strategy.consumes_history() && !strategy.needs_training_graph() {
            // The graph is never read: keep only the count.
            self.history.record_unretained(feed.buf.len());
        } else {
            // Nothing reads the history's graph before the initial
            // allocation, so it only logs each edge and folds the log on
            // its own geometric schedule: the log stays below
            // max(one chunk, CSR / 8) pairs, and the initial
            // allocation's `graph()` folds the rest. The counter reads
            // the folded CSR without forcing a fold, so telemetry never
            // changes when folds run.
            self.history.absorb(&feed.buf);
            if self.metrics.edges_merged.is_enabled() {
                let total = self.history.merged_edge_count();
                self.metrics
                    .edges_merged
                    .add(total.saturating_sub(self.edges_seen) as u64);
                self.edges_seen = total;
            }
        }
        span.finish();
        if at_cut {
            self.finish_training(strategy)?;
            std::mem::swap(&mut feed.recent, &mut feed.buf);
            feed.phase = Phase::Evaluating;
        }
        feed.buf.clear();
        feed.window_start = end;
        self.debug_check(strategy, feed);
        Ok(())
    }

    /// The debug hook at the end of every close; release builds skip it.
    fn debug_check(&self, strategy: &dyn EpochStrategy, feed: &Feed) {
        if cfg!(debug_assertions) {
            self.check(strategy, Some(feed))
                .expect("cell state is consistent after every close");
        }
    }

    /// Runs the strategy's initial allocation on the training history
    /// and builds the ledger (ϕ and the beacon) around the
    /// resulting ϕ; from here on [`AllocationCore::lookup`] answers.
    /// The training graph is freed if the strategy will never consult
    /// the history again — the memory bound large scenarios rely on.
    fn finish_training(&mut self, strategy: &mut dyn EpochStrategy) -> Result<()> {
        let span = self.recorder.span("epoch.train");
        let (initial_phi, init_time) =
            strategy.initial_allocation(&mut self.history, self.config.params.shards());
        span.finish();
        self.init_time = init_time;
        let mut ledger = Ledger::new(self.config.params, initial_phi)?;
        ledger.set_migration_capacity(self.config.migration_capacity);
        self.ledger = Some(ledger);
        if !strategy.consumes_history() {
            self.history.release();
        }
        Ok(())
    }

    /// Closes the buffered evaluation window: full protocol, row onto
    /// `rows`, window committed to strategy and history, buffers
    /// rotated (the processed window becomes the next recent window).
    fn close_epoch(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        feed: &mut Feed,
        rows: &mut Vec<EpochMetrics>,
    ) {
        self.metrics.queue_depth.set(feed.buf.len() as f64);
        rows.push(self.process_epoch(strategy, &feed.buf, &feed.recent));
        strategy.after_epoch(&feed.buf);
        if strategy.consumes_history() {
            self.history.absorb(&feed.buf);
        } else {
            self.history.record_unretained(feed.buf.len());
        }
        std::mem::swap(&mut feed.recent, &mut feed.buf);
        feed.buf.clear();
        feed.window_start += feed.tau;
        if self.aggregate.epochs() >= self.config.eval_epochs {
            feed.phase = Phase::Done;
        }
        self.debug_check(strategy, feed);
    }

    /// One evaluation window through the epoch protocol: strategy
    /// decision, allocation install, beacon commit bounded by λ,
    /// reconfiguration, per-shard processing, metric extraction. The
    /// returned row has already been folded into the running aggregate.
    fn process_epoch(
        &mut self,
        strategy: &mut dyn EpochStrategy,
        window: &[Transaction],
        recent: &[Transaction],
    ) -> EpochMetrics {
        let ledger = self
            .ledger
            .as_mut()
            .expect("the feed crosses the training cut before any window closes");
        let score_span = self.recorder.span("epoch.score");
        let decision = strategy.before_epoch(
            ledger,
            EpochCtx {
                window,
                recent_window: recent,
                history: &mut self.history,
                params: self.config.params,
            },
        );
        score_span.finish();
        if let Some(elapsed) = decision.alloc_time {
            self.alloc_stats.record(elapsed);
        }
        if let Some(bytes) = decision.input_bytes {
            self.input_bytes_sum += bytes;
            self.input_samples += 1;
        }
        if let Some(phi) = decision.new_phi {
            let migrate_span = self.recorder.span("epoch.migrate");
            ledger.set_allocation(phi).expect("same shard count");
            migrate_span.finish();
        }

        let commit_span = self.recorder.span("epoch.commit");
        let outcome = ledger.process_epoch(window);
        commit_span.finish();
        let migrations = decision.moved + outcome.committed.len();
        self.total_migrations += migrations;
        let metrics = EpochMetrics::from_load(&outcome.load, migrations);
        self.aggregate.push(&metrics);
        self.metrics.epochs.incr();
        self.metrics.committed.add(outcome.committed.len() as u64);
        self.metrics.stale.add(outcome.migrations_stale as u64);
        self.metrics.cross_ratio.set(metrics.cross_ratio);
        self.last_epoch = Some(outcome);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use mosaic_types::SystemParams;
    use mosaic_workload::{generate, WorkloadConfig};

    /// The owner sees across components: a committed migration undone
    /// behind the beacon's back leaves ϕ, the chains and the load each
    /// consistent on its own, and only the core's check fails.
    #[test]
    fn check_invariants_catches_a_committed_account_moved_back() {
        let workload = WorkloadConfig::small_test(7);
        let trace = generate(&workload).into_trace();
        let txs: Vec<Transaction> = trace.iter().copied().collect();
        let params = SystemParams::builder().shards(4).tau(50).build().unwrap();
        let config = ExperimentConfig::new(params, Strategy::Mosaic, 4);
        let mut core = AllocationCore::new(config);
        let mut strategy = config.strategy.build(params);
        let mut rows = Vec::new();
        core.begin(workload.blocks).unwrap();
        let mut rest = &txs[..];
        let committed = loop {
            let boundary = core.next_boundary().expect("an epoch commits a migration");
            let n = rest.partition_point(|tx| tx.block.as_u64() < boundary);
            core.ingest_block(strategy.as_mut(), &rest[..n], &mut rows)
                .unwrap();
            core.advance_to(strategy.as_mut(), boundary, &mut rows)
                .unwrap();
            rest = &rest[n..];
            match core.last_epoch.as_ref().and_then(|e| e.committed.first()) {
                Some(&mr) => break mr,
                None => continue,
            }
        };
        core.check_invariants(strategy.as_ref()).unwrap();

        let ledger = core.ledger.as_mut().unwrap();
        let phi = ledger.phi_mut();
        phi.assign(committed.account, committed.from).unwrap();
        ledger.check_invariants().unwrap();
        let err = core.check_invariants(strategy.as_ref()).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Inconsistent {
                    component: "core",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// A strategy that consumes the history keeps every transaction in
    /// its graph: one counted but not kept fails only the core's check.
    #[test]
    fn check_invariants_catches_a_history_that_dropped_a_transaction() {
        let workload = WorkloadConfig::small_test(7);
        let trace = generate(&workload).into_trace();
        let txs: Vec<Transaction> = trace.iter().copied().collect();
        let params = SystemParams::builder().shards(4).tau(50).build().unwrap();
        let config = ExperimentConfig::new(params, Strategy::GTxAllo, 4);
        let mut core = AllocationCore::new(config);
        let mut strategy = config.strategy.build(params);
        let mut rows = Vec::new();
        core.begin(workload.blocks).unwrap();
        let n = txs.len() / 2;
        core.ingest_block(strategy.as_mut(), &txs[..n], &mut rows)
            .unwrap();
        assert!(strategy.consumes_history() && !core.history.is_empty());
        core.check_invariants(strategy.as_ref()).unwrap();

        core.history.record_unretained(1);
        core.history.check_invariants().unwrap();
        let err = core.check_invariants(strategy.as_ref()).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Inconsistent {
                    component: "core",
                    ..
                }
            ),
            "{err}"
        );
    }
}
