//! The epoch engine: the strategy seam and the offline driver.
//!
//! The paper's evaluation (§V-A) runs five very different allocation
//! mechanisms through the *same* protocol — initial allocation on the
//! training prefix, then per-epoch allocation updates, beacon commits and
//! metric collection over the evaluation epochs. The protocol lives in
//! [`AllocationCore`]; this module holds what plugs into it:
//!
//! * [`EpochStrategy`] is the seam between the protocol and the
//!   mechanisms — a blanket impl adapts any miner-driven
//!   [`GlobalAllocator`] (Metis, G-TxAllo), [`StaticStrategy`] wraps
//!   the hash-based Random baseline, [`AdaptiveTxAllo`] wraps
//!   the incremental A-TxAllo update, and [`MosaicStrategy`] wraps the
//!   client-driven [`MosaicFramework`]. Adding a sixth strategy is a new
//!   impl plus a registry entry ([`crate::Strategy::build`]);
//! * [`History`] is the transaction history strategies see: windows are
//!   absorbed into a [`GrowingGraph`], the same type that holds Pilot's
//!   client population. Until the initial allocation reads it, the
//!   graph only logs each edge as a node pair, and a fold sorts the log
//!   and merges it into the CSR in place; from then on it patches its
//!   rows per edge. Either way new edges and accounts reach the CSR only
//!   on a geometric schedule or when [`History::graph`] asks for the
//!   whole graph — so the training prefix costs O(log E) folds, not one
//!   per τ-chunk, and nothing ever runs a full `GraphBuilder::build` of
//!   the whole history (which stays in `mosaic-txgraph` as the reference
//!   oracle the growing graph is proptested against);
//! * [`run_cell`] is the offline driver: it reads an
//!   [`EpochWindowStream`] — resident trace, generator or CSV file, all
//!   the same to it — into the core and hands each finished epoch's row
//!   to the caller, so rows can go straight to a sink and the paper's
//!   `full` 200-epoch protocol runs in bounded memory.
//!
//! One thread drives a cell from its first window to its last row. Only
//! whole cells ([`crate::Simulation::run`]) and, inside a Pilot cell,
//! the clients' scoring pass (node-range lanes submitted in order, see
//! [`MosaicFramework::propose`]) run in parallel.

use std::marker::PhantomData;
use std::time::Duration;

use mosaic_chain::Ledger;
use mosaic_core::{ClientPolicy, MosaicFramework};
use mosaic_metrics::data_size::miner_input_bytes;
use mosaic_metrics::timing::time_it;
use mosaic_metrics::{Aggregate, EpochMetrics};
use mosaic_partition::{GlobalAllocator, HashAllocator};
use mosaic_telemetry::Recorder;
use mosaic_txallo::{ATxAllo, GTxAllo, TxAlloConfig, WindowRefinement};
use mosaic_txgraph::{GrowingGraph, TxGraph};
use mosaic_types::{ensure, AccountShardMap, Result, SystemParams, Transaction};
use mosaic_workload::EpochWindowStream;

use crate::alloc_core::AllocationCore;
use crate::strategy::Strategy;

/// One experiment cell of the §V-A protocol: one strategy × one
/// parameter set × one trace. "The first 90% of the dataset is used for
/// the initial allocation, while the remaining 10% is reserved for
/// evaluation."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// System parameters (k, η, τ, λ policy, β).
    pub params: SystemParams,
    /// The allocation strategy under test.
    pub strategy: Strategy,
    /// Fraction of trace *blocks* used for initial allocation (paper:
    /// 0.9).
    pub train_fraction: f64,
    /// Maximum evaluation epochs to run (paper: 200).
    pub eval_epochs: usize,
    /// Migration-commit cap override (`None` = the paper's `λ` bound).
    /// Only meaningful for the client-driven strategy.
    pub migration_capacity: Option<usize>,
}

impl ExperimentConfig {
    /// Builds a config with the paper's protocol defaults (90/10 split).
    pub fn new(params: SystemParams, strategy: Strategy, eval_epochs: usize) -> Self {
        ExperimentConfig {
            params,
            strategy,
            train_fraction: 0.9,
            eval_epochs,
            migration_capacity: None,
        }
    }
}

/// Incrementally accreted transaction history.
///
/// Committed windows are absorbed into a [`GrowingGraph`]: a long-lived
/// CSR plus the edges and accounts first seen since its last fold —
/// over the training prefix, which nothing reads before the initial
/// allocation, a log of node pairs; after the first [`History::graph`],
/// per-row overflow blocks next to a CSR patched in place. Absorbing
/// folds only once those reach an eighth of the CSR, and
/// [`History::graph`] folds the rest — at most one O(V + E) fold per
/// read, and O(log E) over a stream of windows nobody reads. Strategies
/// that never ask after the initial allocation (A-TxAllo) stop absorbing
/// there, and those that never ask at all (Mosaic, Random) only count
/// transactions.
///
/// The history owns everything it keeps. The lifetime parameter is
/// unused: the end-to-end benchmark crate, which a PR may not edit,
/// names the type as `History<'_>`.
#[derive(Debug, Default)]
pub struct History<'t> {
    graph: GrowingGraph,
    txs: usize,
    _lifetime: PhantomData<&'t ()>,
}

impl History<'_> {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Total transactions in the history (including not-yet-folded and
    /// unretained windows).
    pub fn len(&self) -> usize {
        self.txs
    }

    /// Returns `true` if no transaction has been recorded.
    pub fn is_empty(&self) -> bool {
        self.txs == 0
    }

    /// Records the graph's folds in `recorder`; see
    /// [`GrowingGraph::set_recorder`].
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.graph.set_recorder(recorder);
    }

    /// Folds `txs` into the graph (the part a miner amortises while
    /// blocks commit) without retaining the slice, folding into the CSR
    /// on [`GrowingGraph::absorb`]'s schedule. Accumulation order equals
    /// slice order, so chunked absorption builds the same graph as one
    /// monolithic call.
    pub fn absorb(&mut self, txs: &[Transaction]) {
        if txs.is_empty() {
            return;
        }
        self.graph.absorb(txs);
        self.txs += txs.len();
    }

    /// Records `n` transactions as part of the history *without* keeping
    /// them — for strategies that never consult the graph
    /// ([`EpochStrategy::consumes_history`] = `false`), so
    /// [`History::len`]-based accounting (e.g. miner input bytes) stays
    /// the same while nothing is stored.
    pub fn record_unretained(&mut self, n: usize) {
        self.txs += n;
    }

    /// Frees the graph (CSR, log and overflow) while keeping the
    /// transaction count. The core calls this right after the initial
    /// allocation when the strategy will never consult the history
    /// again — from then on the cell's footprint is bounded by the
    /// current + recent window alone.
    pub fn release(&mut self) {
        self.graph = GrowingGraph::default();
    }

    /// Edges of the folded CSR, not counting the log's or the
    /// overflow's; never forces a fold.
    pub fn merged_edge_count(&self) -> usize {
        self.graph.merged_edge_count()
    }

    /// The full-history interaction graph: folds whatever is new into
    /// the long-lived CSR; with nothing absorbed since the last fold
    /// this is a cache hit.
    pub fn graph(&mut self) -> &TxGraph {
        self.graph.graph()
    }

    /// Checks the graph; see [`GrowingGraph::check_invariants`].
    pub fn check_invariants(&self) -> Result<()> {
        self.graph.check_invariants()
    }

    /// Transactions the graph holds and its node count: what
    /// [`AllocationCore`] cross-checks against [`History::len`].
    pub(crate) fn retained(&self) -> (u64, usize) {
        (self.graph.transaction_count(), self.graph.node_count())
    }
}

/// Everything a strategy may look at before an epoch is processed.
///
/// The windows borrow from the core's short-lived buffers (`'w`); the
/// history retains none of them.
#[derive(Debug)]
pub struct EpochCtx<'e, 'w, 't> {
    /// The upcoming epoch's transactions (the mempool the oracle sees).
    pub window: &'w [Transaction],
    /// The previous epoch's transactions (the recent window incremental
    /// strategies consume; initially the last τ blocks of training).
    pub recent_window: &'w [Transaction],
    /// The committed history up to (excluding) this epoch.
    pub history: &'e mut History<'t>,
    /// System parameters of the experiment cell.
    pub params: SystemParams,
}

/// What a strategy decided for the upcoming epoch.
#[derive(Debug)]
pub struct EpochDecision {
    /// A full replacement ϕ to install before processing (miner-driven
    /// recomputation), or `None` if the allocation evolves through the
    /// beacon chain, in place through [`Ledger::phi_mut`], or not at
    /// all.
    pub new_phi: Option<AccountShardMap>,
    /// Accounts the strategy moved itself (the allocation diff of a
    /// miner-driven update). The epoch's migration count is this plus
    /// the requests the beacon commits, which only a client-driven
    /// strategy submits.
    pub moved: usize,
    /// Wall-clock cost of this epoch's allocation work: the full
    /// recomputation for miner-driven strategies, the *mean per-client*
    /// decision time for client-driven ones (the quantity Table IV
    /// compares). `None` records no timing sample.
    pub alloc_time: Option<Duration>,
    /// Bytes of input the allocation consumed (per client for
    /// client-driven strategies). `None` records no sample.
    pub input_bytes: Option<f64>,
}

/// One allocation mechanism under the §V-A evaluation protocol.
///
/// Implementations must be deterministic: the parallel experiment grid
/// relies on every cell producing identical results regardless of
/// scheduling (see the `parallel_grid_output_is_byte_identical_to_sequential`
/// integration test).
pub trait EpochStrategy {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// `true` for client-driven strategies: the allocation evolves only
    /// through migration requests the strategy submits to the beacon
    /// chain. [`AllocationCore::check_invariants`] holds the beacon's
    /// commits to the cell's migration count for these strategies and to
    /// zero for every other one.
    fn is_client_driven(&self) -> bool {
        false
    }

    /// Ingests one chunk of the training prefix, in block order, before
    /// [`EpochStrategy::initial_allocation`] runs. The core calls it
    /// per training chunk (at most τ blocks). Implementations must be
    /// chunking-invariant: a sequence of calls in order is equivalent to
    /// one call on the concatenation. Default: ignore (graph strategies
    /// read the training data from `history` instead).
    fn observe_training(&mut self, chunk: &[Transaction]) {
        let _ = chunk;
    }

    /// Computes the initial ϕ from the training prefix and returns it
    /// with the wall-clock time of the allocation itself. `history`
    /// already contains exactly the training transactions, and
    /// [`EpochStrategy::observe_training`] has already seen them.
    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration);

    /// `true` if the strategy consults [`EpochCtx::history`] after the
    /// initial allocation. Strategies that never do (client-driven
    /// Mosaic, the static hash baseline, incremental A-TxAllo) return
    /// `false`, which lets the core free the accreted graph and stop
    /// absorbing windows — the memory bound the 10M-account scenarios
    /// rely on.
    fn consumes_history(&self) -> bool {
        true
    }

    /// `true` if [`EpochStrategy::initial_allocation`] reads the
    /// training graph ([`History::graph`]). Strategies returning
    /// `false` promise an identical initial ϕ for *any* graph content —
    /// including the empty graph — which, combined with
    /// [`EpochStrategy::consumes_history`] `= false`, lets the core skip
    /// training-graph edge accumulation entirely: no graph at all, just
    /// the transaction count. The rule-only hash baseline qualifies, and
    /// so does [`MosaicStrategy`], which reads the graph its own clients
    /// built in [`EpochStrategy::observe_training`]; the default is
    /// conservative.
    fn needs_training_graph(&self) -> bool {
        true
    }

    /// Runs the strategy's allocation step for the upcoming epoch. Called
    /// once per evaluation epoch, *before* the ledger processes
    /// `ctx.window`; client-driven strategies submit their migration
    /// requests to `ledger` here.
    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision;

    /// Observes the committed window after the ledger processed it
    /// (client-driven strategies fold it into client histories).
    fn after_epoch(&mut self, window: &[Transaction]) {
        let _ = window;
    }

    /// Hands the strategy the recorder scoped to its cell (or node
    /// session), for gauges that describe that cell alone and that
    /// concurrent cells would otherwise overwrite. Called before the
    /// cell runs. Default: ignore.
    fn scope_telemetry(&mut self, recorder: &Recorder) {
        let _ = recorder;
    }

    /// Checks the strategy's own state for
    /// [`AllocationCore::check_invariants`]. Default: nothing to check.
    fn check_invariants(&self) -> Result<()> {
        Ok(())
    }
}

/// Blanket adapter: every miner-driven [`GlobalAllocator`] is an
/// [`EpochStrategy`] that recomputes ϕ on the full history each epoch
/// (the paper's "global optimization" row of Table VI). The graph
/// materialisation happens inside the timed region, exactly as a miner
/// recomputing from its replicated history would pay for it.
impl<A: GlobalAllocator> EpochStrategy for A {
    fn name(&self) -> &'static str {
        GlobalAllocator::name(self)
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        let graph = history.graph();
        time_it(|| self.allocate(graph, k))
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        let input_bytes = miner_input_bytes(ctx.history.len()) as f64;
        // In-place accumulation already happened as windows were
        // absorbed (a miner folds blocks in as they commit, and folds
        // the pending edges into the CSR when they reach an eighth of
        // it); the remaining fold into the maintained CSR + the
        // allocation is the per-epoch recomputation Table IV measures,
        // so both run inside `time_it`.
        let (phi, elapsed) = time_it(|| self.allocate(ctx.history.graph(), ctx.params.shards()));
        // The implicit migrations: accounts whose shard the new ϕ changes.
        let old = ledger.phi();
        let moved = phi
            .iter()
            .filter(|&(account, shard)| old.shard_of(account) != shard)
            .count();
        EpochDecision {
            new_phi: Some(phi),
            moved,
            alloc_time: Some(elapsed),
            input_bytes: Some(input_bytes),
        }
    }
}

/// Adapter for the paper's hash-based "Random" baseline: the initial
/// allocation runs once, then nothing ever moves and every epoch records
/// a zero-cost sample.
#[derive(Debug, Clone)]
pub struct StaticStrategy(pub HashAllocator);

impl EpochStrategy for StaticStrategy {
    fn name(&self) -> &'static str {
        GlobalAllocator::name(&self.0)
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        EpochStrategy::initial_allocation(&mut self.0, history, k)
    }

    fn consumes_history(&self) -> bool {
        false
    }

    /// The hash rule never reads the graph, so the core can skip
    /// building it.
    fn needs_training_graph(&self) -> bool {
        false
    }

    fn before_epoch(&mut self, _ledger: &mut Ledger, _ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        EpochDecision {
            new_phi: None,
            moved: 0,
            alloc_time: Some(Duration::ZERO),
            input_bytes: None,
        }
    }
}

/// Adapter for the incremental A-TxAllo baseline: the initial ϕ is
/// G-TxAllo's result on the training prefix (§V-B), then each epoch only
/// the accounts active in the recent window are re-placed.
///
/// Debug builds keep the last update's window graph and parts, moved
/// out of [`ATxAllo::update`] rather than copied, and
/// [`EpochStrategy::check_invariants`] certifies them against TxAllo's
/// score ([`WindowRefinement::improving_moves`]): after a converged
/// sweep no single-account move may still raise it. Every check sets
/// the cell's `txallo.improving_moves` gauge to the count of moves that
/// would, so it reads the latest window's distance from the local
/// optimum: 0 after a converged sweep, possibly more after one the
/// round limit cut short. Release builds drop the window at once. In
/// every build, each epoch whose sweep the round limit cut short adds
/// one to the cell's `txallo.sweeps_cut_short` counter.
#[derive(Debug, Clone)]
pub struct AdaptiveTxAllo {
    init: GTxAllo,
    adaptive: ATxAllo,
    last: Option<WindowRefinement>,
    /// Where the certificate's gauge and the cut-short counter go: the
    /// recorder the adapter was built with, until
    /// [`EpochStrategy::scope_telemetry`] scopes it to the cell.
    certificate: Recorder,
}

impl AdaptiveTxAllo {
    /// Builds the adapter from a shared TxAllo configuration.
    pub fn new(config: TxAlloConfig) -> Self {
        AdaptiveTxAllo::with_recorder(config, mosaic_telemetry::global())
    }

    fn with_recorder(config: TxAlloConfig, recorder: Recorder) -> Self {
        AdaptiveTxAllo {
            init: GTxAllo::with_recorder(config, recorder.clone()),
            adaptive: ATxAllo::with_recorder(config, recorder.clone()),
            last: None,
            certificate: recorder,
        }
    }
}

impl EpochStrategy for AdaptiveTxAllo {
    fn name(&self) -> &'static str {
        "A-TxAllo"
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        EpochStrategy::initial_allocation(&mut self.init, history, k)
    }

    fn consumes_history(&self) -> bool {
        false
    }

    /// Refines the window's accounts in the ledger's ϕ in place: a
    /// miner-driven move that bypasses the beacon, at the cost of the
    /// window, not of the population.
    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        let phi = ledger.phi_mut();
        let (refined, elapsed) = time_it(|| self.adaptive.update(phi, ctx.recent_window));
        let moved = refined.moved;
        if !refined.converged {
            self.certificate.add("txallo.sweeps_cut_short", 1);
        }
        if cfg!(debug_assertions) {
            self.last = Some(refined);
        }
        EpochDecision {
            new_phi: None,
            moved,
            alloc_time: Some(elapsed),
            input_bytes: Some(miner_input_bytes(ctx.recent_window.len()) as f64),
        }
    }

    fn scope_telemetry(&mut self, recorder: &Recorder) {
        self.certificate = recorder.clone();
    }

    fn check_invariants(&self) -> Result<()> {
        let Some(last) = &self.last else {
            return Ok(());
        };
        ensure!(
            last.parts.len() == last.graph.node_count()
                && last.parts.iter().all(|&p| p < last.shards),
            "txallo",
            "{} parts for {} window accounts, k = {}",
            last.parts.len(),
            last.graph.node_count(),
            last.shards
        );
        let improving = last.improving_moves();
        self.certificate
            .set_gauge("txallo.improving_moves", improving as f64);
        ensure!(
            improving == 0 || !last.converged,
            "txallo",
            "{improving} single-account moves still raise the objective after a converged \
             sweep over {} window accounts",
            last.graph.node_count()
        );
        Ok(())
    }
}

/// Adapter for the client-driven Mosaic framework with an arbitrary
/// client policy — [`mosaic_core::policy::PilotPolicy`] reproduces the
/// paper; the other policies in [`mosaic_core::policy`] ablate Pilot's
/// two decision signals.
///
/// Each epoch follows §V-A: the oracle publishes `Ω` from the upcoming
/// window under the current ϕ, clients receive their β-sample of
/// expected transactions, every client runs its policy and proposes
/// migrations, the ledger commits ≤ λ of them while processing the
/// window, and clients observe the committed transactions.
///
/// The strategy owns the cell's only interaction graph: the framework's
/// population graph, a [`GrowingGraph`] like [`History`]'s, is fed the
/// training prefix and is also what G-TxAllo reads for the initial ϕ,
/// so [`History`] stays empty (count only) for a Pilot cell. The
/// training prefix only goes into the graph's log, folded into the CSR
/// by sort-merges, until the initial allocation reads the graph; from
/// then on the framework keeps that CSR in place and adds each window's
/// new edges and clients next to it, so learning an epoch costs
/// O(window · log deg) and the graph is rewritten only by a fold once
/// the additions reach an eighth of it.
#[derive(Debug, Clone)]
pub struct MosaicStrategy<P> {
    params: SystemParams,
    framework: MosaicFramework<P>,
    init: GTxAllo,
}

impl<P: ClientPolicy> MosaicStrategy<P> {
    /// Builds the client population for one experiment cell.
    pub fn new(params: SystemParams, policy: P) -> Self {
        MosaicStrategy {
            params,
            framework: MosaicFramework::with_policy(params, policy),
            init: GTxAllo::new(TxAlloConfig::with_eta(params.eta())),
        }
    }
}

impl<P: ClientPolicy> EpochStrategy for MosaicStrategy<P> {
    fn name(&self) -> &'static str {
        "Pilot"
    }

    fn is_client_driven(&self) -> bool {
        true
    }

    fn observe_training(&mut self, chunk: &[Transaction]) {
        // §V-B: clients preload their histories from the training
        // transactions. `observe_epoch` is a per-transaction fold in
        // slice order, so chunked ingestion is chunking-invariant;
        // `initial_allocation`'s `graph()` completes the fold.
        self.framework.observe_epoch(chunk);
    }

    fn initial_allocation(
        &mut self,
        _history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        // §V-B: ϕ is initialised with G-TxAllo's result, on the graph
        // the clients' preloaded histories already form.
        let graph = self.framework.graph();
        time_it(|| self.init.allocate(graph, k))
    }

    fn consumes_history(&self) -> bool {
        false
    }

    fn needs_training_graph(&self) -> bool {
        false
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        // The client population was sized and seeded from construction
        // params; running it under a different cell would silently skew Ω
        // (or index out of shard bounds), so mismatches fail loudly.
        assert_eq!(
            ctx.params, self.params,
            "MosaicStrategy was built with different SystemParams than the experiment cell"
        );

        // Step 1: mempool-derived workload distribution Ω (§V-A), through
        // the ledger's own classification pass so the window's accounts
        // are resolved once for both this pass and phase 3.
        let omega = ledger.classify(ctx.window).workload_vector();

        // Step 2: future knowledge (β-sample of the upcoming window).
        self.framework.set_expectations(ctx.window);

        // Step 3: every client proposes; requests land on the beacon.
        let report = self.framework.propose(ledger, &omega);

        EpochDecision {
            new_phi: None,
            moved: 0,
            alloc_time: Some(report.mean_decision_time),
            input_bytes: Some(report.mean_input_bytes),
        }
    }

    fn after_epoch(&mut self, window: &[Transaction]) {
        self.framework.observe_epoch(window);
    }

    fn scope_telemetry(&mut self, recorder: &Recorder) {
        self.framework.set_recorder(recorder);
    }

    fn check_invariants(&self) -> Result<()> {
        self.framework.check_invariants()
    }
}

/// The aggregated outcome of one cell: everything but the per-epoch rows,
/// which go to the caller's observer as they are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Means over the evaluation epochs (bit-identical to
    /// [`Aggregate::over`] on the observed rows in order).
    pub aggregate: Aggregate,
    /// Number of evaluation epochs processed.
    pub epochs: usize,
    /// Wall-clock seconds of the initial (training-prefix) allocation.
    pub init_seconds: f64,
    /// Mean per-epoch allocation runtime in seconds. For miner-driven
    /// strategies this is the full recomputation; for Mosaic it is the
    /// mean *per-client* Pilot execution time — the quantity Table IV
    /// compares.
    pub mean_alloc_seconds: f64,
    /// Mean bytes of input per allocation run (per client for Mosaic).
    pub mean_input_bytes: f64,
    /// Total account moves over the evaluation (committed migration
    /// requests for Mosaic; allocation-diff moves for miner-driven).
    pub total_migrations: usize,
}

/// Runs one experiment cell offline: feeds `stream` through an
/// [`AllocationCore`], one training chunk or evaluation window per read,
/// and hands each epoch's metric row to `on_epoch(epoch_index, row)` the
/// moment the epoch closes. The core holds O(1) metric state and at
/// most the current and previous window, so neither trace length nor
/// epoch count bounds memory when the observer streams rows to disk.
///
/// The observer returns whether to **continue**: `false` stops the cell
/// after the current epoch (its row is already in the summary), so a
/// sink failure doesn't burn the rest of a long protocol.
///
/// `recorder` is the cell's own: the strategy's cell gauges and
/// counters ([`EpochStrategy::scope_telemetry`]) and the history
/// graph's fold counts ([`AllocationCore::scope_telemetry`]) go to it,
/// while the core's phase spans and `core.*` counters stay on the
/// process-wide recorder.
///
/// # Errors
///
/// [`mosaic_types::Error::EmptyTrace`] if the stream spans no blocks;
/// stream read errors; ledger construction errors at the training cut.
pub fn run_cell(
    config: &ExperimentConfig,
    stream: &mut EpochWindowStream,
    strategy: &mut dyn EpochStrategy,
    recorder: &Recorder,
    on_epoch: &mut dyn FnMut(usize, &EpochMetrics) -> bool,
) -> Result<RunSummary> {
    strategy.scope_telemetry(recorder);
    let mut core = AllocationCore::new(*config);
    core.scope_telemetry(recorder);
    core.begin(stream.blocks())?;
    let mut batch: Vec<Transaction> = Vec::new();
    let mut rows: Vec<EpochMetrics> = Vec::new();
    let mut epoch = 0;
    let mut fan = |rows: &mut Vec<EpochMetrics>| {
        rows.drain(..).all(|row| {
            epoch += 1;
            on_epoch(epoch - 1, &row)
        })
    };
    // Reading exactly to the core's next boundary closes at most one
    // window per pass, so the observer's verdict is heard before the
    // next epoch runs.
    while let Some(boundary) = core.next_boundary() {
        batch.clear();
        stream.read_to(boundary, &mut batch)?;
        core.ingest_block(strategy, &batch, &mut rows)?;
        core.advance_to(strategy, stream.position(), &mut rows)?;
        if !fan(&mut rows) {
            return Ok(core.summary());
        }
        if stream.position() >= stream.blocks() {
            break;
        }
    }
    core.end_stream(strategy, &mut rows)?;
    fan(&mut rows);
    Ok(core.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{AccountId, BlockHeight, TxId};

    fn tx(id: u64, from: u64, to: u64, block: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(block),
        )
    }

    #[test]
    fn history_accretes_lazily() {
        let a: Vec<Transaction> = (0..10).map(|i| tx(i, 1, 2, i)).collect();
        let b: Vec<Transaction> = (10..14).map(|i| tx(i, 2, 3, i)).collect();
        let mut h = History::new();
        assert!(h.is_empty());
        h.absorb(&a);
        h.absorb(&b);
        assert_eq!(h.len(), 14);
        let edge_count = h.graph().edge_count();
        assert_eq!(edge_count, 2);
        // Cached: a second call cheaply returns the same snapshot.
        assert_eq!(h.graph().edge_count(), edge_count);
    }

    /// Two groups of six accounts that trade only among themselves: a
    /// window A-TxAllo's default round limit sweeps to a fixed point.
    fn grouped_window() -> Vec<Transaction> {
        (0..120)
            .map(|i| {
                let group = 10 * (i % 2);
                tx(i, group + i % 5, group + (i / 2) % 5 + 1, 0)
            })
            .collect()
    }

    /// The certificate after a converged sweep: it holds, and one planted
    /// improving move — an account pulled away from its neighbours —
    /// makes the owner hook fail under the `txallo` component.
    #[test]
    fn adaptive_txallo_certifies_a_converged_sweep() {
        let config = TxAlloConfig {
            capacity_slack: 100.0,
            ..TxAlloConfig::default()
        };
        let mut adaptive = AdaptiveTxAllo::with_recorder(config, Recorder::enabled());
        adaptive.check_invariants().unwrap();
        let mut phi = AccountShardMap::new(4);
        let refined = adaptive.adaptive.update(&mut phi, &grouped_window());
        assert!(refined.converged && refined.moved > 0, "{refined:?}");
        adaptive.last = Some(refined);
        adaptive.check_invariants().unwrap();

        let last = adaptive.last.as_mut().unwrap();
        let v = 0;
        assert!(last.graph.neighbors(mosaic_txgraph::NodeId::new(v)).count() > 0);
        last.parts[v as usize] = (last.parts[v as usize] + 1) % last.shards;
        assert!(last.improving_moves() > 0);
        let err = adaptive.check_invariants().unwrap_err();
        assert!(
            matches!(
                err,
                mosaic_types::Error::Inconsistent {
                    component: "txallo",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// Every check sets the cell's gauge to the improving moves the
    /// latest window left: a sweep the round limit cut short may leave
    /// some without failing the hook, and a converged one sets the gauge
    /// back to 0.
    #[test]
    fn adaptive_txallo_gauges_the_latest_window_per_cell() {
        let recorder = Recorder::enabled();
        let gauge = || match recorder.snapshot().gauges.as_slice() {
            [(name, value)] if name == "k4.txallo.improving_moves" => *value as usize,
            other => panic!("{other:?}"),
        };
        let update = |config| {
            let mut phi = AccountShardMap::new(4);
            ATxAllo::new(config).update(&mut phi, &grouped_window())
        };
        let config = TxAlloConfig {
            capacity_slack: 100.0,
            ..TxAlloConfig::default()
        };
        let mut adaptive = AdaptiveTxAllo::with_recorder(config, Recorder::disabled());
        adaptive.scope_telemetry(&recorder.scoped("k4"));

        let one_round = update(TxAlloConfig {
            rounds: 1,
            ..config
        });
        assert!(
            !one_round.converged,
            "one round cannot reach the fixed point"
        );
        let left = one_round.improving_moves();
        adaptive.last = Some(one_round);
        adaptive.check_invariants().unwrap();
        assert_eq!(gauge(), left);

        let converged = update(config);
        assert!(converged.converged, "{converged:?}");
        let mut cut_short = converged.clone();
        cut_short.converged = false;
        cut_short.parts[0] = (cut_short.parts[0] + 1) % cut_short.shards;
        let left = cut_short.improving_moves();
        assert!(left > 0);
        adaptive.last = Some(cut_short);
        adaptive.check_invariants().unwrap();
        assert_eq!(gauge(), left);

        adaptive.last = Some(converged);
        adaptive.check_invariants().unwrap();
        assert_eq!(gauge(), 0);
    }

    /// An epoch whose sweep the round limit cut short counts once in
    /// the cell's `txallo.sweeps_cut_short`; a converged one counts
    /// nothing.
    #[test]
    fn adaptive_txallo_counts_sweeps_cut_short_per_cell() {
        let recorder = Recorder::enabled();
        let counted = || {
            let snapshot = recorder.snapshot();
            let counters = snapshot.counters.iter();
            counters
                .map(|(name, value)| {
                    assert_eq!(name, "k4.txallo.sweeps_cut_short");
                    *value
                })
                .sum::<u64>()
        };
        let epoch = |rounds| {
            let config = TxAlloConfig {
                capacity_slack: 100.0,
                rounds,
                ..TxAlloConfig::default()
            };
            let mut adaptive = AdaptiveTxAllo::with_recorder(config, Recorder::disabled());
            adaptive.scope_telemetry(&recorder.scoped("k4"));
            let params = SystemParams::builder().shards(4).build().unwrap();
            let mut ledger = Ledger::new(params, AccountShardMap::new(4)).unwrap();
            let window = grouped_window();
            let ctx = EpochCtx {
                window: &window,
                recent_window: &window,
                history: &mut History::new(),
                params,
            };
            assert!(adaptive.before_epoch(&mut ledger, ctx).moved > 0);
        };

        epoch(1);
        assert_eq!(counted(), 1, "one round cannot reach the fixed point");
        epoch(TxAlloConfig::default().rounds);
        assert_eq!(counted(), 1, "a converged sweep counts nothing");
        epoch(1);
        assert_eq!(counted(), 2);
    }
}
