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
//!   rule-only allocation (hash-based Random), [`AdaptiveTxAllo`] wraps
//!   the incremental A-TxAllo update, and [`MosaicStrategy`] wraps the
//!   client-driven [`MosaicFramework`]. Adding a sixth strategy is a new
//!   impl plus a registry entry ([`crate::Strategy::build`]);
//! * [`History`] is the transaction history strategies see: windows are
//!   absorbed into a [`GrowingGraph`], which merges its pending delta
//!   into the CSR only on a geometric schedule or when
//!   [`History::graph`] asks for the whole graph — so the training
//!   prefix costs O(log E) merges, not one per τ-chunk, and nothing ever
//!   runs a full `GraphBuilder::build` of the whole history (which stays
//!   in `mosaic-txgraph` as the reference oracle the delta path is
//!   proptested against);
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
use mosaic_partition::GlobalAllocator;
use mosaic_txallo::{ATxAllo, GTxAllo, TxAlloConfig};
use mosaic_txgraph::{GrowingGraph, TxGraph};
use mosaic_types::{AccountShardMap, Result, SystemParams, Transaction};
use mosaic_workload::EpochWindowStream;

use crate::alloc_core::AllocationCore;
use crate::runner::ExperimentConfig;

/// Incrementally accreted transaction history.
///
/// Committed windows are absorbed into a [`GrowingGraph`]: a long-lived
/// CSR plus the delta pending since its last merge. Absorbing merges
/// only once the pending edges reach an eighth of the CSR's, and
/// [`History::graph`] merges the rest — at most one O(V + E) merge per
/// read, and O(log E) over a stream of windows nobody reads (the
/// training prefix). Strategies that never ask after the initial
/// allocation (A-TxAllo) stop absorbing there, and those that never ask
/// at all (Mosaic, Random) only count transactions.
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

    /// Total transactions in the history (including not-yet-merged
    /// windows).
    pub fn len(&self) -> usize {
        self.txs
    }

    /// Returns `true` if no transaction has been recorded.
    pub fn is_empty(&self) -> bool {
        self.txs == 0
    }

    /// Folds `txs` into the pending delta (hash-map accumulation, the
    /// part a miner amortises while blocks commit) without retaining
    /// the slice, merging into the CSR on [`GrowingGraph::absorb`]'s
    /// schedule. Accumulation order equals slice order, so chunked
    /// absorption builds the same graph as one monolithic call.
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

    /// Frees the graph state (merged CSR, pending delta) while keeping
    /// the transaction count. The core calls this right after the
    /// initial allocation when the strategy will never consult the
    /// history again — from then on the cell's footprint is bounded by
    /// the current + recent window alone.
    pub fn release(&mut self) {
        self.graph = GrowingGraph::default();
    }

    /// Edges of the merged CSR, not counting pending ones; never forces
    /// a merge.
    pub fn merged_edge_count(&self) -> usize {
        self.graph.merged_edge_count()
    }

    /// The full-history interaction graph: merges whatever is pending
    /// into the long-lived CSR; with nothing absorbed since the last
    /// merge this is a cache hit.
    pub fn graph(&mut self) -> &TxGraph {
        self.graph.graph()
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

/// How an epoch's account moves are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCount {
    /// The strategy moved accounts itself (allocation-diff moves of a
    /// miner-driven update); the engine records this number.
    Moves(usize),
    /// The strategy submitted migration requests to the beacon chain; the
    /// engine counts the requests the ledger actually commits.
    CommittedRequests,
}

/// What a strategy decided for the upcoming epoch.
#[derive(Debug)]
pub struct EpochDecision {
    /// A full replacement ϕ to install before processing (miner-driven
    /// recomputation), or `None` if the allocation evolves through the
    /// beacon chain or not at all.
    pub new_phi: Option<AccountShardMap>,
    /// How this epoch's migrations are counted.
    pub migrations: MigrationCount,
    /// Wall-clock cost of this epoch's allocation work: the full
    /// recomputation for miner-driven strategies, the *mean per-client*
    /// decision time for client-driven ones (the quantity Table IV
    /// compares). `None` records no timing sample.
    pub alloc_time: Option<Duration>,
    /// Bytes of input the allocation consumed (per client for
    /// client-driven strategies). `None` records no sample.
    pub input_bytes: Option<f64>,
}

impl EpochDecision {
    /// A decision that changes nothing and records a zero-cost sample
    /// (static strategies).
    pub fn unchanged() -> Self {
        EpochDecision {
            new_phi: None,
            migrations: MigrationCount::Moves(0),
            alloc_time: Some(Duration::ZERO),
            input_bytes: None,
        }
    }
}

/// One allocation mechanism under the §V-A evaluation protocol.
///
/// Implementations must be deterministic: the parallel experiment grid
/// relies on every cell producing identical results regardless of
/// scheduling (see `experiments::tests::parallel_grid_matches_sequential`).
pub trait EpochStrategy {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// `true` for client-driven strategies (allocation evolves through
    /// migration requests on the beacon chain; migrations are counted
    /// from beacon commits rather than reported by the strategy).
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
    /// training-graph edge accumulation entirely: no delta builder, no
    /// CSR, just the transaction count. The rule-only hash baseline
    /// qualifies, and so does [`MosaicStrategy`], which reads the graph
    /// its own clients built in [`EpochStrategy::observe_training`]; the
    /// default is conservative.
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

    /// Checks the strategy's own state for
    /// [`AllocationCore::check_invariants`]. Default: nothing to check.
    fn check_invariants(&self) -> Result<()> {
        Ok(())
    }
}

/// Counts accounts whose shard differs between `old` and `new` (the
/// implicit migrations a miner-driven update causes).
pub fn allocation_diff(old: &AccountShardMap, new: &AccountShardMap) -> usize {
    new.iter()
        .filter(|&(account, shard)| old.shard_of(account) != shard)
        .count()
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
        // Hash-map accumulation already happened as windows were
        // absorbed (a miner folds blocks in as they commit, and merges
        // there when a window reaches an eighth of the CSR); the
        // remaining delta merge into the maintained CSR + the
        // allocation is the per-epoch recomputation Table IV measures,
        // so both run inside `time_it`.
        let (phi, elapsed) = time_it(|| self.allocate(ctx.history.graph(), ctx.params.shards()));
        let moved = allocation_diff(ledger.phi(), &phi);
        EpochDecision {
            new_phi: Some(phi),
            migrations: MigrationCount::Moves(moved),
            alloc_time: Some(elapsed),
            input_bytes: Some(input_bytes),
        }
    }
}

/// Adapter for rule-only allocation (the paper's hash-based "Random"
/// baseline): the initial allocation runs once, then nothing ever moves
/// and every epoch records a zero-cost sample.
#[derive(Debug, Clone)]
pub struct StaticStrategy<A> {
    allocator: A,
}

impl<A: GlobalAllocator> StaticStrategy<A> {
    /// Wraps `allocator` as a never-recomputing strategy.
    pub fn new(allocator: A) -> Self {
        StaticStrategy { allocator }
    }
}

impl<A: GlobalAllocator> EpochStrategy for StaticStrategy<A> {
    fn name(&self) -> &'static str {
        self.allocator.name()
    }

    fn initial_allocation(
        &mut self,
        history: &mut History<'_>,
        k: u16,
    ) -> (AccountShardMap, Duration) {
        let graph = history.graph();
        time_it(|| self.allocator.allocate(graph, k))
    }

    fn consumes_history(&self) -> bool {
        false
    }

    fn needs_training_graph(&self) -> bool {
        // Rule-only allocators (hash-based Random) never read the
        // graph, so the core can skip building it.
        self.allocator.uses_graph()
    }

    fn before_epoch(&mut self, _ledger: &mut Ledger, _ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        EpochDecision::unchanged()
    }
}

/// Adapter for the incremental A-TxAllo baseline: the initial ϕ is
/// G-TxAllo's result on the training prefix (§V-B), then each epoch only
/// the accounts active in the recent window are re-placed.
#[derive(Debug, Clone)]
pub struct AdaptiveTxAllo {
    init: GTxAllo,
    update: ATxAllo,
}

impl AdaptiveTxAllo {
    /// Builds the adapter from a shared TxAllo configuration.
    pub fn new(config: TxAlloConfig) -> Self {
        AdaptiveTxAllo {
            init: GTxAllo::new(config),
            update: ATxAllo::new(config),
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
        let graph = history.graph();
        time_it(|| self.init.allocate(graph, k))
    }

    fn consumes_history(&self) -> bool {
        false
    }

    fn before_epoch(&mut self, ledger: &mut Ledger, ctx: EpochCtx<'_, '_, '_>) -> EpochDecision {
        let mut phi = ledger.phi().clone();
        let (moved, elapsed) = time_it(|| self.update.update(&mut phi, ctx.recent_window));
        EpochDecision {
            new_phi: Some(phi),
            migrations: MigrationCount::Moves(moved),
            alloc_time: Some(elapsed),
            input_bytes: Some(miner_input_bytes(ctx.recent_window.len()) as f64),
        }
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
/// population graph, preloaded from the training prefix, is also what
/// G-TxAllo reads for the initial ϕ, so [`History`] stays empty (count
/// only) for a Pilot cell. From the first epoch on, the framework keeps
/// that sorted CSR in place and adds each window's new edges and clients
/// next to it, so learning an epoch costs O(window · log deg) and no
/// Pilot epoch merges or rewrites the graph.
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
        // transactions. `preload` is a per-transaction fold in slice
        // order that merges on a geometric schedule, so chunked
        // ingestion is chunking-invariant; `initial_allocation`'s
        // `graph()` completes the fold.
        self.framework.preload(chunk);
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
            migrations: MigrationCount::CommittedRequests,
            alloc_time: Some(report.mean_decision_time),
            input_bytes: Some(report.mean_input_bytes),
        }
    }

    fn after_epoch(&mut self, window: &[Transaction]) {
        self.framework.observe_epoch(window);
    }

    fn check_invariants(&self) -> Result<()> {
        self.framework.check_invariants()
    }
}

/// The aggregated outcome of one cell — everything
/// [`crate::runner::ExperimentResult`] carries except the row vector,
/// which goes to the caller's observer as it is produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Means over the evaluation epochs (bit-identical to
    /// [`Aggregate::over`] on the observed rows in order).
    pub aggregate: Aggregate,
    /// Number of evaluation epochs processed.
    pub epochs: usize,
    /// Wall-clock seconds of the initial (training-prefix) allocation.
    pub init_seconds: f64,
    /// Mean per-epoch allocation runtime in seconds.
    pub mean_alloc_seconds: f64,
    /// Mean bytes of input per allocation run.
    pub mean_input_bytes: f64,
    /// Total account moves over the evaluation.
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
/// # Errors
///
/// [`mosaic_types::Error::EmptyTrace`] if the stream spans no blocks;
/// stream read errors; ledger construction errors at the training cut.
pub fn run_cell(
    config: &ExperimentConfig,
    stream: &mut EpochWindowStream,
    strategy: &mut dyn EpochStrategy,
    on_epoch: &mut dyn FnMut(usize, &EpochMetrics) -> bool,
) -> Result<RunSummary> {
    let mut core = AllocationCore::new(*config);
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
    use mosaic_core::policy::PilotPolicy;
    use mosaic_partition::HashAllocator;
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

    #[test]
    fn strategies_report_their_kind() {
        let params = SystemParams::builder().shards(4).tau(10).build().unwrap();
        let mosaic = MosaicStrategy::new(params, PilotPolicy);
        assert!(mosaic.is_client_driven());
        assert_eq!(mosaic.name(), "Pilot");
        let adaptive = AdaptiveTxAllo::new(TxAlloConfig::with_eta(2.0));
        assert!(!adaptive.is_client_driven());
        let hash = StaticStrategy::new(HashAllocator::chainspace());
        assert_eq!(hash.name(), "Random");
        // The blanket impl adapts any GlobalAllocator.
        let g: &dyn EpochStrategy = &GTxAllo::new(TxAlloConfig::with_eta(2.0));
        assert_eq!(g.name(), "G-TxAllo");
        assert!(!g.is_client_driven());
    }

    #[test]
    fn unchanged_decision_is_truly_inert() {
        let d = EpochDecision::unchanged();
        assert!(d.new_phi.is_none());
        assert_eq!(d.migrations, MigrationCount::Moves(0));
        assert_eq!(d.alloc_time, Some(Duration::ZERO));
        assert!(d.input_bytes.is_none());
    }
}
