//! The synthetic Ethereum-like trace generator.
//!
//! See the crate docs for the modelled phenomena. The generator is a pure
//! function of its [`WorkloadConfig`]: the same config always produces the
//! same trace, which keeps every experiment in the repository reproducible.
//!
//! The trace is defined one transaction at a time: a sender drawn by
//! activity rank, then a receiver that is a hub, a member of the
//! sender's community or another account drawn by activity rank, every
//! choice drawn from one RNG in a fixed order. Over a large population
//! each of those draws reads a table that no longer fits in cache, and
//! each read waits on the one before. So [`GeneratedStream`] samples a
//! block in *staged runs* that make the same draws in the same order but
//! read the tables one pass at a time for the whole run (see its docs).

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use mosaic_telemetry::{Counter, Recorder};
use mosaic_types::{AccountId, BlockHeight, Transaction, TxId, TxKind};

use crate::config::WorkloadConfig;
use crate::trace::TransactionTrace;
use crate::zipf::ZipfSampler;

/// A generated workload: the trace plus the generator's ground-truth
/// metadata (hub set, account count), useful for validating that
/// allocation algorithms recover latent structure.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    trace: TransactionTrace,
    hubs: Vec<AccountId>,
    total_accounts: usize,
}

impl GeneratedWorkload {
    /// The generated transaction trace.
    pub fn trace(&self) -> &TransactionTrace {
        &self.trace
    }

    /// Consumes the workload, returning just the trace.
    pub fn into_trace(self) -> TransactionTrace {
        self.trace
    }

    /// The contract-like hub accounts.
    pub fn hubs(&self) -> &[AccountId] {
        &self.hubs
    }

    /// Total number of accounts ever created (initial + churned).
    pub fn total_accounts(&self) -> usize {
        self.total_accounts
    }
}

/// Transactions per staged run (see [`GeneratedStream`]): enough
/// independent loads in each pass to cover a cache miss, few enough that
/// a run's scratch stays in L1.
const RUN: usize = 64;

/// The staged passes' per-transaction scratch, kept across runs.
/// Transactions are indexed by their place in the run; `hubs`, `locals`
/// and `globals` list them by where their receiver comes from, so no pass
/// branches on it.
struct RunScratch {
    /// The RNG as each transaction's first word is about to be drawn,
    /// to rewind to when that transaction is redone one at a time.
    rng_at: [StdRng; RUN],
    sender_u: [f64; RUN],
    /// The hub u's word, or the raw word after the locality test.
    word: [u64; RUN],
    kind: [TxKind; RUN],
    sender_at: [Range<usize>; RUN],
    receiver_at: [Range<usize>; RUN],
    /// The sender's rank, then its account.
    sender: [u32; RUN],
    /// The receiver's rank (a local draw: the sender's community), then
    /// its account.
    to: [u32; RUN],
    hubs: Vec<usize>,
    locals: Vec<usize>,
    globals: Vec<usize>,
}

impl RunScratch {
    fn new() -> Self {
        RunScratch {
            rng_at: std::array::from_fn(|_| StdRng::seed_from_u64(0)),
            sender_u: [0.0; RUN],
            word: [0; RUN],
            kind: [TxKind::Transfer; RUN],
            sender_at: std::array::from_fn(|_| 0..0),
            receiver_at: std::array::from_fn(|_| 0..0),
            sender: [0; RUN],
            to: [0; RUN],
            hubs: Vec::with_capacity(RUN),
            locals: Vec::with_capacity(RUN),
            globals: Vec::with_capacity(RUN),
        }
    }
}

/// One word already drawn from the generator's RNG, handed back to the
/// `rand` shim's conversions (`gen`, `gen_range`). Each of them reads
/// exactly one word and is a pure function of it (the shim documents and
/// tests this), so a staged draw selects exactly what the one-at-a-time
/// path selects from that word.
struct Word(u64);

impl RngCore for Word {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Internal mutable generator state.
///
/// Raw account ids are `u32` inside the state (half the bytes of
/// [`AccountId`] in the two tables every transaction reads at random);
/// [`WorkloadConfig::validate`] guarantees every id the config can create
/// fits, and ids widen to [`AccountId`] only when a transaction is
/// emitted.
struct GenState {
    rng: StdRng,
    /// Community of each account, indexed by raw id.
    community: Vec<u32>,
    /// Raw ids of each community's members (kept in sync with
    /// `community`).
    members: Vec<Vec<u32>>,
    /// Popularity over the hubs, accounts `0..hub_count`: mildly
    /// Zipfian, so the busiest hub carries a small single-digit share of
    /// hub traffic (like a busy Ethereum contract), never a dominating
    /// share.
    hub_popularity: Option<ZipfSampler>,
    /// Activity sampler over the *initial* population; churned accounts get
    /// traffic through the explicit new-account hook instead.
    activity: ZipfSampler,
    /// Permutation mapping activity rank -> raw account id, so that
    /// activity is independent of community layout.
    rank_to_account: Vec<u32>,
    /// Fractional accumulator for expected-new-accounts-per-block.
    churn_accumulator: f64,
    /// Raw ids of newly created accounts that must send their first
    /// transaction soon, so churned accounts actually appear in the eval
    /// window.
    pending_debut: Vec<u32>,
    /// Whether blocks are sampled in staged runs (see
    /// [`GeneratedStream`]): only over an activity table large enough to
    /// be searched through a guide, since smaller tables stay in cache
    /// and have no misses to overlap.
    staged: bool,
    run: Box<RunScratch>,
}

impl GenState {
    fn new(cfg: &WorkloadConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.initial_accounts;

        // Community assignment for the initial population.
        let communities = cfg.communities.max(1) as u32;
        let mut community = Vec::with_capacity(n);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); communities as usize];
        let ids = u32::try_from(n).expect("validate bounds the account ids to u32");
        for i in 0..ids {
            let c = rng.gen_range(0..communities);
            community.push(c);
            members[c as usize].push(i);
        }
        // Guarantee no community is empty (receiver sampling needs members).
        for c in 0..communities as usize {
            if members[c].is_empty() {
                let donor = rng.gen_range(0..n as u64) as u32;
                let old = community[donor as usize] as usize;
                if members[old].len() > 1 {
                    members[old].retain(|&a| a != donor);
                    community[donor as usize] = c as u32;
                    members[c].push(donor);
                }
            }
        }

        // Hubs: dedicated high-traffic accounts drawn from the population.
        let hub_count = ((n as f64) * cfg.hub_fraction).round().max(0.0) as usize;
        let hub_popularity = (hub_count > 0).then(|| ZipfSampler::new(hub_count, 0.5));

        // Rank->account permutation (Fisher-Yates) decorrelates activity
        // from ids/communities/hubs.
        let mut rank_to_account: Vec<u32> = (0..ids).collect();
        for i in (1..rank_to_account.len()).rev() {
            let j = rng.gen_range(0..=i);
            rank_to_account.swap(i, j);
        }

        let activity = ZipfSampler::new(n, cfg.activity_exponent);
        GenState {
            rng,
            community,
            members,
            hub_popularity,
            staged: activity.guided(),
            activity,
            rank_to_account,
            churn_accumulator: 0.0,
            pending_debut: Vec::new(),
            run: Box::new(RunScratch::new()),
        }
    }

    /// The hub accounts, `0..hub_count`.
    fn hubs(&self) -> Vec<AccountId> {
        let hub_count = self.hub_popularity.as_ref().map_or(0, ZipfSampler::len);
        (0..hub_count as u64).map(AccountId::new).collect()
    }

    fn sample_sender(&mut self) -> u32 {
        // Churned accounts debut with priority so they show up in the trace.
        if let Some(a) = self.pending_debut.pop() {
            return a;
        }
        let rank = self.activity.sample(&mut self.rng);
        self.rank_to_account[rank]
    }

    fn sample_receiver(&mut self, cfg: &WorkloadConfig, sender: u32) -> (u32, TxKind) {
        // Hub traffic first.
        if let Some(popularity) = &self.hub_popularity {
            if self.rng.gen::<f64>() < cfg.hub_traffic_share {
                // Hub rank r is account r.
                let hub = popularity.sample(&mut self.rng) as u32;
                if hub != sender {
                    return (hub, TxKind::ContractCall);
                }
            }
        }
        // Community-local or global.
        let c = self.community[sender as usize] as usize;
        let local = self.rng.gen::<f64>() < cfg.intra_community_bias;
        for _ in 0..8 {
            let candidate = if local && self.members[c].len() > 1 {
                let i = self.rng.gen_range(0..self.members[c].len());
                self.members[c][i]
            } else {
                let rank = self.activity.sample(&mut self.rng);
                self.rank_to_account[rank]
            };
            if candidate != sender {
                return (candidate, TxKind::Transfer);
            }
        }
        // Fallback: deterministic distinct receiver.
        let fallback = (u64::from(sender) + 1) % self.community.len() as u64;
        (fallback as u32, TxKind::Transfer)
    }

    /// Samples the next `n ≤ RUN` transactions of the current block as
    /// one staged run (see [`GeneratedStream`]) and appends them to
    /// `buf`, ids from `*next_id` on. Returns how many it appended: all
    /// `n`, or the index of the first transaction whose receiver hit its
    /// sender, with the RNG rewound to the state it had before that
    /// transaction's first word so that [`GenState::sample_sender`] /
    /// [`GenState::sample_receiver`] can redo it. The caller checks that no debut is pending.
    fn sample_run(
        &mut self,
        cfg: &WorkloadConfig,
        n: usize,
        block: BlockHeight,
        next_id: &mut u64,
        buf: &mut Vec<Transaction>,
    ) -> usize {
        debug_assert!(n <= RUN && self.pending_debut.is_empty());
        let run = &mut *self.run;
        run.hubs.clear();
        run.locals.clear();
        run.globals.clear();
        for i in 0..n {
            run.rng_at[i] = self.rng.clone();
            run.sender_u[i] = self.rng.gen();
            let hub =
                self.hub_popularity.is_some() && self.rng.gen::<f64>() < cfg.hub_traffic_share;
            if hub {
                run.hubs.push(i);
            } else if self.rng.gen::<f64>() < cfg.intra_community_bias {
                run.locals.push(i);
            } else {
                run.globals.push(i);
            }
            run.kind[i] = if hub {
                TxKind::ContractCall
            } else {
                TxKind::Transfer
            };
            run.word[i] = self.rng.next_u64();
        }

        // Guide slots, then cdf searches, then ranks to accounts (hub
        // rank r is account r). `draws` pairs each receiver sampler with
        // the transactions that draw from it.
        let hubs = self
            .hub_popularity
            .as_ref()
            .map(|z| (z, run.hubs.as_slice()));
        let draws = [(&self.activity, run.globals.as_slice())]
            .into_iter()
            .chain(hubs);
        for i in 0..n {
            run.sender_at[i] = self.activity.bucket(run.sender_u[i]);
        }
        for (z, list) in draws.clone() {
            for &i in list {
                run.receiver_at[i] = z.bucket(Word(run.word[i]).gen());
            }
        }
        for i in 0..n {
            run.sender[i] =
                self.activity
                    .search(run.sender_u[i], run.sender_at[i].clone()) as u32;
        }
        for (z, list) in draws {
            for &i in list {
                run.to[i] = z.search(Word(run.word[i]).gen(), run.receiver_at[i].clone()) as u32;
            }
        }
        for i in 0..n {
            run.sender[i] = self.rank_to_account[run.sender[i] as usize];
        }
        for &i in &run.globals {
            run.to[i] = self.rank_to_account[run.to[i] as usize];
        }

        // Local draws: the sender's community, then a member of it. The
        // sender is a member, so in a community of one it draws itself:
        // a collision, redone one at a time (which then draws globally).
        for &i in &run.locals {
            run.to[i] = self.community[run.sender[i] as usize];
        }
        for &i in &run.locals {
            let members = &self.members[run.to[i] as usize];
            run.to[i] = members[Word(run.word[i]).gen_range(0..members.len())];
        }

        for i in 0..n {
            if run.to[i] == run.sender[i] {
                self.rng = run.rng_at[i].clone();
                return i;
            }
            buf.push(Transaction::with_kind(
                TxId::new(*next_id),
                AccountId::new(u64::from(run.sender[i])),
                AccountId::new(u64::from(run.to[i])),
                block,
                run.kind[i],
            ));
            *next_id += 1;
        }
        n
    }

    fn apply_churn(&mut self, cfg: &WorkloadConfig) {
        self.churn_accumulator += cfg.new_accounts_per_block;
        while self.churn_accumulator >= 1.0 {
            self.churn_accumulator -= 1.0;
            let id = u32::try_from(self.community.len())
                .expect("validate bounds the account ids to u32");
            let c = self.rng.gen_range(0..self.members.len() as u32);
            self.community.push(c);
            self.members[c as usize].push(id);
            self.pending_debut.push(id);
        }
    }

    fn apply_drift(&mut self, cfg: &WorkloadConfig) {
        if self.members.len() > 1 && self.rng.gen::<f64>() < cfg.drift_per_block {
            let account = self.rng.gen_range(0..self.community.len() as u64) as u32;
            let old = self.community[account as usize] as usize;
            if self.members[old].len() > 1 {
                let mut new = self.rng.gen_range(0..self.members.len());
                if new == old {
                    new = (new + 1) % self.members.len();
                }
                self.members[old].retain(|&a| a != account);
                self.community[account as usize] = new as u32;
                self.members[new].push(account);
            }
        }
    }
}

/// Lazily emits the exact trace [`generate`] would produce, block by
/// block, without ever materialising it.
///
/// The generator is a pure function of its [`WorkloadConfig`] (seed
/// included), so a suspended cursor over the per-block loop reproduces
/// the materialised trace byte for byte — [`generate`] is itself
/// implemented as one `emit_through(cfg.blocks)` call on this stream.
/// Memory is bounded by the generator's per-account state (O(accounts)),
/// never by the trace length (O(blocks × txs_per_block)).
///
/// The cursor is forward-only: [`GeneratedStream::emit_through`] appends
/// all transactions of blocks `[position, to)` and advances.
///
/// # Staged runs
///
/// The generator's state changes only at block boundaries (churn and
/// drift), so within a block every transaction's draws read fixed
/// tables. Once the activity table is large enough to be searched
/// through a guide (from 2^13 accounts on), a block is sampled in runs
/// of up to 64 transactions. A run first draws every transaction's RNG
/// words, in exactly the one-at-a-time order: the sender's u, the hub
/// test, then the hub's u, or the locality test and one raw word (the
/// member index of a local draw, else the global u). Then it reads the
/// tables in passes over the whole run — guide slots, cumulative-table
/// searches, rank to account, the senders' communities, the local
/// members — so within a pass no load waits on another and their cache
/// misses overlap. The words and what each one selects are those of the
/// one-at-a-time path, so the trace is the same byte for byte.
///
/// Three cases draw a different number of words and take the
/// one-at-a-time path instead: a debut sender (a churned account's first
/// transaction, which draws no sender word), a hub draw that hits its own
/// sender, and a community or global draw that does (a local draw in a
/// community of one always does: its one member is the sender, and the
/// one-at-a-time path then draws globally). A collision ends
/// the run at that transaction: the RNG is restored to the state the
/// first pass saved just before that transaction's first word, the
/// transaction is redone one at a time, and the next run starts after
/// it. Smaller populations, whose tables stay in cache and so have no
/// misses to overlap, sample every transaction one at a time.
///
/// The stream takes [`mosaic_telemetry::global`] at construction: each
/// call that emits at least one block records a `workload.generate` span,
/// adds its transactions to the `workload.generated_txs` counter and
/// those it sampled one at a time to `workload.sequential_txs` (one
/// branch each when telemetry is off).
///
/// # Example
///
/// ```
/// use mosaic_workload::{generate, GeneratedStream, WorkloadConfig};
/// let cfg = WorkloadConfig::small_test(1);
/// let mut stream = GeneratedStream::new(&cfg);
/// let mut windowed = Vec::new();
/// while stream.position() < stream.blocks() {
///     let to = stream.position() + 3; // any chunking works
///     stream.emit_through(to, &mut windowed);
/// }
/// assert_eq!(windowed, generate(&cfg).trace().transactions());
/// ```
pub struct GeneratedStream {
    cfg: WorkloadConfig,
    state: GenState,
    next_block: u64,
    next_id: u64,
    recorder: Recorder,
    generated_txs: Counter,
    sequential_txs: Counter,
}

impl GeneratedStream {
    /// Creates a stream positioned at block 0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`WorkloadConfig::validate`]).
    pub fn new(cfg: &WorkloadConfig) -> Self {
        Self::with_recorder(cfg, mosaic_telemetry::global())
    }

    fn with_recorder(cfg: &WorkloadConfig, recorder: Recorder) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        GeneratedStream {
            cfg: cfg.clone(),
            state: GenState::new(cfg),
            next_block: 0,
            next_id: 0,
            generated_txs: recorder.counter("workload.generated_txs"),
            sequential_txs: recorder.counter("workload.sequential_txs"),
            recorder,
        }
    }

    /// Total number of blocks this stream will emit (`cfg.blocks`).
    pub fn blocks(&self) -> u64 {
        self.cfg.blocks
    }

    /// The next block the stream will emit.
    pub fn position(&self) -> u64 {
        self.next_block
    }

    /// Appends every transaction of blocks `[position, min(to, blocks))`
    /// to `buf` and advances the cursor. A no-op once the stream is past
    /// `to` (the cursor never rewinds).
    pub fn emit_through(&mut self, to: u64, buf: &mut Vec<Transaction>) {
        let to = to.min(self.cfg.blocks);
        if self.next_block >= to {
            return;
        }
        let _span = self.recorder.span("workload.generate");
        let first_id = self.next_id;
        let mut sequential = 0;
        while self.next_block < to {
            self.state.apply_churn(&self.cfg);
            self.state.apply_drift(&self.cfg);
            let block = BlockHeight::new(self.next_block);
            let mut left = self.cfg.txs_per_block;
            while left > 0 {
                if self.state.staged && self.state.pending_debut.is_empty() {
                    let run = left.min(RUN);
                    let staged =
                        self.state
                            .sample_run(&self.cfg, run, block, &mut self.next_id, buf);
                    left -= staged;
                    if staged == run {
                        continue;
                    }
                }
                // A debut, a receiver that hit its sender, or an activity
                // table small enough to stay in cache.
                let from = self.state.sample_sender();
                let (receiver, kind) = self.state.sample_receiver(&self.cfg, from);
                buf.push(Transaction::with_kind(
                    TxId::new(self.next_id),
                    AccountId::new(u64::from(from)),
                    AccountId::new(u64::from(receiver)),
                    block,
                    kind,
                ));
                self.next_id += 1;
                left -= 1;
                sequential += 1;
            }
            self.next_block += 1;
        }
        self.generated_txs.add(self.next_id - first_id);
        self.sequential_txs.add(sequential);
    }
}

/// Generates a deterministic synthetic trace from `cfg`.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`WorkloadConfig::validate`]).
///
/// # Example
///
/// ```
/// use mosaic_workload::{generate, WorkloadConfig};
/// let w = generate(&WorkloadConfig::small_test(1));
/// assert_eq!(w.trace().len(), WorkloadConfig::small_test(1).total_txs());
/// ```
pub fn generate(cfg: &WorkloadConfig) -> GeneratedWorkload {
    let mut stream = GeneratedStream::new(cfg);
    let mut txs = Vec::with_capacity(cfg.total_txs());
    stream.emit_through(cfg.blocks, &mut txs);

    let GeneratedStream { state, .. } = stream;
    let total_accounts = state.community.len();
    GeneratedWorkload {
        trace: TransactionTrace::from_sorted(txs),
        hubs: state.hubs(),
        total_accounts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::hash::FnvHashMap;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::small_test(77);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.trace().transactions(), b.trace().transactions());
        assert_eq!(a.hubs(), b.hubs());
    }

    /// The one-transaction-at-a-time loop over
    /// [`GenState::sample_sender`] / [`GenState::sample_receiver`]: the
    /// definition of the trace, which the staged runs must reproduce.
    fn one_at_a_time(cfg: &WorkloadConfig) -> Vec<Transaction> {
        let mut state = GenState::new(cfg);
        let mut txs = Vec::new();
        for block in 0..cfg.blocks {
            state.apply_churn(cfg);
            state.apply_drift(cfg);
            for _ in 0..cfg.txs_per_block {
                let from = state.sample_sender();
                let (to, kind) = state.sample_receiver(cfg, from);
                txs.push(Transaction::with_kind(
                    TxId::new(txs.len() as u64),
                    AccountId::new(u64::from(from)),
                    AccountId::new(u64::from(to)),
                    BlockHeight::new(block),
                    kind,
                ));
            }
        }
        txs
    }

    /// Streams `cfg` `chunk` blocks a call, with the staged runs on or
    /// off whatever the population's size. Returns the trace and its
    /// `workload.sequential_txs`.
    fn streamed(cfg: &WorkloadConfig, staged: bool, chunk: u64) -> (Vec<Transaction>, u64) {
        let recorder = Recorder::enabled();
        let mut stream = GeneratedStream::with_recorder(cfg, recorder.clone());
        stream.state.staged = staged;
        let mut txs = Vec::new();
        while stream.position() < stream.blocks() {
            let to = stream.position() + chunk;
            stream.emit_through(to, &mut txs);
        }
        let counters = recorder.snapshot().counters;
        let sequential = counters
            .iter()
            .find(|(name, _)| name == "workload.sequential_txs")
            .map_or(0, |&(_, n)| n);
        (txs, sequential)
    }

    #[test]
    fn streamed_emission_matches_generate_at_any_chunking() {
        // 800 accounts sample one transaction at a time, 20 000 in
        // staged runs.
        for accounts in [800, 20_000] {
            let cfg = WorkloadConfig::small_test(23)
                .with_accounts(accounts)
                .with_churn(0.3);
            let reference = one_at_a_time(&cfg);
            assert_eq!(generate(&cfg).trace().transactions(), reference);
            for chunk in [1u64, 2, 3, 7, 1000] {
                let (txs, _) = streamed(&cfg, GenState::new(&cfg).staged, chunk);
                assert_eq!(
                    txs, reference,
                    "{accounts} accounts, chunk {chunk} diverged"
                );
            }
        }
    }

    /// The staged runs reproduce the one-at-a-time loop at every block
    /// size around a run's length, on both sides of the guide's size
    /// split, and on configs that force every fallback: tiny and
    /// singleton communities (where a local draw is redone as a global
    /// one), hub-heavy traffic whose hub draw often hits its sender, and
    /// more debuts than transactions a block.
    #[test]
    fn staged_runs_match_the_one_at_a_time_trace() {
        let base = |accounts: usize, txs_per_block: usize| {
            let mut cfg = WorkloadConfig::small_test(61)
                .with_accounts(accounts)
                .with_churn(0.4);
            cfg.txs_per_block = txs_per_block;
            cfg.blocks = (24_000 / txs_per_block as u64).max(40);
            cfg
        };
        let mut configs = Vec::new();
        for accounts in [800, 20_000] {
            for txs_per_block in [1, 7, RUN - 1, RUN, RUN + 1, 200] {
                configs.push((
                    format!("{accounts} accounts, {txs_per_block} a block"),
                    base(accounts, txs_per_block),
                ));
            }
        }
        let mut hub_heavy = base(20_000, 7).with_churn(0.0);
        hub_heavy.communities = 10_000;
        hub_heavy.hub_fraction = 0.5;
        hub_heavy.hub_traffic_share = 0.9;
        configs.push(("hub-heavy, tiny communities".into(), hub_heavy.clone()));
        let mut singletons = base(9_000, 7).with_churn(0.0);
        singletons.communities = 9_000;
        configs.push(("singleton communities".into(), singletons.clone()));
        singletons.txs_per_block = 1;
        configs.push((
            "5 debuts a 1-transaction block".into(),
            singletons.with_churn(5.0),
        ));
        let mut one_community = base(10_000, 200);
        one_community.communities = 1;
        configs.push(("one community".into(), one_community));
        configs.push((
            "9 debuts a 7-transaction block".into(),
            base(20_000, 7).with_churn(9.0),
        ));

        for (name, cfg) in &configs {
            let reference = one_at_a_time(cfg);
            for staged in [false, true] {
                let (txs, sequential) = streamed(cfg, staged, 3);
                assert_eq!(txs, reference, "{name}, staged = {staged}");
                if !staged {
                    assert_eq!(sequential, txs.len() as u64, "{name}");
                }
            }
        }

        // Without churn, every transaction the staged runs hand back is a
        // receiver that hit its sender; hub-heavy traffic makes them
        // common, and the runs still carry most of the trace.
        let (txs, sequential) = streamed(&hub_heavy, true, 3);
        assert!(
            sequential > 100 && sequential * 4 < txs.len() as u64,
            "{sequential} of {} redone",
            txs.len()
        );
    }

    #[test]
    fn telemetry_counts_every_emitting_call() {
        let recorder = Recorder::enabled();
        let cfg = WorkloadConfig::small_test(29).with_blocks(50);
        let mut stream = GeneratedStream::with_recorder(&cfg, recorder.clone());
        let mut txs = Vec::new();
        let mut emitting_calls = 0;
        for to in [0, 7, 7, 3, 20, 21, 49, 50, 50, 90] {
            let before = txs.len();
            stream.emit_through(to, &mut txs);
            emitting_calls += u64::from(txs.len() > before);
        }
        assert_eq!(txs.len(), cfg.total_txs());
        let snapshot = recorder.snapshot();
        // 800 accounts: every transaction is sampled one at a time.
        assert_eq!(
            snapshot.counters,
            vec![
                ("workload.generated_txs".to_string(), txs.len() as u64),
                ("workload.sequential_txs".to_string(), txs.len() as u64),
            ]
        );
        let spans: Vec<_> = snapshot
            .histograms
            .iter()
            .map(|(name, h)| (name.as_str(), h.count))
            .collect();
        assert_eq!(spans, [("workload.generate", emitting_calls)]);
        assert_eq!(emitting_calls, 5);

        // 20 000 accounts: staged runs carry all but the debuts (three a
        // block) and the receivers that hit their sender.
        let cfg = cfg.with_accounts(20_000).with_churn(3.0);
        let (txs, sequential) = streamed(&cfg, GenState::new(&cfg).staged, 7);
        assert_eq!(txs.len(), cfg.total_txs());
        assert!(
            (150..200).contains(&sequential),
            "{sequential} of {} sampled one at a time",
            txs.len()
        );
    }

    /// Pins the trace at a population far past every golden's (the
    /// goldens run 800 accounts): 300k accounts, 3 debuts a block and
    /// drift, digested over the first 200k transactions.
    #[test]
    fn large_population_trace_is_pinned() {
        use std::hash::Hasher;
        let cfg = WorkloadConfig::paper_scaled(4242)
            .with_accounts(300_000)
            .with_blocks(8_000)
            .with_churn(3.0);
        let mut txs = Vec::new();
        GeneratedStream::new(&cfg).emit_through(cfg.blocks, &mut txs);
        assert_eq!(txs.len(), 200_000);
        let mut h = mosaic_types::hash::FnvHasher::default();
        for tx in &txs {
            h.write(&tx.id.as_u64().to_le_bytes());
            h.write(&tx.from.as_u64().to_le_bytes());
            h.write(&tx.to.as_u64().to_le_bytes());
            h.write(&tx.block.as_u64().to_le_bytes());
            h.write(&[tx.kind as u8]);
        }
        assert_eq!(
            h.finish(),
            0xaf64_c98a_1d24_2393,
            "digest {:#018x}",
            h.finish()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorkloadConfig::small_test(1));
        let b = generate(&WorkloadConfig::small_test(2));
        assert_ne!(a.trace().transactions(), b.trace().transactions());
    }

    #[test]
    fn produces_exact_volume_and_block_span() {
        let cfg = WorkloadConfig::small_test(5);
        let w = generate(&cfg);
        assert_eq!(w.trace().len(), cfg.total_txs());
        assert_eq!(
            w.trace().max_block(),
            Some(mosaic_types::BlockHeight::new(cfg.blocks - 1))
        );
    }

    #[test]
    fn no_self_transfers() {
        let w = generate(&WorkloadConfig::small_test(11));
        assert!(w.trace().iter().all(|tx| !tx.is_self_transfer()));
    }

    #[test]
    fn churn_creates_new_accounts_that_transact() {
        let cfg = WorkloadConfig::small_test(3).with_churn(0.5);
        let w = generate(&cfg);
        assert!(w.total_accounts() > cfg.initial_accounts);
        // Every churned account must appear in the trace (debut priority).
        let seen = w.trace().accounts();
        let churned_seen = (cfg.initial_accounts..w.total_accounts())
            .filter(|&i| seen.contains(&AccountId::new(i as u64)))
            .count();
        let churned_total = w.total_accounts() - cfg.initial_accounts;
        assert!(
            churned_seen * 10 >= churned_total * 9,
            "only {churned_seen}/{churned_total} churned accounts appear"
        );
    }

    #[test]
    fn activity_is_heavy_tailed() {
        let w = generate(&WorkloadConfig::small_test(13));
        let mut degree: FnvHashMap<AccountId, usize> = FnvHashMap::default();
        for tx in w.trace().iter() {
            *degree.entry(tx.from).or_default() += 1;
        }
        let mut counts: Vec<usize> = degree.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top1pct = counts.len().max(100) / 100;
        let top_share: usize = counts.iter().take(top1pct.max(1)).sum();
        // Zipf(1.0): the top 1% of senders should hold far more than 1% of
        // traffic. Use a loose bound to stay robust across seeds.
        assert!(
            top_share as f64 / total as f64 > 0.05,
            "top share too small: {top_share}/{total}"
        );
    }

    #[test]
    fn community_locality_is_present() {
        let cfg = WorkloadConfig::small_test(17)
            .with_intra_community_bias(0.9)
            .with_churn(0.0);
        let mut stream = GeneratedStream::new(&cfg);
        let mut txs = Vec::new();
        stream.emit_through(cfg.blocks, &mut txs);
        // Measure: fraction of non-hub transfers that stay inside the
        // sender's (final) community. Drift makes this approximate.
        let community = |a: AccountId| stream.state.community[a.as_u64() as usize];
        let transfers = txs.iter().filter(|tx| tx.kind == TxKind::Transfer);
        let total = transfers.clone().count();
        let local = transfers
            .filter(|tx| community(tx.from) == community(tx.to))
            .count();
        let ratio = local as f64 / total.max(1) as f64;
        // 16 communities: random mixing would give ~1/16 ≈ 0.0625.
        assert!(ratio > 0.4, "locality ratio too low: {ratio}");
    }

    #[test]
    fn hub_traffic_share_is_respected() {
        let cfg = WorkloadConfig::small_test(19);
        let w = generate(&cfg);
        let calls = w
            .trace()
            .iter()
            .filter(|tx| tx.kind == TxKind::ContractCall)
            .count();
        let share = calls as f64 / w.trace().len() as f64;
        assert!(
            (share - cfg.hub_traffic_share).abs() < 0.1,
            "hub share {share} vs configured {}",
            cfg.hub_traffic_share
        );
    }
}
