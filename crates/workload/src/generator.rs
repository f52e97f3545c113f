//! The synthetic Ethereum-like trace generator.
//!
//! See the crate docs for the modelled phenomena. The generator is a pure
//! function of its [`WorkloadConfig`]: the same config always produces the
//! same trace, which keeps every experiment in the repository reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mosaic_telemetry::{Counter, Recorder};
use mosaic_types::{AccountId, BlockHeight, Transaction, TxId, TxKind};

use crate::config::WorkloadConfig;
use crate::trace::TransactionTrace;
use crate::zipf::ZipfSampler;

/// A generated workload: the trace plus the generator's ground-truth
/// metadata (hub set, final community assignment), useful for validating
/// that allocation algorithms recover latent structure.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    trace: TransactionTrace,
    hubs: Vec<AccountId>,
    communities: Vec<u32>,
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

    /// Ground-truth community of each account (indexed by raw account id)
    /// at the *end* of generation (drift included).
    pub fn community_of(&self, account: AccountId) -> Option<u32> {
        self.communities.get(account.as_u64() as usize).copied()
    }

    /// Total number of accounts ever created (initial + churned).
    pub fn total_accounts(&self) -> usize {
        self.total_accounts
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

        GenState {
            rng,
            community,
            members,
            hub_popularity,
            activity: ZipfSampler::new(n, cfg.activity_exponent),
            rank_to_account,
            churn_accumulator: 0.0,
            pending_debut: Vec::new(),
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
/// The stream takes [`mosaic_telemetry::global`] at construction: each
/// call that emits at least one block records a `workload.generate` span
/// and adds its transactions to the `workload.generated_txs` counter
/// (one branch each when telemetry is off).
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
        while self.next_block < to {
            self.state.apply_churn(&self.cfg);
            self.state.apply_drift(&self.cfg);
            for _ in 0..self.cfg.txs_per_block {
                let from = self.state.sample_sender();
                let (receiver, kind) = self.state.sample_receiver(&self.cfg, from);
                buf.push(Transaction::with_kind(
                    TxId::new(self.next_id),
                    AccountId::new(u64::from(from)),
                    AccountId::new(u64::from(receiver)),
                    BlockHeight::new(self.next_block),
                    kind,
                ));
                self.next_id += 1;
            }
            self.next_block += 1;
        }
        self.generated_txs.add(self.next_id - first_id);
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
        communities: state.community,
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

    #[test]
    fn streamed_emission_matches_generate_at_any_chunking() {
        let cfg = WorkloadConfig::small_test(23).with_churn(0.3);
        let reference = generate(&cfg);
        for chunk in [1u64, 2, 3, 7, 1000] {
            let mut stream = GeneratedStream::new(&cfg);
            let mut txs = Vec::new();
            while stream.position() < stream.blocks() {
                let to = stream.position() + chunk;
                stream.emit_through(to, &mut txs);
            }
            assert_eq!(
                txs.as_slice(),
                reference.trace().transactions(),
                "chunk size {chunk} diverged"
            );
        }
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
        assert_eq!(
            snapshot.counters,
            vec![("workload.generated_txs".to_string(), txs.len() as u64)]
        );
        let spans: Vec<_> = snapshot
            .histograms
            .iter()
            .map(|(name, h)| (name.as_str(), h.count))
            .collect();
        assert_eq!(spans, [("workload.generate", emitting_calls)]);
        assert_eq!(emitting_calls, 5);
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
        let w = generate(&cfg);
        // Measure: fraction of non-hub transfers that stay inside the
        // sender's (final) community. Drift makes this approximate.
        let mut local = 0usize;
        let mut total = 0usize;
        for tx in w.trace().iter() {
            if tx.kind == TxKind::Transfer {
                let (Some(cf), Some(ct)) = (w.community_of(tx.from), w.community_of(tx.to)) else {
                    continue;
                };
                total += 1;
                if cf == ct {
                    local += 1;
                }
            }
        }
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
