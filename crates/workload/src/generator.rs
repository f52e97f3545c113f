//! The synthetic Ethereum-like trace generator.
//!
//! See the crate docs for the modelled phenomena. The generator is a pure
//! function of its [`WorkloadConfig`]: the same config always produces the
//! same trace, which keeps every experiment in the repository reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
struct GenState {
    rng: StdRng,
    /// Community of each account, indexed by raw id.
    community: Vec<u32>,
    /// Members of each community (kept in sync with `community`).
    members: Vec<Vec<AccountId>>,
    /// Hub account ids.
    hubs: Vec<AccountId>,
    /// Popularity over hubs: mildly Zipfian, so the busiest hub carries
    /// a small single-digit share of hub traffic (like a busy Ethereum
    /// contract), never a dominating share.
    hub_popularity: Option<ZipfSampler>,
    /// Activity sampler over the *initial* population; churned accounts get
    /// traffic through the explicit new-account hook instead.
    activity: ZipfSampler,
    /// Permutation mapping activity rank -> account id, so that activity is
    /// independent of community layout.
    rank_to_account: Vec<AccountId>,
    /// Fractional accumulator for expected-new-accounts-per-block.
    churn_accumulator: f64,
    /// Newly created accounts that must send their first transaction soon,
    /// so churned accounts actually appear in the eval window.
    pending_debut: Vec<AccountId>,
}

impl GenState {
    fn new(cfg: &WorkloadConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.initial_accounts;

        // Community assignment for the initial population.
        let communities = cfg.communities.max(1) as u32;
        let mut community = Vec::with_capacity(n);
        let mut members: Vec<Vec<AccountId>> = vec![Vec::new(); communities as usize];
        for i in 0..n {
            let c = rng.gen_range(0..communities);
            community.push(c);
            members[c as usize].push(AccountId::new(i as u64));
        }
        // Guarantee no community is empty (receiver sampling needs members).
        for c in 0..communities as usize {
            if members[c].is_empty() {
                let donor = AccountId::new(rng.gen_range(0..n as u64));
                let old = community[donor.as_u64() as usize] as usize;
                if members[old].len() > 1 {
                    members[old].retain(|&a| a != donor);
                    community[donor.as_u64() as usize] = c as u32;
                    members[c].push(donor);
                }
            }
        }

        // Hubs: dedicated high-traffic accounts drawn from the population.
        let hub_count = ((n as f64) * cfg.hub_fraction).round().max(0.0) as usize;
        let hubs: Vec<AccountId> = (0..hub_count).map(|i| AccountId::new(i as u64)).collect();
        let hub_popularity = (hub_count > 0).then(|| ZipfSampler::new(hub_count, 0.5));

        // Rank->account permutation (Fisher-Yates) decorrelates activity
        // from ids/communities/hubs.
        let mut rank_to_account: Vec<AccountId> = (0..n as u64).map(AccountId::new).collect();
        for i in (1..rank_to_account.len()).rev() {
            let j = rng.gen_range(0..=i);
            rank_to_account.swap(i, j);
        }

        GenState {
            rng,
            community,
            members,
            hubs,
            hub_popularity,
            activity: ZipfSampler::new(n, cfg.activity_exponent),
            rank_to_account,
            churn_accumulator: 0.0,
            pending_debut: Vec::new(),
        }
    }

    fn sample_sender(&mut self) -> AccountId {
        // Churned accounts debut with priority so they show up in the trace.
        if let Some(a) = self.pending_debut.pop() {
            return a;
        }
        let rank = self.activity.sample(&mut self.rng);
        self.rank_to_account[rank]
    }

    fn sample_receiver(&mut self, cfg: &WorkloadConfig, sender: AccountId) -> (AccountId, TxKind) {
        // Hub traffic first.
        if let Some(popularity) = &self.hub_popularity {
            if self.rng.gen::<f64>() < cfg.hub_traffic_share {
                let hub = self.hubs[popularity.sample(&mut self.rng)];
                if hub != sender {
                    return (hub, TxKind::ContractCall);
                }
            }
        }
        // Community-local or global.
        let c = self.community[sender.as_u64() as usize] as usize;
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
        let fallback = AccountId::new((sender.as_u64() + 1) % self.community.len() as u64);
        (fallback, TxKind::Transfer)
    }

    fn apply_churn(&mut self, cfg: &WorkloadConfig) {
        self.churn_accumulator += cfg.new_accounts_per_block;
        while self.churn_accumulator >= 1.0 {
            self.churn_accumulator -= 1.0;
            let id = AccountId::new(self.community.len() as u64);
            let c = self.rng.gen_range(0..self.members.len() as u32);
            self.community.push(c);
            self.members[c as usize].push(id);
            self.pending_debut.push(id);
        }
    }

    fn apply_drift(&mut self, cfg: &WorkloadConfig) {
        if self.members.len() > 1 && self.rng.gen::<f64>() < cfg.drift_per_block {
            let account = AccountId::new(self.rng.gen_range(0..self.community.len() as u64));
            let old = self.community[account.as_u64() as usize] as usize;
            if self.members[old].len() > 1 {
                let mut new = self.rng.gen_range(0..self.members.len());
                if new == old {
                    new = (new + 1) % self.members.len();
                }
                self.members[old].retain(|&a| a != account);
                self.community[account.as_u64() as usize] = new as u32;
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
}

impl GeneratedStream {
    /// Creates a stream positioned at block 0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`WorkloadConfig::validate`]).
    pub fn new(cfg: &WorkloadConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        GeneratedStream {
            cfg: cfg.clone(),
            state: GenState::new(cfg),
            next_block: 0,
            next_id: 0,
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
        while self.next_block < to {
            self.state.apply_churn(&self.cfg);
            self.state.apply_drift(&self.cfg);
            for _ in 0..self.cfg.txs_per_block {
                let from = self.state.sample_sender();
                let (receiver, kind) = self.state.sample_receiver(&self.cfg, from);
                buf.push(Transaction::with_kind(
                    TxId::new(self.next_id),
                    from,
                    receiver,
                    BlockHeight::new(self.next_block),
                    kind,
                ));
                self.next_id += 1;
            }
            self.next_block += 1;
        }
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
        hubs: state.hubs,
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
