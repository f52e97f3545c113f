//! The complete sharded ledger `L = (S₁, …, S_k, BC)`.

use mosaic_metrics::{EpochLoad, LoadParams};
use mosaic_types::{
    ensure, AccountShardMap, EpochId, Error, MigrationRequest, Result, SystemParams, Transaction,
};

use crate::beacon::BeaconChain;

/// Everything that happened in one processed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// The epoch that was processed.
    pub epoch: EpochId,
    /// Migration requests committed on the beacon chain at the epoch
    /// boundary (before this epoch's transactions were processed). The
    /// beacon keeps only their count, so this is the set's one copy.
    pub committed: Vec<MigrationRequest>,
    /// Committed migrations whose `from` shard no longer matched ϕ (the
    /// account had moved since the proposal); they are still applied to
    /// their requested destination, but flagged here for diagnostics.
    pub migrations_stale: usize,
    /// Workload classification and capacity-constrained throughput.
    pub load: EpochLoad,
    /// The per-shard capacity `λ` used this epoch.
    pub lambda: f64,
}

/// The epoch-driven sharded-blockchain state machine.
///
/// Drives the paper's three phases per epoch:
///
/// 1. **commit** — the beacon chain commits up to `λ` pending migration
///    requests (highest gain first);
/// 2. **reconfigure** — every committed request moves its account in ϕ
///    (§III-B1: miners sync the beacon chain and update their local ϕ);
/// 3. **process** — the epoch's transactions are classified under the
///    updated ϕ into per-shard intra/cross loads and throughput.
///
/// The ledger keeps ϕ, the beacon's pending pool and its commit totals,
/// and the epoch clock — no blocks — so its memory is O(accounts + pool)
/// however many epochs run.
///
/// Miner-driven baselines bypass the beacon entirely and overwrite ϕ via
/// [`Ledger::set_allocation`] — which is exactly their architectural
/// difference from Mosaic.
#[derive(Debug, Clone)]
pub struct Ledger {
    params: SystemParams,
    phi: AccountShardMap,
    beacon: BeaconChain,
    epoch: EpochId,
    /// Per-epoch migration-commit cap override; `None` = the paper's
    /// `λ` bound. Used by the capacity ablation.
    migration_capacity: Option<usize>,
}

impl Ledger {
    /// Creates a ledger with an initial allocation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShardCount`] if `initial_phi` disagrees
    /// with `params` on the shard count.
    pub fn new(params: SystemParams, initial_phi: AccountShardMap) -> Result<Self> {
        if initial_phi.shards() != params.shards() {
            return Err(Error::InvalidShardCount(initial_phi.shards()));
        }
        Ok(Ledger {
            phi: initial_phi,
            beacon: BeaconChain::default(),
            epoch: EpochId::new(0),
            migration_capacity: None,
            params,
        })
    }

    /// The system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The current account-shard mapping ϕ.
    pub fn phi(&self) -> &AccountShardMap {
        &self.phi
    }

    /// Miner-driven update of ϕ in place (A-TxAllo's window refinement):
    /// like [`Ledger::set_allocation`], it bypasses the beacon, but it
    /// touches only the accounts the caller moves.
    pub fn phi_mut(&mut self) -> &mut AccountShardMap {
        &mut self.phi
    }

    /// The beacon chain.
    pub fn beacon(&self) -> &BeaconChain {
        &self.beacon
    }

    /// The next epoch to be processed.
    pub fn current_epoch(&self) -> EpochId {
        self.epoch
    }

    /// Queues a client migration request for the next epoch boundary.
    pub fn submit_migration(&mut self, request: MigrationRequest) {
        self.beacon.submit(request);
    }

    /// Overrides the per-epoch migration-commit cap (`None` restores the
    /// paper's `λ` bound). Used by the beacon-capacity ablation.
    pub fn set_migration_capacity(&mut self, capacity: Option<usize>) {
        self.migration_capacity = capacity;
    }

    /// The active migration-commit cap override, if any.
    pub fn migration_capacity(&self) -> Option<usize> {
        self.migration_capacity
    }

    /// Miner-driven wholesale replacement of ϕ (graph-based baselines).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShardCount`] on a shard-count mismatch.
    pub fn set_allocation(&mut self, phi: AccountShardMap) -> Result<()> {
        if phi.shards() != self.params.shards() {
            return Err(Error::InvalidShardCount(phi.shards()));
        }
        self.phi = phi;
        Ok(())
    }

    /// Classifies `txs` under the current ϕ with this ledger's `k`, `η`
    /// and `λ(|txs|)`, in one pass that resolves each endpoint through
    /// [`AccountShardMap::resolve`]: the first read of an account fills
    /// its slot in ϕ's table, so later reads — this window's, the next
    /// epoch's, Pilot's Ω pass — skip the map and the hash rule. Phase 3
    /// of [`Ledger::process_epoch`] and Pilot's Ω oracle both classify
    /// here.
    pub fn classify(&mut self, txs: &[Transaction]) -> EpochLoad {
        let params = LoadParams {
            shards: self.params.shards(),
            eta: self.params.eta(),
            lambda: self.params.lambda(txs.len()),
        };
        let phi = &mut self.phi;
        EpochLoad::compute(txs, params, |a| phi.resolve(a))
    }

    /// Runs one full epoch over `txs` (the `τ`-block window) and returns
    /// the outcome. See the type docs for the phase order.
    pub fn process_epoch(&mut self, txs: &[Transaction]) -> EpochOutcome {
        let epoch = self.epoch;
        let lambda = self.params.lambda(txs.len());

        // Phase 1: beacon commitment, bounded by λ (§V-A) unless the
        // ablation override is set.
        let capacity = self.migration_capacity.unwrap_or(lambda.floor() as usize);
        let committed = self.beacon.commit_epoch(capacity);

        // Phase 2: reconfiguration — ϕ takes every committed move.
        let mut migrations_stale = 0;
        for mr in &committed {
            let from = self
                .phi
                .migrate(mr.account, mr.to)
                .expect("beacon committed an in-range destination");
            migrations_stale += usize::from(from != mr.from);
        }

        // Phase 3: transaction processing under the updated ϕ.
        let load = self.classify(txs);

        self.epoch = epoch.next();
        EpochOutcome {
            epoch,
            committed,
            migrations_stale,
            load,
            lambda,
        }
    }

    /// Checks ϕ ([`AccountShardMap::check_invariants`]) and that the
    /// beacon committed exactly once per processed epoch; else
    /// [`Error::Inconsistent`].
    pub fn check_invariants(&self) -> Result<()> {
        self.phi.check_invariants()?;
        let (rounds, epochs) = (self.beacon.rounds(), self.epoch.as_u64());
        let once = rounds == epochs;
        ensure!(once, "ledger", "{rounds} beacon rounds, {epochs} epochs");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{AccountId, BlockHeight, ShardId, TxId};

    fn tx(id: u64, from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(id),
        )
    }

    fn params(k: u16) -> SystemParams {
        SystemParams::builder().shards(k).tau(10).build().unwrap()
    }

    fn assigned_phi(k: u16, accounts: u64) -> AccountShardMap {
        let mut phi = AccountShardMap::new(k);
        for a in 0..accounts {
            phi.assign(AccountId::new(a), ShardId::new((a % u64::from(k)) as u16))
                .unwrap();
        }
        phi
    }

    #[test]
    fn rejects_mismatched_phi() {
        let err = Ledger::new(params(4), AccountShardMap::new(2)).unwrap_err();
        assert_eq!(err, Error::InvalidShardCount(2));
    }

    #[test]
    fn epoch_processing_advances_chains() {
        let mut ledger = Ledger::new(params(2), assigned_phi(2, 10)).unwrap();
        let txs = vec![tx(0, 0, 2), tx(1, 0, 1), tx(2, 1, 3)];
        let out = ledger.process_epoch(&txs);
        assert_eq!(out.epoch, EpochId::new(0));
        assert_eq!(out.load.total_txs(), 3);
        assert_eq!(ledger.current_epoch(), EpochId::new(1));
        // One beacon round per processed epoch.
        assert_eq!(ledger.beacon().rounds(), 1);
        ledger.check_invariants().unwrap();
    }

    /// The beacon's commit total is the sum of every epoch's committed
    /// set, and a commit round that no epoch accounts for is caught.
    #[test]
    fn an_extra_beacon_round_breaks_the_invariant() {
        let mut ledger = Ledger::new(params(2), assigned_phi(2, 40)).unwrap();
        let mut committed = 0;
        for epoch in 0..6u64 {
            for a in (epoch..40).step_by(7) {
                let from = ledger.phi().shard_of(AccountId::new(a));
                let to = ShardId::new(1 - from.as_u16());
                let at = ledger.current_epoch();
                ledger.submit_migration(
                    MigrationRequest::new(AccountId::new(a), from, to, at, a as f64).unwrap(),
                );
            }
            let txs: Vec<Transaction> = (0..8).map(|i| tx(i, i, (i + epoch) % 40)).collect();
            committed += ledger.process_epoch(&txs).committed.len();
            ledger.check_invariants().unwrap();
        }
        assert!(committed > 0);
        assert_eq!(ledger.beacon().committed_len(), committed);
        assert_eq!(ledger.beacon().rounds(), 6);

        ledger.beacon.commit_epoch(1);
        match ledger.check_invariants() {
            Err(Error::Inconsistent { component, detail }) => {
                assert_eq!(component, "ledger", "{detail}");
            }
            other => panic!("an extra beacon round passed: {other:?}"),
        }
    }

    #[test]
    fn migration_commits_before_processing() {
        let mut ledger = Ledger::new(params(2), assigned_phi(2, 4)).unwrap();
        // Account 0 lives in shard 0; request a move to shard 1, then send
        // a tx between 0 and 1 (1 lives in shard 1): after migration the
        // tx must be intra-shard.
        ledger.submit_migration(
            MigrationRequest::new(
                AccountId::new(0),
                ShardId::new(0),
                ShardId::new(1),
                EpochId::new(0),
                5.0,
            )
            .unwrap(),
        );
        // Four transactions over two shards -> lambda = 2, so the beacon
        // can commit the pending request. All pairs are S1-intra once the
        // migration has landed.
        let txs = vec![tx(0, 0, 1), tx(1, 1, 3), tx(2, 0, 3), tx(3, 3, 1)];
        let out = ledger.process_epoch(&txs);
        assert_eq!(out.committed.len(), 1);
        assert_eq!(out.migrations_stale, 0);
        assert_eq!(out.load.cross_txs(), 0, "migration must precede processing");
        assert_eq!(ledger.phi().shard_of(AccountId::new(0)), ShardId::new(1));
    }

    #[test]
    fn stale_migrations_are_flagged_but_applied() {
        let mut ledger = Ledger::new(params(4), assigned_phi(4, 8)).unwrap();
        // Account 5 lives in shard 1; the request claims it is in shard 0.
        ledger.submit_migration(
            MigrationRequest::new(
                AccountId::new(5),
                ShardId::new(0),
                ShardId::new(3),
                EpochId::new(0),
                1.0,
            )
            .unwrap(),
        );
        // Four transactions over four shards -> lambda = 1.
        let txs: Vec<Transaction> = (0..4).map(|i| tx(i, i, i + 4)).collect();
        let out = ledger.process_epoch(&txs);
        assert_eq!(out.committed.len(), 1);
        assert_eq!(out.migrations_stale, 1);
        assert_eq!(ledger.phi().shard_of(AccountId::new(5)), ShardId::new(3));
    }

    #[test]
    fn migration_capacity_bounded_by_lambda() {
        let mut ledger = Ledger::new(params(2), assigned_phi(2, 100)).unwrap();
        for a in 0..50u64 {
            let from = ledger.phi().shard_of(AccountId::new(a));
            let to = ShardId::new(1 - from.as_u16());
            ledger.submit_migration(
                MigrationRequest::new(AccountId::new(a), from, to, EpochId::new(0), a as f64)
                    .unwrap(),
            );
        }
        // 8 txs over 2 shards -> lambda = 4 -> at most 4 commits.
        let txs: Vec<Transaction> = (0..8).map(|i| tx(i, i, i + 100)).collect();
        let out = ledger.process_epoch(&txs);
        assert_eq!(out.lambda, 4.0);
        assert_eq!(out.committed.len(), 4);
        // Highest gains won.
        assert!(out.committed.iter().all(|m| m.account.as_u64() >= 46));
    }

    #[test]
    fn migration_capacity_override_lifts_lambda_bound() {
        let mut ledger = Ledger::new(params(2), assigned_phi(2, 100)).unwrap();
        ledger.set_migration_capacity(Some(usize::MAX));
        assert_eq!(ledger.migration_capacity(), Some(usize::MAX));
        for a in 0..50u64 {
            let from = ledger.phi().shard_of(AccountId::new(a));
            let to = ShardId::new(1 - from.as_u16());
            ledger.submit_migration(
                MigrationRequest::new(AccountId::new(a), from, to, EpochId::new(0), a as f64)
                    .unwrap(),
            );
        }
        // 8 txs -> lambda = 4, but the override admits all 50.
        let txs: Vec<Transaction> = (0..8).map(|i| tx(i, i, i + 100)).collect();
        let out = ledger.process_epoch(&txs);
        assert_eq!(out.committed.len(), 50);
    }

    #[test]
    fn set_allocation_bypasses_beacon() {
        let mut ledger = Ledger::new(params(2), assigned_phi(2, 4)).unwrap();
        let mut phi = AccountShardMap::new(2);
        phi.assign(AccountId::new(0), ShardId::new(1)).unwrap();
        ledger.set_allocation(phi).unwrap();
        assert_eq!(ledger.phi().shard_of(AccountId::new(0)), ShardId::new(1));
        assert_eq!(ledger.beacon().committed_len(), 0);
        assert!(ledger.set_allocation(AccountShardMap::new(3)).is_err());
    }

    /// ϕ's table is invisible to the ledger: windows over ids on both
    /// sides of the table cap classify exactly as a cache-free model of ϕ
    /// says — before the boundary (Pilot's Ω pass) and after it (phase
    /// 3) — across committed migrations and a `set_allocation` swap.
    #[test]
    fn classification_matches_a_cache_free_model_across_the_table_cap() {
        use mosaic_types::hash_shard;
        use std::collections::BTreeMap;

        let k = 4u16;
        let cap = AccountShardMap::TABLE_CAP;
        let ids: Vec<u64> = (0..24)
            .chain(cap - 12..cap + 12)
            .chain(u64::MAX - 3..=u64::MAX)
            .collect();
        let explicit = |seed: u64| -> BTreeMap<u64, u16> {
            ids.iter()
                .enumerate()
                .filter(|(i, _)| (*i as u64 + seed).is_multiple_of(3))
                .map(|(i, &a)| (a, ((i as u64 * 7 + seed) % u64::from(k)) as u16))
                .collect()
        };
        let to_phi = |model: &BTreeMap<u64, u16>| {
            let mut phi = AccountShardMap::new(k);
            phi.extend_assignments(
                model
                    .iter()
                    .map(|(&a, &s)| (AccountId::new(a), ShardId::new(s))),
            )
            .unwrap();
            phi
        };
        let model_shard = |model: &BTreeMap<u64, u16>, a: AccountId| match model.get(&a.as_u64()) {
            Some(&s) => ShardId::new(s),
            None => hash_shard(a, k),
        };
        let reference = |model: &BTreeMap<u64, u16>, window: &[Transaction]| {
            let params = params(k);
            EpochLoad::compute(
                window,
                LoadParams {
                    shards: k,
                    eta: params.eta(),
                    lambda: params.lambda(window.len()),
                },
                |a| model_shard(model, a),
            )
        };

        let mut model = explicit(0);
        let mut ledger = Ledger::new(params(k), to_phi(&model)).unwrap();
        let mut state = 0x5eed_u64;
        let mut pick = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ids[(state >> 33) as usize % ids.len()]
        };
        let mut committed = 0;
        for epoch in 0..12u64 {
            if epoch == 6 {
                model = explicit(1);
                ledger.set_allocation(to_phi(&model)).unwrap();
            }
            let window: Vec<Transaction> = (0..48)
                .map(|i| tx(epoch * 48 + i, pick(), pick()))
                .collect();
            // Pilot's Ω pass reads ϕ before this epoch's migrations land.
            assert_eq!(ledger.classify(&window), reference(&model, &window));
            for _ in 0..6 {
                let account = AccountId::new(pick());
                let from = model_shard(&model, account);
                let to = ShardId::new((from.as_u16() + 1) % k);
                ledger.submit_migration(
                    MigrationRequest::new(account, from, to, ledger.current_epoch(), 1.0).unwrap(),
                );
            }
            let out = ledger.process_epoch(&window);
            for mr in &out.committed {
                model.insert(mr.account.as_u64(), mr.to.as_u16());
            }
            committed += out.committed.len();
            assert_eq!(out.load, reference(&model, &window), "epoch {epoch}");
            for &a in &ids {
                let a = AccountId::new(a);
                assert_eq!(ledger.phi().shard_of(a), model_shard(&model, a));
            }
        }
        assert!(committed > 20, "only {committed} migrations committed");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut ledger = Ledger::new(params(4), assigned_phi(4, 40)).unwrap();
            let txs: Vec<Transaction> = (0..100).map(|i| tx(i, i % 17, (i * 7) % 23)).collect();
            let mut outs = Vec::new();
            for chunk in txs.chunks(25) {
                outs.push(ledger.process_epoch(chunk));
            }
            (outs, ledger.phi().clone())
        };
        let (a, phi_a) = run();
        let (b, phi_b) = run();
        assert_eq!(a, b);
        assert_eq!(phi_a, phi_b);
    }
}
