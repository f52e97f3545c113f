//! Per-epoch workload accounting and capacity-constrained throughput.
//!
//! [`EpochLoad::compute`] classifies a window in one sequential pass. It
//! takes an `FnMut` resolver, so the caller can fill a cache as it reads:
//! `Ledger::classify` passes `AccountShardMap::resolve`, and once ϕ's
//! table is warm a pass is a few ns per transaction, too little to split
//! across threads.

use mosaic_types::{ensure, AccountId, Result, ShardId, Transaction};

/// Parameters of the load model for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadParams {
    /// Number of shards `k`.
    pub shards: u16,
    /// Cross-shard difficulty `η ≥ 1`.
    pub eta: f64,
    /// Per-shard capacity `λ` in workload units for this epoch.
    pub lambda: f64,
}

/// One epoch's workload, classified under a fixed allocation ϕ.
///
/// Computed in a single pass over the epoch's transactions:
///
/// * `ω_i = |T_I_i| + η·|T_C_i|` — offered workload per shard, where a
///   cross-shard transaction contributes `η` to *each* involved shard
///   (§V-A: "the workload ω_i of S_i is set as the total workload to
///   process transactions in it");
/// * throughput — transactions actually *processed*: walking the epoch in
///   block order, each shard has a budget of `λ` workload units; an
///   intra-shard transaction needs 1 unit in its shard, a cross-shard
///   transaction needs `η` units in both involved shards, and a
///   transaction only completes if every involved shard can pay.
///
/// # Example
///
/// ```
/// use mosaic_metrics::{EpochLoad, LoadParams};
/// use mosaic_types::{AccountId, BlockHeight, ShardId, Transaction, TxId};
///
/// let txs = [Transaction::new(
///     TxId::new(0), AccountId::new(1), AccountId::new(2), BlockHeight::new(0),
/// )];
/// let params = LoadParams { shards: 2, eta: 2.0, lambda: 10.0 };
/// // Put both endpoints in shard 0: one intra-shard transaction.
/// let load = EpochLoad::compute(&txs, params, |_| ShardId::new(0));
/// assert_eq!(load.cross_ratio(), 0.0);
/// assert_eq!(load.processed(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EpochLoad {
    params: LoadParams,
    /// Intra-shard transaction count per shard.
    intra: Vec<usize>,
    /// Cross-shard transaction count per shard (a cross tx counts in both).
    cross: Vec<usize>,
    total_txs: usize,
    cross_txs: usize,
    processed: usize,
    /// Remaining budget per shard after processing (diagnostics).
    residual: Vec<f64>,
}

impl EpochLoad {
    /// Classifies and processes `txs` under allocation `shard_of`.
    ///
    /// `shard_of` must return shards `< params.shards`; it is called for
    /// `from` then `to` of each transaction, in order.
    ///
    /// # Panics
    ///
    /// Panics if an allocation resolves out of range, or if
    /// `params.shards == 0`.
    pub fn compute<F>(txs: &[Transaction], params: LoadParams, mut shard_of: F) -> Self
    where
        F: FnMut(AccountId) -> ShardId,
    {
        assert!(params.shards > 0, "need at least one shard");
        let k = usize::from(params.shards);
        let mut intra = vec![0usize; k];
        let mut cross = vec![0usize; k];
        let mut budget = vec![params.lambda; k];
        let mut cross_txs = 0usize;
        let mut processed = 0usize;

        for tx in txs {
            let s_from = shard_of(tx.from);
            let s_to = shard_of(tx.to);
            assert!(
                s_from.index() < k && s_to.index() < k,
                "allocation out of range"
            );
            if s_from == s_to {
                intra[s_from.index()] += 1;
                if budget[s_from.index()] >= 1.0 {
                    budget[s_from.index()] -= 1.0;
                    processed += 1;
                }
            } else {
                cross[s_from.index()] += 1;
                cross[s_to.index()] += 1;
                cross_txs += 1;
                if budget[s_from.index()] >= params.eta && budget[s_to.index()] >= params.eta {
                    budget[s_from.index()] -= params.eta;
                    budget[s_to.index()] -= params.eta;
                    processed += 1;
                }
            }
        }

        EpochLoad {
            params,
            intra,
            cross,
            total_txs: txs.len(),
            cross_txs,
            processed,
            residual: budget,
        }
    }

    /// The load-model parameters used.
    pub fn params(&self) -> LoadParams {
        self.params
    }

    /// Total transactions offered this epoch.
    pub fn total_txs(&self) -> usize {
        self.total_txs
    }

    /// Number of cross-shard transactions offered.
    pub fn cross_txs(&self) -> usize {
        self.cross_txs
    }

    /// Cross-shard transaction ratio in `[0, 1]`; 0 for an empty epoch.
    pub fn cross_ratio(&self) -> f64 {
        if self.total_txs == 0 {
            0.0
        } else {
            self.cross_txs as f64 / self.total_txs as f64
        }
    }

    /// Offered workload vector `Ω = [ω_1..ω_k]`,
    /// `ω_i = |T_I_i| + η·|T_C_i|`.
    pub fn workload_vector(&self) -> Vec<f64> {
        self.intra
            .iter()
            .zip(&self.cross)
            .map(|(&i, &c)| i as f64 + self.params.eta * c as f64)
            .collect()
    }

    /// Workload deviation `(Σ(ω_i − ω̄)² / (k·ω̄))^0.5` (§V-A).
    ///
    /// Returns 0 when the total workload is zero.
    pub fn workload_deviation(&self) -> f64 {
        deviation(&self.workload_vector())
    }

    /// Transactions processed within capacity (`Λ` for this epoch).
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Normalised throughput `Λ/λ` (the paper's Table II measure: a
    /// non-sharded chain processes exactly `λ`, scoring 1).
    ///
    /// Returns 0 when `λ = 0`.
    pub fn normalized_throughput(&self) -> f64 {
        if self.params.lambda <= 0.0 {
            0.0
        } else {
            self.processed as f64 / self.params.lambda
        }
    }

    /// Remaining per-shard budget after processing.
    pub fn residual_budget(&self) -> &[f64] {
        &self.residual
    }

    /// Per-shard intra-shard transaction counts.
    pub fn intra_counts(&self) -> &[usize] {
        &self.intra
    }

    /// Per-shard cross-shard transaction counts (each cross-shard
    /// transaction appears in both involved shards).
    pub fn cross_counts(&self) -> &[usize] {
        &self.cross
    }

    /// Checks that the counts add up to the window: one entry per shard
    /// in every vector, `Σ intra + cross_txs = total_txs`,
    /// `Σ cross = 2 · cross_txs`, `processed ≤ total_txs` and each
    /// residual in `[0, λ]`; else [`mosaic_types::Error::Inconsistent`].
    pub fn check_invariants(&self) -> Result<()> {
        let (k, lambda) = (usize::from(self.params.shards), self.params.lambda);
        let (total, crossing, done) = (self.total_txs, self.cross_txs, self.processed);
        let lens = [self.intra.len(), self.cross.len(), self.residual.len()];
        ensure!(lens == [k; 3], "load", "lengths {lens:?}, k = {k}");
        let intra: usize = self.intra.iter().sum();
        let sums = intra + crossing == total;
        ensure!(sums, "load", "Σ intra {intra} + {crossing} ≠ {total}");
        let cross: usize = self.cross.iter().sum();
        let twice = cross == 2 * crossing;
        ensure!(twice, "load", "Σ cross {cross} ≠ 2 · {crossing}");
        ensure!(done <= total, "load", "{done} of {total} processed");
        for (shard, &r) in (1..).zip(&self.residual) {
            let holds = (0.0..=lambda).contains(&r);
            ensure!(holds, "load", "S{shard} residual {r} ∉ [0, {lambda}]");
        }
        Ok(())
    }
}

/// The paper's workload-deviation statistic over an arbitrary workload
/// vector: `(Σ(ω_i − ω̄)² / (k·ω̄))^0.5`, 0 if the mean is 0.
pub fn deviation(workloads: &[f64]) -> f64 {
    let k = workloads.len();
    if k == 0 {
        return 0.0;
    }
    let mean = workloads.iter().sum::<f64>() / k as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let ss: f64 = workloads.iter().map(|w| (w - mean).powi(2)).sum();
    (ss / (k as f64 * mean)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{BlockHeight, Error, TxId};

    fn tx(id: u64, from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(id),
        )
    }

    /// Allocation: account id mod k.
    fn modk(k: u16) -> impl Fn(AccountId) -> ShardId {
        move |a| ShardId::new((a.as_u64() % u64::from(k)) as u16)
    }

    #[test]
    fn classification_counts() {
        // accounts 0,2 -> shard 0; 1,3 -> shard 1 (mod 2).
        let txs = [tx(0, 0, 2), tx(1, 0, 1), tx(2, 1, 3), tx(3, 2, 3)];
        let params = LoadParams {
            shards: 2,
            eta: 2.0,
            lambda: 100.0,
        };
        let load = EpochLoad::compute(&txs, params, modk(2));
        assert_eq!(load.total_txs(), 4);
        assert_eq!(load.cross_txs(), 2);
        assert_eq!(load.cross_ratio(), 0.5);
        assert_eq!(load.intra_counts(), &[1, 1]);
        assert_eq!(load.cross_counts(), &[2, 2]);
        // ω_i = 1 + 2*2 = 5 for both shards.
        assert_eq!(load.workload_vector(), vec![5.0, 5.0]);
        assert_eq!(load.workload_deviation(), 0.0);
        assert_eq!(load.processed(), 4);
    }

    #[test]
    fn throughput_respects_capacity() {
        // 10 intra txs in shard 0, capacity 4 -> only 4 processed.
        let txs: Vec<Transaction> = (0..10).map(|i| tx(i, 0, 2)).collect();
        let params = LoadParams {
            shards: 2,
            eta: 2.0,
            lambda: 4.0,
        };
        let load = EpochLoad::compute(&txs, params, modk(2));
        assert_eq!(load.processed(), 4);
        assert_eq!(load.normalized_throughput(), 1.0);
        assert_eq!(load.residual_budget()[0], 0.0);
        assert_eq!(load.residual_budget()[1], 4.0);
    }

    #[test]
    fn cross_tx_charges_both_shards_eta() {
        // One cross tx with eta=3: needs 3 units in both shards.
        let txs = [tx(0, 0, 1)];
        let ok = EpochLoad::compute(
            &txs,
            LoadParams {
                shards: 2,
                eta: 3.0,
                lambda: 3.0,
            },
            modk(2),
        );
        assert_eq!(ok.processed(), 1);
        let starved = EpochLoad::compute(
            &txs,
            LoadParams {
                shards: 2,
                eta: 3.0,
                lambda: 2.9,
            },
            modk(2),
        );
        assert_eq!(starved.processed(), 0);
    }

    #[test]
    fn cross_failure_does_not_leak_budget() {
        // Shard 1 exhausted by intra txs; a later cross tx must not deduct
        // from shard 0 either.
        let mut txs: Vec<Transaction> = (0..4).map(|i| tx(i, 1, 3)).collect(); // intra shard 1
        txs.push(tx(4, 0, 1)); // cross
        txs.push(tx(5, 0, 2)); // intra shard 0 — must still fit
        let params = LoadParams {
            shards: 2,
            eta: 2.0,
            lambda: 4.0,
        };
        let load = EpochLoad::compute(&txs, params, modk(2));
        // 4 intra in shard 1 consume its budget; cross fails; final intra
        // in shard 0 succeeds with full budget available.
        assert_eq!(load.processed(), 5);
        assert_eq!(load.residual_budget()[0], 3.0);
    }

    #[test]
    fn check_invariants_catches_a_double_counted_intra_tx() {
        let txs = [tx(0, 0, 2), tx(1, 0, 1), tx(2, 1, 3)];
        let params = LoadParams {
            shards: 2,
            eta: 2.0,
            lambda: 3.0,
        };
        let mut load = EpochLoad::compute(&txs, params, modk(2));
        load.check_invariants().unwrap();
        load.intra[0] += 1;
        let err = load.check_invariants().unwrap_err();
        assert!(
            matches!(
                err,
                Error::Inconsistent {
                    component: "load",
                    ..
                }
            ),
            "{err}"
        );
        load.intra[0] -= 1;
        load.residual[1] = -1.0;
        assert!(load.check_invariants().is_err());
    }

    #[test]
    fn deviation_formula_matches_paper() {
        // ω = [2, 4]: mean 3, Σ(ω−ω̄)² = 2, k·ω̄ = 6 -> sqrt(1/3).
        let d = deviation(&[2.0, 4.0]);
        assert!((d - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(deviation(&[]), 0.0);
        assert_eq!(deviation(&[0.0, 0.0]), 0.0);
        assert_eq!(deviation(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn empty_epoch() {
        let params = LoadParams {
            shards: 4,
            eta: 2.0,
            lambda: 10.0,
        };
        let load = EpochLoad::compute(&[], params, modk(4));
        assert_eq!(load.cross_ratio(), 0.0);
        assert_eq!(load.processed(), 0);
        assert_eq!(load.workload_deviation(), 0.0);
        assert_eq!(load.normalized_throughput(), 0.0);
    }

    #[test]
    fn perfect_sharding_scales_throughput_by_k() {
        // k shards, all txs intra and evenly spread: Λ/λ = k.
        let k = 4u16;
        let per_shard = 25u64;
        let mut txs = Vec::new();
        for s in 0..u64::from(k) {
            for i in 0..per_shard {
                // both endpoints ≡ s (mod k)
                txs.push(tx(s * per_shard + i, s, s + u64::from(k)));
            }
        }
        let lambda = per_shard as f64;
        let load = EpochLoad::compute(
            &txs,
            LoadParams {
                shards: k,
                eta: 2.0,
                lambda,
            },
            modk(k),
        );
        assert_eq!(load.cross_ratio(), 0.0);
        assert!((load.normalized_throughput() - f64::from(k)).abs() < 1e-12);
    }
}
