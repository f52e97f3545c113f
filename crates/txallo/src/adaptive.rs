//! A-TxAllo: the fast adaptive allocation update.

use mosaic_txgraph::GraphBuilder;
use mosaic_types::{AccountShardMap, Transaction};

use crate::config::TxAlloConfig;
use crate::objective::AlloObjective;
use crate::sweep;

/// The adaptive TxAllo variant.
///
/// Instead of re-optimising the whole ledger, A-TxAllo looks only at the
/// *recent window* of transactions: the accounts active in the window
/// re-evaluate their shard against the same throughput objective as
/// [`crate::GTxAllo`]; every other account keeps its previous allocation.
/// This is the `O(|T_[(t−τ),t]|)` per-epoch cost the Mosaic paper's
/// Table IV reports as ~0.4 s (versus ~60 s for the global pass).
///
/// Like the global variant it is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ATxAllo {
    config: TxAlloConfig,
}

impl ATxAllo {
    /// Creates the algorithm with an explicit config.
    pub fn new(config: TxAlloConfig) -> Self {
        ATxAllo { config }
    }

    /// The active configuration.
    pub fn config(&self) -> TxAlloConfig {
        self.config
    }

    /// Re-allocates the accounts active in `window`, mutating `phi` in
    /// place. Returns the number of accounts that moved.
    ///
    /// Accounts not appearing in `window` are untouched; brand-new
    /// accounts (present in the window but never assigned) are first
    /// resolved through `phi`'s default rule, then optimised like any
    /// other active account.
    pub fn update(&self, phi: &mut AccountShardMap, window: &[Transaction]) -> usize {
        let k = phi.shards();
        let kk = usize::from(k);
        if window.is_empty() || k <= 1 {
            return 0;
        }

        // Window interaction graph.
        let mut builder = GraphBuilder::new();
        builder.add_transactions(window);
        let graph = builder.build();
        let n = graph.node_count();
        if n == 0 {
            return 0;
        }

        // Working assignment over window accounts, seeded from phi.
        let mut parts: Vec<u16> = graph
            .nodes()
            .map(|v| phi.shard_of(graph.account_of(v)).as_u16())
            .collect();

        // Recent-load estimate per shard (window activity only).
        let dv: Vec<f64> = graph
            .nodes()
            .map(|v| graph.node_weight(v).max(1) as f64)
            .collect();
        let total: f64 = dv.iter().sum();
        let capacity = self.config.capacity_slack * total / f64::from(k);
        let objective = AlloObjective::new(self.config.eta, capacity);
        let mut load = vec![0.0f64; kk];
        for v in 0..n {
            load[usize::from(parts[v])] += dv[v];
        }

        // Busiest-first order, then greedy passes.
        sweep::objective_refine(
            &graph,
            &sweep::busiest_first(&graph),
            &dv,
            &objective,
            &mut parts,
            &mut load,
            self.config.rounds,
        );

        // Write back only actual changes.
        let mut changed = 0usize;
        for v in graph.nodes() {
            let account = graph.account_of(v);
            let new_shard = mosaic_types::ShardId::new(parts[v.index()]);
            if phi.shard_of(account) != new_shard {
                phi.assign(account, new_shard)
                    .expect("in-range shard from optimisation");
                changed += 1;
            }
        }
        changed
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

    #[test]
    fn empty_window_is_noop() {
        let mut phi = AccountShardMap::new(4);
        assert_eq!(ATxAllo::default().update(&mut phi, &[]), 0);
        assert_eq!(phi.assigned_len(), 0);
    }

    #[test]
    fn single_shard_is_noop() {
        let mut phi = AccountShardMap::new(1);
        let window = vec![tx(0, 1, 2)];
        assert_eq!(ATxAllo::default().update(&mut phi, &window), 0);
    }

    #[test]
    fn colocates_active_pair() {
        let mut phi = AccountShardMap::new(2);
        phi.assign(AccountId::new(1), ShardId::new(0)).unwrap();
        phi.assign(AccountId::new(2), ShardId::new(1)).unwrap();
        // Heavy interaction between 1 and 2 in the window.
        let window: Vec<Transaction> = (0..20).map(|i| tx(i, 1, 2)).collect();
        let moved = ATxAllo::default().update(&mut phi, &window);
        assert!(moved >= 1);
        assert_eq!(
            phi.shard_of(AccountId::new(1)),
            phi.shard_of(AccountId::new(2))
        );
    }

    #[test]
    fn inactive_accounts_untouched() {
        let mut phi = AccountShardMap::new(4);
        phi.assign(AccountId::new(99), ShardId::new(3)).unwrap();
        let window = vec![tx(0, 1, 2), tx(1, 2, 1)];
        ATxAllo::default().update(&mut phi, &window);
        assert_eq!(phi.shard_of(AccountId::new(99)), ShardId::new(3));
    }

    #[test]
    fn new_accounts_get_assigned() {
        let mut phi = AccountShardMap::new(2);
        // Account 5 has never been assigned; its window partner sits in
        // shard 1 with plenty of traffic.
        phi.assign(AccountId::new(7), ShardId::new(1)).unwrap();
        let window: Vec<Transaction> = (0..10).map(|i| tx(i, 5, 7)).collect();
        ATxAllo::default().update(&mut phi, &window);
        assert_eq!(phi.shard_of(AccountId::new(5)), ShardId::new(1));
    }

    #[test]
    fn deterministic_updates() {
        let window: Vec<Transaction> = (0..50).map(|i| tx(i, i % 7, (i % 5) + 7)).collect();
        let run = || {
            let mut phi = AccountShardMap::new(4);
            ATxAllo::default().update(&mut phi, &window);
            let mut out: Vec<(u64, u16)> =
                phi.iter().map(|(a, s)| (a.as_u64(), s.as_u16())).collect();
            out.sort_unstable();
            out
        };
        assert_eq!(run(), run());
    }
}
