//! The client's local transaction knowledge and the interaction
//! distribution `Ψ` (Equation 1).
//!
//! A Mosaic client does **not** store the ledger. It stores the multiset
//! of counterparties of its own transactions — `T^ν` reduced to
//! `(counterparty, count)` pairs, which is all Equation 1 consumes:
//!
//! ```text
//! ψ^ν_{h,i} = Σ_{Tx ∈ T^ν_h} Σ_{b ∈ A_Tx − {ν}} 1(ϕ(b) = i)
//! ```
//!
//! The shard of each counterparty is resolved through the *current*
//! public allocation ϕ at decision time (§V-A sets `ϕ(A_Tx − {ν})` to
//! the current allocation), so the client's stored state never goes
//! stale when other accounts migrate.

use mosaic_types::hash::FnvHashMap;
use mosaic_types::{AccountId, AccountShardMap, Transaction};

/// A multiset of counterparties: the client-side reduction of `T^ν`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterpartySet {
    counts: FnvHashMap<AccountId, u32>,
    total: u64,
}

impl CounterpartySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        CounterpartySet::default()
    }

    /// Records that `me` transacted with the counterparty of `tx`, if
    /// any (self-transfers carry no counterparty). Transactions that do
    /// not involve `me` are ignored.
    pub fn record(&mut self, me: AccountId, tx: &Transaction) {
        if let Some(other) = tx.counterparty(me) {
            *self.counts.entry(other).or_default() += 1;
            self.total += 1;
        }
    }

    /// Adds `count` interactions with `counterparty` directly (used for
    /// expected-future knowledge).
    pub fn add(&mut self, counterparty: AccountId, count: u32) {
        if count == 0 {
            return;
        }
        *self.counts.entry(counterparty).or_default() += count;
        self.total += u64::from(count);
    }

    /// Number of distinct counterparties.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total interactions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(counterparty, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (AccountId, u32)> + '_ {
        self.counts.iter().map(|(&a, &c)| (a, c))
    }

    /// Computes the interaction distribution `Ψ` over `k` shards by
    /// resolving every counterparty through the current ϕ (Equation 1).
    pub fn interaction_vector(&self, phi: &AccountShardMap) -> Vec<f64> {
        let mut psi = vec![0.0f64; usize::from(phi.shards())];
        for (&account, &count) in &self.counts {
            psi[phi.shard_of(account).index()] += f64::from(count);
        }
        psi
    }
}

impl FromIterator<(AccountId, u32)> for CounterpartySet {
    fn from_iter<T: IntoIterator<Item = (AccountId, u32)>>(iter: T) -> Self {
        let mut set = CounterpartySet::new();
        for (a, c) in iter {
            set.add(a, c);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{BlockHeight, ShardId, TxId};

    fn tx(from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(0),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(0),
        )
    }

    #[test]
    fn records_only_own_transactions() {
        let me = AccountId::new(1);
        let mut set = CounterpartySet::new();
        set.record(me, &tx(1, 2)); // me -> 2
        set.record(me, &tx(3, 1)); // 3 -> me
        set.record(me, &tx(4, 5)); // unrelated
        set.record(me, &tx(1, 1)); // self-transfer
        assert_eq!(set.distinct(), 2);
        assert_eq!(set.total(), 2);
    }

    #[test]
    fn interaction_vector_follows_current_phi() {
        let me = AccountId::new(0);
        let mut set = CounterpartySet::new();
        for _ in 0..3 {
            set.record(me, &tx(0, 7));
        }
        set.record(me, &tx(8, 0));

        let mut phi = AccountShardMap::new(2);
        phi.assign(AccountId::new(7), ShardId::new(0)).unwrap();
        phi.assign(AccountId::new(8), ShardId::new(1)).unwrap();
        assert_eq!(set.interaction_vector(&phi), vec![3.0, 1.0]);

        // Counterparty 7 migrates: Ψ re-resolves with no client action.
        phi.assign(AccountId::new(7), ShardId::new(1)).unwrap();
        assert_eq!(set.interaction_vector(&phi), vec![0.0, 4.0]);
    }

    #[test]
    fn add_accumulates() {
        let mut set = CounterpartySet::new();
        set.add(AccountId::new(5), 2);
        set.add(AccountId::new(5), 3);
        set.add(AccountId::new(5), 0);
        assert_eq!(set.distinct(), 1);
        assert_eq!(set.total(), 5);
        assert!(!set.is_empty());
    }

    #[test]
    fn empty_set_yields_zero_vector() {
        let set = CounterpartySet::new();
        let phi = AccountShardMap::new(4);
        assert_eq!(set.interaction_vector(&phi), vec![0.0; 4]);
        assert!(set.is_empty());
    }
}
