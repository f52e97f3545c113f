//! A Mosaic client (wallet-side state and decision making).

use mosaic_metrics::data_size::client_input_bytes;
use mosaic_types::{
    AccountId, AccountShardMap, EpochId, MigrationRequest, Result, SystemParams, Transaction,
};

use crate::fusion::fuse;
use crate::interaction::CounterpartySet;
use crate::pilot::{Pilot, PilotDecision, PilotInput};

/// One client ν with its local knowledge.
///
/// The client's entire allocation-relevant state is two counterparty
/// multisets (historical `T^ν_h` and expected `T^ν_e`) — a few hundred
/// bytes, versus the full ledger a miner-driven allocator needs. This is
/// the storage side of the paper's Table IV comparison, measured
/// faithfully by [`Client::input_size_bytes`].
///
/// # Example
///
/// ```
/// use mosaic_core::Client;
/// use mosaic_types::{AccountId, AccountShardMap, SystemParams};
///
/// # fn main() -> Result<(), mosaic_types::Error> {
/// let params = SystemParams::builder().shards(2).build()?;
/// let client = Client::new(AccountId::new(1));
/// let phi = AccountShardMap::new(2);
/// let decision = client.decide(&phi, &[5.0, 5.0], &params);
/// assert!(!decision.should_migrate()); // no history yet, balanced load
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Client {
    account: AccountId,
    history: CounterpartySet,
    expected: CounterpartySet,
}

impl Client {
    /// Creates a client for `account` with empty knowledge.
    pub fn new(account: AccountId) -> Self {
        Client {
            account,
            history: CounterpartySet::new(),
            expected: CounterpartySet::new(),
        }
    }

    /// Creates a client for `account` that already holds `history` and
    /// `expected` (a wallet restoring its state, or
    /// [`crate::MosaicFramework::client`] materialising one row of the
    /// population graph).
    pub fn with_knowledge(
        account: AccountId,
        history: CounterpartySet,
        expected: CounterpartySet,
    ) -> Self {
        Client {
            account,
            history,
            expected,
        }
    }

    /// The client's account.
    pub fn account(&self) -> AccountId {
        self.account
    }

    /// The historical counterparty multiset (`T^ν_h` reduced).
    pub fn history(&self) -> &CounterpartySet {
        &self.history
    }

    /// The expected counterparty multiset (`T^ν_e` reduced).
    pub fn expected(&self) -> &CounterpartySet {
        &self.expected
    }

    /// Records a committed transaction (ignored unless it involves this
    /// client).
    pub fn observe(&mut self, tx: &Transaction) {
        self.history.record(self.account, tx);
    }

    /// Replaces the expected-future knowledge (the framework refreshes it
    /// every epoch from the client's β-sample of upcoming transactions).
    pub fn set_expected(&mut self, expected: CounterpartySet) {
        self.expected = expected;
    }

    /// Adds one expected future interaction.
    pub fn expect_interaction(&mut self, counterparty: AccountId, count: u32) {
        self.expected.add(counterparty, count);
    }

    /// Clears expected-future knowledge.
    pub fn clear_expected(&mut self) {
        self.expected = CounterpartySet::new();
    }

    /// Computes the fused interaction distribution `Ψ^ν` under the
    /// current ϕ (Equations 1–2).
    pub fn psi(&self, phi: &AccountShardMap, beta: f64) -> Vec<f64> {
        let psi_h = self.history.interaction_vector(phi);
        let psi_e = self.expected.interaction_vector(phi);
        fuse(&psi_h, &psi_e, beta)
    }

    /// Runs Pilot for this client.
    ///
    /// # Panics
    ///
    /// Panics if `omega.len()` disagrees with `phi.shards()`.
    pub fn decide(
        &self,
        phi: &AccountShardMap,
        omega: &[f64],
        params: &SystemParams,
    ) -> PilotDecision {
        let psi = self.psi(phi, params.beta());
        Pilot::new(params.eta()).decide(&PilotInput {
            psi: &psi,
            omega,
            current: phi.shard_of(self.account),
        })
    }

    /// Runs Pilot and, if it recommends moving, builds the migration
    /// request to submit to the beacon chain.
    ///
    /// # Errors
    ///
    /// Propagates [`mosaic_types::Error::SelfMigration`] — unreachable in
    /// practice because a request is only built when the target differs.
    pub fn migration_request(
        &self,
        phi: &AccountShardMap,
        omega: &[f64],
        params: &SystemParams,
        epoch: EpochId,
    ) -> Result<Option<MigrationRequest>> {
        let decision = self.decide(phi, omega, params);
        if !decision.should_migrate() {
            return Ok(None);
        }
        Ok(Some(MigrationRequest::new(
            self.account,
            decision.current,
            decision.target,
            epoch,
            decision.gain,
        )?))
    }

    /// The bytes of input this client feeds Pilot: its own header, one
    /// entry per distinct counterparty in each of its two multisets, and
    /// the downloaded `Ω` vector — the quantity the paper reports as
    /// 228.66 B on average (Table IV), priced by [`client_input_bytes`].
    pub fn input_size_bytes(&self, shards: u16) -> usize {
        client_input_bytes(self.history.distinct() + self.expected.distinct(), shards)
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

    fn params(k: u16) -> SystemParams {
        SystemParams::builder().shards(k).build().unwrap()
    }

    #[test]
    fn observe_builds_history() {
        let mut c = Client::new(AccountId::new(1));
        c.observe(&tx(1, 2));
        c.observe(&tx(3, 1));
        c.observe(&tx(4, 5)); // not ours
        assert_eq!(c.history().total(), 2);
    }

    #[test]
    fn decide_moves_toward_counterparties() {
        let mut c = Client::new(AccountId::new(0));
        let mut phi = AccountShardMap::new(2);
        phi.assign(AccountId::new(0), ShardId::new(1)).unwrap();
        phi.assign(AccountId::new(7), ShardId::new(0)).unwrap();
        for _ in 0..10 {
            c.observe(&tx(0, 7));
        }
        let d = c.decide(&phi, &[5.0, 5.0], &params(2));
        assert_eq!(d.target, ShardId::new(0));
        assert!(d.should_migrate());
    }

    #[test]
    fn migration_request_built_only_when_moving() {
        let mut c = Client::new(AccountId::new(0));
        let mut phi = AccountShardMap::new(2);
        phi.assign(AccountId::new(0), ShardId::new(0)).unwrap();
        phi.assign(AccountId::new(7), ShardId::new(0)).unwrap();
        for _ in 0..10 {
            c.observe(&tx(0, 7));
        }
        // Already co-located: no request.
        let mr = c
            .migration_request(&phi, &[5.0, 5.0], &params(2), EpochId::new(1))
            .unwrap();
        assert!(mr.is_none());
        // Counterparty migrates away: request follows it.
        phi.assign(AccountId::new(7), ShardId::new(1)).unwrap();
        let mr = c
            .migration_request(&phi, &[5.0, 5.0], &params(2), EpochId::new(2))
            .unwrap()
            .expect("should move");
        assert_eq!(mr.to, ShardId::new(1));
        assert!(mr.gain > 0.0);
    }

    #[test]
    fn beta_blends_expected_knowledge() {
        let mut c = Client::new(AccountId::new(0));
        let mut phi = AccountShardMap::new(2);
        phi.assign(AccountId::new(1), ShardId::new(0)).unwrap();
        phi.assign(AccountId::new(2), ShardId::new(1)).unwrap();
        // History entirely with shard 0; expectations entirely shard 1.
        for _ in 0..5 {
            c.observe(&tx(0, 1));
        }
        c.expect_interaction(AccountId::new(2), 5);
        assert_eq!(c.psi(&phi, 0.0), vec![1.0, 0.0]);
        assert_eq!(c.psi(&phi, 1.0), vec![0.0, 1.0]);
        assert_eq!(c.psi(&phi, 0.5), vec![0.5, 0.5]);
        c.clear_expected();
        assert_eq!(c.psi(&phi, 1.0), vec![1.0, 0.0]);
    }

    #[test]
    fn input_size_is_hundreds_of_bytes() {
        let mut c = Client::new(AccountId::new(0));
        for i in 1..=10u64 {
            c.observe(&tx(0, i));
        }
        let bytes = c.input_size_bytes(16);
        // 16 header + 10*12 counterparties + 16*8 omega = 264.
        assert_eq!(bytes, 16 + 120 + 128);
    }
}
