//! Client-proposed account migration requests (`MR`, §III-B).
//!
//! A migration request is the only new transaction type Mosaic adds to a
//! sharded blockchain: a client asks the beacon chain to move its account to
//! a different shard. Requests carry the potential improvement the client
//! expects so that, when more than `λ` requests arrive in an epoch, the
//! beacon chain can prioritise "the migration requests that offer the most
//! significant improvements in `P^ν`" (§V-A).

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};
use crate::ids::{AccountId, EpochId, ShardId};

/// A migration request proposed by a client for inclusion on the beacon
/// chain.
///
/// # Example
///
/// ```
/// use mosaic_types::{AccountId, EpochId, MigrationRequest, ShardId};
/// # fn main() -> Result<(), mosaic_types::Error> {
/// let mr = MigrationRequest::new(
///     AccountId::new(1),
///     ShardId::new(0),
///     ShardId::new(2),
///     EpochId::new(5),
///     12.5,
/// )?;
/// assert_eq!(mr.to, ShardId::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRequest {
    /// The migrating account ν.
    pub account: AccountId,
    /// Shard the account currently resides in.
    pub from: ShardId,
    /// Requested destination shard.
    pub to: ShardId,
    /// Epoch in which the request was proposed.
    pub proposed_at: EpochId,
    /// The client's estimated improvement in potential `ΔP^ν ≥ 0`
    /// (destination potential minus current potential). Used only for
    /// prioritisation when requests exceed beacon capacity.
    pub gain: f64,
}

impl MigrationRequest {
    /// Creates a validated migration request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SelfMigration`] if `from == to` — such a request
    /// would waste beacon-chain capacity and is rejected client-side.
    pub fn new(
        account: AccountId,
        from: ShardId,
        to: ShardId,
        proposed_at: EpochId,
        gain: f64,
    ) -> Result<Self> {
        if from == to {
            return Err(Error::SelfMigration(account));
        }
        Ok(MigrationRequest {
            account,
            from,
            to,
            proposed_at,
            gain: if gain.is_finite() { gain } else { 0.0 },
        })
    }

    /// Total order used by the beacon chain to pick the top-`λ` requests:
    /// higher gain first; ties broken by account id for determinism.
    pub fn priority_cmp(&self, other: &Self) -> Ordering {
        other
            .gain
            .partial_cmp(&self.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.account.cmp(&other.account))
    }
}

impl fmt::Display for MigrationRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MR[{} {} -> {} @ {} gain {:.3}]",
            self.account, self.from, self.to, self.proposed_at, self.gain
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mr(account: u64, gain: f64) -> MigrationRequest {
        MigrationRequest::new(
            AccountId::new(account),
            ShardId::new(0),
            ShardId::new(1),
            EpochId::new(0),
            gain,
        )
        .unwrap()
    }

    #[test]
    fn rejects_self_migration() {
        let err = MigrationRequest::new(
            AccountId::new(5),
            ShardId::new(2),
            ShardId::new(2),
            EpochId::new(0),
            1.0,
        )
        .unwrap_err();
        assert_eq!(err, Error::SelfMigration(AccountId::new(5)));
    }

    #[test]
    fn non_finite_gain_is_clamped() {
        assert_eq!(mr(1, f64::NAN).gain, 0.0);
        assert_eq!(mr(1, f64::INFINITY).gain, 0.0);
        assert_eq!(mr(1, 3.5).gain, 3.5);
    }

    #[test]
    fn priority_orders_by_gain_desc_then_account() {
        let mut requests = [mr(3, 1.0), mr(1, 5.0), mr(2, 5.0), mr(4, 0.5)];
        requests.sort_by(MigrationRequest::priority_cmp);
        let order: Vec<u64> = requests.iter().map(|r| r.account.as_u64()).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn display_is_informative() {
        let s = mr(9, 2.0).to_string();
        assert!(s.contains("S1 -> S2"), "{s}");
        assert!(s.contains("gain 2.000"), "{s}");
    }
}
