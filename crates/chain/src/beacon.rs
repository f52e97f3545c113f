//! The beacon chain: migration-request collection and commitment.
//!
//! Clients submit [`MigrationRequest`]s during an epoch; at the epoch
//! boundary the beacon miners commit at most `capacity` of them (the
//! paper bounds committed `MR`s per epoch by `λ`, prioritising "the
//! migration requests that offer the most significant improvements in
//! `P^ν`", §V-A). The committed requests are the authoritative ϕ update
//! that every miner applies during reconfiguration; the beacon keeps
//! only how many there were and how many rounds committed them.

use mosaic_types::MigrationRequest;

/// The beacon chain `BC`: its pending migration pool and the totals of
/// what it has committed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BeaconChain {
    pending: Vec<MigrationRequest>,
    /// Total committed requests (`|MR|`).
    committed: usize,
    /// Commitment rounds run, one per epoch boundary.
    rounds: u64,
}

impl BeaconChain {
    /// Requests waiting for the next epoch boundary.
    pub fn pending(&self) -> &[MigrationRequest] {
        &self.pending
    }

    /// Total committed migrations (`|MR|`).
    pub fn committed_len(&self) -> usize {
        self.committed
    }

    /// Commitment rounds run so far ([`BeaconChain::commit_epoch`] calls).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Queues a client-submitted request for the next commitment round.
    pub fn submit(&mut self, request: MigrationRequest) {
        self.pending.push(request);
    }

    /// Runs one commitment round: commits up to `capacity` pending
    /// requests and returns the committed set in priority order.
    ///
    /// Selection: at most one request per account (the highest-gain one
    /// wins), then the top `capacity` by [`MigrationRequest::priority_cmp`]
    /// (gain descending, account id tie-break). Unselected requests are
    /// dropped — clients re-evaluate and resubmit next epoch, as Mosaic
    /// clients naturally do when Pilot still favours a move.
    pub fn commit_epoch(&mut self, capacity: usize) -> Vec<MigrationRequest> {
        // Dedup by account, keeping the first of its highest-gain
        // requests (gains are finite: `MigrationRequest::new` zeroes the
        // rest). The stable sort groups each account's requests in
        // submission order, and the fold keeps each group's winner, all
        // inside the pool's own allocation. With one request per account,
        // as Pilot's clients submit, what is committed does not depend on
        // the submission order at all.
        self.pending.sort_by_key(|mr| mr.account);
        self.pending.dedup_by(|later, kept| {
            let same = later.account == kept.account;
            if same && kept.gain < later.gain {
                *kept = *later;
            }
            same
        });
        // Accounts are unique now, so `priority_cmp` is a total order:
        // partitioning off the top `capacity` and sorting only those
        // commits exactly what sorting everything would.
        if capacity < self.pending.len() {
            if capacity > 0 {
                self.pending
                    .select_nth_unstable_by(capacity - 1, MigrationRequest::priority_cmp);
            }
            self.pending.truncate(capacity);
        }
        self.pending.sort_by(MigrationRequest::priority_cmp);
        let requests: Vec<MigrationRequest> = self.pending.drain(..).collect();

        self.committed += requests.len();
        self.rounds += 1;
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{AccountId, EpochId, ShardId};
    use proptest::prelude::*;

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
    fn commit_respects_capacity_and_priority() {
        let mut bc = BeaconChain::default();
        bc.submit(mr(1, 1.0));
        bc.submit(mr(2, 5.0));
        bc.submit(mr(3, 3.0));
        let committed = bc.commit_epoch(2);
        let accounts: Vec<u64> = committed.iter().map(|m| m.account.as_u64()).collect();
        assert_eq!(accounts, vec![2, 3]);
        assert!(bc.pending().is_empty());
        assert_eq!(bc.committed_len(), 2);
        assert_eq!(bc.rounds(), 1);
    }

    #[test]
    fn dedups_by_account_keeping_best_gain() {
        let mut bc = BeaconChain::default();
        bc.submit(mr(7, 1.0));
        bc.submit(mr(7, 9.0));
        bc.submit(mr(7, 4.0));
        let committed = bc.commit_epoch(10);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].gain, 9.0);
    }

    #[test]
    fn unselected_requests_are_dropped() {
        let mut bc = BeaconChain::default();
        for i in 0..5 {
            bc.submit(mr(i, i as f64));
        }
        let first = bc.commit_epoch(2);
        assert_eq!(first.len(), 2);
        // Next epoch starts from an empty pool.
        let second = bc.commit_epoch(2);
        assert!(second.is_empty());
        assert_eq!(bc.rounds(), 2);
        assert_eq!(bc.committed_len(), 2);
    }

    #[test]
    fn zero_capacity_commits_empty_block() {
        let mut bc = BeaconChain::default();
        bc.submit(mr(1, 1.0));
        let committed = bc.commit_epoch(0);
        assert!(committed.is_empty());
        assert_eq!(bc.rounds(), 1);
        assert_eq!(bc.committed_len(), 0);
    }

    proptest! {
        /// Selecting the top `capacity` commits exactly what sorting
        /// every deduplicated request and truncating would — the same
        /// requests, down to which of an account's equal-gain requests
        /// won, in the same order with the same gain bits — under tied
        /// gains, signed zeros, repeated accounts in any order and every
        /// boundary capacity.
        #[test]
        fn prop_commit_equals_full_sort_then_truncate(
            draws in proptest::collection::vec((0u64..12, 0usize..6), 0..40),
        ) {
            const GAINS: [f64; 6] = [-0.0, 0.0, 0.5, 1.0, 1.0, 2.5];
            // A distinct `to` and `proposed_at` per request tell apart
            // two requests of one account with the same gain.
            let pending: Vec<MigrationRequest> = draws
                .iter()
                .zip(1u16..)
                .map(|(&(account, g), i)| {
                    MigrationRequest::new(
                        AccountId::new(account),
                        ShardId::new(0),
                        ShardId::new(i),
                        EpochId::new(u64::from(i)),
                        GAINS[g],
                    )
                    .unwrap()
                })
                .collect();

            // The highest-gain request per account, first one on ties.
            let mut deduped: Vec<MigrationRequest> = Vec::new();
            for &request in &pending {
                match deduped.iter_mut().find(|kept| kept.account == request.account) {
                    Some(kept) if kept.gain >= request.gain => {}
                    Some(kept) => *kept = request,
                    None => deduped.push(request),
                }
            }
            deduped.sort_by(MigrationRequest::priority_cmp);

            let len = deduped.len();
            for capacity in [0, 1, len.saturating_sub(1), len, len + 1] {
                let mut bc = BeaconChain::default();
                pending.iter().for_each(|&request| bc.submit(request));
                let committed = bc.commit_epoch(capacity);
                let key = |m: &MigrationRequest| {
                    (m.account, m.from, m.to, m.proposed_at, m.gain.to_bits())
                };
                prop_assert_eq!(
                    committed.iter().map(key).collect::<Vec<_>>(),
                    deduped.iter().take(capacity).map(key).collect::<Vec<_>>(),
                    "capacity {} of {}", capacity, len
                );
            }
        }
    }

    proptest! {
        /// With at most one request per account, the submission order
        /// is invisible: any permutation of the pool commits the same
        /// requests, in the same order, at every capacity.
        #[test]
        fn prop_one_request_per_account_commits_the_same_in_any_order(
            gains in proptest::collection::vec(0usize..6, 0..40),
            swaps in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..60),
        ) {
            const GAINS: [f64; 6] = [-0.0, 0.0, 0.5, 1.0, 1.0, 2.5];
            let pending: Vec<MigrationRequest> = gains
                .iter()
                .zip(0u64..)
                .map(|(&g, account)| mr(account * 7 % 41, GAINS[g]))
                .collect();
            let mut permuted = pending.clone();
            for &(i, j) in &swaps {
                if !permuted.is_empty() {
                    let len = permuted.len();
                    permuted.swap(i % len, j % len);
                }
            }
            let key = |m: &MigrationRequest| {
                (m.account, m.from, m.to, m.proposed_at, m.gain.to_bits())
            };
            let len = pending.len();
            for capacity in [0, 1, len / 2, len.saturating_sub(1), len, len + 1] {
                let commit = |pool: &[MigrationRequest]| {
                    let mut bc = BeaconChain::default();
                    pool.iter().for_each(|&request| bc.submit(request));
                    bc.commit_epoch(capacity)
                        .iter()
                        .map(key)
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(
                    commit(&permuted),
                    commit(&pending),
                    "capacity {} of {}", capacity, len
                );
            }
        }
    }
}
