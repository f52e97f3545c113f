//! Failure injection and adversarial-input tests across crates: stale
//! and conflicting migration requests, tampered chains, degenerate
//! epochs, and a flood of migration requests.

use mosaic::prelude::*;

fn params(k: u16) -> SystemParams {
    SystemParams::builder().shards(k).tau(10).build().unwrap()
}

fn ledger(k: u16, accounts: u64) -> Ledger {
    let mut phi = AccountShardMap::new(k);
    for a in 0..accounts {
        phi.assign(AccountId::new(a), ShardId::new((a % u64::from(k)) as u16))
            .unwrap();
    }
    Ledger::new(params(k), phi, usize::from(k) * 2).unwrap()
}

fn filler(k: u64, per_shard: u64) -> Vec<Transaction> {
    (0..per_shard * k)
        .map(|i| {
            Transaction::new(
                TxId::new(i),
                AccountId::new(i % k),
                AccountId::new(i % k + k),
                BlockHeight::new(i),
            )
        })
        .collect()
}

#[test]
fn stale_request_is_applied_to_destination_and_flagged() {
    let mut l = ledger(4, 20);
    // Account 0 genuinely lives in shard 0; an old request claims it is
    // in shard 3 (stale view) and asks for shard 1.
    l.submit_migration(
        MigrationRequest::new(
            AccountId::new(0),
            ShardId::new(3),
            ShardId::new(1),
            EpochId::new(0),
            1.0,
        )
        .unwrap(),
    );
    let out = l.process_epoch(&filler(4, 5));
    assert_eq!(out.reconfig.migrations_applied, 1);
    assert_eq!(out.reconfig.migrations_stale, 1);
    assert_eq!(l.phi().shard_of(AccountId::new(0)), ShardId::new(1));
}

#[test]
fn conflicting_requests_from_one_account_resolve_to_highest_gain() {
    let mut l = ledger(4, 20);
    for (to, gain) in [(1u16, 2.0), (2, 9.0), (3, 4.0)] {
        l.submit_migration(
            MigrationRequest::new(
                AccountId::new(0),
                ShardId::new(0),
                ShardId::new(to),
                EpochId::new(0),
                gain,
            )
            .unwrap(),
        );
    }
    let out = l.process_epoch(&filler(4, 5));
    assert_eq!(out.committed.len(), 1);
    assert_eq!(l.phi().shard_of(AccountId::new(0)), ShardId::new(2));
}

#[test]
fn self_migration_rejected_at_construction() {
    let err = MigrationRequest::new(
        AccountId::new(5),
        ShardId::new(1),
        ShardId::new(1),
        EpochId::new(0),
        1.0,
    )
    .unwrap_err();
    assert!(matches!(err, mosaic::types::Error::SelfMigration(_)));
}

#[test]
fn empty_epochs_commit_nothing_but_keep_the_clock() {
    let mut l = ledger(2, 4);
    l.submit_migration(
        MigrationRequest::new(
            AccountId::new(0),
            ShardId::new(0),
            ShardId::new(1),
            EpochId::new(0),
            1.0,
        )
        .unwrap(),
    );
    // lambda = 0 in an empty epoch: the pending request cannot commit
    // (and is dropped; the client would resubmit).
    let out = l.process_epoch(&[]);
    assert!(out.committed.is_empty());
    assert_eq!(out.lambda, 0.0);
    assert_eq!(l.phi().shard_of(AccountId::new(0)), ShardId::new(0));
    assert_eq!(l.current_epoch(), EpochId::new(1));
    l.check_invariants().unwrap();
}

#[test]
fn flooding_the_beacon_is_bounded() {
    let mut l = ledger(2, 2000);
    // An attacker floods 1000 junk requests with absurd claimed gains.
    for a in 0..1000u64 {
        let from = l.phi().shard_of(AccountId::new(a));
        let to = ShardId::new(1 - from.as_u16());
        l.submit_migration(
            MigrationRequest::new(AccountId::new(a), from, to, EpochId::new(0), 1e9).unwrap(),
        );
    }
    // Capacity bounds the damage to lambda commits per epoch.
    let out = l.process_epoch(&filler(2, 20));
    assert_eq!(out.committed.len(), 20);
}

#[test]
fn gain_inflation_does_not_move_other_accounts() {
    // A malicious client can only migrate *its own* account: inflated
    // gains change priority, never ownership.
    let mut l = ledger(2, 10);
    l.submit_migration(
        MigrationRequest::new(
            AccountId::new(0),
            ShardId::new(0),
            ShardId::new(1),
            EpochId::new(0),
            f64::MAX,
        )
        .unwrap(),
    );
    let before: Vec<ShardId> = (1..10)
        .map(|a| l.phi().shard_of(AccountId::new(a)))
        .collect();
    let _ = l.process_epoch(&filler(2, 5));
    let after: Vec<ShardId> = (1..10)
        .map(|a| l.phi().shard_of(AccountId::new(a)))
        .collect();
    assert_eq!(before, after);
}

#[test]
fn non_finite_gains_are_neutralized() {
    let mut l = ledger(2, 10);
    for (a, gain) in [(0u64, f64::NAN), (1, f64::INFINITY), (2, 5.0)] {
        let from = l.phi().shard_of(AccountId::new(a));
        let to = ShardId::new(1 - from.as_u16());
        l.submit_migration(
            MigrationRequest::new(AccountId::new(a), from, to, EpochId::new(0), gain).unwrap(),
        );
    }
    // Capacity 1: the finite gain must win over the NaN/Inf submissions
    // (which are clamped to 0 at construction).
    let out = l.process_epoch(&filler(2, 1).into_iter().take(2).collect::<Vec<_>>());
    assert_eq!(out.committed.len(), 1);
    assert_eq!(out.committed[0].account, AccountId::new(2));
}
