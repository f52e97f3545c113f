//! Integration tests of the migration protocol across crates: client →
//! beacon chain → reconfiguration → ϕ, including capacity enforcement
//! and prioritisation under contention.

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
    Ledger::new(params(k), phi).unwrap()
}

fn mr(account: u64, from: u16, to: u16, gain: f64) -> MigrationRequest {
    MigrationRequest::new(
        AccountId::new(account),
        ShardId::new(from),
        ShardId::new(to),
        EpochId::new(0),
        gain,
    )
    .unwrap()
}

/// Epoch traffic big enough for a lambda of `capacity` per shard.
fn filler_txs(k: u64, capacity: u64) -> Vec<Transaction> {
    (0..capacity * k)
        .map(|i| {
            // Intra-shard filler: both endpoints congruent mod k.
            Transaction::new(
                TxId::new(i),
                AccountId::new(i % k),
                AccountId::new(i % k + k),
                BlockHeight::new(i / 10),
            )
        })
        .collect()
}

#[test]
fn contention_resolved_by_gain_priority() {
    let mut l = ledger(2, 100);
    // 20 clients all want to move 0 -> 1 with increasing gains.
    for a in 0..20u64 {
        let from = l.phi().shard_of(AccountId::new(a));
        let to = ShardId::new(1 - from.as_u16());
        l.submit_migration(
            MigrationRequest::new(AccountId::new(a), from, to, EpochId::new(0), a as f64).unwrap(),
        );
    }
    // lambda = 5 per shard.
    let outcome = l.process_epoch(&filler_txs(2, 5));
    assert_eq!(outcome.lambda, 5.0);
    assert_eq!(outcome.committed.len(), 5);
    let winners: Vec<u64> = outcome
        .committed
        .iter()
        .map(|m| m.account.as_u64())
        .collect();
    assert_eq!(winners, vec![19, 18, 17, 16, 15]);
}

#[test]
fn duplicate_submissions_commit_once() {
    let mut l = ledger(2, 10);
    for gain in [1.0, 7.0, 3.0] {
        l.submit_migration(mr(0, 0, 1, gain));
    }
    let outcome = l.process_epoch(&filler_txs(2, 10));
    assert_eq!(outcome.committed.len(), 1);
    assert_eq!(outcome.committed[0].gain, 7.0);
    assert_eq!(l.phi().shard_of(AccountId::new(0)), ShardId::new(1));
}

#[test]
fn losers_are_dropped_and_may_resubmit() {
    let mut l = ledger(2, 100);
    for a in 0..10u64 {
        l.submit_migration(mr(a, (a % 2) as u16, ((a + 1) % 2) as u16, a as f64));
    }
    let first = l.process_epoch(&filler_txs(2, 3));
    assert_eq!(first.committed.len(), 3);
    // Nothing pending any more: losers must actively resubmit.
    assert!(l.beacon().pending().is_empty());
    let second = l.process_epoch(&filler_txs(2, 3));
    assert!(second.committed.is_empty());
}

#[test]
fn committed_migrations_update_phi_at_the_reconfiguration() {
    let mut l = ledger(4, 40);
    l.submit_migration(mr(0, 0, 2, 9.0));
    let outcome = l.process_epoch(&filler_txs(4, 10));
    // The epoch's reconfiguration applied the fresh request to ϕ.
    assert_eq!(outcome.committed.len(), 1);
    assert_eq!(outcome.migrations_stale, 0);
    assert_eq!(l.phi().shard_of(AccountId::new(0)), ShardId::new(2));
}

#[test]
fn framework_end_to_end_reduces_cross_traffic_for_a_community() {
    // A star community around account 0: five of its six satellites
    // already live with it in shard 0, putting the anchor deep in §IV's
    // dominant-interaction region (ψ_0/ψ = 5/6 > η/(2η−1) = 2/3), which
    // pins it regardless of workload. The one scattered satellite then
    // migrates in. (A star whose hub is itself mobile can chase its own
    // tail under simultaneous decisions at toy scale — the §VII-C open
    // problem — so the pinned anchor is deliberate here.)
    let p = SystemParams::builder().shards(4).tau(10).build().unwrap();
    let mut phi = AccountShardMap::new(4);
    let initial = [0u16, 0, 0, 0, 0, 0, 2];
    for (a, s) in initial.into_iter().enumerate() {
        phi.assign(AccountId::new(a as u64), ShardId::new(s))
            .unwrap();
    }
    let mut l = Ledger::new(p, phi).unwrap();
    let mut mosaic = MosaicFramework::new(p);

    // Star traffic: everyone talks to account 0 (the community anchor).
    let window = |epoch: u64| -> Vec<Transaction> {
        (0..60u64)
            .map(|i| {
                Transaction::new(
                    TxId::new(epoch * 60 + i),
                    AccountId::new(i % 6 + 1),
                    AccountId::new(0),
                    BlockHeight::new(epoch * 10 + i / 6),
                )
            })
            .collect()
    };

    let (first, _) = mosaic.run_epoch(&mut l, &window(0));
    let first_ratio = first.load.cross_ratio();
    let mut last_ratio = first_ratio;
    for e in 1..6u64 {
        let (out, _) = mosaic.run_epoch(&mut l, &window(e));
        last_ratio = out.load.cross_ratio();
    }
    assert!(
        last_ratio < first_ratio * 0.5,
        "cross ratio should collapse: {first_ratio} -> {last_ratio}"
    );
}
