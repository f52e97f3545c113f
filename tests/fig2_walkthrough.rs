//! Figure 2 of the paper as an executable walkthrough: `k = 2` shards,
//! `τ = 2` blocks per epoch, a client originally in shard 2 that
//! proposes a migration to shard 1, the beacon-chain commit, and the
//! epoch reconfiguration in which miners synchronise the beacon chain
//! and update ϕ, moving the account before the epoch's transactions.

use mosaic::prelude::*;

/// The toy system of Figure 2.
fn toy_system() -> (Ledger, AccountId) {
    let params = SystemParams::builder()
        .shards(2)
        .eta(2.0)
        .tau(2)
        .build()
        .unwrap();
    // The client's account ν originally resides in shard 2 (index 1).
    let client_account = AccountId::new(100);
    let mut phi = AccountShardMap::new(2);
    phi.assign(client_account, ShardId::new(1)).unwrap();
    // A few other accounts so both shards have state to synchronise.
    for a in 0..10u64 {
        phi.assign(AccountId::new(a), ShardId::new((a % 2) as u16))
            .unwrap();
    }
    let ledger = Ledger::new(params, phi).unwrap();
    (ledger, client_account)
}

#[test]
fn propose_phase_supports_all_three_transaction_types() {
    let (mut ledger, client) = toy_system();
    // ① The client proposes intra-shard and cross-shard transactions to
    // the shards, and a migration request to the beacon chain.
    let intra = Transaction::new(
        TxId::new(0),
        client,
        AccountId::new(1), // also shard 2 (odd -> index 1)
        BlockHeight::new(0),
    );
    let cross = Transaction::new(
        TxId::new(1),
        client,
        AccountId::new(0), // shard 1 (even -> index 0)
        BlockHeight::new(0),
    );
    let mr = MigrationRequest::new(
        client,
        ShardId::new(1),
        ShardId::new(0),
        EpochId::new(0),
        5.0,
    )
    .unwrap();
    ledger.submit_migration(mr);
    assert_eq!(ledger.beacon().pending().len(), 1);

    // ② Commit phase: miners package the transactions into blocks.
    let outcome = ledger.process_epoch(&[intra, cross]);
    assert_eq!(outcome.load.total_txs(), 2);
    assert_eq!(outcome.load.cross_txs(), 1);
    // One epoch processed, one beacon commit round.
    assert_eq!(ledger.current_epoch(), EpochId::new(1));
    assert_eq!(ledger.beacon().rounds(), 1);
}

#[test]
fn migration_phase_moves_the_account_at_epoch_reconfiguration() {
    let (mut ledger, client) = toy_system();
    assert_eq!(ledger.phi().shard_of(client), ShardId::new(1));

    // Propose phase: the migration request reaches the beacon chain.
    ledger.submit_migration(
        MigrationRequest::new(
            client,
            ShardId::new(1),
            ShardId::new(0),
            EpochId::new(0),
            5.0,
        )
        .unwrap(),
    );

    // Epoch reconfiguration happens at the next epoch boundary:
    // Step 1 — miners synchronise the beacon chain and update ϕ;
    // Step 2 — they synchronise the state of accounts in ϕ⁻¹ and the
    // account migrates together with the miner reshuffle. The ledger
    // models the ϕ update; it moves no miners and meters no bytes.
    let txs = [
        Transaction::new(
            TxId::new(0),
            AccountId::new(0),
            AccountId::new(2),
            BlockHeight::new(0),
        ),
        Transaction::new(
            TxId::new(1),
            AccountId::new(1),
            AccountId::new(3),
            BlockHeight::new(1),
        ),
    ];
    let outcome = ledger.process_epoch(&txs);

    // ③ The request committed on the beacon chain…
    assert_eq!(outcome.committed.len(), 1);
    assert_eq!(outcome.committed[0].account, client);
    assert_eq!(ledger.beacon().committed_len(), 1);
    // ④ …and the account now resides in shard 1 (index 0).
    assert_eq!(ledger.phi().shard_of(client), ShardId::new(0));
    assert_eq!(outcome.migrations_stale, 0);
}

#[test]
fn afterwards_the_clients_transactions_are_intra_shard() {
    let (mut ledger, client) = toy_system();
    ledger.submit_migration(
        MigrationRequest::new(
            client,
            ShardId::new(1),
            ShardId::new(0),
            EpochId::new(0),
            5.0,
        )
        .unwrap(),
    );
    // The counterparty lives in shard 1 (index 0): before migration this
    // transaction would be cross-shard; after it, intra-shard.
    let tx_with_counterparty =
        Transaction::new(TxId::new(0), client, AccountId::new(0), BlockHeight::new(0));
    let filler = Transaction::new(
        TxId::new(1),
        AccountId::new(1),
        AccountId::new(3),
        BlockHeight::new(1),
    );
    let outcome = ledger.process_epoch(&[tx_with_counterparty, filler]);
    assert_eq!(
        outcome.load.cross_txs(),
        0,
        "after migration the client's transaction is intra-shard"
    );
}

#[test]
fn epoch_reconfiguration_fires_every_tau_blocks_regardless_of_traffic() {
    let (mut ledger, _client) = toy_system();
    // Even with empty epochs the reconfiguration (a beacon commit round)
    // happens on schedule.
    for i in 0..3 {
        let outcome = ledger.process_epoch(&[]);
        assert_eq!(outcome.epoch, EpochId::new(i));
    }
    assert_eq!(ledger.beacon().rounds(), 3);
    ledger.check_invariants().unwrap();
}
