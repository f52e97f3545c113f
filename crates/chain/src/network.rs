//! Byte-level accounting of synchronisation traffic.
//!
//! The paper's Table VI compares per-miner replication storage and
//! communication across frameworks (`|T|` for graph-based methods,
//! `|T|/k + |MR|` for Mosaic, `|T|/k` for hash-based). The simulator
//! meters actual bytes moved so the `mosaic-bench` report can fill that table
//! with measured values.

/// Bytes to ship one account's state during migration or shard sync
/// (balance, nonce, code/storage summary).
pub const ACCOUNT_STATE_BYTES: u64 = 128;

/// Bytes of one migration request on the beacon chain
/// (account, from, to, epoch, gain, signature).
pub const MIGRATION_REQUEST_BYTES: u64 = 64;

/// Bytes of one committed transaction in a shard's storage.
pub const TX_STORED_BYTES: u64 = 100;

/// Bytes of one block header.
pub const BLOCK_HEADER_BYTES: u64 = 80;

/// Accumulates synchronisation traffic by category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkMeter {
    /// Beacon-chain blocks + migration requests synced by miners.
    pub beacon_sync: u64,
    /// Account state shipped between shards for migrations.
    pub migration_state: u64,
    /// Shard state synced by reshuffled miners.
    pub reshuffle_sync: u64,
    /// Intra-shard transaction dissemination.
    pub tx_dissemination: u64,
}

impl NetworkMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        NetworkMeter::default()
    }

    /// Records one epoch's beacon sync: a header plus `committed`
    /// migration requests, fetched by each of the `miners` replicas.
    pub fn record_beacon_sync(&mut self, committed: usize, miners: usize) {
        self.beacon_sync +=
            (BLOCK_HEADER_BYTES + committed as u64 * MIGRATION_REQUEST_BYTES) * miners as u64;
    }

    /// Records account-state transfer for `migrations` committed moves.
    pub fn record_migrations(&mut self, migrations: usize) {
        self.migration_state += migrations as u64 * ACCOUNT_STATE_BYTES;
    }

    /// Records `moved` reshuffled miners each syncing a shard of
    /// `accounts_per_shard` accounts.
    pub fn record_reshuffle(&mut self, moved: usize, accounts_per_shard: u64) {
        self.reshuffle_sync += moved as u64 * accounts_per_shard * ACCOUNT_STATE_BYTES;
    }

    /// Records dissemination of `txs` committed transactions.
    pub fn record_txs(&mut self, txs: usize) {
        self.tx_dissemination += txs as u64 * TX_STORED_BYTES;
    }

    /// Total bytes across all categories.
    pub fn total(&self) -> u64 {
        self.beacon_sync + self.migration_state + self.reshuffle_sync + self.tx_dissemination
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_accumulate_independently() {
        let mut m = NetworkMeter::new();
        m.record_beacon_sync(10, 4);
        m.record_migrations(10);
        m.record_reshuffle(2, 100);
        m.record_txs(50);
        assert_eq!(m.beacon_sync, (80 + 10 * 64) * 4);
        assert_eq!(m.migration_state, 10 * 128);
        assert_eq!(m.reshuffle_sync, 2 * 100 * 128);
        assert_eq!(m.tx_dissemination, 50 * 100);
        assert_eq!(
            m.total(),
            m.beacon_sync + m.migration_state + m.reshuffle_sync + m.tx_dissemination
        );
    }

    #[test]
    fn empty_meter_is_zero() {
        assert_eq!(NetworkMeter::new().total(), 0);
    }
}
