//! Workload generator configuration.

use mosaic_types::{Error, Result};

/// Configuration for the synthetic Ethereum-like trace generator.
///
/// The defaults are scaled-down analogues of the paper's dataset: the paper
/// uses 600,000 blocks (~91 M transactions, ~12 M accounts, ~152 txs/block)
/// with `τ = 300` blocks per epoch and a 90/10 train/eval split over 200
/// evaluation epochs. [`WorkloadConfig::paper_scaled`] keeps the epoch
/// structure (τ, 200 eval epochs, 90/10 split) while reducing volume to
/// commodity scale.
///
/// # Example
///
/// ```
/// use mosaic_workload::WorkloadConfig;
/// let cfg = WorkloadConfig::paper_scaled(7).with_accounts(10_000);
/// assert_eq!(cfg.initial_accounts, 10_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of accounts existing at block 0.
    pub initial_accounts: usize,
    /// Total number of blocks to generate.
    pub blocks: u64,
    /// Transactions per block (constant, like the paper's simulation which
    /// processes fixed epoch windows).
    pub txs_per_block: usize,
    /// Zipf exponent for sender activity (≈1.0 matches Ethereum).
    pub activity_exponent: f64,
    /// Number of latent communities.
    pub communities: usize,
    /// Probability that a non-hub transaction stays within the sender's
    /// community (community locality).
    pub intra_community_bias: f64,
    /// Fraction of initial accounts that act as contract-like hubs.
    pub hub_fraction: f64,
    /// Probability that a transaction's receiver is a hub
    /// (`TxKind::ContractCall` traffic share).
    pub hub_traffic_share: f64,
    /// Expected number of brand-new accounts created per block (churn).
    /// New accounts join a random community and immediately transact.
    pub new_accounts_per_block: f64,
    /// Per-block probability that one existing account re-homes to a
    /// different community (temporal drift).
    pub drift_per_block: f64,
    /// RNG seed — the full trace is a pure function of this config.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A scaled-down analogue of the paper's dataset keeping its epoch
    /// structure: with `τ = 300` this yields 2,000 training epochs worth of
    /// blocks replaced by a shorter prefix, and a 90/10 split still gives
    /// 200 evaluation epochs of 300 blocks each.
    ///
    /// Volume: 60,000 blocks × 25 txs/block = 1.5 M transactions over
    /// ~60 k accounts. Override fields with the `with_*` helpers to scale
    /// further up or down.
    pub fn paper_scaled(seed: u64) -> Self {
        WorkloadConfig {
            // 150k accounts over 1.5M transactions gives 2|T|/|A| = 20,
            // near the paper's 15.2 (91M txs / 12M accounts). A denser
            // population would make one epoch's λ-bounded migration wave
            // a significant fraction of a shard's load — a scale
            // artifact the real dataset does not have.
            initial_accounts: 150_000,
            blocks: 60_000,
            txs_per_block: 25,
            // 0.8 keeps the tail heavy (Gini ≈ 0.6) while capping the
            // single busiest sender at ~2% of traffic, matching the
            // account granularity of a 3-month Ethereum window. A
            // steeper exponent would hand one account ~9% of all load,
            // which no allocator can balance and which inverts the
            // paper's Table III ordering.
            activity_exponent: 0.8,
            communities: 512,
            intra_community_bias: 0.75,
            // Many moderately-busy hubs rather than a few giants: the
            // busiest single account should own ~1% of traffic (like a
            // busy Ethereum contract), not ~10% — otherwise no allocator
            // can balance workload and the Table III ordering inverts.
            hub_fraction: 0.01,
            hub_traffic_share: 0.2,
            new_accounts_per_block: 0.5,
            drift_per_block: 0.05,
            seed,
        }
    }

    /// A tiny configuration for unit and integration tests: 2,000 blocks,
    /// 8 txs/block, 800 accounts.
    pub fn small_test(seed: u64) -> Self {
        WorkloadConfig {
            initial_accounts: 800,
            blocks: 2_000,
            txs_per_block: 8,
            activity_exponent: 0.8,
            communities: 16,
            intra_community_bias: 0.75,
            hub_fraction: 0.02,
            hub_traffic_share: 0.2,
            new_accounts_per_block: 0.05,
            drift_per_block: 0.02,
            seed,
        }
    }

    /// Sets the initial account population.
    pub fn with_accounts(mut self, accounts: usize) -> Self {
        self.initial_accounts = accounts;
        self
    }

    /// Sets the number of blocks.
    pub fn with_blocks(mut self, blocks: u64) -> Self {
        self.blocks = blocks;
        self
    }

    /// Sets the intra-community bias.
    pub fn with_intra_community_bias(mut self, bias: f64) -> Self {
        self.intra_community_bias = bias;
        self
    }

    /// Sets the churn rate (expected new accounts per block).
    pub fn with_churn(mut self, new_accounts_per_block: f64) -> Self {
        self.new_accounts_per_block = new_accounts_per_block;
        self
    }

    /// Total transactions this configuration will generate.
    pub fn total_txs(&self) -> usize {
        self.blocks as usize * self.txs_per_block
    }

    /// Checks every field's range; the generator and
    /// `Scenario::validate` call it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidWorkload`] naming the first field out of
    /// range, or the field that pushes the account count
    /// (`initial_accounts + blocks × new_accounts_per_block`) past
    /// `u32::MAX`: `initial_accounts` if it alone does, else
    /// `new_accounts_per_block`.
    pub fn validate(&self) -> Result<()> {
        let unit = 0.0..=1.0;
        let rules = [
            (
                "initial_accounts",
                self.initial_accounts as f64,
                self.initial_accounts >= 2,
                "at least 2",
            ),
            ("blocks", self.blocks as f64, self.blocks > 0, "at least 1"),
            (
                "txs_per_block",
                self.txs_per_block as f64,
                self.txs_per_block > 0,
                "at least 1",
            ),
            (
                "activity_exponent",
                self.activity_exponent,
                self.activity_exponent.is_finite() && self.activity_exponent >= 0.0,
                "a finite value >= 0",
            ),
            (
                "communities",
                self.communities as f64,
                self.communities >= 1,
                "at least 1",
            ),
            (
                "intra_community_bias",
                self.intra_community_bias,
                unit.contains(&self.intra_community_bias),
                "a value in [0, 1]",
            ),
            (
                "hub_fraction",
                self.hub_fraction,
                (0.0..=0.5).contains(&self.hub_fraction),
                "a value in [0, 0.5]",
            ),
            (
                "hub_traffic_share",
                self.hub_traffic_share,
                unit.contains(&self.hub_traffic_share),
                "a value in [0, 1]",
            ),
            (
                "new_accounts_per_block",
                self.new_accounts_per_block,
                self.new_accounts_per_block.is_finite() && self.new_accounts_per_block >= 0.0,
                "a finite value >= 0",
            ),
            (
                "drift_per_block",
                self.drift_per_block,
                unit.contains(&self.drift_per_block),
                "a value in [0, 1]",
            ),
        ];
        if let Some((field, value, _, expected)) = rules.into_iter().find(|rule| !rule.2) {
            return Err(Error::InvalidWorkload {
                field,
                value,
                expected,
            });
        }
        // The generator keeps raw account ids as `u32`: the initial
        // population plus every account churn can create must fit.
        let id_space = f64::from(u32::MAX);
        let initial = self.initial_accounts as f64;
        let (field, value) = if initial > id_space {
            ("initial_accounts", initial)
        } else if initial + self.blocks as f64 * self.new_accounts_per_block > id_space {
            ("new_accounts_per_block", self.new_accounts_per_block)
        } else {
            return Ok(());
        };
        Err(Error::InvalidWorkload {
            field,
            value,
            expected: "initial_accounts + blocks × new_accounts_per_block <= 4294967295",
        })
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::paper_scaled(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        WorkloadConfig::paper_scaled(1).validate().unwrap();
        WorkloadConfig::small_test(1).validate().unwrap();
        WorkloadConfig::default().validate().unwrap();
    }

    #[test]
    fn with_helpers_override() {
        let cfg = WorkloadConfig::small_test(3)
            .with_accounts(123)
            .with_blocks(10)
            .with_intra_community_bias(0.5)
            .with_churn(1.0);
        assert_eq!(cfg.initial_accounts, 123);
        assert_eq!(cfg.blocks, 10);
        assert_eq!(cfg.intra_community_bias, 0.5);
        assert_eq!(cfg.new_accounts_per_block, 1.0);
        assert_eq!(cfg.total_txs(), 10 * cfg.txs_per_block);
    }

    // The generator refuses an invalid config with the typed error's
    // message.
    #[test]
    #[should_panic(expected = "invalid workload.initial_accounts = 1, need at least 2")]
    fn rejects_single_account() {
        crate::generate(&WorkloadConfig::small_test(0).with_accounts(1));
    }

    #[test]
    fn account_ids_must_fit_u32() {
        let cfg = WorkloadConfig::small_test(0);
        let field_of = |cfg: WorkloadConfig| match cfg.validate() {
            Err(Error::InvalidWorkload { field, .. }) => Some(field),
            Ok(()) => None,
            Err(e) => panic!("{e}"),
        };
        // 2_000 blocks: the last whole debut rate that fits, and the next.
        let fits = (u64::from(u32::MAX) - 800) / 2_000;
        assert_eq!(field_of(cfg.clone().with_churn(fits as f64)), None);
        assert_eq!(
            field_of(cfg.clone().with_churn(fits as f64 + 1.0)),
            Some("new_accounts_per_block")
        );
        assert_eq!(
            field_of(cfg.with_accounts(u32::MAX as usize).with_churn(0.0)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "invalid workload.intra_community_bias = 1.5")]
    fn rejects_bad_bias() {
        crate::generate(&WorkloadConfig::small_test(0).with_intra_community_bias(1.5));
    }
}
