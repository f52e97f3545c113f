//! TxAllo configuration.

/// Tuning parameters shared by [`crate::GTxAllo`] and [`crate::ATxAllo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxAlloConfig {
    /// Cross-shard difficulty `η ≥ 1` (same parameter as the system model).
    pub eta: f64,
    /// Maximum optimisation rounds for the global algorithm.
    pub rounds: usize,
    /// Capacity slack: a shard's workload target is
    /// `slack × total_workload / k`; load beyond the target is penalised.
    pub capacity_slack: f64,
}

impl Default for TxAlloConfig {
    fn default() -> Self {
        TxAlloConfig {
            eta: 2.0,
            rounds: 10,
            capacity_slack: 1.05,
        }
    }
}

impl TxAlloConfig {
    /// Creates a config with the given `η`, keeping other defaults.
    ///
    /// # Panics
    ///
    /// Panics if `eta < 1` or not finite.
    pub fn with_eta(eta: f64) -> Self {
        assert!(eta.is_finite() && eta >= 1.0, "eta must be >= 1");
        TxAlloConfig {
            eta,
            ..TxAlloConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TxAlloConfig::default();
        assert_eq!(c.eta, 2.0);
        assert!(c.rounds > 0);
        assert!(c.capacity_slack >= 1.0);
    }

    #[test]
    fn with_eta_overrides() {
        assert_eq!(TxAlloConfig::with_eta(5.0).eta, 5.0);
    }

    #[test]
    #[should_panic(expected = "eta must be >= 1")]
    fn rejects_small_eta() {
        let _ = TxAlloConfig::with_eta(0.5);
    }
}
