//! System parameters of the sharded blockchain model (§III-A2, §V-A).

use crate::error::{Error, Result};

/// How the per-shard processing capacity `λ` is determined each epoch.
///
/// The paper sets `λ = |T_[(t−τ),t]| / k` — the epoch's transaction count
/// divided evenly across shards — "to avoid extremely overloaded or
/// underloaded cases" (§V-A). A fixed capacity is also supported for
/// ablations and unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LambdaPolicy {
    /// `λ = |T_epoch| / k`, recomputed every epoch (the paper's setting).
    #[default]
    EpochAverage,
    /// A fixed capacity in workload units per shard per epoch.
    Fixed(f64),
}

impl LambdaPolicy {
    /// Resolves the capacity for an epoch containing `epoch_tx_count`
    /// transactions under `k` shards.
    pub fn lambda(&self, epoch_tx_count: usize, k: u16) -> f64 {
        match *self {
            LambdaPolicy::EpochAverage => epoch_tx_count as f64 / f64::from(k.max(1)),
            LambdaPolicy::Fixed(l) => l,
        }
    }
}

/// Model parameters shared by the simulator and all allocation algorithms.
///
/// * `k` — number of shards (`shards`).
/// * `η` — difficulty of a cross-shard transaction relative to an
///   intra-shard transaction (`eta ≥ 1`); each involved shard spends `η`
///   workload units on a cross-shard transaction, versus `1` for an
///   intra-shard transaction.
/// * `τ` — epoch length in beacon-chain blocks (`tau`).
/// * `λ` — per-shard capacity policy ([`LambdaPolicy`]).
/// * `β` — ratio of known expected future transactions (`beta ∈ [0,1]`),
///   used by Pilot's knowledge fusion (Equation 2).
///
/// Defaults mirror the paper's default configuration: `k = 16`, `η = 2`,
/// `τ = 300`, `β = 0`, `λ = |T_epoch|/k`.
///
/// # Example
///
/// ```
/// use mosaic_types::SystemParams;
/// # fn main() -> Result<(), mosaic_types::Error> {
/// let params = SystemParams::builder().shards(4).eta(5.0).build()?;
/// assert_eq!(params.shards(), 4);
/// assert_eq!(params.eta(), 5.0);
/// assert_eq!(params.tau(), 300); // paper default
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    shards: u16,
    eta: f64,
    tau: u32,
    lambda: LambdaPolicy,
    beta: f64,
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            shards: 16,
            eta: 2.0,
            tau: 300,
            lambda: LambdaPolicy::EpochAverage,
            beta: 0.0,
        }
    }
}

impl SystemParams {
    /// Starts building a parameter set from the paper's defaults.
    pub fn builder() -> SystemParamsBuilder {
        SystemParamsBuilder::default()
    }

    /// Number of shards `k`.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// Cross-shard difficulty `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Epoch length `τ` in blocks.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Capacity policy for `λ`.
    pub fn lambda_policy(&self) -> LambdaPolicy {
        self.lambda
    }

    /// Future-knowledge ratio `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Resolves `λ` for an epoch with `epoch_tx_count` transactions.
    pub fn lambda(&self, epoch_tx_count: usize) -> f64 {
        self.lambda.lambda(epoch_tx_count, self.shards)
    }

    /// Returns a copy with a different `β` (convenience for β sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBeta`] if `beta ∉ [0, 1]`.
    pub fn with_beta(mut self, beta: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&beta) || beta.is_nan() {
            return Err(Error::InvalidBeta(beta));
        }
        self.beta = beta;
        Ok(self)
    }

    /// Returns a copy with a different shard count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShardCount`] if `shards == 0`.
    pub fn with_shards(mut self, shards: u16) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidShardCount(shards));
        }
        self.shards = shards;
        Ok(self)
    }

    /// Returns a copy with a different cross-shard difficulty.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEta`] if `eta < 1` or not finite.
    pub fn with_eta(mut self, eta: f64) -> Result<Self> {
        if !eta.is_finite() || eta < 1.0 {
            return Err(Error::InvalidEta(eta));
        }
        self.eta = eta;
        Ok(self)
    }

    /// Returns a copy with a different epoch length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTau`] if `tau == 0`.
    pub fn with_tau(mut self, tau: u32) -> Result<Self> {
        if tau == 0 {
            return Err(Error::InvalidTau(tau));
        }
        self.tau = tau;
        Ok(self)
    }

    /// Returns a copy with a different capacity policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLambda`] if a fixed capacity is not
    /// positive and finite.
    pub fn with_lambda_policy(mut self, policy: LambdaPolicy) -> Result<Self> {
        if let LambdaPolicy::Fixed(l) = policy {
            if !l.is_finite() || l <= 0.0 {
                return Err(Error::InvalidLambda(l));
            }
        }
        self.lambda = policy;
        Ok(self)
    }
}

/// Builder for [`SystemParams`] (C-BUILDER).
#[derive(Debug, Clone, Default)]
pub struct SystemParamsBuilder {
    params: SystemParams,
    error: Option<Error>,
}

impl SystemParamsBuilder {
    /// Sets the shard count `k` (must be ≥ 1).
    pub fn shards(mut self, k: u16) -> Self {
        if k == 0 {
            self.error.get_or_insert(Error::InvalidShardCount(k));
        } else {
            self.params.shards = k;
        }
        self
    }

    /// Sets the cross-shard difficulty `η` (must be ≥ 1 and finite).
    pub fn eta(mut self, eta: f64) -> Self {
        if !eta.is_finite() || eta < 1.0 {
            self.error.get_or_insert(Error::InvalidEta(eta));
        } else {
            self.params.eta = eta;
        }
        self
    }

    /// Sets the epoch length `τ` in blocks (must be ≥ 1).
    pub fn tau(mut self, tau: u32) -> Self {
        if tau == 0 {
            self.error.get_or_insert(Error::InvalidTau(tau));
        } else {
            self.params.tau = tau;
        }
        self
    }

    /// Sets the capacity policy.
    pub fn lambda_policy(mut self, policy: LambdaPolicy) -> Self {
        if let LambdaPolicy::Fixed(l) = policy {
            if !l.is_finite() || l <= 0.0 {
                self.error.get_or_insert(Error::InvalidLambda(l));
                return self;
            }
        }
        self.params.lambda = policy;
        self
    }

    /// Sets the future-knowledge ratio `β ∈ [0, 1]`.
    pub fn beta(mut self, beta: f64) -> Self {
        if !(0.0..=1.0).contains(&beta) || beta.is_nan() {
            self.error.get_or_insert(Error::InvalidBeta(beta));
        } else {
            self.params.beta = beta;
        }
        self
    }

    /// Finalises the parameter set.
    ///
    /// # Errors
    ///
    /// Returns the first validation error recorded by the setters.
    pub fn build(self) -> Result<SystemParams> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = SystemParams::default();
        assert_eq!(p.shards(), 16);
        assert_eq!(p.eta(), 2.0);
        assert_eq!(p.tau(), 300);
        assert_eq!(p.beta(), 0.0);
        assert_eq!(p.lambda_policy(), LambdaPolicy::EpochAverage);
    }

    #[test]
    fn lambda_epoch_average() {
        let p = SystemParams::default();
        // 1600 txs over 16 shards -> lambda = 100.
        assert_eq!(p.lambda(1600), 100.0);
    }

    #[test]
    fn lambda_fixed() {
        let p = SystemParams::builder()
            .lambda_policy(LambdaPolicy::Fixed(250.0))
            .build()
            .unwrap();
        assert_eq!(p.lambda(999), 250.0);
    }

    #[test]
    fn builder_rejects_invalid() {
        assert_eq!(
            SystemParams::builder().shards(0).build(),
            Err(Error::InvalidShardCount(0))
        );
        assert_eq!(
            SystemParams::builder().eta(0.5).build(),
            Err(Error::InvalidEta(0.5))
        );
        assert_eq!(
            SystemParams::builder().tau(0).build(),
            Err(Error::InvalidTau(0))
        );
        assert_eq!(
            SystemParams::builder().beta(1.5).build(),
            Err(Error::InvalidBeta(1.5))
        );
        assert_eq!(
            SystemParams::builder()
                .lambda_policy(LambdaPolicy::Fixed(-1.0))
                .build(),
            Err(Error::InvalidLambda(-1.0))
        );
    }

    #[test]
    fn builder_keeps_first_error() {
        let err = SystemParams::builder().shards(0).eta(0.0).build();
        assert_eq!(err, Err(Error::InvalidShardCount(0)));
    }

    #[test]
    fn with_methods_validate() {
        let p = SystemParams::default();
        assert!(p.with_beta(0.5).is_ok());
        assert!(p.with_beta(-0.1).is_err());
        assert!(p.with_shards(0).is_err());
        assert!(p.with_eta(0.9).is_err());
        assert_eq!(p.with_eta(10.0).unwrap().eta(), 10.0);
        assert!(p.with_tau(0).is_err());
        assert_eq!(p.with_tau(77).unwrap().tau(), 77);
        assert!(p.with_lambda_policy(LambdaPolicy::Fixed(0.0)).is_err());
        assert_eq!(
            p.with_lambda_policy(LambdaPolicy::Fixed(9.5))
                .unwrap()
                .lambda_policy(),
            LambdaPolicy::Fixed(9.5)
        );
    }
}
