//! Pluggable client policies.
//!
//! Mosaic deliberately does not mandate an algorithm: "clients are
//! flexible to adopt any algorithm for shard allocation" (§I). This
//! module defines the [`ClientPolicy`] interface and several
//! implementations: the reference [`PilotPolicy`], plus ablations that
//! isolate each half of Pilot's cost function and two degenerate
//! baselines used in tests and the ablation bench.

use mosaic_types::ShardId;

use crate::pilot::{Pilot, PilotInput};

/// Everything a policy may look at when choosing a shard.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// Fused interaction distribution `Ψ^ν`.
    pub psi: &'a [f64],
    /// Public workload distribution `Ω`.
    pub omega: &'a [f64],
    /// Current residence shard `ϕ(ν)`.
    pub current: ShardId,
    /// Cross-shard difficulty `η`.
    pub eta: f64,
}

/// A client-side shard-selection policy.
///
/// Implementations must be deterministic in the context (clients decide
/// independently; reproducibility of the simulation depends on it).
///
/// `Sync` because [`crate::MosaicFramework::propose`] scores a large
/// population in lanes on several threads, all calling one shared
/// policy. A policy holds configuration, not per-client state, so this
/// costs nothing: every policy here is a unit struct.
pub trait ClientPolicy: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the shard to reside in and the claimed gain (used by the
    /// beacon chain for prioritisation; 0 is always safe).
    fn choose(&self, ctx: &PolicyContext<'_>) -> (ShardId, f64);
}

/// The reference policy: run [`Pilot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PilotPolicy;

impl ClientPolicy for PilotPolicy {
    fn name(&self) -> &'static str {
        "Pilot"
    }

    fn choose(&self, ctx: &PolicyContext<'_>) -> (ShardId, f64) {
        let d = Pilot::new(ctx.eta).decide(&PilotInput {
            psi: ctx.psi,
            omega: ctx.omega,
            current: ctx.current,
        });
        (d.target, d.gain)
    }
}

/// Ablation: follow interactions only (argmax `ψ_i`), ignoring workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct InteractionOnlyPolicy;

impl ClientPolicy for InteractionOnlyPolicy {
    fn name(&self) -> &'static str {
        "InteractionOnly"
    }

    fn choose(&self, ctx: &PolicyContext<'_>) -> (ShardId, f64) {
        let mut best = ctx.current.index();
        for i in 0..ctx.psi.len() {
            if ctx.psi[i] > ctx.psi[best] {
                best = i;
            }
        }
        let gain = ctx.psi[best] - ctx.psi[ctx.current.index()];
        (ShardId::new(best as u16), gain.max(0.0))
    }
}

/// Ablation: follow workload only (argmin `ω_i`), ignoring interactions.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadOnlyPolicy;

impl ClientPolicy for WorkloadOnlyPolicy {
    fn name(&self) -> &'static str {
        "WorkloadOnly"
    }

    fn choose(&self, ctx: &PolicyContext<'_>) -> (ShardId, f64) {
        let mut best = ctx.current.index();
        for i in 0..ctx.omega.len() {
            if ctx.omega[i] < ctx.omega[best] {
                best = i;
            }
        }
        let gain = ctx.omega[ctx.current.index()] - ctx.omega[best];
        (ShardId::new(best as u16), gain.max(0.0))
    }
}

/// Degenerate baseline: never move.
#[derive(Debug, Clone, Copy, Default)]
pub struct StickyPolicy;

impl ClientPolicy for StickyPolicy {
    fn name(&self) -> &'static str {
        "Sticky"
    }

    fn choose(&self, ctx: &PolicyContext<'_>) -> (ShardId, f64) {
        (ctx.current, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(psi: &'a [f64], omega: &'a [f64], current: u16) -> PolicyContext<'a> {
        PolicyContext {
            psi,
            omega,
            current: ShardId::new(current),
            eta: 2.0,
        }
    }

    #[test]
    fn pilot_policy_delegates_to_pilot() {
        let (target, gain) = PilotPolicy.choose(&ctx(&[8.0, 1.0], &[10.0, 10.0], 1));
        assert_eq!(target, ShardId::new(0));
        assert!(gain > 0.0);
    }

    #[test]
    fn interaction_only_ignores_workload() {
        let (target, _) = InteractionOnlyPolicy.choose(&ctx(&[1.0, 9.0], &[1.0, 1000.0], 0));
        assert_eq!(target, ShardId::new(1));
    }

    #[test]
    fn workload_only_ignores_interactions() {
        let (target, _) = WorkloadOnlyPolicy.choose(&ctx(&[9.0, 0.0], &[100.0, 1.0], 0));
        assert_eq!(target, ShardId::new(1));
    }

    #[test]
    fn sticky_never_moves() {
        let (target, gain) = StickyPolicy.choose(&ctx(&[0.0, 99.0], &[99.0, 0.0], 0));
        assert_eq!(target, ShardId::new(0));
        assert_eq!(gain, 0.0);
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn ClientPolicy>> = vec![
            Box::new(PilotPolicy),
            Box::new(InteractionOnlyPolicy),
            Box::new(WorkloadOnlyPolicy),
            Box::new(StickyPolicy),
        ];
        let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["Pilot", "InteractionOnly", "WorkloadOnly", "Sticky"]
        );
    }
}
