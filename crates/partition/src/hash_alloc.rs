//! Hash-based (random) account allocation.
//!
//! The conventional baseline: Chainspace allocates an account to
//! `SHA256(address) mod k`; Monoxide to the shard named by the first bits
//! of the hash. Both are *static* — allocation never reacts to transaction
//! patterns, so no migration ever happens — and *pattern-blind* — the
//! paper measures >90% cross-shard transactions at k = 16.

use mosaic_txgraph::TxGraph;
use mosaic_types::{AccountShardMap, DefaultRule};

use crate::traits::GlobalAllocator;

/// The hash-based allocation baseline.
///
/// Because the hash rule covers *every* account, the resulting
/// [`AccountShardMap`] needs no explicit entries at all: the whole
/// "computation" is the default-rule closure. This mirrors the paper's
/// efficiency observation that hash-based methods are extremely cheap but
/// ignore interaction structure entirely.
///
/// # Example
///
/// ```
/// use mosaic_partition::{GlobalAllocator, HashAllocator};
/// use mosaic_txgraph::TxGraph;
///
/// let phi = HashAllocator::chainspace().allocate(&TxGraph::from_weighted_edges([], []), 16);
/// assert_eq!(phi.assigned_len(), 0); // pure rule, no stored state
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HashAllocator {
    rule: DefaultRule,
}

impl HashAllocator {
    /// Chainspace-style `SHA256(address) mod k`.
    pub fn chainspace() -> Self {
        HashAllocator {
            rule: DefaultRule::Sha256Mod,
        }
    }

    /// Monoxide-style first-bits-of-hash.
    pub fn monoxide() -> Self {
        HashAllocator {
            rule: DefaultRule::Sha256FirstBits,
        }
    }

    /// The underlying rule.
    pub fn rule(&self) -> DefaultRule {
        self.rule
    }
}

impl GlobalAllocator for HashAllocator {
    fn name(&self) -> &'static str {
        match self.rule {
            DefaultRule::Sha256Mod => "Random",
            DefaultRule::Sha256FirstBits => "Random(first-bits)",
        }
    }

    fn allocate(&self, _graph: &TxGraph, k: u16) -> AccountShardMap {
        AccountShardMap::with_rule(k, self.rule)
    }

    fn uses_graph(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_txgraph::GraphBuilder;
    use mosaic_types::AccountId;

    #[test]
    fn allocation_is_static_and_uniform() {
        let mut b = GraphBuilder::new();
        for i in 0..4000u64 {
            b.add_edge(AccountId::new(i), AccountId::new(i + 1), 1);
        }
        let graph = b.build();
        let phi = HashAllocator::chainspace().allocate(&graph, 8);
        let mut counts = [0usize; 8];
        for i in 0..4001 {
            counts[phi.shard_of(AccountId::new(i)).index()] += 1;
        }
        let expected = 4001.0 / 8.0;
        for c in counts {
            assert!((c as f64 - expected).abs() / expected < 0.2, "count {c}");
        }
    }

    #[test]
    fn ignores_graph_structure() {
        // Same allocation with or without edges.
        let empty = TxGraph::from_weighted_edges([], []);
        let mut b = GraphBuilder::new();
        b.add_edge(AccountId::new(1), AccountId::new(2), 100);
        let dense = b.build();
        let alloc = HashAllocator::chainspace();
        let a = alloc.allocate(&empty, 4);
        let b = alloc.allocate(&dense, 4);
        for i in 0..100u64 {
            assert_eq!(a.shard_of(AccountId::new(i)), b.shard_of(AccountId::new(i)));
        }
    }

    #[test]
    fn variants_have_distinct_names() {
        assert_eq!(HashAllocator::chainspace().name(), "Random");
        assert_ne!(
            HashAllocator::chainspace().name(),
            HashAllocator::monoxide().name()
        );
        assert_eq!(HashAllocator::default().rule(), DefaultRule::Sha256Mod);
    }
}
