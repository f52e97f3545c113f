//! The interface of a miner-driven global allocation algorithm.

use mosaic_txgraph::TxGraph;
use mosaic_types::AccountShardMap;

/// A miner-driven allocation algorithm: given the (historical) transaction
/// graph and a shard count, produce a full account-shard mapping ϕ.
///
/// This is exactly the computation the paper's Table VI labels "global
/// optimization" with "redundant computation results ϕ(A)": every miner
/// runs it over the whole graph. Accounts absent from the graph resolve
/// through the map's hash rule, [`mosaic_types::hash_shard`] — the
/// paper's treatment of new accounts for the graph-based baselines
/// ("these accounts are randomly allocated").
///
/// The experiment runner drives every implementation through its
/// `EpochStrategy` trait (in `mosaic-sim`): a blanket impl adapts any
/// `GlobalAllocator` into a strategy that recomputes ϕ on the full
/// history each epoch, so implementing this trait is all a new
/// miner-driven algorithm needs to appear in the evaluation.
///
/// An allocation is one sequential, deterministic computation on the
/// cell's thread, so ϕ cannot depend on a worker count.
pub trait GlobalAllocator {
    /// Human-readable name used in reports ("Metis", "Random", …).
    fn name(&self) -> &'static str;

    /// Computes an allocation of every account in `graph` over `k` shards.
    fn allocate(&self, graph: &TxGraph, k: u16) -> AccountShardMap;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::ShardId;

    /// Object safety: allocators must be usable as trait objects (the
    /// sim registry boxes them behind its `EpochStrategy` adapter).
    #[test]
    fn trait_is_object_safe() {
        struct Dummy;
        impl GlobalAllocator for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn allocate(&self, _graph: &TxGraph, k: u16) -> AccountShardMap {
                AccountShardMap::new(k)
            }
        }
        let boxed: Box<dyn GlobalAllocator> = Box::new(Dummy);
        assert_eq!(boxed.name(), "dummy");
        let phi = boxed.allocate(&TxGraph::from_weighted_edges([], []), 2);
        assert!(phi.shard_of(mosaic_types::AccountId::new(0)) < ShardId::new(2));
    }
}
