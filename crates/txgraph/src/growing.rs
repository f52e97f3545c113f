//! A CSR that grows by geometrically scheduled merges.
//!
//! [`TxGraph::merge_delta`] rewrites the whole CSR whenever a delta adds
//! structure, so merging every small batch as it arrives costs
//! O(batches × E). [`GrowingGraph`] keeps the merged CSR next to one
//! pending [`GraphBuilder`] and merges only when the pending edges reach
//! an eighth of the CSR's — the CSR then grows by a constant factor per
//! merge, so a stream of small batches pays O(log E) merges, amortised
//! O(1) adjacency rewrites per edge — or when a reader asks for the
//! whole graph.

use mosaic_types::Transaction;

use crate::builder::GraphBuilder;
use crate::csr::TxGraph;

/// The pending delta is merged once its edge count reaches
/// `1 / MERGE_FRACTION` of the merged CSR's. A fixed constant: pending
/// stays below max(one batch, CSR / 8) edges, so memory stays O(CSR).
const MERGE_FRACTION: usize = 8;

/// A merged CSR plus the transactions absorbed since its last merge.
///
/// Merging deltas yields the same graph however the stream is split
/// (`tests/delta_equivalence.rs`), so every CSR [`GrowingGraph::graph`]
/// returns equals a [`GraphBuilder::build`] of everything absorbed so
/// far, whatever the schedule merged when.
///
/// # Example
///
/// ```
/// use mosaic_txgraph::GrowingGraph;
/// use mosaic_types::{AccountId, BlockHeight, Transaction, TxId};
///
/// let mut g = GrowingGraph::new();
/// for i in 0..100u64 {
///     let tx = Transaction::new(
///         TxId::new(i),
///         AccountId::new(i),
///         AccountId::new(i + 1),
///         BlockHeight::new(i),
///     );
///     g.absorb(&[tx]);
/// }
/// assert!(g.merged_edge_count() < 100); // the tail is still pending
/// assert_eq!(g.graph().edge_count(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GrowingGraph {
    csr: TxGraph,
    pending: GraphBuilder,
}

impl GrowingGraph {
    /// An empty graph.
    pub fn new() -> Self {
        GrowingGraph::default()
    }

    /// Folds `txs` into the pending delta, then merges it into the CSR
    /// if its edges have reached an eighth of the CSR's. After the call
    /// no edge is pending, or fewer than an eighth of the CSR's are.
    pub fn absorb(&mut self, txs: &[Transaction]) {
        self.pending.add_transactions(txs);
        if self.pending.edge_count() * MERGE_FRACTION >= self.csr.edge_count() {
            self.merge();
        }
    }

    /// Merges whatever is pending, then returns the whole graph.
    pub fn graph(&mut self) -> &TxGraph {
        self.merge();
        &self.csr
    }

    /// Merges whatever is pending, then gives up the whole graph.
    pub fn into_graph(mut self) -> TxGraph {
        self.merge();
        self.csr
    }

    /// Edges of the merged CSR, not counting pending ones — a read that
    /// never forces a merge.
    pub fn merged_edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// Distinct account pairs in the pending delta (pairs the CSR
    /// already holds included).
    pub fn pending_edge_count(&self) -> usize {
        self.pending.edge_count()
    }

    fn merge(&mut self) {
        if self.pending.vertex_count() > 0 {
            self.csr.merge_delta(&self.pending.drain_delta());
        }
    }
}

impl From<TxGraph> for GrowingGraph {
    /// A graph that grows from `csr`, nothing pending.
    fn from(csr: TxGraph) -> Self {
        GrowingGraph {
            csr,
            pending: GraphBuilder::new(),
        }
    }
}
