//! Full construction of account-interaction graphs.
//!
//! [`GraphBuilder`] accumulates everything in hash maps and snapshots it
//! with [`GraphBuilder::build`], O(V + E) per snapshot. It is the
//! weighted, incremental builder tests use, and the reference oracle
//! [`crate::GrowingGraph`] and [`TxGraph::from_transactions`] are
//! proptested against. No production path builds through it: a graph
//! of one slice of transactions (A-TxAllo's per-window graph) is
//! [`TxGraph::from_transactions`], which sorts instead of hashing.

use mosaic_types::hash::FnvHashMap;
use mosaic_types::{AccountId, Transaction};

use crate::csr::TxGraph;

/// Accumulates transactions into an undirected weighted multigraph and
/// snapshots it as a [`TxGraph`].
///
/// * Edge weight = number of transactions between the unordered account
///   pair (plus any explicit weight added via [`GraphBuilder::add_edge`]).
/// * Vertex weight = number of transaction endpoints at the account — the
///   account's contribution to total processing workload. Self-transfers
///   add vertex weight but no edge.
///
/// # Example
///
/// ```
/// use mosaic_txgraph::GraphBuilder;
/// use mosaic_types::AccountId;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(AccountId::new(1), AccountId::new(2), 3);
/// b.add_edge(AccountId::new(1), AccountId::new(2), 2);
/// let g = b.build();
/// assert_eq!(g.total_edge_weight(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    /// Keyed by (low, high) account pair.
    edges: FnvHashMap<(AccountId, AccountId), u64>,
    vertex_weight: FnvHashMap<AccountId, u64>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Adds one committed transaction: weight 1 between its endpoints and
    /// one endpoint-unit of vertex weight at each.
    pub fn add_transaction(&mut self, tx: &Transaction) {
        if tx.is_self_transfer() {
            *self.vertex_weight.entry(tx.from).or_default() += 1;
            return;
        }
        self.add_edge(tx.from, tx.to, 1);
    }

    /// Adds all transactions from an iterator, pre-reserving map
    /// capacity from the iterator's size hint (a window of `n`
    /// transactions creates at most `n` new edges and `2n` new
    /// vertices; reserving up front avoids rehash-and-move cycles while
    /// the window streams in).
    pub fn add_transactions<'a, I>(&mut self, txs: I)
    where
        I: IntoIterator<Item = &'a Transaction>,
    {
        let iter = txs.into_iter();
        let (lower, _) = iter.size_hint();
        self.edges.reserve(lower);
        self.vertex_weight.reserve(lower);
        for tx in iter {
            self.add_transaction(tx);
        }
    }

    /// Adds `weight` interactions between `a` and `b`, updating vertex
    /// weights accordingly. `a == b` adds only vertex weight.
    ///
    /// The normalised `(low, high)` key is probed exactly once: a single
    /// `entry` call both finds an existing edge and inserts a missing
    /// one.
    pub fn add_edge(&mut self, a: AccountId, b: AccountId, weight: u64) {
        if weight == 0 {
            return;
        }
        *self.vertex_weight.entry(a).or_default() += weight;
        if a == b {
            return;
        }
        *self.vertex_weight.entry(b).or_default() += weight;
        let key = if a < b { (a, b) } else { (b, a) };
        *self.edges.entry(key).or_default() += weight;
    }

    /// Ensures `account` exists as an isolated vertex even without edges.
    pub fn touch(&mut self, account: AccountId) {
        self.vertex_weight.entry(account).or_default();
    }

    /// Number of distinct edges so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Snapshots the accumulated multigraph as a CSR [`TxGraph`].
    ///
    /// Vertices are ordered by account id, neighbours sorted by node index
    /// — the snapshot is fully deterministic.
    pub fn build(&self) -> TxGraph {
        TxGraph::from_weighted_edges(
            self.vertex_weight.iter().map(|(&a, &w)| (a, w)),
            self.edges.iter().map(|(&(a, b), &w)| (a, b, w)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{BlockHeight, TxId};

    fn tx(from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(0),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(0),
        )
    }

    #[test]
    fn transactions_accumulate_edge_weight() {
        let mut b = GraphBuilder::new();
        b.add_transaction(&tx(1, 2));
        b.add_transaction(&tx(2, 1));
        b.add_transaction(&tx(1, 3));
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let n1 = g.node_of(AccountId::new(1)).unwrap();
        let n2 = g.node_of(AccountId::new(2)).unwrap();
        assert_eq!(g.neighbors(n1).find(|&(nb, _)| nb == n2), Some((n2, 2)));
    }

    #[test]
    fn self_transfer_adds_vertex_weight_only() {
        let mut b = GraphBuilder::new();
        b.add_transaction(&tx(5, 5));
        let g = b.build();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_weight(g.node_of(AccountId::new(5)).unwrap()), 1);
    }

    #[test]
    fn vertex_weight_counts_endpoints() {
        let mut b = GraphBuilder::new();
        b.add_transaction(&tx(1, 2));
        b.add_transaction(&tx(1, 3));
        let g = b.build();
        assert_eq!(g.node_weight(g.node_of(AccountId::new(1)).unwrap()), 2);
        assert_eq!(g.node_weight(g.node_of(AccountId::new(2)).unwrap()), 1);
    }

    #[test]
    fn touch_creates_isolated_vertex() {
        let mut b = GraphBuilder::new();
        b.touch(AccountId::new(9));
        let g = b.build();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.degree(g.node_of(AccountId::new(9)).unwrap()), 0);
    }

    #[test]
    fn zero_weight_edge_is_ignored() {
        let mut b = GraphBuilder::new();
        b.add_edge(AccountId::new(1), AccountId::new(2), 0);
        assert_eq!(b.edge_count(), 0);
        assert_eq!(b.build().node_count(), 0);
    }

    #[test]
    fn build_is_deterministic() {
        let mut b = GraphBuilder::new();
        for i in 0..50u64 {
            b.add_edge(AccountId::new(i % 7), AccountId::new(i % 11), i % 3 + 1);
        }
        let g1 = b.build();
        let g2 = b.build();
        assert_eq!(g1.node_count(), g2.node_count());
        for n in 0..g1.node_count() as u32 {
            let a: Vec<_> = g1.neighbors(crate::NodeId::new(n)).collect();
            let bb: Vec<_> = g2.neighbors(crate::NodeId::new(n)).collect();
            assert_eq!(a, bb);
        }
    }
}
