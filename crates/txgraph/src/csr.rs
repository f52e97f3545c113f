//! Compressed-sparse-row account graph.
//!
//! [`TxGraph`] is immutable in its public reading API. Its buffers are
//! `pub(crate)`: [`crate::GrowingGraph`] owns one and grows it in place.

use std::fmt;

use mosaic_types::hash::FnvHashMap;
use mosaic_types::{AccountId, Transaction};

/// Dense index of a vertex inside a [`TxGraph`].
///
/// Node ids are assigned by sorting accounts, so they are stable across
/// rebuilds of the same edge set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index, suitable for slice indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The node id of `account` in the ascending, deduplicated `accounts`.
fn node_in(accounts: &[AccountId], account: AccountId) -> u32 {
    accounts.partition_point(|&a| a < account) as u32
}

/// Immutable undirected weighted graph in CSR form.
///
/// This is the input format of the multilevel partitioner and TxAllo:
/// * `accounts[i]` — the account of node `i` (sorted ascending);
/// * `vwgt[i]` — vertex weight (transaction endpoints at the account);
/// * `xadj[i]..xadj[i+1]` — the adjacency range of node `i` in `adjncy`
///   (neighbour node ids, ascending) and `adjwgt` (edge weights).
///
/// Every undirected edge is stored twice (once per direction), as in METIS.
#[derive(Debug, Clone, PartialEq)]
pub struct TxGraph {
    pub(crate) accounts: Vec<AccountId>,
    pub(crate) index: FnvHashMap<AccountId, NodeId>,
    pub(crate) vwgt: Vec<u64>,
    pub(crate) xadj: Vec<usize>,
    pub(crate) adjncy: Vec<NodeId>,
    pub(crate) adjwgt: Vec<u64>,
    pub(crate) total_edge_weight: u64,
}

impl Default for TxGraph {
    /// The empty graph (zero vertices, zero edges).
    fn default() -> Self {
        TxGraph {
            accounts: Vec::new(),
            index: FnvHashMap::default(),
            vwgt: Vec::new(),
            xadj: vec![0],
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            total_edge_weight: 0,
        }
    }
}

impl TxGraph {
    /// Builds a CSR graph from vertex weights and unordered unique edges.
    ///
    /// Accounts mentioned only in `edges` receive vertex weight 0 unless
    /// they also appear in `vertices`. Duplicate `(a, b)` pairs must not
    /// occur (the [`crate::GraphBuilder`] guarantees this).
    pub fn from_weighted_edges<V, E>(vertices: V, edges: E) -> Self
    where
        V: IntoIterator<Item = (AccountId, u64)>,
        E: IntoIterator<Item = (AccountId, AccountId, u64)>,
    {
        let edge_list: Vec<(AccountId, AccountId, u64)> = edges.into_iter().collect();
        let mut vertices: Vec<(AccountId, u64)> = vertices.into_iter().collect();
        vertices.extend(edge_list.iter().flat_map(|&(a, b, _)| [(a, 0), (b, 0)]));
        vertices.sort_unstable_by_key(|&(a, _)| a);
        let (accounts, vwgt): (Vec<AccountId>, Vec<u64>) = vertices
            .chunk_by(|x, y| x.0 == y.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, w)| w).sum::<u64>()))
            .unzip();
        let mut edges: Vec<(u32, u32, u64)> = edge_list
            .iter()
            .map(|&(a, b, w)| {
                let (a, b) = (node_in(&accounts, a), node_in(&accounts, b));
                (a.min(b), a.max(b), w)
            })
            .collect();
        edges.sort_unstable();
        Self::from_sorted_edges(accounts, vwgt, &edges)
    }

    /// Builds the interaction graph of `txs`: the graph
    /// [`crate::GraphBuilder`] builds from the same transactions (edge
    /// weight = transactions between the pair, vertex weight =
    /// endpoints at the account, a self-transfer adds one unit of vertex
    /// weight and no edge), assembled by sorting instead of hashing.
    ///
    /// The sorted, deduplicated endpoints are the node ids, so nodes come
    /// out in account order; the normalised `(low, high)` node pairs are
    /// sorted, and each run of equal pairs is one edge whose weight is the
    /// run's length. Only [`TxGraph::node_of`]'s index is hashed.
    pub fn from_transactions(txs: &[Transaction]) -> Self {
        let mut accounts: Vec<AccountId> = txs.iter().flat_map(|tx| [tx.from, tx.to]).collect();
        accounts.sort_unstable();
        accounts.dedup();
        let mut vwgt = vec![0u64; accounts.len()];
        let mut pairs: Vec<u64> = Vec::with_capacity(txs.len());
        for tx in txs {
            let from = node_in(&accounts, tx.from);
            vwgt[from as usize] += 1;
            if tx.is_self_transfer() {
                continue;
            }
            let to = node_in(&accounts, tx.to);
            vwgt[to as usize] += 1;
            pairs.push(u64::from(from.min(to)) << 32 | u64::from(from.max(to)));
        }
        pairs.sort_unstable();
        let edges: Vec<(u32, u32, u64)> = pairs
            .chunk_by(|a, b| a == b)
            .map(|run| ((run[0] >> 32) as u32, run[0] as u32, run.len() as u64))
            .collect();
        Self::from_sorted_edges(accounts, vwgt, &edges)
    }

    /// The one CSR fill: `accounts` ascending with their vertex weights,
    /// `edges` as `(low, high, weight)` node pairs sorted ascending.
    /// Each row takes its lower neighbours in a first pass over `edges`
    /// and its higher ones in a second; both passes meet a row's
    /// neighbours in ascending order, so every row comes out sorted.
    fn from_sorted_edges(
        accounts: Vec<AccountId>,
        vwgt: Vec<u64>,
        edges: &[(u32, u32, u64)],
    ) -> Self {
        let n = accounts.len();
        let mut xadj = vec![0usize; n + 1];
        for &(lo, hi, _) in edges {
            xadj[lo as usize + 1] += 1;
            xadj[hi as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let mut adjncy = vec![NodeId::new(0); xadj[n]];
        let mut adjwgt = vec![0u64; xadj[n]];
        let mut cursor = xadj[..n].to_vec();
        let mut place = |row: u32, nb: u32, w: u64| {
            let slot = &mut cursor[row as usize];
            adjncy[*slot] = NodeId::new(nb);
            adjwgt[*slot] = w;
            *slot += 1;
        };
        for &(lo, hi, w) in edges {
            place(hi, lo, w);
        }
        for &(lo, hi, w) in edges {
            place(lo, hi, w);
        }
        let index: FnvHashMap<AccountId, NodeId> = accounts
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, NodeId::new(i as u32)))
            .collect();
        TxGraph {
            accounts,
            index,
            vwgt,
            xadj,
            adjncy,
            adjwgt,
            total_edge_weight: edges.iter().map(|&(_, _, w)| w).sum(),
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.accounts.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Sum of all undirected edge weights.
    pub fn total_edge_weight(&self) -> u64 {
        self.total_edge_weight
    }

    /// The node for `account`, if present.
    pub fn node_of(&self, account: AccountId) -> Option<NodeId> {
        self.index.get(&account).copied()
    }

    /// The account at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn account_of(&self, node: NodeId) -> AccountId {
        self.accounts[node.index()]
    }

    /// All accounts, ascending (node `i` ↔ `accounts()[i]`).
    pub fn accounts(&self) -> &[AccountId] {
        &self.accounts
    }

    /// Vertex weight of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_weight(&self, node: NodeId) -> u64 {
        self.vwgt[node.index()]
    }

    /// Degree (number of distinct neighbours) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.xadj[node.index() + 1] - self.xadj[node.index()]
    }

    /// Iterates over `(neighbour, edge_weight)` of `node`, neighbours
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let range = self.xadj[node.index()]..self.xadj[node.index() + 1];
        range.map(move |j| (self.adjncy[j], self.adjwgt[j]))
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Raw CSR row index: node `i`'s adjacency occupies
    /// `xadj()[i]..xadj()[i + 1]` in [`TxGraph::adjncy`]/[`TxGraph::adjwgt`].
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw CSR neighbour ids, ascending within each node's range.
    pub fn adjncy(&self) -> &[NodeId] {
        &self.adjncy
    }

    /// Raw CSR edge weights, parallel to [`TxGraph::adjncy`].
    pub fn adjwgt(&self) -> &[u64] {
        &self.adjwgt
    }

    /// Raw vertex weights, indexed by node.
    pub fn vwgt(&self) -> &[u64] {
        &self.vwgt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(i: u64) -> AccountId {
        AccountId::new(i)
    }

    fn triangle() -> TxGraph {
        TxGraph::from_weighted_edges(
            [(acct(1), 10), (acct(2), 20), (acct(3), 30)],
            [
                (acct(1), acct(2), 5),
                (acct(2), acct(3), 7),
                (acct(1), acct(3), 1),
            ],
        )
    }

    #[test]
    fn csr_structure_of_triangle() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.total_edge_weight(), 13);
        assert_eq!(g.vwgt().iter().sum::<u64>(), 60);
        let n1 = g.node_of(acct(1)).unwrap();
        assert_eq!(g.degree(n1), 2);
        let neigh: Vec<_> = g.neighbors(n1).collect();
        assert_eq!(neigh.len(), 2);
        // Sorted by neighbour id.
        assert!(neigh[0].0 < neigh[1].0);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        let n1 = g.node_of(acct(1)).unwrap();
        let n2 = g.node_of(acct(2)).unwrap();
        let n3 = g.node_of(acct(3)).unwrap();
        let weight = |a: NodeId, b: NodeId| g.neighbors(a).find(|&(nb, _)| nb == b).map(|(_, w)| w);
        assert_eq!(weight(n1, n2), Some(5));
        assert_eq!(weight(n2, n1), Some(5));
        assert_eq!(weight(n2, n3), Some(7));
        assert_eq!(weight(n1, n1), None);
    }

    #[test]
    fn accounts_sorted_and_roundtrip() {
        let g = TxGraph::from_weighted_edges(
            [(acct(30), 1), (acct(10), 1), (acct(20), 1)],
            [(acct(30), acct(10), 1)],
        );
        assert_eq!(g.accounts(), &[acct(10), acct(20), acct(30)]);
        for node in g.nodes() {
            assert_eq!(g.node_of(g.account_of(node)), Some(node));
        }
    }

    #[test]
    fn edge_only_accounts_get_zero_weight() {
        let g = TxGraph::from_weighted_edges([], [(acct(1), acct(2), 3)]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node_weight(NodeId::new(0)), 0);
    }

    #[test]
    fn empty_graph() {
        let g = TxGraph::from_weighted_edges([], []);
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn isolated_vertex_has_no_neighbors() {
        let g = TxGraph::from_weighted_edges([(acct(9), 4)], []);
        let n = g.node_of(acct(9)).unwrap();
        assert_eq!(g.degree(n), 0);
        assert_eq!(g.neighbors(n).count(), 0);
    }
}
