//! Compressed-sparse-row account graph.
//!
//! [`TxGraph`] is immutable in its public reading API, but supports one
//! mutation: [`TxGraph::merge_delta`] sort-merges a drained batch of
//! weight increments ([`GraphDelta`]) into the existing
//! `xadj`/`adjncy`/`adjwgt` buffers **in place** (back-to-front, so the
//! grown buffers are reused rather than reallocated). A delta that only
//! adds weight to existing accounts and edges is patched in
//! O(Δ log deg); one that adds an account or an edge rewrites every row
//! once, O(V + E + Δ log Δ), which beats a from-scratch rebuild but is
//! still a whole-graph pass — hence [`crate::GrowingGraph`]'s geometric
//! schedule. [`TxGraph::into_parts`] hands the buffers to an owner that
//! keeps them up to date some other way.

use std::fmt;

use mosaic_types::hash::FnvHashMap;
use mosaic_types::AccountId;

use crate::builder::GraphDelta;

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

/// The buffers of a [`TxGraph`], moved out by [`TxGraph::into_parts`].
///
/// Node `i` is `accounts[i]` (ascending), of weight `vwgt[i]`; its
/// adjacency is `xadj[i]..xadj[i + 1]` in `adjncy` (neighbours
/// ascending) and `adjwgt`, every undirected edge stored once per
/// direction.
#[derive(Debug, Clone)]
pub struct CsrParts {
    /// Node → account, ascending.
    pub accounts: Vec<AccountId>,
    /// Account → node, the inverse of `accounts`.
    pub index: FnvHashMap<AccountId, NodeId>,
    /// Vertex weight per node.
    pub vwgt: Vec<u64>,
    /// Row starts, `node_count + 1` entries.
    pub xadj: Vec<usize>,
    /// Neighbour ids, ascending within each row.
    pub adjncy: Vec<NodeId>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<u64>,
    /// Sum of the undirected edge weights.
    pub total_edge_weight: u64,
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
    accounts: Vec<AccountId>,
    index: FnvHashMap<AccountId, NodeId>,
    vwgt: Vec<u64>,
    xadj: Vec<usize>,
    adjncy: Vec<NodeId>,
    adjwgt: Vec<u64>,
    total_edge_weight: u64,
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
        let mut vweights: FnvHashMap<AccountId, u64> = FnvHashMap::default();
        for (a, w) in vertices {
            *vweights.entry(a).or_default() += w;
        }
        let edge_list: Vec<(AccountId, AccountId, u64)> = edges.into_iter().collect();
        for &(a, b, _) in &edge_list {
            vweights.entry(a).or_default();
            vweights.entry(b).or_default();
        }

        let mut accounts: Vec<AccountId> = vweights.keys().copied().collect();
        accounts.sort_unstable();
        let index: FnvHashMap<AccountId, NodeId> = accounts
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, NodeId::new(i as u32)))
            .collect();
        let vwgt: Vec<u64> = accounts.iter().map(|a| vweights[a]).collect();

        // Degree counting, then CSR fill.
        let n = accounts.len();
        let mut degree = vec![0usize; n];
        for &(a, b, _) in &edge_list {
            degree[index[&a].index()] += 1;
            degree[index[&b].index()] += 1;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        for d in &degree {
            let last = *xadj.last().expect("xadj nonempty");
            xadj.push(last + d);
        }
        let m2 = xadj[n];
        let mut adjncy = vec![NodeId::new(0); m2];
        let mut adjwgt = vec![0u64; m2];
        let mut cursor = xadj.clone();
        let mut total = 0u64;
        for &(a, b, w) in &edge_list {
            let (na, nb) = (index[&a], index[&b]);
            adjncy[cursor[na.index()]] = nb;
            adjwgt[cursor[na.index()]] = w;
            cursor[na.index()] += 1;
            adjncy[cursor[nb.index()]] = na;
            adjwgt[cursor[nb.index()]] = w;
            cursor[nb.index()] += 1;
            total += w;
        }
        // Sort each adjacency range by neighbour id for determinism.
        for i in 0..n {
            let range = xadj[i]..xadj[i + 1];
            let mut pairs: Vec<(NodeId, u64)> =
                range.clone().map(|j| (adjncy[j], adjwgt[j])).collect();
            pairs.sort_unstable_by_key(|&(n, _)| n);
            for (offset, (nid, w)) in pairs.into_iter().enumerate() {
                adjncy[range.start + offset] = nid;
                adjwgt[range.start + offset] = w;
            }
        }

        TxGraph {
            accounts,
            index,
            vwgt,
            xadj,
            adjncy,
            adjwgt,
            total_edge_weight: total,
        }
    }

    /// Builds a CSR graph directly from a sorted [`GraphDelta`] — the
    /// fast path of [`TxGraph::merge_delta`] into an empty graph.
    ///
    /// Because the delta's edges ascend by `(low, high)` pair, filling
    /// every smaller-neighbour entry first and every larger-neighbour
    /// entry second leaves each adjacency range sorted without the
    /// per-node sort [`TxGraph::from_weighted_edges`] needs.
    fn from_delta(delta: &GraphDelta) -> Self {
        let n = delta.vertices().len();
        let accounts: Vec<AccountId> = delta.vertices().iter().map(|&(a, _)| a).collect();
        let vwgt: Vec<u64> = delta.vertices().iter().map(|&(_, w)| w).collect();
        let index: FnvHashMap<AccountId, NodeId> = accounts
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, NodeId::new(i as u32)))
            .collect();

        let mut degree = vec![0usize; n];
        let mut total = 0u64;
        for &(a, b, w) in delta.edges() {
            degree[index[&a].index()] += 1;
            degree[index[&b].index()] += 1;
            total += w;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        for d in &degree {
            let last = *xadj.last().expect("xadj nonempty");
            xadj.push(last + d);
        }
        let m2 = xadj[n];
        let mut adjncy = vec![NodeId::new(0); m2];
        let mut adjwgt = vec![0u64; m2];
        let mut cursor = xadj.clone();
        for &(a, b, w) in delta.edges() {
            let (na, nb) = (index[&a], index[&b]);
            adjncy[cursor[nb.index()]] = na;
            adjwgt[cursor[nb.index()]] = w;
            cursor[nb.index()] += 1;
        }
        for &(a, b, w) in delta.edges() {
            let (na, nb) = (index[&a], index[&b]);
            adjncy[cursor[na.index()]] = nb;
            adjwgt[cursor[na.index()]] = w;
            cursor[na.index()] += 1;
        }

        TxGraph {
            accounts,
            index,
            vwgt,
            xadj,
            adjncy,
            adjwgt,
            total_edge_weight: total,
        }
    }

    /// Sort-merges a drained batch of weight increments into this graph
    /// **in place**, reusing the existing CSR buffers.
    ///
    /// Accreting per-window deltas produces exactly the graph a single
    /// cumulative [`crate::GraphBuilder`] would
    /// [`build`](crate::GraphBuilder::build) from the concatenated
    /// windows (proptested in `tests/delta_equivalence.rs`); the cost is
    /// O(V + Δ log Δ + touched adjacency) instead of a full O(V + E)
    /// reconstruction:
    ///
    /// * brand-new accounts are spliced into the sorted account order by
    ///   a back-to-front merge (node ids shift; the account→node index
    ///   is remapped without rehashing);
    /// * adjacency ranges are merged back-to-front into the grown
    ///   `adjncy`/`adjwgt` buffers — writes never overtake unread data,
    ///   so no scratch copy of the old CSR is made;
    /// * a delta that only increments weights of existing vertices and
    ///   edges takes a binary-search patch path that leaves the
    ///   structure untouched entirely.
    pub fn merge_delta(&mut self, delta: &GraphDelta) {
        if delta.is_empty() {
            return;
        }
        if self.accounts.is_empty() {
            *self = TxGraph::from_delta(delta);
            return;
        }
        let n_old = self.accounts.len();
        let dvs = delta.vertices();

        // 1. Forward walk: count brand-new accounts and derive the
        // old-node -> new-node remap (monotonic, order-preserving).
        let mut remap: Vec<u32> = Vec::with_capacity(n_old);
        let mut inserted = 0usize;
        let mut d = 0usize;
        for &acct in &self.accounts {
            while d < dvs.len() && dvs[d].0 < acct {
                // Greater than every earlier old account (those were
                // consumed below), smaller than this one: a new vertex.
                inserted += 1;
                d += 1;
            }
            remap.push((remap.len() + inserted) as u32);
            if d < dvs.len() && dvs[d].0 == acct {
                d += 1;
            }
        }
        let n_new = n_old + inserted + (dvs.len() - d);

        // 2. Merge accounts and vertex weights in place, back to front.
        self.accounts.resize(n_new, AccountId::new(0));
        self.vwgt.resize(n_new, 0);
        let mut new_nodes: Vec<(AccountId, u32)> = Vec::with_capacity(n_new - n_old);
        let mut o = n_old;
        let mut d = dvs.len();
        for write in (0..n_new).rev() {
            if d > 0 && (o == 0 || dvs[d - 1].0 > self.accounts[o - 1]) {
                self.accounts[write] = dvs[d - 1].0;
                self.vwgt[write] = dvs[d - 1].1;
                new_nodes.push((dvs[d - 1].0, write as u32));
                d -= 1;
            } else if d > 0 && dvs[d - 1].0 == self.accounts[o - 1] {
                self.accounts[write] = self.accounts[o - 1];
                self.vwgt[write] = self.vwgt[o - 1] + dvs[d - 1].1;
                o -= 1;
                d -= 1;
            } else {
                self.accounts[write] = self.accounts[o - 1];
                self.vwgt[write] = self.vwgt[o - 1];
                o -= 1;
            }
        }

        // 3. Remap the index values in place (no rehash of old keys),
        // then insert the brand-new accounts.
        for node in self.index.values_mut() {
            *node = NodeId::new(remap[node.index()]);
        }
        for &(acct, node) in &new_nodes {
            self.index.insert(acct, NodeId::new(node));
        }

        // 4. Directed adjacency additions in (node, neighbour) order.
        let mut adds: Vec<(u32, u32, u64)> = Vec::with_capacity(delta.edges().len() * 2);
        for &(a, b, w) in delta.edges() {
            let na = self.index[&a].index() as u32;
            let nb = self.index[&b].index() as u32;
            adds.push((na, nb, w));
            adds.push((nb, na, w));
            self.total_edge_weight += w;
        }
        adds.sort_unstable();

        // 5. Fast path: no new vertices and every added pair already
        // adjacent — patch adjwgt in place, structure untouched.
        if n_new == n_old {
            let all_existing = adds.iter().all(|&(node, nbr, _)| {
                let range = self.xadj[node as usize]..self.xadj[node as usize + 1];
                self.adjncy[range].binary_search(&NodeId::new(nbr)).is_ok()
            });
            if all_existing {
                for &(node, nbr, w) in &adds {
                    let range = self.xadj[node as usize]..self.xadj[node as usize + 1];
                    let off = self.adjncy[range.clone()]
                        .binary_search(&NodeId::new(nbr))
                        .expect("checked adjacent above");
                    self.adjwgt[range.start + off] += w;
                }
                return;
            }
        }

        // 6. New per-node degrees -> new xadj. `old_of` inverts the
        // remap so a new node can consult its old adjacency range.
        let mut old_of = vec![u32::MAX; n_new];
        for (i, &j) in remap.iter().enumerate() {
            old_of[j as usize] = i as u32;
        }
        let mut new_xadj = vec![0usize; n_new + 1];
        for i in 0..n_old {
            new_xadj[remap[i] as usize + 1] = self.xadj[i + 1] - self.xadj[i];
        }
        for &(node, nbr, _) in &adds {
            let oi = old_of[node as usize];
            let is_new_entry = oi == u32::MAX || {
                let range = self.xadj[oi as usize]..self.xadj[oi as usize + 1];
                // Old adjacency stores old ids; remap is monotonic, so
                // searching by remapped key preserves the order.
                self.adjncy[range]
                    .binary_search_by_key(&nbr, |n| remap[n.index()])
                    .is_err()
            };
            if is_new_entry {
                new_xadj[node as usize + 1] += 1;
            }
        }
        for i in 0..n_new {
            new_xadj[i + 1] += new_xadj[i];
        }
        let new_m = new_xadj[n_new];

        // 7. Merge adjacency back to front into the grown buffers. At
        // every step the unwritten region is at least as large as the
        // unread old region (each output consumes at most one old
        // entry), so writes never overtake unread old data.
        self.adjncy.resize(new_m, NodeId::new(0));
        self.adjwgt.resize(new_m, 0);
        let mut a = adds.len();
        for j in (0..n_new).rev() {
            let oi = old_of[j];
            let (mut r, r_lo) = if oi == u32::MAX {
                (0usize, 0usize)
            } else {
                (self.xadj[oi as usize + 1], self.xadj[oi as usize])
            };
            let mut write = new_xadj[j + 1];
            while write > new_xadj[j] {
                write -= 1;
                let add_avail = a > 0 && adds[a - 1].0 == j as u32;
                let old_avail = r > r_lo;
                if add_avail && (!old_avail || adds[a - 1].1 >= remap[self.adjncy[r - 1].index()]) {
                    let (_, nbr, w) = adds[a - 1];
                    if old_avail && nbr == remap[self.adjncy[r - 1].index()] {
                        self.adjwgt[write] = self.adjwgt[r - 1] + w;
                        r -= 1;
                    } else {
                        self.adjwgt[write] = w;
                    }
                    self.adjncy[write] = NodeId::new(nbr);
                    a -= 1;
                } else {
                    self.adjncy[write] = NodeId::new(remap[self.adjncy[r - 1].index()]);
                    self.adjwgt[write] = self.adjwgt[r - 1];
                    r -= 1;
                }
            }
            debug_assert!(!(a > 0 && adds[a - 1].0 == j as u32), "unmerged additions");
            debug_assert_eq!(r, r_lo, "unmerged old adjacency");
        }
        self.xadj = new_xadj;
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

    /// Sum of all vertex weights.
    pub fn total_node_weight(&self) -> u64 {
        self.vwgt.iter().sum()
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

    /// Weight of the edge between `a` and `b`, if adjacent (binary search).
    pub fn edge_weight_between(&self, a: NodeId, b: NodeId) -> Option<u64> {
        let range = self.xadj[a.index()]..self.xadj[a.index() + 1];
        let slice = &self.adjncy[range.clone()];
        slice
            .binary_search(&b)
            .ok()
            .map(|off| self.adjwgt[range.start + off])
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

    /// Moves the buffers out, copying nothing.
    pub fn into_parts(self) -> CsrParts {
        CsrParts {
            accounts: self.accounts,
            index: self.index,
            vwgt: self.vwgt,
            xadj: self.xadj,
            adjncy: self.adjncy,
            adjwgt: self.adjwgt,
            total_edge_weight: self.total_edge_weight,
        }
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
        assert_eq!(g.total_node_weight(), 60);
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
        assert_eq!(g.edge_weight_between(n1, n2), Some(5));
        assert_eq!(g.edge_weight_between(n2, n1), Some(5));
        assert_eq!(g.edge_weight_between(n2, n3), Some(7));
        assert_eq!(g.edge_weight_between(n1, n1), None);
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

    mod merge_delta {
        use super::*;
        use crate::GraphBuilder;

        /// Drains a delta containing the given weighted edges.
        fn delta_of(edges: &[(u64, u64, u64)]) -> GraphDelta {
            let mut b = GraphBuilder::new();
            for &(a, bb, w) in edges {
                b.add_edge(acct(a), acct(bb), w);
            }
            b.drain_delta()
        }

        /// Full-rebuild oracle over the same edge batches.
        fn oracle(batches: &[&[(u64, u64, u64)]]) -> TxGraph {
            let mut b = GraphBuilder::new();
            for batch in batches {
                for &(a, bb, w) in *batch {
                    b.add_edge(acct(a), acct(bb), w);
                }
            }
            b.build()
        }

        #[test]
        fn empty_delta_is_a_noop() {
            let batch: &[(u64, u64, u64)] = &[(1, 2, 5), (2, 3, 7)];
            let mut g = TxGraph::default();
            g.merge_delta(&delta_of(batch));
            let snapshot = g.clone();
            g.merge_delta(&GraphDelta::default());
            assert_eq!(g, snapshot);
        }

        #[test]
        fn merge_into_empty_equals_full_build() {
            let batch: &[(u64, u64, u64)] = &[(5, 1, 2), (1, 3, 4), (9, 5, 1)];
            let mut g = TxGraph::default();
            g.merge_delta(&delta_of(batch));
            assert_eq!(g, oracle(&[batch]));
        }

        #[test]
        fn weight_only_delta_takes_patch_path() {
            let batch: &[(u64, u64, u64)] = &[(1, 2, 3), (2, 3, 1)];
            let mut g = TxGraph::default();
            g.merge_delta(&delta_of(batch));
            let (xadj_before, m_before) = (g.xadj().to_vec(), g.adjncy().len());
            // Same pairs again: structure must be untouched, weights doubled.
            g.merge_delta(&delta_of(batch));
            assert_eq!(g.xadj(), &xadj_before[..]);
            assert_eq!(g.adjncy().len(), m_before);
            assert_eq!(g, oracle(&[batch, batch]));
        }

        #[test]
        fn new_accounts_splice_into_sorted_order() {
            let first: &[(u64, u64, u64)] = &[(10, 30, 2)];
            let second: &[(u64, u64, u64)] = &[(20, 30, 5), (5, 10, 1)];
            let mut g = TxGraph::default();
            g.merge_delta(&delta_of(first));
            g.merge_delta(&delta_of(second));
            assert_eq!(g.accounts(), &[acct(5), acct(10), acct(20), acct(30)]);
            assert_eq!(g, oracle(&[first, second]));
        }

        #[test]
        fn mixed_new_edges_and_weight_updates_match_oracle() {
            let first: &[(u64, u64, u64)] = &[(1, 2, 3), (2, 4, 1), (4, 6, 2)];
            let second: &[(u64, u64, u64)] = &[(1, 2, 1), (2, 3, 9), (0, 6, 4), (4, 6, 1)];
            let third: &[(u64, u64, u64)] = &[(7, 8, 2), (0, 1, 1), (2, 3, 1)];
            let mut g = TxGraph::default();
            g.merge_delta(&delta_of(first));
            assert_eq!(g, oracle(&[first]));
            g.merge_delta(&delta_of(second));
            assert_eq!(g, oracle(&[first, second]));
            g.merge_delta(&delta_of(third));
            assert_eq!(g, oracle(&[first, second, third]));
        }

        #[test]
        fn vertex_only_delta_merges_isolated_and_self_transfers() {
            let mut seed = GraphBuilder::new();
            seed.add_edge(acct(2), acct(4), 1);
            let mut g = TxGraph::default();
            g.merge_delta(&seed.drain_delta());

            let mut b = GraphBuilder::new();
            b.touch(acct(1)); // isolated, weight 0
            b.add_edge(acct(4), acct(4), 3); // self-transfer: vertex weight only
            let mut oracle_b = GraphBuilder::new();
            oracle_b.add_edge(acct(2), acct(4), 1);
            oracle_b.touch(acct(1));
            oracle_b.add_edge(acct(4), acct(4), 3);

            g.merge_delta(&b.drain_delta());
            assert_eq!(g, oracle_b.build());
            assert_eq!(g.node_weight(g.node_of(acct(1)).unwrap()), 0);
            assert_eq!(g.node_weight(g.node_of(acct(4)).unwrap()), 4);
        }

        #[test]
        fn merged_graph_keeps_neighbor_order_invariant() {
            let mut g = TxGraph::default();
            let batches: Vec<Vec<(u64, u64, u64)>> = (0..6u64)
                .map(|r| {
                    (0..12u64)
                        .map(|i| ((i * 7 + r) % 13, (i * 11 + r * 3) % 17, i % 3 + 1))
                        .collect()
                })
                .collect();
            for batch in &batches {
                g.merge_delta(&delta_of(batch));
            }
            for node in g.nodes() {
                let neigh: Vec<NodeId> = g.neighbors(node).map(|(n, _)| n).collect();
                assert!(neigh.windows(2).all(|w| w[0] < w[1]), "{node} unsorted");
            }
            let refs: Vec<&[(u64, u64, u64)]> = batches.iter().map(Vec::as_slice).collect();
            assert_eq!(g, oracle(&refs));
        }
    }
}
