//! The interaction graph of a transaction stream, grown in place.
//!
//! [`GrowingGraph`] holds a sorted CSR ([`TxGraph`]) and grows it per
//! transaction:
//!
//! * a weight increment on an edge the CSR holds is patched in place,
//!   found by binary search in the row;
//! * an edge the CSR does not hold goes into the row's overflow block,
//!   kept sorted by neighbour;
//! * an account first seen since the last fold gets the next node id
//!   past the last one.
//!
//! So absorbing a window costs O(window · log deg), and a reader of one
//! row ([`GrowingGraph::visit`], Pilot's client) never waits for more.
//!
//! Overflow blocks hold a power of two of slots, and a row that fills
//! its block moves to one twice the size. Blocks of one size are carved
//! out of fixed-size pages and recycled through a free list, so the
//! overflow never needs a contiguous buffer of twice its size, and a
//! node pays 8 bytes for its block handle. A row's overflow block sits
//! apart from its CSR row, which costs a row reader a cache miss per
//! row that has one; so once the overflow holds an eighth of the CSR's
//! entries, one pass folds it into the CSR (grown by exactly that
//! much). The CSR grows by a constant factor per fold, so a stream pays
//! O(log E) folds, not one per window.
//!
//! The fold also splices the accounts that joined since the last one
//! into ascending account order. After it the CSR is exactly what
//! [`crate::GraphBuilder::build`] makes of everything absorbed and
//! touched, and [`GrowingGraph::graph`] folds whatever is left before
//! it hands a reader of the whole graph (a miner) that CSR.

use mosaic_types::{ensure, AccountId, Result, Transaction};

use crate::csr::{NodeId, TxGraph};

/// log2 of the slots per page: blocks up to a page share pages; a
/// larger block gets a page of its own.
const PAGE_BITS: u32 = 10;

/// The overflow is folded into the CSR once its entries reach
/// `1 / FOLD_FRACTION` of the CSR's. A fixed constant: the overflow
/// stays below max(one window, CSR / 8) entries, so memory stays O(CSR).
const FOLD_FRACTION: usize = 8;

/// The component [`GrowingGraph::check_invariants`] names.
const WHO: &str = "graph";

/// Marks the end of a pool's free list.
const NO_BLOCK: u32 = u32::MAX;

/// A row's overflow block: `len` neighbours, ascending, in block `id` of
/// the pool whose blocks hold the smallest power of two ≥ `len` slots.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    id: u32,
    len: u32,
}

impl Block {
    /// log2 of the block's slot count; `len` must be positive.
    fn class(self) -> u32 {
        self.len.next_power_of_two().trailing_zeros()
    }
}

/// Blocks of `1 << class` slots, in pages of `1 << PAGE_BITS` slots or
/// one block, whichever is larger.
#[derive(Debug, Clone)]
struct Pool {
    class: u32,
    nbrs: Vec<Box<[NodeId]>>,
    wgts: Vec<Box<[u64]>>,
    /// Blocks ever carved out of the pages.
    carved: u32,
    /// First free block; a free block's first neighbour slot holds the
    /// next one.
    free: u32,
}

impl Pool {
    fn new(class: u32) -> Self {
        Pool {
            class,
            nbrs: Vec::new(),
            wgts: Vec::new(),
            carved: 0,
            free: NO_BLOCK,
        }
    }

    fn block_slots(&self) -> usize {
        1 << self.class
    }

    /// log2 of the blocks per page.
    fn page_shift(&self) -> u32 {
        PAGE_BITS.saturating_sub(self.class)
    }

    /// Page and first slot of block `id`.
    fn locate(&self, id: u32) -> (usize, usize) {
        let id = id as usize;
        let shift = self.page_shift();
        (id >> shift, (id & ((1 << shift) - 1)) << self.class)
    }

    /// The first `len` neighbours and weights of block `id`.
    fn entries(&self, id: u32, len: usize) -> (&[NodeId], &[u64]) {
        let (page, at) = self.locate(id);
        (
            &self.nbrs[page][at..at + len],
            &self.wgts[page][at..at + len],
        )
    }

    /// The whole block, every slot.
    fn block_mut(&mut self, id: u32) -> (&mut [NodeId], &mut [u64]) {
        let (page, at) = self.locate(id);
        let slots = at..at + self.block_slots();
        (
            &mut self.nbrs[page][slots.clone()],
            &mut self.wgts[page][slots],
        )
    }

    /// A block to write, recycled if one is free; its slots hold stale
    /// values.
    fn alloc(&mut self) -> u32 {
        if self.free != NO_BLOCK {
            let id = self.free;
            self.free = self.block_mut(id).0[0].index() as u32;
            return id;
        }
        if self.carved as usize == self.nbrs.len() << self.page_shift() {
            let slots = self.block_slots() << self.page_shift();
            self.nbrs
                .push(vec![NodeId::new(0); slots].into_boxed_slice());
            self.wgts.push(vec![0; slots].into_boxed_slice());
        }
        self.carved += 1;
        self.carved - 1
    }

    /// Puts block `id` on the free list.
    fn release(&mut self, id: u32) {
        let next = self.free;
        self.block_mut(id).0[0] = NodeId::new(next);
        self.free = id;
    }
}

/// The directed edges of each row that the CSR does not hold, each row
/// in one block.
#[derive(Debug, Clone, Default)]
struct Overflow {
    /// Indexed by node; rows past the end have no overflow.
    rows: Vec<Block>,
    /// Entries over all rows.
    entries: usize,
    /// Indexed by block class.
    pools: Vec<Pool>,
}

impl Overflow {
    /// Row `node`'s neighbours (ascending) and weights.
    fn row(&self, node: usize) -> (&[NodeId], &[u64]) {
        match self.rows.get(node) {
            Some(&block) if block.len > 0 => {
                self.pools[block.class() as usize].entries(block.id, block.len as usize)
            }
            _ => (&[], &[]),
        }
    }

    fn weight(&self, node: usize, nbr: NodeId) -> Option<u64> {
        let (nbrs, wgts) = self.row(node);
        nbrs.binary_search(&nbr).ok().map(|at| wgts[at])
    }

    /// Adds one to the weight of `node → nbr`, inserting the edge if
    /// the row does not hold it.
    fn bump(&mut self, node: usize, nbr: NodeId) {
        if node >= self.rows.len() {
            self.rows.resize(node + 1, Block::default());
        }
        let block = self.rows[node];
        let len = block.len as usize;
        let at = match self.row(node).0.binary_search(&nbr) {
            Ok(at) => {
                let class = block.class() as usize;
                self.pools[class].block_mut(block.id).1[at] += 1;
                return;
            }
            Err(at) => at,
        };
        let grown = Block {
            len: block.len + 1,
            ..block
        };
        let class = grown.class();
        let id = if block.len > 0 && block.class() == class {
            block.id
        } else {
            self.move_to(block, class)
        };
        let (nbrs, wgts) = self.pools[class as usize].block_mut(id);
        nbrs.copy_within(at..len, at + 1);
        wgts.copy_within(at..len, at + 1);
        nbrs[at] = nbr;
        wgts[at] = 1;
        self.rows[node] = Block { id, ..grown };
        self.entries += 1;
    }

    /// Copies `block`'s entries into a fresh block of class `class`,
    /// frees the old one, and returns the new block's id.
    fn move_to(&mut self, block: Block, class: u32) -> u32 {
        while self.pools.len() <= class as usize {
            self.pools.push(Pool::new(self.pools.len() as u32));
        }
        let id = self.pools[class as usize].alloc();
        if block.len > 0 {
            let (lower, upper) = self.pools.split_at_mut(class as usize);
            let old = &mut lower[block.class() as usize];
            let len = block.len as usize;
            let (old_nbrs, old_wgts) = old.entries(block.id, len);
            let (nbrs, wgts) = upper[0].block_mut(id);
            nbrs[..len].copy_from_slice(old_nbrs);
            wgts[..len].copy_from_slice(old_wgts);
            old.release(block.id);
        }
        id
    }

    /// Renames every neighbour `v` to `remap[v]` and re-sorts each row.
    fn renumber(&mut self, remap: &[u32]) {
        let mut row = Vec::new();
        for &block in &self.rows {
            if block.len == 0 {
                continue;
            }
            let len = block.len as usize;
            let (nbrs, wgts) = self.pools[block.class() as usize].block_mut(block.id);
            row.clear();
            row.extend(
                nbrs[..len]
                    .iter()
                    .zip(&wgts[..len])
                    .map(|(v, &w)| (remap[v.index()], w)),
            );
            row.sort_unstable_by_key(|&(v, _)| v);
            for (slot, &(v, w)) in row.iter().enumerate() {
                nbrs[slot] = NodeId::new(v);
                wgts[slot] = w;
            }
        }
    }
}

/// Row `node`'s slots in a CSR whose row starts are `xadj`; empty for a
/// node past its rows.
fn csr_row(xadj: &[usize], node: usize) -> std::ops::Range<usize> {
    match xadj.get(node..node + 2) {
        Some(&[start, end]) => start..end,
        _ => 0..0,
    }
}

/// The interaction graph of every transaction absorbed and account
/// touched, updated in place.
///
/// Nodes `[0, r)`, where `r` is the CSR's row count, ascend by account;
/// the newcomers since the last fold, `[r, n)`, follow in arrival
/// order. [`GrowingGraph::graph`] folds them in, and then equals a
/// [`crate::GraphBuilder::build`] of the same transactions and touches,
/// however the stream was cut (`tests/delta_equivalence.rs`).
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
/// assert!(g.merged_edge_count() < 100); // the tail is still in overflow
/// assert_eq!(g.graph().edge_count(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GrowingGraph {
    /// The CSR as of the last fold. `accounts`, `index` and `vwgt` also
    /// cover the newcomers since, whose ids start at `xadj.len() - 1`;
    /// `total_edge_weight` counts every non-self transaction, overflow
    /// included.
    csr: TxGraph,
    overflow: Overflow,
    /// Self-transfers absorbed.
    self_transfers: u64,
}

impl GrowingGraph {
    /// An empty graph.
    pub fn new() -> Self {
        GrowingGraph::default()
    }

    /// Number of nodes, newcomers included.
    pub fn node_count(&self) -> usize {
        self.csr.accounts.len()
    }

    /// Node → account.
    pub fn accounts(&self) -> &[AccountId] {
        &self.csr.accounts
    }

    /// The node of `account`, if it has one.
    pub fn node_of(&self, account: AccountId) -> Option<NodeId> {
        self.csr.index.get(&account).copied()
    }

    /// Transactions absorbed: the total edge weight plus the
    /// self-transfers.
    pub fn transaction_count(&self) -> u64 {
        self.csr.total_edge_weight + self.self_transfers
    }

    /// Edges of the CSR, not counting the overflow's — a read that never
    /// forces a fold.
    pub fn merged_edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// The node of `account`, which becomes a node of vertex weight 0 if
    /// it is not one yet.
    pub fn touch(&mut self, account: AccountId) -> NodeId {
        let csr = &mut self.csr;
        *csr.index.entry(account).or_insert_with(|| {
            let node = NodeId::new(u32::try_from(csr.accounts.len()).expect("node ids are u32"));
            csr.accounts.push(account);
            csr.vwgt.push(0);
            node
        })
    }

    /// Folds committed transactions in, as a [`crate::GraphBuilder`]
    /// would: one unit of vertex weight per endpoint, and one of edge
    /// weight between the two endpoints unless they are the same account.
    /// Then folds the overflow into the CSR if it has reached an eighth
    /// of it.
    pub fn absorb(&mut self, txs: &[Transaction]) {
        for tx in txs {
            let from = self.touch(tx.from);
            self.csr.vwgt[from.index()] += 1;
            if tx.is_self_transfer() {
                self.self_transfers += 1;
                continue;
            }
            let to = self.touch(tx.to);
            self.csr.vwgt[to.index()] += 1;
            self.bump(from, to);
            self.bump(to, from);
            self.csr.total_edge_weight += 1;
        }
        if self.overflow.entries * FOLD_FRACTION >= self.csr.adjncy.len().max(1) {
            self.fold();
        }
    }

    /// Folds whatever is left, then returns the whole graph, nodes in
    /// ascending account order.
    pub fn graph(&mut self) -> &TxGraph {
        if self.overflow.entries > 0 || self.csr.xadj.len() <= self.node_count() {
            self.fold();
        }
        &self.csr
    }

    /// Adds one to the weight of directed edge `row → nbr`.
    fn bump(&mut self, row: NodeId, nbr: NodeId) {
        match self.csr_slot(row, nbr) {
            Some(slot) => self.csr.adjwgt[slot] += 1,
            None => self.overflow.bump(row.index(), nbr),
        }
    }

    /// Where the CSR stores `row → nbr`, if it does.
    fn csr_slot(&self, row: NodeId, nbr: NodeId) -> Option<usize> {
        let range = csr_row(&self.csr.xadj, row.index());
        let offset = self.csr.adjncy[range.clone()].binary_search(&nbr).ok()?;
        Some(range.start + offset)
    }

    /// Splices the newcomers into ascending account order and merges the
    /// overflow into the CSR, which then has a row for every node.
    ///
    /// The newcomers, sorted, are merged into the sorted prefix back to
    /// front, which gives a renumbering that keeps the prefix's order.
    /// CSR entries name prefix nodes only, so remapping them keeps each
    /// row sorted; overflow rows may name newcomers, so they are
    /// remapped and re-sorted. The rows are then merged back to front in
    /// the grown buffers: the CSR rows keep their order and a row's new
    /// start is at least its old one, so writes never overtake unread
    /// CSR entries.
    fn fold(&mut self) {
        let csr = &mut self.csr;
        let n = csr.accounts.len();
        let rows = csr.xadj.len() - 1;
        let mut newcomers: Vec<(AccountId, u64, u32)> = (rows..n)
            .map(|v| (csr.accounts[v], csr.vwgt[v], v as u32))
            .collect();
        newcomers.sort_unstable_by_key(|&(account, ..)| account);
        let mut old_of = vec![0u32; n];
        let (mut o, mut d) = (rows, newcomers.len());
        for node in (0..n).rev() {
            if d > 0 && (o == 0 || newcomers[d - 1].0 > csr.accounts[o - 1]) {
                d -= 1;
                (csr.accounts[node], csr.vwgt[node], old_of[node]) = newcomers[d];
            } else {
                o -= 1;
                csr.accounts[node] = csr.accounts[o];
                csr.vwgt[node] = csr.vwgt[o];
                old_of[node] = o as u32;
            }
        }
        let mut remap = vec![0u32; n];
        for (node, &old) in old_of.iter().enumerate() {
            remap[old as usize] = node as u32;
        }
        if !newcomers.is_empty() {
            for node in csr.index.values_mut() {
                *node = NodeId::new(remap[node.index()]);
            }
            self.overflow.renumber(&remap);
        }

        let overflow = &self.overflow;
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0);
        for (node, &old) in old_of.iter().enumerate() {
            let old = old as usize;
            xadj.push(xadj[node] + csr_row(&csr.xadj, old).len() + overflow.row(old).0.len());
        }
        let grown = xadj[n] - csr.adjncy.len();
        csr.adjncy.reserve_exact(grown);
        csr.adjncy.resize(xadj[n], NodeId::new(0));
        csr.adjwgt.reserve_exact(grown);
        csr.adjwgt.resize(xadj[n], 0);
        for node in (0..n).rev() {
            let old = old_of[node] as usize;
            let csr_old = csr_row(&csr.xadj, old);
            let (nbrs, wgts) = overflow.row(old);
            let (mut r, mut o) = (csr_old.end, nbrs.len());
            for write in (xadj[node]..xadj[node + 1]).rev() {
                let kept =
                    (r > csr_old.start).then(|| NodeId::new(remap[csr.adjncy[r - 1].index()]));
                if o > 0 && kept.is_none_or(|kept| nbrs[o - 1] > kept) {
                    o -= 1;
                    csr.adjncy[write] = nbrs[o];
                    csr.adjwgt[write] = wgts[o];
                } else {
                    r -= 1;
                    csr.adjncy[write] = kept.expect("an entry is left");
                    csr.adjwgt[write] = csr.adjwgt[r];
                }
            }
        }
        csr.xadj = xadj;
        self.overflow = Overflow::default();
    }

    /// Calls `f(neighbour, weight)` for every edge of `node`, the CSR's
    /// first, and returns their number.
    pub fn visit(&self, node: usize, mut f: impl FnMut(NodeId, u64)) -> usize {
        let range = csr_row(&self.csr.xadj, node);
        let (nbrs, wgts) = self.overflow.row(node);
        let csr = &self.csr;
        for (&nbr, &weight) in csr.adjncy[range.clone()]
            .iter()
            .zip(&csr.adjwgt[range.clone()])
        {
            f(nbr, weight);
        }
        for (&nbr, &weight) in nbrs.iter().zip(wgts) {
            f(nbr, weight);
        }
        range.len() + nbrs.len()
    }

    /// The weight of directed edge `row → nbr`, wherever it is stored.
    fn weight(&self, row: NodeId, nbr: NodeId) -> Option<u64> {
        match self.csr_slot(row, nbr) {
            Some(slot) => Some(self.csr.adjwgt[slot]),
            None => self.overflow.weight(row.index(), nbr),
        }
    }

    /// Checks that the graph is one undirected graph of the transactions
    /// absorbed: the account ↔ node index is a bijection, the CSR's row
    /// starts do not decrease and cover at most every node, its nodes
    /// ascend by account, no row holds a neighbour twice (CSR and
    /// overflow together) or out of order, w(a, b) = w(b, a), the
    /// directed weights sum to twice the non-self transactions, and the
    /// vertex weights to that plus the self-transfers; else
    /// [`mosaic_types::Error::Inconsistent`]. One pass over the whole
    /// graph.
    pub fn check_invariants(&self) -> Result<()> {
        let csr = &self.csr;
        let n = csr.accounts.len();
        let lens = [csr.index.len(), csr.vwgt.len()];
        ensure!(lens == [n; 2], WHO, "{lens:?} ids, weights, {n} nodes");
        for (node, account) in csr.accounts.iter().enumerate() {
            let id = csr.index.get(account).map(|n| n.index());
            ensure!(id == Some(node), WHO, "{account} ↔ {id:?}, not {node}");
        }
        let xadj = &csr.xadj;
        let rows = xadj.len().saturating_sub(1);
        let starts = xadj.first() == Some(&0) && xadj.windows(2).all(|p| p[0] <= p[1]);
        ensure!(starts && rows <= n, WHO, "row starts {xadj:?}, {n} nodes");
        let entries = [csr.adjncy.len(), csr.adjwgt.len()];
        ensure!(entries == [xadj[rows]; 2], WHO, "{entries:?} entries");
        let sorted = csr.accounts[..rows].windows(2).all(|p| p[0] < p[1]);
        ensure!(sorted, WHO, "nodes [0, {rows}) do not ascend by account");
        let overflow_rows = self.overflow.rows.len();
        ensure!(overflow_rows <= n, WHO, "{overflow_rows} overflow rows");
        let mut directed = 0u64;
        let mut edges = Vec::new();
        for node in 0..n {
            let row = NodeId::new(node as u32);
            edges.clear();
            self.visit(node, |nbr, weight| edges.push((nbr, weight)));
            for &(nbr, w) in &edges {
                let edge = nbr.index() < n && nbr != row && w > 0;
                ensure!(edge, WHO, "{row} → {nbr} of weight {w}");
                let back = self.weight(nbr, row);
                ensure!(back == Some(w), WHO, "w({row}, {nbr}) = {w}, back {back:?}");
                directed += w;
            }
            let csr_part = &csr.adjncy[csr_row(xadj, node)];
            let ascending = |nbrs: &[NodeId]| nbrs.windows(2).all(|p| p[0] < p[1]);
            let sorted = ascending(csr_part) && ascending(self.overflow.row(node).0);
            ensure!(sorted, WHO, "{row}'s neighbours are not ascending");
            edges.sort_unstable();
            let twice = edges.windows(2).any(|p| p[0].0 == p[1].0);
            ensure!(!twice, WHO, "{row} holds a neighbour twice");
        }
        let (edge, selfs) = (csr.total_edge_weight, self.self_transfers);
        let vertex: u64 = csr.vwgt.iter().sum();
        ensure!(directed == 2 * edge, WHO, "Σ w {directed}, {edge} edges");
        ensure!(vertex == 2 * edge + selfs, WHO, "Σ vertex w {vertex}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use mosaic_types::{BlockHeight, Error, TxId};

    fn tx(id: u64, from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(id),
        )
    }

    fn is_graph_error(err: &Error) -> bool {
        matches!(
            err,
            Error::Inconsistent {
                component: "graph",
                ..
            }
        )
    }

    /// A graph folded from `txs`, its CSR holding them all.
    fn folded(txs: &[Transaction]) -> GrowingGraph {
        let mut graph = GrowingGraph::new();
        graph.absorb(txs);
        graph.graph();
        graph
    }

    /// A path of 10 000 edges (20 000 CSR entries) keeps the fold away
    /// while hub 0 gains 1100 counterparties — a block larger than a
    /// page — and 100 newcomers, whose first blocks reuse the ones the
    /// hub outgrew. Then one more window crosses an eighth of the CSR,
    /// and the fold gives every node a CSR row, in account order.
    #[test]
    fn overflow_blocks_and_the_fold_match_the_oracle() {
        let training: Vec<Transaction> = (0..10_000).map(|i| tx(i, i, i + 1)).collect();
        let mut oracle = GraphBuilder::new();
        oracle.add_transactions(&training);
        let mut graph = folded(&training);

        let mut window: Vec<Transaction> = (0..1100).map(|j| tx(j, 5000 + 2 * j, 0)).collect();
        window.extend((0..100).map(|j| tx(j, 0, 20_000 + j)));
        window.extend((0..50).map(|j| tx(j, 1, 1)));
        for chunk in [&window[..], &window[..600]] {
            graph.absorb(chunk);
            oracle.add_transactions(chunk);
        }
        assert_eq!(graph.overflow.entries, 2400);
        assert_eq!(graph.csr.xadj.len(), 10_002, "no fold yet");
        graph.check_invariants().unwrap();
        assert_eq!(graph.clone().graph(), &oracle.build());

        let more: Vec<Transaction> = (0..100).map(|j| tx(j, 7001 + 2 * j, 3)).collect();
        graph.absorb(&more);
        oracle.add_transactions(&more);
        assert_eq!(graph.overflow.entries, 0);
        assert_eq!(graph.csr.xadj.len(), graph.node_count() + 1);
        assert_eq!(&graph.csr, &oracle.build());
        graph.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_catches_an_asymmetric_weight() {
        let training: Vec<Transaction> = (0..100).map(|i| tx(i, i, i + 1)).collect();
        let mut graph = folded(&training);
        graph.absorb(&[tx(100, 0, 50), tx(101, 7, 7)]);
        graph.check_invariants().unwrap();

        // w(0, 1) += 1 in the CSR, w(1, 0) untouched.
        let slot = graph.csr_slot(NodeId::new(0), NodeId::new(1)).unwrap();
        graph.csr.adjwgt[slot] += 1;
        let err = graph.check_invariants().unwrap_err();
        assert!(is_graph_error(&err), "{err}");
        graph.csr.adjwgt[slot] -= 1;
        graph.check_invariants().unwrap();
        // The same break in an overflow row.
        graph.overflow.bump(50, NodeId::new(0));
        assert!(graph.check_invariants().is_err());
    }

    /// Two accounts of the sorted prefix trade ids: the index stays a
    /// bijection and every weight symmetric, but the CSR's nodes no
    /// longer ascend by account.
    #[test]
    fn check_invariants_catches_an_unsorted_prefix() {
        let training: Vec<Transaction> = (0..10).map(|i| tx(i, i, i + 1)).collect();
        let mut graph = folded(&training);
        graph.touch(AccountId::new(99));
        graph.check_invariants().unwrap();

        let csr = &mut graph.csr;
        let (a, b) = (csr.accounts[3], csr.accounts[4]);
        csr.accounts.swap(3, 4);
        csr.index.insert(a, NodeId::new(4));
        csr.index.insert(b, NodeId::new(3));
        let err = graph.check_invariants().unwrap_err();
        assert!(is_graph_error(&err), "{err}");
    }

    /// Whatever the chunking, after every absorb the overflow is empty
    /// or under an eighth of the CSR's entries.
    #[test]
    fn overflow_stays_under_an_eighth_of_the_csr() {
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound
        };
        let mut graph = GrowingGraph::new();
        let mut oracle = GraphBuilder::new();
        let mut id = 0;
        for _ in 0..400 {
            let len = next(48);
            let chunk: Vec<Transaction> = (0..len)
                .map(|_| {
                    id += 1;
                    tx(id, next(300), next(300))
                })
                .collect();
            graph.absorb(&chunk);
            oracle.add_transactions(&chunk);
            let (pending, merged) = (graph.overflow.entries, graph.csr.adjncy.len());
            assert!(
                pending == 0 || pending * FOLD_FRACTION < merged,
                "{pending} entries in overflow over {merged} in the CSR"
            );
        }
        graph.check_invariants().unwrap();
        assert_eq!(graph.graph(), &oracle.build());
    }
}
