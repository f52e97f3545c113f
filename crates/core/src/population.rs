//! The client population's interaction graph once the epochs run.
//!
//! Training builds a sorted CSR ([`TxGraph`]); G-TxAllo's initial
//! allocation reads it. [`Population`] then takes over its buffers,
//! copying nothing, and grows them per transaction:
//!
//! * a weight increment on an edge the CSR holds is patched in place,
//!   found by binary search in the row;
//! * an edge first seen after training goes into the row's overflow
//!   block, kept sorted by neighbour;
//! * an account first seen after training gets the next node id past
//!   the last one.
//!
//! So learning a window costs O(window · log deg). Node ids stop
//! following account order, which Pilot cannot see: ψ sums integer
//! counts, exact in any order, and the beacon sorts the pool by account
//! before it ranks by gain.
//!
//! Overflow blocks hold a power of two of slots, and a row that fills
//! its block moves to one twice the size. Blocks of one size are carved
//! out of fixed-size pages and recycled through a free list, so the
//! overflow never needs a contiguous buffer of twice its size, and a
//! client pays 8 bytes for its block handle. A row's overflow block
//! sits apart from its CSR row, which costs the scoring pass a cache
//! miss per row that has one; so once the overflow holds an eighth of
//! the CSR's entries, one pass folds it into the CSR (grown by exactly
//! that much). The CSR grows by a constant factor per fold, so a run
//! pays O(log E) folds, not one per epoch.

use mosaic_txgraph::{CsrParts, NodeId, TxGraph};
use mosaic_types::{AccountId, Transaction};

/// log2 of the slots per page: blocks up to a page share pages; a
/// larger block gets a page of its own.
const PAGE_BITS: u32 = 10;

/// The overflow is folded into the CSR once its entries reach
/// `1 / FOLD_FRACTION` of the CSR's. A fixed constant, as in
/// [`mosaic_txgraph::GrowingGraph`].
const FOLD_FRACTION: usize = 8;

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
}

/// Row `node`'s slots in a CSR whose row starts are `xadj`; empty for a
/// node past its rows.
fn csr_row(xadj: &[usize], node: usize) -> std::ops::Range<usize> {
    match xadj.get(node..node + 2) {
        Some(&[start, end]) => start..end,
        _ => 0..0,
    }
}

/// The interaction graph of every client, updated in place.
#[derive(Debug, Clone)]
pub(crate) struct Population {
    /// The training CSR, grown by each fold. `accounts`, `index` and
    /// `vwgt` also cover the newcomers since, whose ids start at
    /// `xadj.len() - 1`; `total_edge_weight` counts every non-self
    /// transaction, overflow included.
    csr: CsrParts,
    overflow: Overflow,
    /// Self-transfers absorbed, the training CSR's included.
    self_transfers: u64,
}

impl Population {
    /// Takes over `graph`'s buffers.
    pub(crate) fn new(graph: TxGraph) -> Self {
        let csr = graph.into_parts();
        let endpoints: u64 = csr.vwgt.iter().sum();
        let self_transfers = endpoints - 2 * csr.total_edge_weight;
        Population {
            csr,
            overflow: Overflow::default(),
            self_transfers,
        }
    }

    /// Number of clients.
    pub(crate) fn node_count(&self) -> usize {
        self.csr.accounts.len()
    }

    /// Node → account.
    pub(crate) fn accounts(&self) -> &[AccountId] {
        &self.csr.accounts
    }

    /// The node of `account`, if it is a client.
    pub(crate) fn node_of(&self, account: AccountId) -> Option<NodeId> {
        self.csr.index.get(&account).copied()
    }

    /// The node of `account`, which becomes a client of vertex weight 0
    /// if it is not one yet.
    pub(crate) fn add_client(&mut self, account: AccountId) -> NodeId {
        let csr = &mut self.csr;
        *csr.index.entry(account).or_insert_with(|| {
            let node = NodeId::new(u32::try_from(csr.accounts.len()).expect("node ids are u32"));
            csr.accounts.push(account);
            csr.vwgt.push(0);
            node
        })
    }

    /// Folds committed transactions in, as a [`mosaic_txgraph::GraphBuilder`]
    /// would: one unit of vertex weight per endpoint, and one of edge
    /// weight between the two endpoints unless they are the same account.
    /// Then folds the overflow into the CSR if it has reached an eighth
    /// of it.
    pub(crate) fn absorb(&mut self, txs: &[Transaction]) {
        for tx in txs {
            let from = self.add_client(tx.from);
            self.csr.vwgt[from.index()] += 1;
            if tx.is_self_transfer() {
                self.self_transfers += 1;
                continue;
            }
            let to = self.add_client(tx.to);
            self.csr.vwgt[to.index()] += 1;
            self.bump(from, to);
            self.bump(to, from);
            self.csr.total_edge_weight += 1;
        }
        if self.overflow.entries * FOLD_FRACTION >= self.csr.adjncy.len().max(1) {
            self.fold();
        }
        if cfg!(debug_assertions) {
            self.assert_consistent();
        }
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

    /// Merges the overflow into the CSR, which then has a row for every
    /// node. Back to front in the grown buffers, like
    /// [`TxGraph::merge_delta`]: a row's new end is its old end plus the
    /// overflow of it and every row before it, so writes never overtake
    /// unread CSR entries.
    fn fold(&mut self) {
        let csr = &mut self.csr;
        let overflow = &self.overflow;
        let n = csr.accounts.len();
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0);
        for node in 0..n {
            xadj.push(xadj[node] + csr_row(&csr.xadj, node).len() + overflow.row(node).0.len());
        }
        let grown = xadj[n] - csr.adjncy.len();
        csr.adjncy.reserve_exact(grown);
        csr.adjncy.resize(xadj[n], NodeId::new(0));
        csr.adjwgt.reserve_exact(grown);
        csr.adjwgt.resize(xadj[n], 0);
        for node in (0..n).rev() {
            let old = csr_row(&csr.xadj, node);
            let (nbrs, wgts) = overflow.row(node);
            if nbrs.is_empty() {
                csr.adjncy.copy_within(old.clone(), xadj[node]);
                csr.adjwgt.copy_within(old, xadj[node]);
                continue;
            }
            let (mut r, mut o) = (old.end, nbrs.len());
            for write in (xadj[node]..xadj[node + 1]).rev() {
                if o > 0 && (r == old.start || nbrs[o - 1] > csr.adjncy[r - 1]) {
                    o -= 1;
                    csr.adjncy[write] = nbrs[o];
                    csr.adjwgt[write] = wgts[o];
                } else {
                    r -= 1;
                    csr.adjncy[write] = csr.adjncy[r];
                    csr.adjwgt[write] = csr.adjwgt[r];
                }
            }
        }
        csr.xadj = xadj;
        self.overflow = Overflow::default();
    }

    /// Calls `f(neighbour, weight)` for every edge of `node`, the CSR's
    /// first, and returns their number.
    pub(crate) fn visit(&self, node: usize, mut f: impl FnMut(NodeId, u64)) -> usize {
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

    /// The population as a sorted [`TxGraph`]: what a
    /// [`mosaic_txgraph::GraphBuilder`] would build from every absorbed
    /// transaction and added client. One pass over the whole graph.
    pub(crate) fn to_graph(&self) -> TxGraph {
        let accounts = &self.csr.accounts;
        let mut edges = Vec::new();
        for (node, &account) in accounts.iter().enumerate() {
            self.visit(node, |nbr, weight| {
                if node < nbr.index() {
                    edges.push((account, accounts[nbr.index()], weight));
                }
            });
        }
        TxGraph::from_weighted_edges(
            accounts.iter().copied().zip(self.csr.vwgt.iter().copied()),
            edges,
        )
    }

    /// The weight of directed edge `row → nbr`, wherever it is stored.
    fn weight(&self, row: NodeId, nbr: NodeId) -> Option<u64> {
        match self.csr_slot(row, nbr) {
            Some(slot) => Some(self.csr.adjwgt[slot]),
            None => self.overflow.weight(row.index(), nbr),
        }
    }

    /// Panics unless the population is one undirected graph of the
    /// transactions absorbed: the account ↔ node index is a bijection,
    /// no row holds a neighbour twice (CSR and overflow together),
    /// w(a, b) = w(b, a), the directed weights sum to twice the
    /// non-self transactions, and the vertex weights to that plus the
    /// self-transfers. One pass over the whole graph.
    pub(crate) fn assert_consistent(&self) {
        let csr = &self.csr;
        let n = csr.accounts.len();
        assert_eq!(csr.index.len(), n, "one index entry per node");
        assert_eq!(csr.vwgt.len(), n, "one vertex weight per node");
        for (node, account) in csr.accounts.iter().enumerate() {
            assert_eq!(
                csr.index.get(account).map(|n| n.index()),
                Some(node),
                "{account} ↔ node {node}"
            );
        }
        assert!(
            self.overflow.rows.len() <= n,
            "overflow row past the last node"
        );
        let mut directed = 0u64;
        for node in 0..n {
            let row = NodeId::new(node as u32);
            let mut seen = Vec::new();
            self.visit(node, |nbr, weight| {
                assert!(nbr.index() < n && nbr != row, "{row} → {nbr}");
                assert!(weight > 0, "{row} → {nbr} has weight 0");
                assert_eq!(self.weight(nbr, row), Some(weight), "w({row}, {nbr})");
                seen.push(nbr);
                directed += weight;
            });
            let overflow = self.overflow.row(node).0;
            assert!(
                overflow.windows(2).all(|pair| pair[0] < pair[1]),
                "{row}'s overflow is not ascending"
            );
            seen.sort_unstable();
            assert!(
                seen.windows(2).all(|pair| pair[0] < pair[1]),
                "{row} holds a neighbour twice"
            );
        }
        assert_eq!(directed, 2 * csr.total_edge_weight, "Σ edge weight");
        assert_eq!(
            csr.vwgt.iter().sum::<u64>(),
            2 * csr.total_edge_weight + self.self_transfers,
            "Σ vertex weight"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_txgraph::GraphBuilder;
    use mosaic_types::{BlockHeight, TxId};

    fn tx(id: u64, from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(id),
        )
    }

    /// A training path of 10 000 edges (20 000 CSR entries) keeps the
    /// fold away while hub 0 gains 1100 counterparties — a block larger
    /// than a page — and 100 newcomers, whose first blocks reuse the
    /// ones the hub outgrew. Then one more window crosses an eighth of
    /// the CSR, and the fold gives every node a CSR row.
    #[test]
    fn overflow_blocks_and_the_fold_match_the_oracle() {
        let training: Vec<Transaction> = (0..10_000).map(|i| tx(i, i, i + 1)).collect();
        let mut oracle = GraphBuilder::new();
        oracle.add_transactions(&training);
        let mut population = Population::new(oracle.build());

        let mut window: Vec<Transaction> = (0..1100).map(|j| tx(j, 5000 + 2 * j, 0)).collect();
        window.extend((0..100).map(|j| tx(j, 0, 20_000 + j)));
        window.extend((0..50).map(|j| tx(j, 1, 1)));
        for chunk in [&window[..], &window[..600]] {
            population.absorb(chunk);
            oracle.add_transactions(chunk);
        }
        assert_eq!(population.overflow.entries, 2400);
        assert_eq!(population.csr.xadj.len(), 10_002, "no fold yet");
        assert_eq!(population.to_graph(), oracle.build());

        let more: Vec<Transaction> = (0..100).map(|j| tx(j, 7001 + 2 * j, 3)).collect();
        population.absorb(&more);
        oracle.add_transactions(&more);
        assert_eq!(population.overflow.entries, 0);
        assert_eq!(population.csr.xadj.len(), population.node_count() + 1);
        assert_eq!(population.to_graph(), oracle.build());
        population.assert_consistent();
    }
}
