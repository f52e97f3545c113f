//! The interaction graph of a transaction stream, grown in place.
//!
//! [`GrowingGraph`] holds a sorted CSR ([`TxGraph`]) and grows it in two
//! phases.
//!
//! **Learning** (from construction until the first edge reader): no
//! row is read, so [`GrowingGraph::absorb`] only interns the endpoints,
//! counts vertex weights and appends each edge to a log, as its
//! `(from, to)` node pair packed in one `u64`. A fold adds each pair's
//! reverse and sorts the log, so each run of equal pairs is one
//! directed edge and its length the weight, and merges it into the CSR.
//! The training prefix every strategy learns before its initial
//! allocation is this phase: it costs two hash lookups and one push per
//! transaction, plus the folds.
//!
//! **Patching** (once [`GrowingGraph::rows`] or [`GrowingGraph::graph`]
//! has been called): a reader of one row ([`GrowingGraph::visit`],
//! Pilot's client) may come at any time, so each transaction updates
//! the rows at once:
//!
//! * a weight increment on an edge the CSR holds is patched in place,
//!   found by binary search in the row;
//! * an edge the CSR does not hold goes into the row's overflow block,
//!   kept sorted by neighbour.
//!
//! So absorbing a window costs O(window · log deg), and reading a row
//! costs its degree. Overflow blocks hold a power of two of slots, and a
//! row that fills its block moves to one twice the size. Blocks of one
//! size are carved out of fixed-size pages and recycled through a free
//! list, so the overflow never needs a contiguous buffer of twice its
//! size, and a node pays 8 bytes for its block handle.
//!
//! In both phases an account first seen since the last fold gets the
//! next node id past the last one, and the pending directed entries
//! (two per log pair, one per overflow entry) are folded into the CSR
//! once they reach an eighth of the CSR's entries, checked at the end
//! of each absorb. So they stay below max(one window, CSR / 8) entries
//! and memory stays
//! O(CSR); while the stream keeps adding new edges the CSR grows by a
//! constant factor per fold, so it pays O(log E) folds, not one per
//! window. A fold sorts the newcomers into ascending account order,
//! renames every node id to match, and merges the pending entries into
//! the CSR back to front, in place: the CSR's own buffers grow by the
//! distinct pending entries, and the room left by log pairs that only
//! add weight to an entry the CSR holds is closed by one move. After it
//! the CSR is exactly what
//! [`crate::GraphBuilder::build`] makes of everything absorbed and
//! touched, and [`GrowingGraph::graph`] folds whatever is left before
//! it hands a reader of the whole graph (a miner) that CSR.
//!
//! Each fold is recorded, when the graph has been given an enabled
//! recorder ([`GrowingGraph::set_recorder`]), as a `txgraph.fold` span
//! and in the counters `txgraph.folds` and `txgraph.entries_rewritten`
//! (the CSR entries the folds wrote); with telemetry off each costs one
//! branch per fold.

use std::collections::BTreeMap;
use std::ops::Range;

use mosaic_telemetry::{Counter, Recorder};
use mosaic_types::{ensure, AccountId, Result, Transaction};

use crate::csr::{NodeId, TxGraph};

/// log2 of the slots per page: blocks up to a page share pages; a
/// larger block gets a page of its own.
const PAGE_BITS: u32 = 10;

/// The log or the overflow is folded into the CSR once its directed
/// entries (two per log pair) reach `1 / FOLD_FRACTION` of the CSR's. A
/// fixed constant: either stays below max(one window, CSR / 8) entries,
/// so memory stays O(CSR).
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
fn csr_row(xadj: &[usize], node: usize) -> Range<usize> {
    match xadj.get(node..node + 2) {
        Some(&[start, end]) => start..end,
        _ => 0..0,
    }
}

/// The log's key of directed edge `row → nbr`: keys sort by row, then
/// by neighbour.
fn log_key(row: NodeId, nbr: NodeId) -> u64 {
    (row.index() as u64) << 32 | nbr.index() as u64
}

/// The row of a log key.
fn log_row(key: u64) -> usize {
    (key >> 32) as usize
}

/// The neighbour of a log key.
fn log_nbr(key: u64) -> NodeId {
    NodeId::new(key as u32)
}

/// The fold's telemetry handles: inert unless
/// [`GrowingGraph::set_recorder`] was given an enabled recorder.
#[derive(Debug, Clone, Default)]
struct FoldTelemetry {
    recorder: Recorder,
    folds: Counter,
    rewritten: Counter,
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
/// assert!(g.merged_edge_count() < 100); // the tail is still in the log
/// assert_eq!(g.graph().edge_count(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GrowingGraph {
    /// The CSR as of the last fold. `accounts`, `index` and `vwgt` also
    /// cover the newcomers since, whose ids start at `xadj.len() - 1`;
    /// `total_edge_weight` counts every non-self transaction, log and
    /// overflow included.
    csr: TxGraph,
    /// While learning: each edge absorbed since the last fold, as the
    /// [`log_key`] of `from → to`, in arrival order. Empty once patching.
    log: Vec<u64>,
    /// Whether an edge reader has asked for the rows; from then on
    /// absorb patches them per edge. The overflow is empty until then.
    patching: bool,
    overflow: Overflow,
    /// Self-transfers absorbed.
    self_transfers: u64,
    telemetry: FoldTelemetry,
}

impl GrowingGraph {
    /// An empty graph, learning.
    pub fn new() -> Self {
        GrowingGraph::default()
    }

    /// Records each fold as a `txgraph.fold` span and in the counters
    /// `txgraph.folds` and `txgraph.entries_rewritten` of `recorder`
    /// (one branch per fold when it is disabled, the default).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.telemetry = FoldTelemetry {
            recorder: recorder.clone(),
            folds: recorder.counter("txgraph.folds"),
            rewritten: recorder.counter("txgraph.entries_rewritten"),
        };
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

    /// Edges of the CSR, not counting the log's or the overflow's — a
    /// read that never forces a fold.
    pub fn merged_edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// The node of `account`, which becomes a node of vertex weight 0 if
    /// it is not one yet. Reads no edge, so the graph keeps learning.
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
    /// While learning the edge goes into the log, once patching into its
    /// two rows. Then folds the log or the overflow into the CSR if it
    /// has reached an eighth of it.
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
            if self.patching {
                self.bump(from, to);
                self.bump(to, from);
            } else {
                self.log.push(log_key(from, to));
            }
            self.csr.total_edge_weight += 1;
        }
        if self.pending_entries() * FOLD_FRACTION >= self.csr.adjncy.len().max(1) {
            self.fold();
        }
    }

    /// Directed entries waiting for the next fold: two per logged pair
    /// (a fold adds its reverse), one per overflow entry.
    fn pending_entries(&self) -> usize {
        2 * self.log.len() + self.overflow.entries
    }

    /// The graph, ready for row reads: the first call folds the log and
    /// ends learning, so [`GrowingGraph::visit`] reads a row in
    /// O(deg) and each later absorb patches the rows it touches.
    pub fn rows(&mut self) -> &GrowingGraph {
        self.end_learning();
        self
    }

    /// Folds whatever is left, then returns the whole graph, nodes in
    /// ascending account order. Ends learning, like
    /// [`GrowingGraph::rows`].
    pub fn graph(&mut self) -> &TxGraph {
        self.end_learning();
        if self.overflow.entries > 0 || self.csr.xadj.len() <= self.node_count() {
            self.fold();
        }
        &self.csr
    }

    /// If still learning, folds the log and frees its buffer; absorb
    /// patches rows from now on.
    fn end_learning(&mut self) {
        if self.patching {
            return;
        }
        if !self.log.is_empty() {
            self.fold();
        }
        self.log = Vec::new();
        self.patching = true;
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

    /// Sorts the newcomers into ascending account order, renames every
    /// node id outside the CSR to match, and returns `old_of`, which maps
    /// each new id to its old one, and `remap`, its inverse. The CSR's
    /// own rows and entries keep the old ids; the fold renames them as
    /// it moves them.
    ///
    /// The newcomers, sorted, are merged into the sorted prefix back to
    /// front, which gives a renumbering that keeps the prefix's order.
    fn splice_newcomers(&mut self) -> (Vec<u32>, Vec<u32>) {
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
            let rename = |v: usize| u64::from(remap[v]);
            for key in &mut self.log {
                *key = rename(log_row(*key)) << 32 | rename(log_nbr(*key).index());
            }
        }
        (old_of, remap)
    }

    /// Splices the newcomers into ascending account order and merges the
    /// log or the overflow into the CSR, which then has a row for every
    /// node.
    ///
    /// Both are turned into one descending run of pending `(key,
    /// weight)` pairs, keyed like the log: the runs of equal keys of the
    /// log, sorted once each pair's reverse is added, or the overflow
    /// rows in node order. The buffers grow by their count, a bound on
    /// the new entries, and [`merge_pending`] writes the merged rows
    /// against the grown end; log keys that repeat a CSR entry leave a
    /// gap at the front, which one move closes.
    fn fold(&mut self) {
        let span = self.telemetry.recorder.span("txgraph.fold");
        let (old_of, remap) = self.splice_newcomers();
        let pairs = self.log.len();
        self.log.reserve_exact(pairs);
        self.log.extend_from_within(..);
        for key in &mut self.log[pairs..] {
            *key = key.rotate_left(32);
        }
        self.log.sort_unstable();
        let (csr, log, overflow) = (&mut self.csr, &self.log, &self.overflow);
        let renamed = (old_of.len() > csr.xadj.len() - 1).then_some(&remap[..]);
        let merged = csr.adjncy.len();
        let bound = merged + log.chunk_by(|a, b| a == b).count() + overflow.entries;
        csr.adjncy.reserve_exact(bound - merged);
        csr.adjncy.resize(bound, NodeId::new(0));
        csr.adjwgt.reserve_exact(bound - merged);
        csr.adjwgt.resize(bound, 0);
        let mut xadj = if log.is_empty() {
            let rows = (0..old_of.len()).rev().flat_map(|node| {
                let (nbrs, wgts) = overflow.row(old_of[node] as usize);
                let row = NodeId::new(node as u32);
                nbrs.iter()
                    .zip(wgts)
                    .rev()
                    .map(move |(&nbr, &weight)| (log_key(row, nbr), weight))
            });
            merge_pending(csr, &old_of, renamed, rows)
        } else {
            let runs = log.chunk_by(|a, b| a == b).rev();
            merge_pending(
                csr,
                &old_of,
                renamed,
                runs.map(|run| (run[0], run.len() as u64)),
            )
        };
        let gap = xadj[0];
        if gap > 0 {
            csr.adjncy.copy_within(gap.., 0);
            csr.adjwgt.copy_within(gap.., 0);
            csr.adjncy.truncate(bound - gap);
            csr.adjwgt.truncate(bound - gap);
            for start in &mut xadj {
                *start -= gap;
            }
        }
        csr.xadj = xadj;
        self.log.clear();
        self.overflow = Overflow::default();
        self.telemetry.folds.incr();
        self.telemetry.rewritten.add(self.csr.adjncy.len() as u64);
        span.finish();
    }

    /// Calls `f(neighbour, weight)` for every edge of `node` and returns
    /// their number: the CSR's first, then the overflow's. While the log
    /// holds edges, each neighbour once, ascending, with the log's
    /// weight added — a scan of the whole log, which
    /// [`GrowingGraph::rows`] spares a reader of many rows.
    pub fn visit(&self, node: usize, mut f: impl FnMut(NodeId, u64)) -> usize {
        if self.log.is_empty() {
            return self.visit_rows(node, f);
        }
        let mut row = BTreeMap::new();
        self.visit_rows(node, |nbr, weight| {
            row.insert(nbr, weight);
        });
        for &key in &self.log {
            for key in [key, key.rotate_left(32)] {
                if log_row(key) == node {
                    *row.entry(log_nbr(key)).or_insert(0) += 1;
                }
            }
        }
        for (&nbr, &weight) in &row {
            f(nbr, weight);
        }
        row.len()
    }

    /// [`GrowingGraph::visit`] over the CSR and the overflow only.
    fn visit_rows(&self, node: usize, mut f: impl FnMut(NodeId, u64)) -> usize {
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

    /// The weight of directed edge `row → nbr` in the CSR or the
    /// overflow.
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
    /// overflow together) or out of order, w(a, b) = w(b, a) over the
    /// CSR and overflow, the log (which holds each edge once, for both
    /// directions) names nodes only and no self-loop and is empty once
    /// patching (the overflow until then), the directed weights plus
    /// twice the log's pairs sum to twice the non-self transactions, and
    /// the vertex weights to that plus the self-transfers; else
    /// [`mosaic_types::Error::Inconsistent`]. One pass over the graph
    /// and the log.
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
        let (log, overflow) = (self.log.len(), self.overflow.entries);
        let stray = if self.patching { log } else { overflow };
        ensure!(stray == 0, WHO, "{log} log pairs, {overflow} in overflow");
        let mut directed = 0u64;
        let mut edges = Vec::new();
        for node in 0..n {
            let row = NodeId::new(node as u32);
            edges.clear();
            self.visit_rows(node, |nbr, weight| edges.push((nbr, weight)));
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
        for &key in &self.log {
            let (from, to) = (log_row(key), log_nbr(key).index());
            ensure!(
                from < n && to < n && from != to,
                WHO,
                "log pair {from} – {to}"
            );
        }
        directed += 2 * log as u64;
        let (edge, selfs) = (csr.total_edge_weight, self.self_transfers);
        let vertex: u64 = csr.vwgt.iter().sum();
        ensure!(directed == 2 * edge, WHO, "Σ w {directed}, {edge} edges");
        ensure!(vertex == 2 * edge + selfs, WHO, "Σ vertex w {vertex}");
        Ok(())
    }
}

/// Merges `pending` — `(log key, weight)` pairs in descending key
/// order, each key once — into the CSR's rows, writing back to front
/// from the end of the grown buffers, and returns the new row starts,
/// the first of which is the gap left at the front. New node `v`'s row
/// is old row `old_of[v]` (none for a newcomer), its neighbours renamed
/// by `remap` (unchanged without one); a pending key the row also holds
/// is written once, the weights added.
///
/// The CSR rows keep their order and the renaming keeps each row
/// sorted, so the rows between two that have pending entries move as one
/// block. The write cursor starts the buffers' growth past the read
/// cursor and only ever gains on it by a pending entry, so a write never
/// lands on an entry not yet read.
fn merge_pending(
    csr: &mut TxGraph,
    old_of: &[u32],
    remap: Option<&[u32]>,
    pending: impl Iterator<Item = (u64, u64)>,
) -> Vec<usize> {
    let rename = |nbr: NodeId| remap.map_or(nbr, |remap| NodeId::new(remap[nbr.index()]));
    let mut pending = pending.peekable();
    let (n, rows) = (old_of.len(), csr.xadj.len() - 1);
    let mut xadj = vec![0; n + 1];
    // Old entries [0, read) have not moved yet; each is bound for
    // `write - read` slots further up.
    let (mut read, mut write) = (csr.xadj[rows], csr.adjncy.len());
    xadj[n] = write;
    let mut done = n;
    while let Some(&(key, _)) = pending.peek() {
        let node = log_row(key);
        let shift = write - read;
        place_rows(&mut xadj, &csr.xadj, old_of, node + 1..done, shift);
        // Move the rows above, then merge this one from its end.
        let end = xadj[node + 1] - shift;
        move_block(csr, end..read, shift, remap);
        let old = old_of[node] as usize;
        let start = if old < rows { csr.xadj[old] } else { end };
        (read, write) = (end, end + shift);
        while let Some((key, mut weight)) = pending.next_if(|&(key, _)| log_row(key) == node) {
            let nbr = log_nbr(key);
            while read > start {
                let held = rename(csr.adjncy[read - 1]);
                if held < nbr {
                    break;
                }
                read -= 1;
                if held == nbr {
                    weight += csr.adjwgt[read];
                    break;
                }
                write -= 1;
                csr.adjncy[write] = held;
                csr.adjwgt[write] = csr.adjwgt[read];
            }
            write -= 1;
            csr.adjncy[write] = nbr;
            csr.adjwgt[write] = weight;
        }
        // The row's entries below its first pending one move with the
        // rows below.
        xadj[node] = start + write - read;
        done = node;
    }
    let shift = write - read;
    place_rows(&mut xadj, &csr.xadj, old_of, 0..done, shift);
    move_block(csr, 0..read, shift, remap);
    xadj
}

/// Sets the new starts of rows `nodes`, which have nothing pending and
/// so move up by `shift` as one block: an old row's old start plus
/// `shift`, a newcomer's empty row where the row after it starts.
fn place_rows(
    xadj: &mut [usize],
    old_xadj: &[usize],
    old_of: &[u32],
    nodes: Range<usize>,
    shift: usize,
) {
    let rows = old_xadj.len() - 1;
    for node in nodes.rev() {
        let old = old_of[node] as usize;
        xadj[node] = if old < rows {
            old_xadj[old] + shift
        } else {
            xadj[node + 1]
        };
    }
}

/// Moves CSR entries `block` up by `shift` slots, last first, renaming
/// their neighbours through `remap` if there is one.
fn move_block(csr: &mut TxGraph, block: Range<usize>, shift: usize, remap: Option<&[u32]>) {
    match remap {
        None if shift > 0 => {
            let to = block.start + shift;
            csr.adjncy.copy_within(block.clone(), to);
            csr.adjwgt.copy_within(block, to);
        }
        None => {}
        Some(remap) => {
            for read in block.rev() {
                let nbr = csr.adjncy[read];
                csr.adjncy[read + shift] = NodeId::new(remap[nbr.index()]);
                csr.adjwgt[read + shift] = csr.adjwgt[read];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use mosaic_telemetry::Recorder;
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

    /// Whatever the chunking, after every absorb the log (while
    /// learning) and the overflow (once patching) are empty or their
    /// directed entries under an eighth of the CSR's.
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
        for round in 0..800 {
            if round == 400 {
                graph.rows();
                assert!(graph.log.is_empty() && graph.log.capacity() == 0);
            }
            let len = next(48);
            let chunk: Vec<Transaction> = (0..len)
                .map(|_| {
                    id += 1;
                    tx(id, next(300), next(300))
                })
                .collect();
            graph.absorb(&chunk);
            oracle.add_transactions(&chunk);
            let (log, overflow) = (graph.log.len(), graph.overflow.entries);
            let merged = graph.csr.adjncy.len();
            assert!(round < 400 || log == 0, "{log} log pairs while patching");
            assert!(
                round >= 400 || overflow == 0,
                "{overflow} in overflow while learning"
            );
            let pending = graph.pending_entries();
            assert!(
                pending == 0 || pending * FOLD_FRACTION < merged,
                "{pending} pending entries over {merged} in the CSR"
            );
        }
        graph.check_invariants().unwrap();
        assert_eq!(graph.graph(), &oracle.build());
    }

    /// While learning, a window that mostly repeats edges the CSR holds
    /// goes into the log; its fold adds the repeats to the CSR weights
    /// and leaves a gap for them that it closes, and `visit` reads the
    /// log before the fold. `rows` ends learning: the next window is
    /// patched in place.
    #[test]
    fn the_log_folds_repeats_into_csr_weights() {
        let training: Vec<Transaction> = (0..1000).map(|i| tx(i, i, i + 1)).collect();
        let mut graph = GrowingGraph::new();
        let mut oracle = GraphBuilder::new();
        graph.absorb(&training);
        oracle.add_transactions(&training);
        assert_eq!(graph.csr.adjncy.len(), 2000, "one fold, no gap");

        // 100 repeats and 24 new edges, 248 directed entries: under an
        // eighth of the CSR.
        let mut window: Vec<Transaction> = (0..100).map(|j| tx(j, j % 50, j % 50 + 1)).collect();
        window.extend((0..24).map(|j| tx(j, 3000 + j, 7)));
        graph.absorb(&window);
        oracle.add_transactions(&window);
        assert_eq!(graph.log.len(), 124);
        let mut learning = Vec::new();
        graph.visit(7, |nbr, weight| learning.push((nbr, weight)));
        assert_eq!(learning.len(), 26, "two path neighbours and 24 newcomers");
        let mut read = Vec::new();
        graph
            .clone()
            .rows()
            .visit(7, |nbr, weight| read.push((nbr, weight)));
        assert_eq!(learning, read);
        graph.check_invariants().unwrap();

        let more = [tx(124, 10, 11)];
        graph.absorb(&more);
        oracle.add_transactions(&more);
        assert!(graph.log.is_empty(), "250 entries reach an eighth of 2000");
        assert_eq!(graph.csr.adjncy.len(), 2048);
        assert_eq!(graph.csr.adjwgt.iter().sum::<u64>(), 2 * 1125);
        graph.check_invariants().unwrap();
        assert!(!graph.patching);
        let slot = graph.csr_slot(NodeId::new(10), NodeId::new(11)).unwrap();
        assert_eq!(graph.csr.adjwgt[slot], 4);

        graph.rows();
        let last = [tx(9000, 0, 999)];
        graph.absorb(&last);
        oracle.add_transactions(&last);
        assert_eq!(graph.overflow.entries, 2, "patched, not logged");
        assert_eq!(graph.graph(), &oracle.build());
    }

    /// A log pair with an endpoint out of range or the same at both
    /// ends, or one missing from the weight sums, breaks the invariant.
    #[test]
    fn check_invariants_catches_a_broken_log() {
        let mut graph = GrowingGraph::new();
        graph.absorb(&(0..100).map(|i| tx(i, i, i + 1)).collect::<Vec<_>>());
        graph.absorb(&[tx(100, 0, 50), tx(101, 7, 7)]);
        assert_eq!(graph.log.len(), 1);
        graph.check_invariants().unwrap();

        for broken in [log_key(NodeId::new(3), NodeId::new(3)), 200 << 32 | 1] {
            let mut copy = graph.clone();
            copy.log[0] = broken;
            let err = copy.check_invariants().unwrap_err();
            assert!(is_graph_error(&err), "{err}");
        }
        graph.log.pop();
        assert!(graph.check_invariants().is_err());
    }

    /// An enabled recorder counts each fold and the CSR entries it
    /// wrote, and times it as `txgraph.fold`.
    #[test]
    fn set_recorder_counts_folds_and_rewritten_entries() {
        let recorder = Recorder::enabled();
        let mut graph = GrowingGraph::new();
        graph.set_recorder(&recorder);
        graph.absorb(&(0..10).map(|i| tx(i, i, i + 1)).collect::<Vec<_>>());
        graph.absorb(&[tx(10, 10, 11)]);
        graph.absorb(&[tx(11, 11, 12)]);
        assert_eq!(graph.graph().adjncy.len(), 24);
        let snapshot = recorder.snapshot();
        let counter = |name: &str| snapshot.counters.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(
            counter("txgraph.folds"),
            2,
            "the first absorb's and the third's"
        );
        assert_eq!(counter("txgraph.entries_rewritten"), 20 + 24);
        let fold = snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == "txgraph.fold");
        assert_eq!(fold.unwrap().1.count, 2);
    }
}
