//! A from-scratch multilevel k-way graph partitioner (METIS family).
//!
//! The graph-based baselines of the paper (refs. 9–11 therein) call the
//! METIS library. METIS is not available offline, so this module reimplements
//! the algorithmic family from the Karypis–Kumar papers:
//!
//! 1. **Coarsening** — repeated heavy-edge matching (HEM) collapses the
//!    graph until it is small (`O(k)` nodes);
//! 2. **Initial partitioning** — greedy region growing assigns the
//!    coarsest nodes to `k` parts under a vertex-weight balance target;
//! 3. **Uncoarsening + refinement** — the partition is projected back
//!    level by level, with Fiduccia–Mattheyses-style greedy boundary
//!    moves (positive-gain first, balance-improving on ties) at every
//!    level.
//!
//! The result minimises *edge cut* (a proxy for cross-shard transactions)
//! subject to a balance constraint on vertex weight (a proxy for workload
//! balance) — exactly the objective mix the paper attributes to the
//! Metis-based allocation baselines.
//!
//! # Layout
//!
//! Every phase is one sequential pass — each committed match or move
//! changes what the next decision reads. Every level stores its
//! adjacency in flat CSR lanes (`WorkGraph`: contiguous neighbour ids
//! and `u64` weights), so the scoring loops stream over contiguous
//! memory instead of chasing one `Vec` per node. Level 0 borrows the
//! [`TxGraph`]'s own lanes and copies only the vertex weights (each at
//! least 1); each coarser level owns the lanes its contraction built,
//! and nothing outlives the call. Both halves of a level cost what can
//! change, exactly: the contraction is one O(E) pass that merges each
//! coarse row in place and keeps it in first-touch order
//! (`finish_coarsen`), and refinement re-scores only the nodes that can
//! still move (`refine`): each evaluation that keeps a node in place
//! records by how much its own part out-connects the next best, each
//! neighbour's move charges that margin what the move can cost it, and
//! the node is scored again only once the margin is spent, so a hub's
//! wide margin outlasts most of its neighbours' moves. The per-entry
//! loops take no branch the data decides: the contraction writes every
//! entry the same way, whether its coarse neighbour is new to the row
//! or not; matching keeps the best neighbour as one integer key;
//! refinement sums a node's connectivity per part in a
//! [`DenseHistogram`], reads only the parts its neighbours are in, and
//! charges a mover's neighbours by arithmetic on the two parts' ids
//! rather than by a branch. Rows are in ascending neighbour order
//! only at level 0, the [`TxGraph`]'s own; no phase depends on row
//! order, because every tie is broken by an explicit id or part-weight
//! rule and every score is an integer sum.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mosaic_telemetry::Recorder;
use mosaic_txgraph::{NodeId, TxGraph};
use mosaic_types::hash::FnvHashMap;
use mosaic_types::{AccountShardMap, ShardId};

use crate::dense::DenseHistogram;
use crate::traits::GlobalAllocator;

/// Tuning knobs for [`MetisPartitioner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetisConfig {
    /// Coarsening stops once the graph has at most
    /// `coarsen_per_part × k` nodes (subject to `min_coarse_nodes`).
    pub coarsen_per_part: usize,
    /// Absolute floor on coarsest-graph size.
    pub min_coarse_nodes: usize,
    /// Maximum allowed part weight as a multiple of the ideal `W/k`
    /// (METIS's `ubfactor`; 1.10 allows 10% imbalance).
    pub balance_factor: f64,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// Seed for the (deterministic) matching order shuffle.
    pub seed: u64,
}

impl Default for MetisConfig {
    fn default() -> Self {
        MetisConfig {
            coarsen_per_part: 30,
            min_coarse_nodes: 128,
            balance_factor: 1.10,
            refine_passes: 8,
            seed: 0x6d65_7469, // "meti"
        }
    }
}

/// The multilevel k-way partitioner.
///
/// See the module docs for the algorithm. Fully deterministic for a fixed
/// [`MetisConfig`].
///
/// It takes [`mosaic_telemetry::global`] at construction: each
/// [`GlobalAllocator::allocate`] records a `partition.allocate` span,
/// and each partition that refines adds the nodes its refinement scored,
/// over every level, to the `partition.nodes_refined` counter (one
/// branch each when telemetry is off).
#[derive(Debug, Clone)]
pub struct MetisPartitioner {
    config: MetisConfig,
    recorder: Recorder,
}

impl Default for MetisPartitioner {
    fn default() -> Self {
        MetisPartitioner::new(MetisConfig::default())
    }
}

impl MetisPartitioner {
    /// Creates a partitioner with explicit configuration.
    pub fn new(config: MetisConfig) -> Self {
        MetisPartitioner::with_recorder(config, mosaic_telemetry::global())
    }

    /// Creates a partitioner recording its span into `recorder`.
    pub fn with_recorder(config: MetisConfig, recorder: Recorder) -> Self {
        MetisPartitioner { config, recorder }
    }

    /// The active configuration.
    pub fn config(&self) -> MetisConfig {
        self.config
    }

    /// Partitions `graph` into `k` parts, returning one part id per node
    /// (indexed by [`mosaic_txgraph::NodeId`]).
    ///
    /// Debug builds certify the result: when no account is too heavy for
    /// the balance bound to be promised, no part may be over it
    /// ([`overweight_parts`]). Release builds never check.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn partition(&self, graph: &TxGraph, k: u16) -> Vec<u16> {
        assert!(k > 0, "cannot partition into zero parts");
        let parts = self.partition_work(WorkGraph::from_tx_graph(graph), k);
        let balance_factor = self.config.balance_factor;
        if cfg!(debug_assertions) && balance_is_promised(graph, k, balance_factor) {
            let over = overweight_parts(graph, &parts, k, balance_factor);
            assert_eq!(
                over,
                0,
                "parts over the balance bound on a graph of {} accounts",
                graph.node_count()
            );
        }
        parts
    }

    /// [`Self::partition`] from the level-0 [`WorkGraph`] on.
    fn partition_work(&self, base: WorkGraph<'_>, k: u16) -> Vec<u16> {
        let n = base.len();
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }
        if n <= usize::from(k) {
            // One node per part.
            return (0..n as u16).collect();
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // --- Phase 1: coarsen -------------------------------------------
        let stop_at =
            (self.config.coarsen_per_part * usize::from(k)).max(self.config.min_coarse_nodes);
        let mut levels: Vec<WorkGraph> = vec![base];
        let mut maps: Vec<Vec<u32>> = Vec::new(); // maps[i]: level i node -> level i+1 node
        loop {
            let current = levels.last().expect("at least base level");
            if current.len() <= stop_at {
                break;
            }
            let (coarse, map) = coarsen_once(current, &mut rng);
            // Bail out if matching stopped making progress (e.g. stars).
            if coarse.len() as f64 > current.len() as f64 * 0.97 {
                break;
            }
            levels.push(coarse);
            maps.push(map);
        }

        // --- Phase 2: initial partition on the coarsest level -----------
        let coarsest = levels.last().expect("at least base level");
        let mut parts = initial_partition(coarsest, k);
        let max_allowed = max_part_weight(coarsest.total_weight(), k, self.config.balance_factor);
        rebalance(coarsest, &mut parts, k, max_allowed);
        let mut refined = refine(
            coarsest,
            &mut parts,
            k,
            max_allowed,
            self.config.refine_passes,
        );

        // --- Phase 3: uncoarsen + refine ---------------------------------
        for level_idx in (0..maps.len()).rev() {
            let fine = &levels[level_idx];
            let map = &maps[level_idx];
            let mut fine_parts = vec![0u16; fine.len()];
            for v in 0..fine.len() {
                fine_parts[v] = parts[map[v] as usize];
            }
            parts = fine_parts;
            let max_allowed = max_part_weight(fine.total_weight(), k, self.config.balance_factor);
            rebalance(fine, &mut parts, k, max_allowed);
            refined += refine(fine, &mut parts, k, max_allowed, self.config.refine_passes);
        }
        self.recorder.add("partition.nodes_refined", refined);

        parts
    }
}

impl GlobalAllocator for MetisPartitioner {
    fn name(&self) -> &'static str {
        "Metis"
    }

    fn allocate(&self, graph: &TxGraph, k: u16) -> AccountShardMap {
        let _span = self.recorder.span("partition.allocate");
        let parts = self.partition(graph, k);
        let mut phi = AccountShardMap::new(k);
        for node in graph.nodes() {
            phi.assign(graph.account_of(node), ShardId::new(parts[node.index()]))
                .expect("partitioner produced an in-range part");
        }
        phi
    }
}

/// Internal flat-CSR graph used across coarsening levels: one
/// contiguous neighbour-id lane and one weight lane, row-indexed by
/// `xadj` — the same layout [`TxGraph`] uses, so the scoring loops
/// stream over contiguous `u32`/`u64` arrays at every level. Level 0
/// borrows the [`TxGraph`]'s own row, neighbour and weight lanes; each
/// coarser level owns the lanes its contraction built.
#[derive(Debug, Clone)]
struct WorkGraph<'g> {
    vwgt: Vec<u64>,
    /// Row index: node `v`'s neighbours occupy `xadj[v]..xadj[v + 1]`.
    xadj: Cow<'g, [usize]>,
    /// Neighbour ids; no self-loops. Ascending within each row at level
    /// 0 (the [`TxGraph`]'s order), first-touch order at coarser levels.
    anbr: Cow<'g, [NodeId]>,
    /// Edge weights, parallel to `anbr`.
    awgt: Cow<'g, [u64]>,
}

impl<'g> WorkGraph<'g> {
    fn from_tx_graph(graph: &'g TxGraph) -> Self {
        // Account for isolated/low-activity vertices: weight at least 1
        // so balance constraints stay meaningful. The vertex weights are
        // the only lane level 0 copies.
        WorkGraph {
            vwgt: graph.vwgt().iter().map(|&w| w.max(1)).collect(),
            xadj: Cow::Borrowed(graph.xadj()),
            anbr: Cow::Borrowed(graph.adjncy()),
            awgt: Cow::Borrowed(graph.adjwgt()),
        }
    }

    fn len(&self) -> usize {
        self.vwgt.len()
    }

    fn total_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Iterates `(neighbour, weight)` over `v`'s CSR row.
    #[inline]
    fn nbrs(&self, v: usize) -> impl ExactSizeIterator<Item = (u32, u64)> + '_ {
        let range = self.xadj[v]..self.xadj[v + 1];
        self.anbr[range.clone()]
            .iter()
            .map(|nb| nb.index() as u32)
            .zip(self.awgt[range].iter().copied())
    }

    #[inline]
    fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }
}

fn max_part_weight(total: u64, k: u16, balance_factor: f64) -> u64 {
    let ideal = total as f64 / f64::from(k);
    (ideal * balance_factor).ceil() as u64 + 1
}

/// How many of the `k` parts weigh more than the balance bound every
/// level is refined under: `max = ⌈W/k · balance_factor⌉ + 1`, with `W`
/// the total account weight (each account weighs its node weight, at
/// least 1).
///
/// # Panics
///
/// Panics if `parts` does not hold one part below `k` per node.
pub fn overweight_parts(graph: &TxGraph, parts: &[u16], k: u16, balance_factor: f64) -> usize {
    assert_eq!(parts.len(), graph.node_count(), "one part per node");
    let total: u64 = graph.vwgt().iter().map(|&w| w.max(1)).sum();
    let max = max_part_weight(total, k, balance_factor);
    let mut weight = vec![0u64; usize::from(k)];
    for (&w, &p) in graph.vwgt().iter().zip(parts) {
        weight[usize::from(p)] += w.max(1);
    }
    weight.iter().filter(|&&w| w > max).count()
}

/// `true` if no account weighs more than `max − W/k` (see
/// [`overweight_parts`]), which promises that no part ends over the
/// bound: the finest level's `rebalance` moves a node out of the
/// heaviest overweight part into the lightest part, which weighs at most
/// `W/k`. Then every node of the heavy part qualifies and the lightest
/// part stays within `max`, so each node moves at most once and every
/// overweight part is drained; `refine` moves a node only into a part it
/// fits. A heavier account (a hub can outweigh a whole part's slack)
/// voids the promise.
fn balance_is_promised(graph: &TxGraph, k: u16, balance_factor: f64) -> bool {
    let total: u64 = graph.vwgt().iter().map(|&w| w.max(1)).sum();
    let max = max_part_weight(total, k, balance_factor);
    // w ≤ max − W/k, in integers: w·k + W ≤ max·k.
    let k = u128::from(k);
    graph
        .vwgt()
        .iter()
        .all(|&w| u128::from(w.max(1)) * k + u128::from(total) <= u128::from(max) * k)
}

const UNMATCHED: u32 = u32::MAX;

/// Heaviest currently-unmatched neighbour of `v`; ties to the lower id.
///
/// Every entry is scored with no branch: an eligible neighbour's key is
/// its weight above its complemented id, so the largest key is the
/// heaviest neighbour, ties to the lower id, and an ineligible one's
/// key is 0, below every eligible key (ids stay below `u32::MAX`, the
/// `UNMATCHED` mark).
fn best_unmatched_neighbor(graph: &WorkGraph<'_>, mate: &[u32], v: usize) -> Option<(u32, u64)> {
    let mut best = 0u128;
    for (nb, w) in graph.nbrs(v) {
        let eligible = mate[nb as usize] == UNMATCHED && nb as usize != v;
        let key = (u128::from(w) << 32 | u128::from(!nb)) * u128::from(eligible);
        best = best.max(key);
    }
    (best != 0).then_some((!(best as u32), (best >> 32) as u64))
}

/// One heavy-edge-matching coarsening step. Returns the coarse graph and
/// the fine→coarse node map.
fn coarsen_once(graph: &WorkGraph<'_>, rng: &mut StdRng) -> (WorkGraph<'static>, Vec<u32>) {
    let n = graph.len();
    let mut mate = vec![UNMATCHED; n];

    // Deterministic shuffled visit order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }

    for &v in &order {
        let v = v as usize;
        if mate[v] != UNMATCHED {
            continue;
        }
        let best = best_unmatched_neighbor(graph, &mate, v);
        commit_match(&mut mate, v, best);
    }

    finish_coarsen(graph, &order, &mate)
}

/// Records `v`'s match decision (pair or singleton).
fn commit_match(mate: &mut [u32], v: usize, best: Option<(u32, u64)>) {
    match best {
        Some((nb, _)) => {
            mate[v] = nb;
            mate[nb as usize] = v as u32;
        }
        None => mate[v] = v as u32, // singleton
    }
}

/// Contracts a computed matching into the coarse graph in O(E), in one
/// pass with no sort: each coarse row is built in first-touch order
/// straight into the final lanes, which are sized to the fine entry
/// count (a fine entry yields at most one coarse entry) and zeroed.
/// `pos[d]` is one past the slot of coarse neighbour `d`'s latest entry,
/// so a value past the current row's start means `d` is already in this
/// row. Every entry is written the same way, with no branch on whether
/// `d` is new: its slot is `d`'s old one or the next free one, the
/// neighbour is stored and the weight added there, and the row grows by
/// one only for a new `d`. A zero-weight fine edge adds no entry: a
/// coarse edge exists iff its weight is positive.
///
/// The rows stay in first-touch order because no reader needs them
/// sorted: matching breaks weight ties to the lower id explicitly;
/// `rebalance`, `refine` and region growing sum integer weights; and
/// `refine`'s candidate and the region-growing frontier's argmax are
/// total orders.
fn finish_coarsen(
    graph: &WorkGraph<'_>,
    order: &[u32],
    mate: &[u32],
) -> (WorkGraph<'static>, Vec<u32>) {
    // Assign coarse ids in visit order (pair owner = first visited; a
    // singleton is its own mate).
    let mut coarse_of = vec![UNMATCHED; graph.len()];
    let mut owner: Vec<u32> = Vec::new();
    for &v in order {
        if coarse_of[v as usize] != UNMATCHED {
            continue;
        }
        let c = owner.len() as u32;
        coarse_of[v as usize] = c;
        coarse_of[mate[v as usize] as usize] = c;
        owner.push(v);
    }
    let cn = owner.len();

    let mut vwgt = Vec::with_capacity(cn);
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0usize);
    let mut anbr = vec![0u32; graph.anbr.len()];
    let mut awgt = vec![0u64; graph.anbr.len()];
    let mut len = 0usize;
    let mut pos = vec![0usize; cn];
    for (c, &v) in owner.iter().enumerate() {
        let m = mate[v as usize];
        let row_start = len;
        let mut weight = 0u64;
        for &u in &[v, m][..1 + usize::from(m != v)] {
            weight += graph.vwgt[u as usize];
            for (nb, w) in graph.nbrs(u as usize) {
                let d = coarse_of[nb as usize];
                if d as usize == c || w == 0 {
                    continue;
                }
                let slot = &mut pos[d as usize];
                let fresh = *slot <= row_start;
                let at = if fresh { len } else { *slot - 1 };
                anbr[at] = d;
                awgt[at] += w;
                len += usize::from(fresh);
                *slot = at + 1;
            }
        }
        vwgt.push(weight);
        xadj.push(len);
    }
    anbr.truncate(len);
    awgt.truncate(len);

    (
        WorkGraph {
            vwgt,
            xadj: Cow::Owned(xadj),
            anbr: Cow::Owned(anbr.into_iter().map(NodeId::new).collect()),
            awgt: Cow::Owned(awgt),
        },
        coarse_of,
    )
}

/// Greedy region growing: seed each part with the heaviest unassigned
/// node, grow by maximum connectivity until the part reaches its weight
/// target; leftovers go to the lightest part.
fn initial_partition(graph: &WorkGraph<'_>, k: u16) -> Vec<u16> {
    let n = graph.len();
    const UNASSIGNED: u16 = u16::MAX;
    let mut parts = vec![UNASSIGNED; n];
    let total = graph.total_weight();
    let target = (total as f64 / f64::from(k)).ceil() as u64;
    let mut part_weight = vec![0u64; usize::from(k)];

    // Nodes by descending weight for seed selection.
    let mut by_weight: Vec<u32> = (0..n as u32).collect();
    by_weight.sort_unstable_by_key(|&v| std::cmp::Reverse(graph.vwgt[v as usize]));
    let mut seed_cursor = 0usize;

    for p in 0..k {
        // Find a seed.
        while seed_cursor < n && parts[by_weight[seed_cursor] as usize] != UNASSIGNED {
            seed_cursor += 1;
        }
        if seed_cursor >= n {
            break;
        }
        let seed = by_weight[seed_cursor] as usize;
        parts[seed] = p;
        part_weight[usize::from(p)] += graph.vwgt[seed];

        // Grow by max connectivity-to-region.
        let mut frontier: FnvHashMap<u32, u64> = FnvHashMap::default();
        for (nb, w) in graph.nbrs(seed) {
            if parts[nb as usize] == UNASSIGNED {
                *frontier.entry(nb).or_default() += w;
            }
        }
        while part_weight[usize::from(p)] < target && !frontier.is_empty() {
            // Deterministic argmax: highest connectivity, ties to low id.
            let (&best, _) = frontier
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .expect("frontier nonempty");
            frontier.remove(&best);
            let v = best as usize;
            if parts[v] != UNASSIGNED {
                continue;
            }
            parts[v] = p;
            part_weight[usize::from(p)] += graph.vwgt[v];
            for (nb, w) in graph.nbrs(v) {
                if parts[nb as usize] == UNASSIGNED {
                    *frontier.entry(nb).or_default() += w;
                }
            }
        }
    }

    // Leftovers: lightest part first (LPT-style), heaviest node first.
    for &v in &by_weight {
        let v = v as usize;
        if parts[v] == UNASSIGNED {
            let lightest = (0..usize::from(k))
                .min_by_key(|&p| part_weight[p])
                .expect("k > 0");
            parts[v] = lightest as u16;
            part_weight[lightest] += graph.vwgt[v];
        }
    }

    parts
}

/// Moves nodes out of overweight parts (smallest cut-damage first) until
/// every part fits `max_allowed`, or no improving move exists.
fn rebalance(graph: &WorkGraph<'_>, parts: &mut [u16], k: u16, max_allowed: u64) {
    let mut part_weight = vec![0u64; usize::from(k)];
    for v in 0..graph.len() {
        part_weight[usize::from(parts[v])] += graph.vwgt[v];
    }
    let mut conn = vec![0u64; usize::from(k)];
    // Bounded loop: each iteration moves one node out of the currently
    // heaviest violating part.
    for _ in 0..graph.len() {
        let Some(heavy) = (0..usize::from(k))
            .filter(|&p| part_weight[p] > max_allowed)
            .max_by_key(|&p| part_weight[p])
        else {
            break;
        };
        // Best candidate: node in `heavy` whose move to the lightest part
        // loses the least cut.
        let lightest = (0..usize::from(k))
            .min_by_key(|&p| part_weight[p])
            .expect("k > 0");
        if lightest == heavy {
            break;
        }
        let mut best: Option<(usize, i64)> = None; // (node, gain)
        for v in 0..graph.len() {
            if usize::from(parts[v]) != heavy {
                continue;
            }
            // Only consider moves that strictly improve the (heavy, light)
            // pair — guarantees termination (Σ weight² decreases) and
            // prevents a dominant hub node from thrashing between parts.
            if part_weight[lightest] + graph.vwgt[v] >= part_weight[heavy] {
                continue;
            }
            conn.iter_mut().for_each(|c| *c = 0);
            for (nb, w) in graph.nbrs(v) {
                conn[usize::from(parts[nb as usize])] += w;
            }
            let gain = conn[lightest] as i64 - conn[heavy] as i64;
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((v, gain));
            }
        }
        match best {
            Some((v, _)) => {
                part_weight[heavy] -= graph.vwgt[v];
                part_weight[lightest] += graph.vwgt[v];
                parts[v] = lightest as u16;
            }
            None => break,
        }
    }
}

/// FM-style greedy boundary refinement: repeatedly move each node to the
/// part it is most connected to (ties to the lighter part), when the
/// move has positive cut gain (or zero gain but improves balance) and
/// respects the balance bound. Returns the number of nodes it scored.
///
/// The first pass moves most of what will move and the passes after it
/// a shrinking handful, so a node is re-scored only while it can still
/// move — exactly, not heuristically. An evaluation that finds the
/// node's own part strictly better connected than every other part
/// records its *margin*, `conn[cur] − max_{p ≠ cur} conn[p] > 0`. While
/// the margin is positive every move open to the node has negative gain,
/// which is refused whatever the part weights are, so other nodes' moves
/// can change the verdict only through its `conn`. That depends only on
/// its neighbours' parts (its own part stays while it does not move).
/// When a neighbour joined by an edge of weight `w` moves from part `a`
/// to part `b`, `conn[a]` falls by `w` and `conn[b]` rises by `w`, so
/// the margin falls by at most `2w` if the node sits in `a`, by nothing
/// if it sits in `b`, and by at most `w` otherwise; the stored margin
/// is lowered by exactly that, never below 0, and so never exceeds the
/// true one. Re-scoring a node with a positive stored margin would
/// therefore return "no move": skipping it changes no move, no per-pass
/// move count and no pass count. A hub's wide margin absorbs many of
/// its neighbours' moves before it is scored again. A move charges the
/// mover's neighbours — its own row, since the graph is symmetric.
fn refine(
    graph: &WorkGraph<'_>,
    parts: &mut [u16],
    k: u16,
    max_allowed: u64,
    passes: usize,
) -> u64 {
    let n = graph.len();
    let kk = usize::from(k);
    let mut part_weight = vec![0u64; kk];
    for v in 0..n {
        part_weight[usize::from(parts[v])] += graph.vwgt[v];
    }

    let mut conn = DenseHistogram::new(kk);
    let mut margin = vec![0u64; n];
    let mut scored = 0u64;
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            if margin[v] > 0 || graph.degree(v) == 0 {
                continue;
            }
            scored += 1;
            let cur = usize::from(parts[v]);
            conn.add_all(
                graph
                    .nbrs(v)
                    .map(|(nb, w)| (u32::from(parts[nb as usize]), w)),
            );
            // Candidate: the part with max connectivity (≠ cur), ties to
            // the lighter part, then to the lower part id.
            let mut own = 0u64;
            let mut best: Option<(usize, u64)> = None;
            conn.drain(|p, c| {
                let p = p as usize;
                if p == cur {
                    own = c;
                } else if best.is_none_or(|(bp, bc)| {
                    c > bc || (c == bc && (part_weight[p], p) < (part_weight[bp], bp))
                }) {
                    best = Some((p, c));
                }
            });
            let (best_p, best_conn) = best.unwrap_or((cur, 0));
            // `best_conn` is the largest other connectivity.
            if own > best_conn {
                margin[v] = own - best_conn;
                continue;
            }
            if best_p == cur {
                continue;
            }
            let gain = best_conn as i64 - own as i64;
            let fits = part_weight[best_p] + graph.vwgt[v] <= max_allowed;
            let balance_improves = part_weight[best_p] + graph.vwgt[v] < part_weight[cur];
            if fits && (gain > 0 || (gain == 0 && balance_improves)) {
                part_weight[cur] -= graph.vwgt[v];
                part_weight[best_p] += graph.vwgt[v];
                parts[v] = best_p as u16;
                moved += 1;
                let (from, to) = (cur as u16, best_p as u16);
                for (nb, w) in graph.nbrs(v) {
                    let p = parts[nb as usize];
                    let loss = w * (1 + u64::from(p == from) - u64::from(p == to));
                    margin[nb as usize] = margin[nb as usize].saturating_sub(loss);
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_txgraph::{analysis, GraphBuilder};
    use mosaic_types::hash::FnvHasher;
    use mosaic_types::AccountId;
    use proptest::prelude::*;
    use std::hash::Hasher;

    fn acct(i: u64) -> AccountId {
        AccountId::new(i)
    }

    /// `c` cliques of `size` nodes with heavy internal edges, chained by
    /// single light edges.
    fn clique_chain(c: usize, size: usize) -> TxGraph {
        let mut b = GraphBuilder::new();
        for clique in 0..c {
            let base = (clique * size) as u64;
            for i in 0..size as u64 {
                for j in (i + 1)..size as u64 {
                    b.add_edge(acct(base + i), acct(base + j), 20);
                }
            }
            if clique + 1 < c {
                b.add_edge(acct(base), acct(base + size as u64), 1);
            }
        }
        b.build()
    }

    #[test]
    fn separates_two_communities() {
        let g = clique_chain(2, 8);
        let parts = MetisPartitioner::default().partition(&g, 2);
        assert_eq!(parts.len(), 16);
        // The single bridge edge should be the whole cut.
        assert_eq!(analysis::edge_cut(&g, &parts), 1);
        assert!(analysis::imbalance(&g, &parts, 2) <= 1.15);
    }

    #[test]
    fn four_cliques_four_parts() {
        let g = clique_chain(4, 10);
        let parts = MetisPartitioner::default().partition(&g, 4);
        // Ideal cut is 3 (the chain bridges); allow small slack.
        assert!(analysis::edge_cut(&g, &parts) <= 6);
        assert!(analysis::imbalance(&g, &parts, 4) <= 1.2);
    }

    #[test]
    fn trivial_cases() {
        let g = clique_chain(1, 5);
        assert_eq!(MetisPartitioner::default().partition(&g, 1), vec![0; 5]);
        let empty = TxGraph::from_weighted_edges([], []);
        assert!(MetisPartitioner::default().partition(&empty, 4).is_empty());
        // n <= k: one node per part.
        let tiny = TxGraph::from_weighted_edges([(acct(1), 1), (acct(2), 1)], []);
        let parts = MetisPartitioner::default().partition(&tiny, 8);
        assert_eq!(parts, vec![0, 1]);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = clique_chain(3, 12);
        let p = MetisPartitioner::default();
        assert_eq!(p.partition(&g, 4), p.partition(&g, 4));
        // A different seed may differ (not asserted), but must be valid.
        let other = MetisPartitioner::new(MetisConfig {
            seed: 99,
            ..MetisConfig::default()
        });
        let parts = other.partition(&g, 4);
        assert!(parts.iter().all(|&p| p < 4));
    }

    #[test]
    fn beats_random_on_community_graph() {
        // Random-ish community graph: 8 communities of 40 nodes; internal
        // edges dense, external sparse.
        let mut rng = StdRng::seed_from_u64(42);
        let mut b = GraphBuilder::new();
        let communities = 8usize;
        let size = 40u64;
        // Fully qualified: both the rand and proptest preludes export an
        // `Rng` trait, and the glob imports would make method calls
        // ambiguous.
        for c in 0..communities as u64 {
            let base = c * size;
            for _ in 0..400 {
                let i = rand::Rng::gen_range(&mut rng, 0..size);
                let j = rand::Rng::gen_range(&mut rng, 0..size);
                if i != j {
                    b.add_edge(acct(base + i), acct(base + j), 1);
                }
            }
        }
        for _ in 0..150 {
            let a = rand::Rng::gen_range(&mut rng, 0..communities as u64 * size);
            let bnode = rand::Rng::gen_range(&mut rng, 0..communities as u64 * size);
            if a != bnode {
                b.add_edge(acct(a), acct(bnode), 1);
            }
        }
        let g = b.build();
        let parts = MetisPartitioner::default().partition(&g, 8);
        let metis_cut = analysis::edge_cut(&g, &parts);

        // Random baseline: hash of node index.
        let random_parts: Vec<u16> = (0..g.node_count()).map(|i| (i % 8) as u16).collect();
        let random_cut = analysis::edge_cut(&g, &random_parts);
        assert!(
            (metis_cut as f64) < 0.5 * random_cut as f64,
            "metis cut {metis_cut} vs random {random_cut}"
        );
        assert!(analysis::imbalance(&g, &parts, 8) <= 1.25);
    }

    #[test]
    fn allocate_assigns_every_graph_account() {
        let g = clique_chain(2, 6);
        let phi = MetisPartitioner::default().allocate(&g, 2);
        assert_eq!(phi.assigned_len(), g.node_count());
        for a in g.accounts() {
            assert!(phi.is_assigned(*a));
        }
    }

    /// One `partition.allocate` span per allocation, whatever the graph.
    #[test]
    fn telemetry_counts_every_allocation() {
        let recorder = mosaic_telemetry::Recorder::enabled();
        let metis = MetisPartitioner::with_recorder(MetisConfig::default(), recorder.clone());
        metis.allocate(&clique_chain(2, 6), 2);
        metis.allocate(&TxGraph::default(), 4);
        metis.allocate(&clique_chain(2, 6), 1);
        metis.partition(&clique_chain(2, 6), 2);
        let spans: Vec<_> = recorder
            .snapshot()
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count))
            .collect();
        assert_eq!(spans, [("partition.allocate".to_string(), 3)]);
    }

    /// Where no account is too heavy, the bound is promised and held; a
    /// planted overload (one part emptied into another) is counted; a
    /// hub heavier than a part's slack voids the promise.
    #[test]
    fn balance_certificate_counts_parts_over_the_bound() {
        let g = clique_chain(8, 10);
        let bf = MetisConfig::default().balance_factor;
        assert!(balance_is_promised(&g, 2, bf));
        let mut parts = MetisPartitioner::default().partition(&g, 2);
        assert_eq!(overweight_parts(&g, &parts, 2, bf), 0);
        parts.iter_mut().for_each(|p| *p = 0);
        assert_eq!(overweight_parts(&g, &parts, 2, bf), 1);

        let mut b = GraphBuilder::new();
        for i in 1..500u64 {
            b.add_edge(acct(0), acct(i), 1);
        }
        assert!(!balance_is_promised(&b.build(), 4, bf));
    }

    #[test]
    fn handles_star_graph_without_stalling() {
        // Stars defeat heavy-edge matching (everything wants the hub);
        // the partitioner must still terminate and produce a valid result.
        let mut b = GraphBuilder::new();
        for i in 1..500u64 {
            b.add_edge(acct(0), acct(i), 1);
        }
        let g = b.build();
        let parts = MetisPartitioner::default().partition(&g, 4);
        assert_eq!(parts.len(), 500);
        assert!(parts.iter().all(|&p| p < 4));
        // The hub alone weighs ~half the graph, so imbalance 2.0 is the
        // theoretical floor; require the partitioner to get close to it by
        // not piling leaves onto the hub's part.
        let weights = analysis::part_weights(&g, &parts, 4);
        let hub_part = parts[g.node_of(acct(0)).unwrap().index()];
        let hub_weight = g.node_weight(g.node_of(acct(0)).unwrap());
        assert!(
            weights[usize::from(hub_part)] <= hub_weight + 60,
            "hub part overloaded: {weights:?}"
        );
    }

    /// 4000 accounts in 40 communities, a quarter of them also trading
    /// with one of 8 hubs: deep enough that k = 2 coarsens six levels
    /// (4000 → 109 nodes), where the quick golden only reaches a few.
    fn hub_graph() -> TxGraph {
        let mut rng = StdRng::seed_from_u64(0x6465_6570);
        let mut b = GraphBuilder::new();
        let (n, hubs, communities) = (4000u64, 8u64, 40u64);
        for v in hubs..n {
            let community = v % communities;
            for _ in 0..3 {
                let peer =
                    rand::Rng::gen_range(&mut rng, 0..n / communities) * communities + community;
                if peer != v {
                    b.add_edge(acct(v), acct(peer), rand::Rng::gen_range(&mut rng, 1..4));
                }
            }
            if rand::Rng::gen_range(&mut rng, 0..4u64) == 0 {
                b.add_edge(acct(v), acct(rand::Rng::gen_range(&mut rng, 0..hubs)), 1);
            }
        }
        b.build()
    }

    /// FNV-1a over the little-endian part ids.
    fn digest(parts: &[u16]) -> u64 {
        let mut h = FnvHasher::default();
        for &p in parts {
            h.write(&p.to_le_bytes());
        }
        h.finish()
    }

    /// The partitions of [`hub_graph`] as the sorting contraction and
    /// the re-score-every-node refinement produced them.
    #[test]
    fn partitions_match_pinned_parent_digests() {
        let g = hub_graph();
        for (k, pinned) in [
            (2, 0xdef2_f333_c212_2954),
            (16, 0xfbba_e07b_8451_5ca0),
            (48, 0x1e3a_01b9_267f_9516),
        ] {
            let parts = MetisPartitioner::default().partition(&g, k);
            assert_eq!(digest(&parts), pinned, "k = {k}");
        }
    }

    /// Accumulates `v`'s connectivity-per-part vector into `conn`.
    fn fill_conn(graph: &WorkGraph<'_>, parts: &[u16], v: usize, conn: &mut [u64]) {
        conn.iter_mut().for_each(|c| *c = 0);
        for (nb, w) in graph.nbrs(v) {
            conn[usize::from(parts[nb as usize])] += w;
        }
    }

    fn part_weights(graph: &WorkGraph, parts: &[u16], k: u16) -> Vec<u64> {
        let mut weights = vec![0u64; usize::from(k)];
        for (v, &p) in parts.iter().enumerate() {
            weights[usize::from(p)] += graph.vwgt[v];
        }
        weights
    }

    /// What [`refine`] must equal: the loop it replaced, which
    /// re-scores every node in every pass. Returns its final part
    /// weights, the passes it ran and whether the balance bound ever
    /// refused a move it wanted, so tests can tell which regime they
    /// hit.
    fn reference_refine(
        graph: &WorkGraph,
        parts: &mut [u16],
        k: u16,
        max_allowed: u64,
        passes: usize,
    ) -> (Vec<u64>, usize, bool) {
        let mut part_weight = part_weights(graph, parts, k);
        let mut conn = vec![0u64; usize::from(k)];
        let (mut passes_run, mut bound_refused) = (0, false);
        for _ in 0..passes {
            passes_run += 1;
            let mut moved = 0usize;
            for v in 0..graph.len() {
                if graph.degree(v) == 0 {
                    continue;
                }
                fill_conn(graph, parts, v, &mut conn);
                let cur = usize::from(parts[v]);
                let mut best_p = cur;
                let mut best_conn = 0u64;
                for p in 0..usize::from(k) {
                    if p == cur {
                        continue;
                    }
                    if conn[p] > best_conn
                        || (conn[p] == best_conn
                            && best_p != cur
                            && part_weight[p] < part_weight[best_p])
                    {
                        best_p = p;
                        best_conn = conn[p];
                    }
                }
                if best_p == cur {
                    continue;
                }
                let gain = best_conn as i64 - conn[cur] as i64;
                let fits = part_weight[best_p] + graph.vwgt[v] <= max_allowed;
                let balance_improves = part_weight[best_p] + graph.vwgt[v] < part_weight[cur];
                let wants = gain > 0 || (gain == 0 && balance_improves);
                if fits && wants {
                    part_weight[cur] -= graph.vwgt[v];
                    part_weight[best_p] += graph.vwgt[v];
                    parts[v] = best_p as u16;
                    moved += 1;
                } else if wants {
                    bound_refused = true;
                }
            }
            if moved == 0 {
                break;
            }
        }
        (part_weight, passes_run, bound_refused)
    }

    /// Runs [`refine`] and [`reference_refine`] from the same parts and
    /// asserts equal parts and part weights; returns the reference's
    /// parts, passes run and bound verdict.
    fn refine_against_reference(
        graph: &WorkGraph,
        parts: &[u16],
        k: u16,
        max_allowed: u64,
        passes: usize,
    ) -> (Vec<u16>, usize, bool) {
        let mut expected = parts.to_vec();
        let (weights, passes_run, bound_refused) =
            reference_refine(graph, &mut expected, k, max_allowed, passes);
        let mut got = parts.to_vec();
        refine(graph, &mut got, k, max_allowed, passes);
        assert_eq!(got, expected);
        assert_eq!(part_weights(graph, &got, k), weights);
        (expected, passes_run, bound_refused)
    }

    /// The three regimes by construction — fixed point under a loose
    /// bound, the balance bound refusing moves, `passes` cutting the
    /// refinement short — each checked to be the regime it claims.
    #[test]
    fn refine_skip_matches_reference_in_every_regime() {
        let hub = hub_graph();
        let g = WorkGraph::from_tx_graph(&hub);
        let k = 4;
        let mut rng = StdRng::seed_from_u64(7);
        let parts: Vec<u16> = (0..g.len())
            .map(|_| rand::Rng::gen_range(&mut rng, 0..k))
            .collect();
        let total = g.total_weight();

        let (free, free_passes, free_refused) = refine_against_reference(&g, &parts, k, total, 30);
        assert!(!free_refused && free_passes < 30, "{free_passes}");

        let tight = max_part_weight(total, k, 1.01);
        let (bound, _, bound_refused) = refine_against_reference(&g, &parts, k, tight, 30);
        assert!(bound_refused);
        assert_ne!(bound, free);

        let (cut, cut_passes, _) = refine_against_reference(&g, &parts, k, total, 2);
        assert_eq!(cut_passes, 2);
        assert_ne!(cut, free, "two passes must not reach the fixed point");
    }

    /// A hub's margin outlasts one neighbour's move. Hub `h` (node 0)
    /// and its six leaves sit in part 0; `y` and `z` in part 1. Pass 1
    /// (9 evaluations): `h` keeps part 0 with margin 6; leaf 1, pulled
    /// by `y`, moves to part 1, which charges `h` 2 of its 6. Pass 2
    /// scores leaf 1 alone and moves nothing, 10 evaluations in all; a
    /// rule that re-scored every neighbour of a mover would score `h`
    /// again, 11 in all.
    #[test]
    fn a_hubs_margin_outlasts_a_neighbours_move() {
        let (h, y, z) = (0u64, 7, 8);
        let mut b = GraphBuilder::new();
        for leaf in 1..=6 {
            b.add_edge(acct(h), acct(leaf), 1);
        }
        b.add_edge(acct(1), acct(y), 5);
        b.add_edge(acct(y), acct(z), 10);
        let tx_graph = b.build();
        let g = WorkGraph::from_tx_graph(&tx_graph);
        let parts: Vec<u16> = (0..9).map(|v| u16::from(v >= 7)).collect();
        let total = g.total_weight();
        let mut expected = parts.clone();
        let (_, passes_run, _) = reference_refine(&g, &mut expected, 2, total, 8);
        assert_eq!(passes_run, 2);
        assert_eq!(expected[1], 1, "leaf 1 follows y");
        let mut got = parts;
        assert_eq!(refine(&g, &mut got, 2, total, 8), 10);
        assert_eq!(got, expected);
    }

    /// `partition.nodes_refined` adds, per partition, the nodes every
    /// level's refinement scored; a partition that does not refine adds
    /// nothing. [`clique_chain`]`(2, 8)` is too small to coarsen, so the
    /// count is one `refine` call's.
    #[test]
    fn telemetry_counts_nodes_refined() {
        let recorder = mosaic_telemetry::Recorder::enabled();
        let metis = MetisPartitioner::with_recorder(MetisConfig::default(), recorder.clone());
        let tx_graph = clique_chain(2, 8);
        let g = WorkGraph::from_tx_graph(&tx_graph);
        let config = MetisConfig::default();
        let max_allowed = max_part_weight(g.total_weight(), 2, config.balance_factor);
        let mut parts = initial_partition(&g, 2);
        rebalance(&g, &mut parts, 2, max_allowed);
        let scored = refine(&g, &mut parts, 2, max_allowed, config.refine_passes);
        assert!(scored >= g.len() as u64);

        assert_eq!(metis.partition(&tx_graph, 2), parts);
        metis.partition(&tx_graph, 1);
        metis.partition(&TxGraph::default(), 2);
        let counted = || recorder.counter("partition.nodes_refined").value();
        assert_eq!(counted(), scored);
        metis.partition(&tx_graph, 2);
        assert_eq!(counted(), 2 * scored);
    }

    /// Four hubs, each trading with the members of two of five
    /// communities of twelve (`spokes`: hub, which of its two, member,
    /// weight), plus edges inside the communities (`intra`: community,
    /// two members, weight): a hub's many neighbours share few parts.
    fn hub_heavy_graph(
        spokes: &[(u64, u64, u64, u64)],
        intra: &[(u64, u64, u64, u64)],
    ) -> WorkGraph<'static> {
        let member = |c: u64, i: u64| c * 12 + i;
        let mut edges: Vec<(u64, u64, u64)> = spokes
            .iter()
            .map(|&(h, side, i, w)| (1000 + h, member((h + side) % 5, i), w))
            .collect();
        edges.extend(
            intra
                .iter()
                .map(|&(c, i, j, w)| (member(c, i), member(c, j), w)),
        );
        work_graph(&edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Node for node, on arbitrary graphs and initial parts, balance
        /// bounds (from "the bound bites" to "everything fits") and pass
        /// limits.
        #[test]
        fn prop_refine_equals_every_node_reference(
            edges in proptest::collection::vec((0u64..40, 0u64..40, 1u64..4), 1..300),
            part_keys in proptest::collection::vec(any::<u16>(), 40),
            k in 2u16..6,
            bound_pct in 50u64..400,
            passes in 0usize..=8,
        ) {
            let mut b = GraphBuilder::new();
            for (x, y, w) in edges {
                b.add_edge(acct(x), acct(y), w);
            }
            let g = b.build();
            let g = WorkGraph::from_tx_graph(&g);
            let parts: Vec<u16> = part_keys[..g.len()].iter().map(|p| p % k).collect();
            let max_allowed = g.total_weight() * bound_pct / (100 * u64::from(k));
            refine_against_reference(&g, &parts, k, max_allowed, passes);
        }

        /// [`prop_refine_equals_every_node_reference`] on
        /// [`hub_heavy_graph`]s, where a hub's margin absorbs many of its
        /// neighbours' moves, for k up to 16.
        #[test]
        fn prop_refine_equals_every_node_reference_on_hub_heavy_graphs(
            spokes in proptest::collection::vec((0u64..4, 0u64..2, 0u64..12, 1u64..6), 40..200),
            intra in proptest::collection::vec((0u64..5, 0u64..12, 0u64..12, 1u64..4), 0..150),
            part_keys in proptest::collection::vec(any::<u16>(), 70),
            k_idx in 0usize..3,
            bound_pct in 50u64..400,
            passes in 0usize..=8,
        ) {
            let g = hub_heavy_graph(&spokes, &intra);
            let k = [2u16, 4, 16][k_idx];
            let parts: Vec<u16> = part_keys[..g.len()].iter().map(|p| p % k).collect();
            let max_allowed = g.total_weight() * bound_pct / (100 * u64::from(k));
            refine_against_reference(&g, &parts, k, max_allowed, passes);
        }
    }

    /// The contraction by definition, written the slow obvious way:
    /// coarse edge `(a, b)` weighs the sum of the fine edges between the
    /// two groups, rows in ascending neighbour id, no self-loops.
    fn reference_contraction(fine: &WorkGraph<'_>, coarse_of: &[u32]) -> WorkGraph<'static> {
        let cn = coarse_of.iter().max().map_or(0, |&c| c as usize + 1);
        let mut vwgt = vec![0u64; cn];
        let mut rows: Vec<std::collections::BTreeMap<u32, u64>> = vec![Default::default(); cn];
        for v in 0..fine.len() {
            let c = coarse_of[v];
            vwgt[c as usize] += fine.vwgt[v];
            for (nb, w) in fine.nbrs(v) {
                let cnb = coarse_of[nb as usize];
                if cnb != c {
                    *rows[c as usize].entry(cnb).or_default() += w;
                }
            }
        }
        let (mut xadj, mut anbr, mut awgt) = (vec![0], Vec::new(), Vec::new());
        for row in rows {
            anbr.extend(row.keys().map(|&nb| NodeId::new(nb)));
            awgt.extend(row.values());
            xadj.push(anbr.len());
        }
        WorkGraph {
            vwgt,
            xadj: Cow::Owned(xadj),
            anbr: Cow::Owned(anbr),
            awgt: Cow::Owned(awgt),
        }
    }

    /// Row `v` as a `(neighbour, weight)` list sorted by neighbour.
    fn sorted_row(graph: &WorkGraph, v: usize) -> Vec<(u32, u64)> {
        let mut row: Vec<(u32, u64)> = graph.nbrs(v).collect();
        row.sort_unstable();
        row
    }

    /// A small arbitrary graph as a [`WorkGraph`] that owns its lanes.
    fn work_graph(edges: &[(u64, u64, u64)]) -> WorkGraph<'static> {
        let mut b = GraphBuilder::new();
        for &(x, y, w) in edges {
            b.add_edge(acct(x), acct(y), w);
        }
        let tx_graph = b.build();
        let g = WorkGraph::from_tx_graph(&tx_graph);
        WorkGraph {
            vwgt: g.vwgt,
            xadj: Cow::Owned(g.xadj.into_owned()),
            anbr: Cow::Owned(g.anbr.into_owned()),
            awgt: Cow::Owned(g.awgt.into_owned()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// One coarsening step on arbitrary graphs: the fine→coarse map
        /// is a matching (groups of one node, or of two adjacent ones,
        /// densely numbered) and the contraction equals the ordered-map
        /// contraction row for row, up to the order within each row.
        #[test]
        fn prop_contraction_equals_ordered_map_reference(
            edges in proptest::collection::vec((0u64..80, 0u64..80, 1u64..6), 1..400),
            seed in any::<u64>(),
        ) {
            let fine = work_graph(&edges);
            let (coarse, coarse_of) = coarsen_once(&fine, &mut StdRng::seed_from_u64(seed));

            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); coarse.len()];
            for (v, &c) in coarse_of.iter().enumerate() {
                groups[c as usize].push(v);
            }
            for group in &groups {
                match group[..] {
                    [_] => {}
                    [a, b] => prop_assert!(fine.nbrs(a).any(|(nb, _)| nb as usize == b)),
                    _ => prop_assert!(false, "group of {} nodes", group.len()),
                }
            }

            let expected = reference_contraction(&fine, &coarse_of);
            prop_assert_eq!(&coarse.vwgt, &expected.vwgt);
            prop_assert_eq!(&coarse.xadj, &expected.xadj);
            for c in 0..coarse.len() {
                prop_assert_eq!(sorted_row(&coarse, c), sorted_row(&expected, c), "row {}", c);
            }
        }

        /// No phase reads row order: shuffling every row of the level-0
        /// graph, neighbour and weight lanes in unison, leaves the
        /// partition unchanged.
        #[test]
        fn prop_row_order_never_changes_the_partition(
            edges in proptest::collection::vec((0u64..300, 0u64..300, 1u64..6), 1..1500),
            k in 2u16..9,
            seed in any::<u64>(),
        ) {
            let graph = work_graph(&edges);
            let mut shuffled = graph.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            for v in 0..shuffled.len() {
                let (start, end) = (shuffled.xadj[v], shuffled.xadj[v + 1]);
                for i in (start + 1..end).rev() {
                    let j = rand::Rng::gen_range(&mut rng, start..=i);
                    shuffled.anbr.to_mut().swap(i, j);
                    shuffled.awgt.to_mut().swap(i, j);
                }
            }
            let partitioner = MetisPartitioner::default();
            prop_assert_eq!(
                partitioner.partition_work(shuffled, k),
                partitioner.partition_work(graph, k)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Validity on arbitrary small graphs: right length, in-range
        /// parts, and bounded imbalance whenever a balanced solution is
        /// feasible (max vertex weight not dominating).
        #[test]
        fn prop_partition_validity(
            edges in proptest::collection::vec((0u64..60, 0u64..60, 1u64..5), 1..200),
            k in 2u16..6,
        ) {
            let mut b = GraphBuilder::new();
            for (x, y, w) in edges {
                b.add_edge(acct(x), acct(y), w);
            }
            let g = b.build();
            let parts = MetisPartitioner::default().partition(&g, k);
            prop_assert_eq!(parts.len(), g.node_count());
            prop_assert!(parts.iter().all(|&p| p < k));
        }
    }
}
