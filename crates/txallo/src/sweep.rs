//! The shared greedy-sweep kernels of both TxAllo variants.
//!
//! G-TxAllo's community detection and account-level refinement and
//! A-TxAllo's window update are all the same shape: visit accounts in
//! one fixed order ([`busiest_first`]), score each account's
//! connectivity to its candidate targets, commit the best admissible
//! move, repeat until a fixed point. Every committed move shifts the
//! loads and labels later decisions read, so each kernel is one
//! sequential sweep. What keeps it fast is that the per-account
//! histogram lives in dense reused scratch ([`DenseHistogram`]), where a
//! neighbour entry costs one store and one add with no branch on whether
//! its community is new, and community detection decides while the
//! histogram drains, with no copy of it; and that both kernels score
//! only what can change a decision, each by an exact rule:
//!
//! - community detection parks an account the cap turned away on each
//!   community that turned it away, until that community loses a member
//!   or a neighbour moves ([`detect_communities`]);
//! - refinement skips a *glued* account, one whose shard strictly
//!   out-connects every other shard and is not overloaded, until a
//!   neighbour moves ([`objective_refine`]);
//! - refinement scores an account whose shard is not overloaded only
//!   against the shards that out-connect it, the only ones a move to
//!   can raise the objective (the candidate rule,
//!   [`commit_objective_move`]). Those are shards it has a neighbour
//!   in, so an account with fewer neighbours than shards reads only its
//!   neighbours' shards ([`ShardConn`]); an overloaded account is scored
//!   against every shard.

use std::cmp::Reverse;

use mosaic_partition::DenseHistogram;
use mosaic_txgraph::{NodeId, TxGraph};

use crate::objective::AlloObjective;

/// The visit order both kernels share: busiest accounts first (node
/// weight, at least 1), ties to the lower node id.
pub(crate) fn busiest_first(graph: &TxGraph) -> Vec<u32> {
    let vwgt = graph.vwgt();
    let mut order: Vec<u32> = (0..vwgt.len() as u32).collect();
    order.sort_unstable_by_key(|&v| (Reverse(vwgt[v as usize].max(1)), v));
    order
}

/// One account's connectivity per shard, in reused scratch: `conn` over
/// all `k` shards, 0 except at the shards the account has a neighbour
/// in. While it has at most `k` neighbours, `reached` lists their
/// shards (repeats and all); past that it is cut off at `k + 1` entries
/// and [`ShardConn::shards`] is every shard.
struct ShardConn {
    conn: Vec<f64>,
    reached: Vec<usize>,
    every: Vec<usize>,
}

impl ShardConn {
    fn new(shards: usize) -> Self {
        ShardConn {
            conn: vec![0.0; shards],
            reached: Vec::with_capacity(shards + 1),
            every: (0..shards).collect(),
        }
    }

    /// `true` while `reached` lists every shard a neighbour is in.
    fn is_sparse(&self) -> bool {
        self.reached.len() <= self.conn.len()
    }

    /// The shards outside which `conn` is 0: those the account's
    /// neighbours are in, or every shard for a well-connected account.
    fn shards(&self) -> &[usize] {
        if self.is_sparse() {
            &self.reached
        } else {
            &self.every
        }
    }

    /// Accumulates `v`'s connectivity per shard, clearing the last
    /// account's.
    fn fill(&mut self, graph: &TxGraph, parts: &[u16], v: usize) {
        if self.is_sparse() {
            for &p in &self.reached {
                self.conn[p] = 0.0;
            }
        } else {
            self.conn.fill(0.0);
        }
        self.reached.clear();
        for (nb, w) in graph.neighbors(NodeId::new(v as u32)) {
            let p = usize::from(parts[nb.index()]);
            self.conn[p] += w as f64;
            if self.is_sparse() {
                self.reached.push(p);
            }
        }
    }

    /// `true` if shard `cur` strictly out-connects every other shard
    /// (with `k ≥ 2`, a shard no neighbour is in has connectivity 0, so
    /// that takes `conn[cur] > 0`).
    fn strictly_best(&self, cur: usize) -> bool {
        let conn = &self.conn;
        conn[cur] > 0.0
            && self
                .shards()
                .iter()
                .all(|&p| p == cur || conn[cur] > conn[p])
    }
}

/// The objective-walk move decision: move `v` to the shard with the
/// best positive [`AlloObjective::move_delta`], ties to the lower shard.
/// Returns `true` on a move.
///
/// While `v`'s shard is at most the capacity, only the shards that
/// out-connect it are scored, all of them among [`ShardConn::shards`]
/// (a repeat scores the same delta again and changes nothing): for any
/// other `p`, both overload terms of the source are 0 before and after
/// the move and the target's can only grow, so
/// `delta ≤ (2η − 1)(conn[p] − conn[cur]) ≤ 0`, never above the `1e-9`
/// threshold. An account in an overloaded shard is scored against every
/// shard. Either way the winner is the largest delta, ties to the lower
/// shard: the one an ascending scan of every shard keeps.
fn commit_objective_move(
    v: usize,
    sc: &ShardConn,
    objective: &AlloObjective,
    dv: &[f64],
    parts: &mut [u16],
    load: &mut [f64],
) -> bool {
    let cur = usize::from(parts[v]);
    let conn = &sc.conn;
    let mut best: Option<(usize, f64)> = None;
    let mut score = |p: usize| {
        let delta = objective.move_delta(conn[cur], conn[p], load[cur], load[p], dv[v]);
        let wins = best.is_none_or(|(bp, bd)| delta > bd || (delta == bd && p < bp));
        if delta > 1e-9 && wins {
            best = Some((p, delta));
        }
    };
    if load[cur] <= objective.capacity() {
        for &p in sc.shards() {
            if conn[p] > conn[cur] {
                score(p);
            }
        }
    } else {
        for p in (0..conn.len()).filter(|&p| p != cur) {
            score(p);
        }
    }
    let Some((p, _)) = best else {
        return false;
    };
    load[cur] -= dv[v];
    load[p] += dv[v];
    parts[v] = p as u16;
    true
}

/// Greedy account-level refinement against the throughput objective —
/// the inner loop of G-TxAllo phase 3 and of the whole A-TxAllo update.
///
/// Visits `order` repeatedly (at most `rounds` sweeps, stopping at a
/// fixed point), moving each account to the shard with the best positive
/// objective delta. `parts` and `load` are updated in place. Returns
/// `true` if a round moved nothing (a fixed point), `false` if `rounds`
/// cut the sweep short.
///
/// Nearly every account ends its first evaluation in a shard that
/// strictly out-connects every other one, and such an account is
/// re-scored only while its decision can still change — exactly, not
/// heuristically. Call an account *glued* once an evaluation left it in
/// place with `conn[cur] > conn[p]` for every other shard `p`. While its
/// shard's load is at most the capacity, no move can win, whatever the
/// loads: both overload terms of the source shard are 0 before and
/// after the move, the target's can only grow, and the colocation term
/// is at most `−(2η − 1) ≤ −1` (the `conn` values are integer sums), so
/// every [`AlloObjective::move_delta`] is below the `1e-9` threshold.
/// Its `conn` depends only on its neighbours' shards, so it stays what
/// the evaluation saw until a neighbour moves. Skipping a glued account
/// in a shard at or under capacity therefore changes no move, no round's
/// move count and no result. A move un-glues the mover's neighbours; an
/// account in an overloaded shard is always re-scored.
pub(crate) fn objective_refine(
    graph: &TxGraph,
    order: &[u32],
    dv: &[f64],
    objective: &AlloObjective,
    parts: &mut [u16],
    load: &mut [f64],
    rounds: usize,
) -> bool {
    let capacity = objective.capacity();
    let mut sc = ShardConn::new(load.len());
    let mut glued = vec![false; graph.node_count()];
    for _ in 0..rounds {
        let mut moves = 0usize;
        for &v in order {
            let v = v as usize;
            if glued[v] && load[usize::from(parts[v])] <= capacity {
                continue;
            }
            sc.fill(graph, parts, v);
            if commit_objective_move(v, &sc, objective, dv, parts, load) {
                moves += 1;
                glued[v] = false;
                for (nb, _) in graph.neighbors(NodeId::new(v as u32)) {
                    glued[nb.index()] = false;
                }
            } else {
                glued[v] = sc.strictly_best(usize::from(parts[v]));
            }
        }
        if moves == 0 {
            return true;
        }
    }
    false
}

/// End of a [`Parked`] list.
const NIL: u32 = u32::MAX;

/// The nodes parked on each community, as flat singly linked lists: one
/// head per community and one `(node, next)` arena shared by all lists.
/// A woken list's slots are not reused: the arena only grows, by at most
/// one slot per capped entry evaluated (a few slots per node in
/// practice).
struct Parked {
    head: Vec<u32>,
    arena: Vec<(u32, u32)>,
}

impl Parked {
    fn new(communities: usize) -> Self {
        Parked {
            head: vec![NIL; communities],
            arena: Vec::new(),
        }
    }

    /// Parks `v` on community `c`.
    fn park(&mut self, c: u32, v: u32) {
        self.arena.push((v, self.head[c as usize]));
        self.head[c as usize] = (self.arena.len() - 1) as u32;
    }

    /// Un-settles every node parked on `c` and empties its list.
    fn wake(&mut self, c: u32, settled: &mut [bool]) {
        let mut slot = std::mem::replace(&mut self.head[c as usize], NIL);
        while slot != NIL {
            let (v, next) = self.arena[slot as usize];
            settled[v as usize] = false;
            slot = next;
        }
    }
}

/// Scores `v`'s connectivity per neighbouring community into `hist`.
/// Community ids are node ids, so the histogram is dense; weights sum
/// as integers, so the neighbours' order never matters.
fn score_communities(graph: &TxGraph, comm: &[u32], v: usize, hist: &mut DenseHistogram) {
    let row = graph.xadj()[v]..graph.xadj()[v + 1];
    let neighbours = graph.adjncy()[row.clone()].iter();
    hist.add_all(
        neighbours
            .zip(&graph.adjwgt()[row])
            .map(|(nb, &w)| (comm[nb.index()], w)),
    );
}

/// The community-join decision, made while draining `v`'s scored
/// `hist`: adopt the most-connected other community that fits under the
/// cap (ties to the lower community id), when strictly better-connected
/// than the current one, and park `v` on every community the cap
/// excluded. Returns the community `v` left, if it moved.
/// Order-independent over the entries (total order comparator), so the
/// histogram's entry order never leaks into the result.
fn commit_community_move(
    v: usize,
    hist: &mut DenseHistogram,
    dv: &[f64],
    capacity: f64,
    comm: &mut [u32],
    comm_weight: &mut [f64],
    parked: &mut Parked,
) -> Option<u32> {
    let own = comm[v];
    let mut own_conn = 0u64;
    let mut best: Option<(u32, u64)> = None;
    hist.drain(|c, cw| {
        if c == own {
            own_conn = cw;
        } else if comm_weight[c as usize] + dv[v] > capacity {
            parked.park(c, v as u32);
        } else if best.is_none_or(|(bc, bw)| cw > bw || (cw == bw && c < bc)) {
            best = Some((c, cw));
        }
    });
    let (c, cw) = best?;
    if cw <= own_conn {
        return None;
    }
    comm_weight[own as usize] -= dv[v];
    comm_weight[c as usize] += dv[v];
    comm[v] = c;
    Some(own)
}

/// Greedy capped label propagation (G-TxAllo phase 1). Returns a
/// community id per node.
///
/// Round 1 moves most nodes and the rounds after it move a shrinking
/// handful, so a node is re-scored only while its decision can still
/// change — exactly, not heuristically. Every evaluation *settles* the
/// node: it now sits in the best-connected community among those the
/// cap let it consider (it stayed because none beat its own, or it
/// moved to the best one, so none beats its new one either). Its
/// entries depend only on its neighbours' communities, so they stay
/// what that evaluation saw until a neighbour moves. Meanwhile a
/// candidate can only drop out, by filling up; a community the cap
/// excluded can come back only by losing weight, since `comm_weight` is
/// an exact integer sum and only a member's departure lowers it. So the
/// evaluation parks the node on every community that excluded it, and
/// until a neighbour moves or one of those communities loses a member,
/// re-scoring it would find nothing better-connected and return "no
/// move": skipping it changes no move, no round count and no result. A
/// move un-settles the mover's neighbours and wakes every node parked
/// on the community it left.
pub(crate) fn detect_communities(
    graph: &TxGraph,
    dv: &[f64],
    order: &[u32],
    capacity: f64,
    rounds: usize,
) -> Vec<u32> {
    let n = graph.node_count();
    let mut comm: Vec<u32> = (0..n as u32).collect();
    let mut comm_weight: Vec<f64> = dv.to_vec();
    let mut settled = vec![false; n];
    let mut parked = Parked::new(n);

    // One histogram reused across nodes and rounds.
    let mut hist = DenseHistogram::new(n);
    for _ in 0..rounds.max(1) {
        let mut moves = 0usize;
        for &v in order {
            let v = v as usize;
            if settled[v] {
                continue;
            }
            score_communities(graph, &comm, v, &mut hist);
            settled[v] = true;
            let left = commit_community_move(
                v,
                &mut hist,
                dv,
                capacity,
                &mut comm,
                &mut comm_weight,
                &mut parked,
            );
            if let Some(left) = left {
                moves += 1;
                parked.wake(left, &mut settled);
                for (nb, _) in graph.neighbors(NodeId::new(v as u32)) {
                    settled[nb.index()] = false;
                }
            }
        }
        if moves == 0 {
            break;
        }
    }
    comm
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mosaic_txgraph::GraphBuilder;
    use mosaic_types::AccountId;
    use proptest::prelude::*;

    use super::*;
    use crate::certificate::improving_moves;

    /// One evaluation the community reference made.
    #[derive(Debug)]
    struct Eval {
        node: u32,
        /// The communities the cap excluded, ascending.
        capped_by: Vec<u32>,
        /// `(from, to)` communities, when the node moved.
        moved: Option<(u32, u32)>,
    }

    /// What [`detect_communities`] must equal, written the slow obvious
    /// way: every node is re-scored in every round, into an ordered
    /// map. Also returns the rounds run and every evaluation in order,
    /// so tests can tell which regime they hit.
    fn reference_log(
        graph: &TxGraph,
        dv: &[f64],
        order: &[u32],
        capacity: f64,
        rounds: usize,
    ) -> (Vec<u32>, usize, Vec<Eval>) {
        let n = graph.node_count();
        let mut comm: Vec<u32> = (0..n as u32).collect();
        let mut comm_weight = dv.to_vec();
        let mut rounds_run = 0;
        let mut log = Vec::new();
        for _ in 0..rounds.max(1) {
            rounds_run += 1;
            let mut moves = 0;
            for &v in order {
                let v = v as usize;
                let mut hist: BTreeMap<u32, f64> = BTreeMap::new();
                for (nb, w) in graph.neighbors(NodeId::new(v as u32)) {
                    *hist.entry(comm[nb.index()]).or_default() += w as f64;
                }
                let own = comm[v];
                let own_conn = hist.remove(&own).unwrap_or(0.0);
                // Ascending ids + strict `>` = ties to the lower id.
                let mut best: Option<(u32, f64)> = None;
                let mut eval = Eval {
                    node: v as u32,
                    capped_by: Vec::new(),
                    moved: None,
                };
                for (c, cw) in hist {
                    if comm_weight[c as usize] + dv[v] > capacity {
                        eval.capped_by.push(c);
                    } else if best.is_none_or(|(_, bw)| cw > bw) {
                        best = Some((c, cw));
                    }
                }
                if let Some((c, cw)) = best {
                    if cw > own_conn + 1e-9 {
                        comm_weight[own as usize] -= dv[v];
                        comm_weight[c as usize] += dv[v];
                        comm[v] = c;
                        moves += 1;
                        eval.moved = Some((own, c));
                    }
                }
                log.push(eval);
            }
            if moves == 0 {
                break;
            }
        }
        (comm, rounds_run, log)
    }

    /// [`reference_log`] summarised: the communities, the rounds run and
    /// whether the cap ever excluded a community.
    fn reference_communities(
        graph: &TxGraph,
        dv: &[f64],
        order: &[u32],
        capacity: f64,
        rounds: usize,
    ) -> (Vec<u32>, usize, bool) {
        let (comm, rounds_run, log) = reference_log(graph, dv, order, capacity, rounds);
        let capped = log.iter().any(|e| !e.capped_by.is_empty());
        (comm, rounds_run, capped)
    }

    fn graph_from_edges(edges: &[(u64, u64, u64)]) -> TxGraph {
        let mut b = GraphBuilder::new();
        for &(x, y, w) in edges {
            b.add_edge(AccountId::new(x), AccountId::new(y), w);
        }
        b.build()
    }

    fn node_weights(graph: &TxGraph) -> Vec<f64> {
        graph
            .nodes()
            .map(|v| graph.node_weight(v).max(1) as f64)
            .collect()
    }

    /// A ring of cliques (a tight cap splits every clique) plus a path
    /// whose edges grow heavier along the visit order, which drags one
    /// label a hop further per round — several rounds to a fixed point.
    fn clique_ring(cliques: u64, size: u64) -> TxGraph {
        let mut edges: Vec<(u64, u64, u64)> = (0..6).map(|i| (1000 + i, 1001 + i, i + 1)).collect();
        for c in 0..cliques {
            let base = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    edges.push((base + i, base + j, 1 + (i + j) % 3));
                }
            }
            edges.push((base, ((c + 1) % cliques) * size, 1));
        }
        graph_from_edges(&edges)
    }

    /// The three regimes by construction — fixed point with no cap in
    /// play, cap excluding communities, `rounds` cutting the sweep short
    /// — each checked to be the regime it claims to be.
    #[test]
    fn skip_rule_matches_reference_in_every_regime() {
        let g = clique_ring(12, 9);
        let dv = node_weights(&g);
        let total: f64 = dv.iter().sum();
        let order: Vec<u32> = (0..g.node_count() as u32).collect();

        let (free, free_rounds, free_capped) = reference_communities(&g, &dv, &order, total, 10);
        assert!(
            !free_capped && (3..10).contains(&free_rounds),
            "{free_rounds}"
        );
        assert_eq!(detect_communities(&g, &dv, &order, total, 10), free);

        let tight = total / 40.0;
        let (capped, _, was_capped) = reference_communities(&g, &dv, &order, tight, 10);
        assert!(was_capped);
        assert_ne!(capped, free);
        assert_eq!(detect_communities(&g, &dv, &order, tight, 10), capped);

        let (cut, cut_rounds, _) = reference_communities(&g, &dv, &order, total, 1);
        assert_eq!(cut_rounds, 1);
        assert_ne!(cut, free, "one round must not reach the fixed point");
        assert_eq!(detect_communities(&g, &dv, &order, total, 1), cut);

        // Parked, then woken by a drain. Unit weights and room for three
        // members per community. Round 1: `a` and `d` join `b`, so `x`
        // (whose one neighbour is `a`) finds `b` full and stays put;
        // `e` joins `f`. Round 2: `d` leaves `b` for `f`, and `x` —
        // whose neighbour has not moved — joins `b`.
        let [a, b, d, x, e, f] = [0u64, 1, 2, 3, 4, 5];
        let g = graph_from_edges(&[
            (a, b, 5),
            (a, d, 3),
            (b, d, 3),
            (a, x, 1),
            (d, e, 4),
            (d, f, 4),
            (e, f, 2),
        ]);
        let node = |acct: u64| g.node_of(AccountId::new(acct)).unwrap().index() as u32;
        let order: Vec<u32> = [a, b, d, x, e, f].map(node).to_vec();
        let dv = vec![1.0; g.node_count()];
        let (woken, _, log) = reference_log(&g, &dv, &order, 3.0, 10);
        let x_evals: Vec<usize> = (0..log.len()).filter(|&i| log[i].node == node(x)).collect();
        let (parked, joined) = (x_evals[0], x_evals[1]);
        assert_eq!(log[parked].capped_by, [node(b)]);
        assert_eq!(log[parked].moved, None);
        let drained = (parked..joined)
            .find(|&i| log[i].moved.is_some_and(|(from, _)| from == node(b)))
            .expect("b loses a member between x's evaluations");
        assert_eq!(log[drained].node, node(d));
        let x_nbrs: Vec<u32> = g
            .neighbors(NodeId::new(node(x)))
            .map(|(nb, _)| nb.index() as u32)
            .collect();
        assert_eq!(x_nbrs, [node(a)]);
        assert!(
            log[parked..joined]
                .iter()
                .all(|e| e.moved.is_none() || e.node != node(a)),
            "x's only neighbour stays put"
        );
        assert_eq!(log[joined].moved, Some((node(x), node(b))));
        assert_eq!(detect_communities(&g, &dv, &order, 3.0, 10), woken);
    }

    /// What one run of [`reference_refine`] went through.
    #[derive(Debug, Default)]
    struct RefineRun {
        rounds_run: usize,
        /// Moves made by an account the glue rule would have been
        /// skipping had its shard not been overloaded.
        glued_moves: usize,
        /// Whether a round moved nothing before `rounds` ran out.
        converged: bool,
    }

    /// Accumulates `v`'s connectivity over every shard into `conn`.
    fn fill_shard_conn(graph: &TxGraph, parts: &[u16], v: usize, conn: &mut [f64]) {
        conn.iter_mut().for_each(|c| *c = 0.0);
        for (nb, w) in graph.neighbors(NodeId::new(v as u32)) {
            conn[usize::from(parts[nb.index()])] += w as f64;
        }
    }

    /// The move decision [`commit_objective_move`] must equal, written
    /// the slow obvious way: score every other shard, keep the first
    /// strictly best delta above the threshold.
    fn reference_move(
        v: usize,
        conn: &[f64],
        objective: &AlloObjective,
        dv: &[f64],
        parts: &mut [u16],
        load: &mut [f64],
    ) -> bool {
        let cur = usize::from(parts[v]);
        let mut best: Option<(usize, f64)> = None;
        for p in (0..load.len()).filter(|&p| p != cur) {
            let delta = objective.move_delta(conn[cur], conn[p], load[cur], load[p], dv[v]);
            if delta > 1e-9 && best.is_none_or(|(_, bd)| delta > bd) {
                best = Some((p, delta));
            }
        }
        let Some((p, _)) = best else {
            return false;
        };
        load[cur] -= dv[v];
        load[p] += dv[v];
        parts[v] = p as u16;
        true
    }

    /// What [`objective_refine`] must equal: the loop it replaced, which
    /// re-scores every account against every shard in every round. It
    /// keeps the glue flags without skipping on them and checks the
    /// rule's premise at every glued move — the account's shard was
    /// overloaded — so tests can tell which regime they hit.
    fn reference_refine(
        graph: &TxGraph,
        order: &[u32],
        dv: &[f64],
        objective: &AlloObjective,
        parts: &mut [u16],
        load: &mut [f64],
        rounds: usize,
    ) -> RefineRun {
        let mut conn = vec![0.0f64; load.len()];
        let mut glued = vec![false; graph.node_count()];
        let mut run = RefineRun::default();
        for _ in 0..rounds {
            run.rounds_run += 1;
            let mut moves = 0;
            for &v in order {
                let v = v as usize;
                let cur = usize::from(parts[v]);
                let overloaded = load[cur] > objective.capacity();
                fill_shard_conn(graph, parts, v, &mut conn);
                if reference_move(v, &conn, objective, dv, parts, load) {
                    moves += 1;
                    if glued[v] {
                        assert!(overloaded, "a glued account left a shard under capacity");
                        run.glued_moves += 1;
                    }
                    glued[v] = false;
                    for (nb, _) in graph.neighbors(NodeId::new(v as u32)) {
                        glued[nb.index()] = false;
                    }
                } else {
                    glued[v] = (0..conn.len()).all(|p| p == cur || conn[cur] > conn[p]);
                }
            }
            if moves == 0 {
                run.converged = true;
                break;
            }
        }
        run
    }

    /// Runs [`objective_refine`] and [`reference_refine`] from the same
    /// parts and asserts bit-identical parts and loads and the same
    /// fixed-point verdict; returns the reference's parts, loads and run.
    fn refine_against_reference(
        graph: &TxGraph,
        order: &[u32],
        dv: &[f64],
        objective: &AlloObjective,
        parts: &[u16],
        k: usize,
        rounds: usize,
    ) -> (Vec<u16>, Vec<f64>, RefineRun) {
        let mut load = vec![0.0f64; k];
        for (v, &p) in parts.iter().enumerate() {
            load[usize::from(p)] += dv[v];
        }
        let (mut expected, mut expected_load) = (parts.to_vec(), load.clone());
        let run = reference_refine(
            graph,
            order,
            dv,
            objective,
            &mut expected,
            &mut expected_load,
            rounds,
        );
        let (mut got, mut got_load) = (parts.to_vec(), load);
        let converged =
            objective_refine(graph, order, dv, objective, &mut got, &mut got_load, rounds);
        assert_eq!(converged, run.converged);
        assert_eq!(got, expected);
        assert_eq!(
            got_load.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            expected_load
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>()
        );
        (expected, expected_load, run)
    }

    /// The three regimes of the glue rule by construction — a fixed
    /// point with every shard under capacity, an overloaded shard
    /// pushing out a glued account, `rounds` cutting the sweep short —
    /// each checked to be the regime it claims to be.
    #[test]
    fn glue_rule_matches_reference_in_every_regime() {
        let g = clique_ring(12, 9);
        let dv = node_weights(&g);
        let total: f64 = dv.iter().sum();
        let order = busiest_first(&g);
        let k = 4;
        let spread: Vec<u16> = (0..g.node_count()).map(|v| (v % k) as u16).collect();

        let loose = AlloObjective::new(2.0, total);
        let (_, free_load, free_run) =
            refine_against_reference(&g, &order, &dv, &loose, &spread, k, 10);
        assert!(free_run.rounds_run < 10, "{free_run:?}");
        assert!(free_load.iter().all(|&l| l <= loose.capacity()));

        let tight = AlloObjective::new(2.0, 1.1 * total / k as f64);
        let (pushed, _, pushed_run) =
            refine_against_reference(&g, &order, &dv, &tight, &spread, k, 10);
        assert!(pushed_run.glued_moves > 0, "{pushed_run:?}");
        assert!(pushed_run.rounds_run < 10, "{pushed_run:?}");

        let (cut, _, cut_run) = refine_against_reference(&g, &order, &dv, &tight, &spread, k, 1);
        assert_eq!(cut_run.rounds_run, 1);
        assert_ne!(cut, pushed, "one round must not reach the fixed point");
    }

    /// Busiest first, ties to the lower id: the order the `f64`
    /// comparator over node weights gave.
    #[test]
    fn busiest_first_orders_by_weight_then_id() {
        let g = clique_ring(4, 5);
        let dv = node_weights(&g);
        let mut expected: Vec<u32> = (0..g.node_count() as u32).collect();
        expected.sort_by(|&a, &b| {
            dv[b as usize]
                .partial_cmp(&dv[a as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        assert_eq!(busiest_first(&g), expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Node for node, on arbitrary graphs, visit orders, caps (from
        /// "nothing fits" to "everything fits") and round limits.
        #[test]
        fn detect_communities_equals_rescore_everything_reference(
            edges in proptest::collection::vec((0u64..60, 0u64..60, 1u64..6), 1..300),
            order_keys in proptest::collection::vec(any::<u32>(), 60),
            cap_share in 0.01f64..1.2,
            rounds in 0usize..7,
        ) {
            let g = graph_from_edges(&edges);
            let dv = node_weights(&g);
            let mut order: Vec<u32> = (0..g.node_count() as u32).collect();
            order.sort_unstable_by_key(|&v| (order_keys[v as usize], v));
            let capacity = cap_share * dv.iter().sum::<f64>();
            let (expected, _, _) = reference_communities(&g, &dv, &order, capacity, rounds);
            prop_assert_eq!(detect_communities(&g, &dv, &order, capacity, rounds), expected);
        }

        /// Account for account, on arbitrary graphs, visit orders and
        /// starting shards, for k ∈ {2, 4, 16}, capacities from "every
        /// shard overloaded" to "none overloaded" and 1–6 rounds.
        #[test]
        fn objective_refine_equals_rescore_everything_reference(
            edges in proptest::collection::vec((0u64..60, 0u64..60, 1u64..6), 1..300),
            order_keys in proptest::collection::vec(any::<u32>(), 60),
            part_keys in proptest::collection::vec(any::<u16>(), 60),
            k_idx in 0usize..3,
            cap_share in 0.05f64..1.5,
            eta in 1.0f64..4.0,
            rounds in 1usize..=6,
        ) {
            let g = graph_from_edges(&edges);
            let dv = node_weights(&g);
            let k = [2usize, 4, 16][k_idx];
            let mut order: Vec<u32> = (0..g.node_count() as u32).collect();
            order.sort_unstable_by_key(|&v| (order_keys[v as usize], v));
            let parts: Vec<u16> = part_keys[..g.node_count()]
                .iter()
                .map(|&p| p % k as u16)
                .collect();
            // cap_share of the whole load per shard: below 1/k every
            // shard is overloaded, at 1 none can be.
            let objective = AlloObjective::new(eta, cap_share * dv.iter().sum::<f64>());
            let (refined, _, run) =
                refine_against_reference(&g, &order, &dv, &objective, &parts, k, rounds);
            // A fixed point is one to the paper's score too.
            if run.converged {
                prop_assert_eq!(improving_moves(&g, &refined, k as u16, &objective), 0);
            }
        }

        /// [`detect_communities_equals_rescore_everything_reference`] on
        /// [`hub_heavy_graph`]s: a hub's neighbours repeat communities, so
        /// most of its histogram adds land on an id already touched.
        #[test]
        fn detect_communities_equals_reference_on_hub_heavy_graphs(
            spokes in proptest::collection::vec((0u64..4, 0u64..2, 0u64..12, 1u64..6), 40..200),
            intra in proptest::collection::vec((0u64..5, 0u64..12, 0u64..12, 1u64..4), 0..150),
            order_keys in proptest::collection::vec(any::<u32>(), 70),
            cap_share in 0.01f64..1.2,
            rounds in 0usize..7,
        ) {
            let g = hub_heavy_graph(&spokes, &intra);
            let dv = node_weights(&g);
            let mut order: Vec<u32> = (0..g.node_count() as u32).collect();
            order.sort_unstable_by_key(|&v| (order_keys[v as usize], v));
            let capacity = cap_share * dv.iter().sum::<f64>();
            let (expected, _, _) = reference_communities(&g, &dv, &order, capacity, rounds);
            prop_assert_eq!(detect_communities(&g, &dv, &order, capacity, rounds), expected);
        }

        /// [`objective_refine_equals_rescore_everything_reference`] on
        /// [`hub_heavy_graph`]s, where hubs have more neighbours than
        /// even 16 shards and so are scored against every shard.
        #[test]
        fn objective_refine_equals_reference_on_hub_heavy_graphs(
            spokes in proptest::collection::vec((0u64..4, 0u64..2, 0u64..12, 1u64..6), 40..200),
            intra in proptest::collection::vec((0u64..5, 0u64..12, 0u64..12, 1u64..4), 0..150),
            part_keys in proptest::collection::vec(any::<u16>(), 70),
            k_idx in 0usize..3,
            cap_share in 0.05f64..1.5,
            rounds in 1usize..=6,
        ) {
            let g = hub_heavy_graph(&spokes, &intra);
            let dv = node_weights(&g);
            let k = [2usize, 4, 16][k_idx];
            let parts: Vec<u16> = part_keys[..g.node_count()]
                .iter()
                .map(|&p| p % k as u16)
                .collect();
            let objective = AlloObjective::new(2.0, cap_share * dv.iter().sum::<f64>());
            let (refined, _, run) =
                refine_against_reference(&g, &busiest_first(&g), &dv, &objective, &parts, k, rounds);
            if run.converged {
                prop_assert_eq!(improving_moves(&g, &refined, k as u16, &objective), 0);
            }
        }
    }

    /// Five communities of twelve accounts (`intra`: community, two
    /// members, weight) and four hubs, each trading with the members of
    /// two communities (`spokes`: hub, which of its two, member, weight):
    /// with enough spokes a hub has more than 16 neighbours, many of
    /// them in one community.
    fn hub_heavy_graph(spokes: &[(u64, u64, u64, u64)], intra: &[(u64, u64, u64, u64)]) -> TxGraph {
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
        graph_from_edges(&edges)
    }
}
