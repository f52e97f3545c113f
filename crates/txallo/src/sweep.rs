//! The shared greedy-sweep kernels of both TxAllo variants.
//!
//! G-TxAllo's community detection and account-level refinement and
//! A-TxAllo's window update are all the same shape: visit accounts in a
//! fixed order, score each account's connectivity to its candidate
//! targets, commit the best admissible move, repeat until a fixed point.
//! Every committed move shifts the loads and labels later decisions
//! read, so each kernel is one sequential sweep; what keeps it fast is
//! that the per-account histogram lives in dense reused scratch
//! ([`DenseHistogram`]) and that community detection re-scores only the
//! accounts whose decision can have changed (see
//! [`detect_communities`]).

use mosaic_partition::DenseHistogram;
use mosaic_txgraph::{NodeId, TxGraph};

use crate::objective::AlloObjective;

/// Accumulates `v`'s connectivity per shard into `conn`.
fn fill_shard_conn(graph: &TxGraph, parts: &[u16], v: usize, conn: &mut [f64]) {
    conn.iter_mut().for_each(|c| *c = 0.0);
    for (nb, w) in graph.neighbors(NodeId::new(v as u32)) {
        conn[usize::from(parts[nb.index()])] += w as f64;
    }
}

/// The objective-walk move decision: move `v` to the shard with the
/// best positive [`AlloObjective::move_delta`]. Returns `true` on a move.
fn commit_objective_move(
    v: usize,
    conn: &[f64],
    objective: &AlloObjective,
    dv: &[f64],
    parts: &mut [u16],
    load: &mut [f64],
) -> bool {
    let cur = usize::from(parts[v]);
    let kk = load.len();
    let mut best: Option<(usize, f64)> = None;
    for p in 0..kk {
        if p == cur {
            continue;
        }
        let delta = objective.move_delta(conn[cur], conn[p], load[cur], load[p], dv[v]);
        if delta > 1e-9 && best.is_none_or(|(_, bd)| delta > bd) {
            best = Some((p, delta));
        }
    }
    if let Some((p, _)) = best {
        load[cur] -= dv[v];
        load[p] += dv[v];
        parts[v] = p as u16;
        true
    } else {
        false
    }
}

/// Greedy account-level refinement against the throughput objective —
/// the inner loop of G-TxAllo phase 3 and of the whole A-TxAllo update.
///
/// Visits `order` repeatedly (at most `rounds` sweeps, stopping at a
/// fixed point), moving each account to the shard with the best positive
/// objective delta. `parts` and `load` are updated in place.
pub(crate) fn objective_refine(
    graph: &TxGraph,
    order: &[u32],
    dv: &[f64],
    objective: &AlloObjective,
    parts: &mut [u16],
    load: &mut [f64],
    rounds: usize,
) {
    // One conn buffer reused throughout.
    let mut conn = vec![0.0f64; load.len()];
    for _ in 0..rounds {
        let mut moves = 0usize;
        for &v in order {
            let v = v as usize;
            fill_shard_conn(graph, parts, v, &mut conn);
            if commit_objective_move(v, &conn, objective, dv, parts, load) {
                moves += 1;
            }
        }
        if moves == 0 {
            break;
        }
    }
}

/// Scores `v`'s connectivity per neighbouring community into `entries`
/// (first-touch order; per community the weights sum in neighbour
/// order). Community ids are node ids, so the histogram is dense.
fn score_communities(
    graph: &TxGraph,
    comm: &[u32],
    v: usize,
    hist: &mut DenseHistogram<f64>,
    entries: &mut Vec<(u32, f64)>,
) {
    for (nb, w) in graph.neighbors(NodeId::new(v as u32)) {
        hist.add(comm[nb.index()], w as f64);
    }
    entries.clear();
    hist.drain_into(entries);
}

/// What one community-join evaluation did.
struct JoinOutcome {
    /// The node changed community.
    moved: bool,
    /// Some other community was passed over only because it was full.
    capped: bool,
}

/// The community-join decision: adopt the most-connected other
/// community that fits under the cap (ties to the lower community id),
/// when better-connected than the current one beyond the float
/// tolerance. Order-independent over `entries` (total order comparator),
/// so the histogram's entry order never leaks into the result.
fn commit_community_move(
    v: usize,
    entries: &[(u32, f64)],
    dv: &[f64],
    capacity: f64,
    comm: &mut [u32],
    comm_weight: &mut [f64],
) -> JoinOutcome {
    let own = comm[v];
    let mut own_conn = 0.0f64;
    let mut best: Option<(u32, f64)> = None;
    let mut capped = false;
    for &(c, cw) in entries {
        if c == own {
            own_conn = cw;
            continue;
        }
        if comm_weight[c as usize] + dv[v] > capacity {
            capped = true;
            continue;
        }
        match best {
            Some((bc, bw)) if cw < bw || (cw == bw && c >= bc) => {}
            _ => best = Some((c, cw)),
        }
    }
    let mut moved = false;
    if let Some((c, cw)) = best {
        if cw > own_conn + 1e-9 {
            comm_weight[own as usize] -= dv[v];
            comm_weight[c as usize] += dv[v];
            comm[v] = c;
            moved = true;
        }
    }
    JoinOutcome { moved, capped }
}

/// Greedy capped label propagation (G-TxAllo phase 1). Returns a
/// community id per node.
///
/// Round 1 moves most nodes and the rounds after it move a shrinking
/// handful, so a node is re-scored only while its decision can still
/// change — exactly, not heuristically. Call a node *settled* once an
/// evaluation of it passed over no community at the cap: every entry
/// was a candidate, so the node now sits in its best-connected
/// community (it stayed because no entry beat its own, or it moved to
/// the best one). Its entries depend only on its neighbours'
/// communities, so they stay what that evaluation saw until a neighbour
/// moves, and meanwhile the candidates can only shrink (a community may
/// fill up). Re-scoring it would therefore find nothing
/// better-connected and return "no move": skipping it changes no move,
/// no round count and no result. A neighbour's move un-settles a node;
/// a node that was capped is never settled, because the community it
/// passed over may drain.
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

    // One histogram + one entry buffer reused across nodes and rounds.
    let mut hist = DenseHistogram::new(n);
    let mut entries: Vec<(u32, f64)> = Vec::new();
    for _ in 0..rounds.max(1) {
        let mut moves = 0usize;
        for &v in order {
            let v = v as usize;
            if settled[v] {
                continue;
            }
            score_communities(graph, &comm, v, &mut hist, &mut entries);
            let outcome =
                commit_community_move(v, &entries, dv, capacity, &mut comm, &mut comm_weight);
            settled[v] = !outcome.capped;
            if outcome.moved {
                moves += 1;
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

    /// What [`detect_communities`] must equal, written the slow obvious
    /// way: every node is re-scored in every round, into an ordered
    /// map. Also reports the rounds run and whether the cap ever
    /// excluded a community, so tests can tell which regime they hit.
    fn reference_communities(
        graph: &TxGraph,
        dv: &[f64],
        order: &[u32],
        capacity: f64,
        rounds: usize,
    ) -> (Vec<u32>, usize, bool) {
        let n = graph.node_count();
        let mut comm: Vec<u32> = (0..n as u32).collect();
        let mut comm_weight = dv.to_vec();
        let mut rounds_run = 0;
        let mut capped = false;
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
                for (c, cw) in hist {
                    if comm_weight[c as usize] + dv[v] > capacity {
                        capped = true;
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
                    }
                }
            }
            if moves == 0 {
                break;
            }
        }
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
    }
}
