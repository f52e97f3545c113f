//! TxAllo's contract, checked against the paper's score rather than
//! with the code under test.
//!
//! A sweep that stopped because a round moved nothing claims a local
//! optimum: no single account can move to another shard and raise
//! TxAllo's score (arXiv 2212.11584; see [`crate::objective`]):
//!
//! ```text
//! Score(ϕ) = (2η−1) · Σ_{e intra} w(e)  −  (2η−1) · Σ_i max(0, load_i − cap)
//! ```
//!
//! [`improving_moves`] counts the moves that break that claim. It never
//! calls [`AlloObjective::move_delta`]: it recomputes the loads from the
//! parts and reads the score's change off its two terms directly.

use mosaic_txgraph::TxGraph;

use crate::objective::AlloObjective;

/// Counts the `(account, shard)` moves that would raise TxAllo's score
/// by more than the sweeps' `1e-9` threshold on `graph`, with node `v`
/// in shard `parts[v]` of `shards`.
///
/// Moving `v` from shard `a` to shard `b` changes the score in two
/// terms only. The intra-shard weight gains `v`'s edges into `b` and
/// loses its edges into `a`. The overload sum changes in `a` and `b`,
/// whose loads (each account weighs its node weight, at least 1) drop
/// and grow by `v`'s weight.
///
/// # Panics
///
/// Panics if `parts` does not hold one shard below `shards` per node.
pub fn improving_moves(
    graph: &TxGraph,
    parts: &[u16],
    shards: u16,
    objective: &AlloObjective,
) -> usize {
    assert_eq!(parts.len(), graph.node_count(), "one shard per node");
    let k = usize::from(shards);
    let gain = objective.colocation_gain();
    let cap = objective.capacity();
    let overload = |load: f64| if load > cap { load - cap } else { 0.0 };
    let weight: Vec<f64> = graph.vwgt().iter().map(|&w| w.max(1) as f64).collect();
    let mut load = vec![0.0f64; k];
    for (v, &p) in parts.iter().enumerate() {
        load[usize::from(p)] += weight[v];
    }
    let mut edges_into = vec![0u64; k];
    let mut improving = 0;
    for v in graph.nodes() {
        edges_into.iter_mut().for_each(|e| *e = 0);
        for (nb, w) in graph.neighbors(v) {
            edges_into[usize::from(parts[nb.index()])] += w;
        }
        let a = usize::from(parts[v.index()]);
        let dv = weight[v.index()];
        for b in (0..k).filter(|&b| b != a) {
            let intra = edges_into[b] as f64 - edges_into[a] as f64;
            let overload_before = overload(load[a]) + overload(load[b]);
            let overload_after = overload(load[a] - dv) + overload(load[b] + dv);
            if gain * (intra - (overload_after - overload_before)) > 1e-9 {
                improving += 1;
            }
        }
    }
    improving
}

#[cfg(test)]
mod tests {
    use mosaic_txgraph::GraphBuilder;
    use mosaic_types::AccountId;

    use super::*;

    fn path() -> TxGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(AccountId::new(1), AccountId::new(2), 5);
        b.add_edge(AccountId::new(2), AccountId::new(3), 1);
        b.build()
    }

    #[test]
    fn a_stranded_neighbour_is_the_one_improving_move() {
        // Nodes 0–1 share shard 0 with weight 5; node 2 sits alone in
        // shard 1. Loose capacity: only colocation counts, and pulling
        // node 2 over (gain 1) is the one improving move.
        let g = path();
        let loose = AlloObjective::new(2.0, 100.0);
        assert_eq!(improving_moves(&g, &[0, 0, 1], 2, &loose), 1);
        assert_eq!(improving_moves(&g, &[0, 0, 0], 2, &loose), 0);
    }

    #[test]
    fn overload_makes_a_move_improving() {
        // The path plus an isolated account of weight 3, all in shard 0:
        // load 15. Under a capacity of 8, moving the isolated account
        // relieves 3 units of overload at no colocation cost; every
        // other move loses as much colocation as it relieves. Under a
        // capacity of 15 nothing is overloaded and nothing helps.
        let mut b = GraphBuilder::new();
        b.add_edge(AccountId::new(1), AccountId::new(2), 5);
        b.add_edge(AccountId::new(2), AccountId::new(3), 1);
        b.add_edge(AccountId::new(4), AccountId::new(4), 3);
        let g = b.build();
        let tight = AlloObjective::new(2.0, 8.0);
        assert_eq!(improving_moves(&g, &[0, 0, 0, 0], 2, &tight), 1);
        let roomy = AlloObjective::new(2.0, 15.0);
        assert_eq!(improving_moves(&g, &[0, 0, 0, 0], 2, &roomy), 0);
    }
}
