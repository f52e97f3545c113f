//! Quality measures for partitions of an account graph.
//!
//! A *partition vector* assigns each node of a [`TxGraph`] a part in
//! `[0, k)`. These measures quantify what the miner-driven baselines
//! optimise: edge-cut (a proxy for cross-shard transactions) and balance
//! (a proxy for workload deviation).

use crate::csr::TxGraph;

/// Sum of weights of edges whose endpoints lie in different parts.
///
/// Every cut edge corresponds to interactions that would be cross-shard
/// transactions under the induced account allocation.
///
/// # Panics
///
/// Panics if `parts.len() != graph.node_count()`.
pub fn edge_cut(graph: &TxGraph, parts: &[u16]) -> u64 {
    assert_eq!(
        parts.len(),
        graph.node_count(),
        "partition vector length mismatch"
    );
    let mut cut = 0u64;
    for node in graph.nodes() {
        for (nb, w) in graph.neighbors(node) {
            // Count each undirected edge once.
            if nb > node && parts[node.index()] != parts[nb.index()] {
                cut += w;
            }
        }
    }
    cut
}

/// Per-part sums of vertex weights.
///
/// # Panics
///
/// Panics if `parts.len() != graph.node_count()` or any part `≥ k`.
pub fn part_weights(graph: &TxGraph, parts: &[u16], k: u16) -> Vec<u64> {
    assert_eq!(
        parts.len(),
        graph.node_count(),
        "partition vector length mismatch"
    );
    let mut weights = vec![0u64; usize::from(k)];
    for node in graph.nodes() {
        let p = parts[node.index()];
        assert!(p < k, "part {p} out of range for k = {k}");
        weights[usize::from(p)] += graph.node_weight(node);
    }
    weights
}

/// Maximum part weight divided by the ideal (average) part weight.
///
/// 1.0 is perfect balance; METIS typically enforces ≤ 1.03–1.10.
/// Returns 1.0 for an empty graph.
pub fn imbalance(graph: &TxGraph, parts: &[u16], k: u16) -> f64 {
    let weights = part_weights(graph, parts, k);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / f64::from(k);
    let max = weights.iter().copied().max().unwrap_or(0) as f64;
    max / ideal
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::AccountId;

    fn acct(i: u64) -> AccountId {
        AccountId::new(i)
    }

    /// Two triangles joined by a single light edge.
    fn two_communities() -> TxGraph {
        TxGraph::from_weighted_edges(
            (0..6).map(|i| (acct(i), 1)),
            [
                (acct(0), acct(1), 10),
                (acct(1), acct(2), 10),
                (acct(0), acct(2), 10),
                (acct(3), acct(4), 10),
                (acct(4), acct(5), 10),
                (acct(3), acct(5), 10),
                (acct(2), acct(3), 1),
            ],
        )
    }

    #[test]
    fn edge_cut_of_natural_split() {
        let g = two_communities();
        let parts = vec![0, 0, 0, 1, 1, 1];
        assert_eq!(edge_cut(&g, &parts), 1);
        let bad = vec![0, 1, 0, 1, 0, 1];
        assert!(edge_cut(&g, &bad) > 1);
        let all_same = vec![0; 6];
        assert_eq!(edge_cut(&g, &all_same), 0);
    }

    #[test]
    fn part_weights_and_imbalance() {
        let g = two_communities();
        let parts = vec![0, 0, 0, 1, 1, 1];
        assert_eq!(part_weights(&g, &parts, 2), vec![3, 3]);
        assert!((imbalance(&g, &parts, 2) - 1.0).abs() < 1e-12);
        let skewed = vec![0, 0, 0, 0, 0, 1];
        assert!((imbalance(&g, &skewed, 2) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_measures() {
        let g = TxGraph::from_weighted_edges([], []);
        assert_eq!(edge_cut(&g, &[]), 0);
        assert!((imbalance(&g, &[], 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_parts_panics() {
        let g = two_communities();
        let _ = edge_cut(&g, &[0, 1]);
    }
}
