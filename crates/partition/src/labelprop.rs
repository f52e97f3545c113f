//! Weighted label propagation — an extra lightweight graph baseline
//! (extension beyond the paper's comparison set).
//!
//! Label propagation is the cheapest credible community-style
//! partitioner: every node repeatedly adopts the label it is most
//! connected to, subject to a per-label weight cap, and labels are then
//! packed onto shards. It sits between hash allocation (pattern-blind,
//! free) and the multilevel partitioner (pattern-aware, expensive) and
//! is used by the ablation harness to calibrate how much of the graph
//! baselines' quality comes from sheer optimisation effort.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mosaic_txgraph::{NodeId, TxGraph};
use mosaic_types::hash::FnvHashMap;
use mosaic_types::{AccountShardMap, ShardId};

use crate::traits::GlobalAllocator;

/// Capped weighted label propagation over the account graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelPropagation {
    /// Maximum sweeps over the node set.
    pub rounds: usize,
    /// Per-label weight cap as a multiple of the ideal shard share.
    pub cap_factor: f64,
    /// Seed for the deterministic visit-order shuffle.
    pub seed: u64,
}

impl Default for LabelPropagation {
    fn default() -> Self {
        LabelPropagation {
            rounds: 8,
            cap_factor: 1.1,
            seed: 0x1abe1,
        }
    }
}

/// Scores `v`'s connectivity per neighbouring label into `entries`,
/// reusing the caller's histogram scratch (never an allocation per
/// node).
fn score_labels(
    graph: &TxGraph,
    label: &[u32],
    v: usize,
    scratch: &mut FnvHashMap<u32, f64>,
    entries: &mut Vec<(u32, f64)>,
) {
    scratch.clear();
    for (nb, w) in graph.neighbors(NodeId::new(v as u32)) {
        *scratch.entry(label[nb.index()]).or_default() += w as f64;
    }
    entries.clear();
    entries.extend(scratch.iter().map(|(&l, &c)| (l, c)));
}

/// The relabel decision: adopt the most-connected other label under the
/// cap (ties to the lower label id), when strictly better-connected than
/// the current one. Order-independent over `entries` (the comparator is
/// a total order), so hashmap iteration order never leaks into the
/// result. Returns `true` on a move.
fn commit_label_move(
    v: usize,
    entries: &[(u32, f64)],
    dv: &[f64],
    cap: f64,
    label: &mut [u32],
    label_weight: &mut [f64],
) -> bool {
    let own = label[v];
    let mut own_conn = 0.0f64;
    let mut best: Option<(u32, f64)> = None;
    for &(l, c) in entries {
        if l == own {
            own_conn = c;
            continue;
        }
        if label_weight[l as usize] + dv[v] > cap {
            continue;
        }
        match best {
            Some((bl, bc)) if c < bc || (c == bc && l >= bl) => {}
            _ => best = Some((l, c)),
        }
    }
    if let Some((l, c)) = best {
        if c > own_conn {
            label_weight[own as usize] -= dv[v];
            label_weight[l as usize] += dv[v];
            label[v] = l;
            return true;
        }
    }
    false
}

impl LabelPropagation {
    /// Partitions `graph` into `k` parts.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn partition(&self, graph: &TxGraph, k: u16) -> Vec<u16> {
        assert!(k > 0, "cannot partition into zero parts");
        let n = graph.node_count();
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }

        let dv: Vec<f64> = graph
            .nodes()
            .map(|v| graph.node_weight(v).max(1) as f64)
            .collect();
        let total: f64 = dv.iter().sum();
        let cap = self.cap_factor * total / f64::from(k);

        // Label = initially the node itself.
        let mut label: Vec<u32> = (0..n as u32).collect();
        let mut label_weight: Vec<f64> = dv.clone();

        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }

        // One histogram + one entry buffer reused across nodes and
        // sweeps.
        let mut scratch: FnvHashMap<u32, f64> = FnvHashMap::default();
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for _ in 0..self.rounds {
            let mut moves = 0usize;
            for &v in &order {
                let v = v as usize;
                score_labels(graph, &label, v, &mut scratch, &mut entries);
                if commit_label_move(v, &entries, &dv, cap, &mut label, &mut label_weight) {
                    moves += 1;
                }
            }
            if moves == 0 {
                break;
            }
        }

        // LPT pack labels onto shards.
        let mut agg: FnvHashMap<u32, f64> = FnvHashMap::default();
        for v in 0..n {
            *agg.entry(label[v]).or_default() += dv[v];
        }
        let mut by_weight: Vec<(u32, f64)> = agg.into_iter().collect();
        by_weight.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut shard_load = vec![0.0f64; usize::from(k)];
        let mut shard_of_label: FnvHashMap<u32, u16> = FnvHashMap::default();
        for (l, w) in by_weight {
            let lightest = (0..usize::from(k))
                .min_by(|&a, &b| {
                    shard_load[a]
                        .partial_cmp(&shard_load[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("k > 0");
            shard_load[lightest] += w;
            shard_of_label.insert(l, lightest as u16);
        }
        (0..n).map(|v| shard_of_label[&label[v]]).collect()
    }
}

impl GlobalAllocator for LabelPropagation {
    fn name(&self) -> &'static str {
        "LabelProp"
    }

    fn allocate(&self, graph: &TxGraph, k: u16) -> AccountShardMap {
        let parts = self.partition(graph, k);
        let mut phi = AccountShardMap::new(k);
        for node in graph.nodes() {
            phi.assign(graph.account_of(node), ShardId::new(parts[node.index()]))
                .expect("in-range part");
        }
        phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_txgraph::{analysis, GraphBuilder};
    use mosaic_types::AccountId;

    fn acct(i: u64) -> AccountId {
        AccountId::new(i)
    }

    fn paired_graph(pairs: u64) -> TxGraph {
        let mut b = GraphBuilder::new();
        for i in 0..pairs {
            b.add_edge(acct(2 * i), acct(2 * i + 1), 10);
        }
        b.build()
    }

    #[test]
    fn keeps_pairs_together() {
        let g = paired_graph(12);
        let parts = LabelPropagation::default().partition(&g, 4);
        assert_eq!(analysis::edge_cut(&g, &parts), 0);
        let w = analysis::part_weights(&g, &parts, 4);
        assert!(w.iter().all(|&x| x == 60), "{w:?}");
    }

    #[test]
    fn separates_cliques() {
        let mut b = GraphBuilder::new();
        for base in [0u64, 20] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_edge(acct(base + i), acct(base + j), 5);
                }
            }
        }
        b.add_edge(acct(0), acct(20), 1);
        let g = b.build();
        let parts = LabelPropagation::default().partition(&g, 2);
        assert_eq!(analysis::edge_cut(&g, &parts), 1);
    }

    #[test]
    fn deterministic_and_valid() {
        let g = paired_graph(30);
        let lp = LabelPropagation::default();
        let a = lp.partition(&g, 4);
        let b = lp.partition(&g, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| p < 4));
    }

    #[test]
    fn trivial_cases() {
        let empty = TxGraph::from_weighted_edges([], []);
        assert!(LabelPropagation::default().partition(&empty, 3).is_empty());
        let g = paired_graph(2);
        assert_eq!(LabelPropagation::default().partition(&g, 1), vec![0; 4]);
    }

    #[test]
    fn allocate_covers_accounts() {
        let g = paired_graph(5);
        let phi = LabelPropagation::default().allocate(&g, 2);
        assert_eq!(phi.assigned_len(), 10);
    }
}
