//! G-TxAllo: the complete (global) deterministic allocation algorithm.

use mosaic_partition::GlobalAllocator;
use mosaic_telemetry::Recorder;
use mosaic_txgraph::TxGraph;
use mosaic_types::{AccountShardMap, ShardId};

use crate::certificate::improving_moves;
use crate::config::TxAlloConfig;
use crate::objective::AlloObjective;
use crate::sweep;

/// The global TxAllo algorithm.
///
/// Following the published TxAllo design, allocation is computed in three
/// deterministic phases over the *full historical graph*:
///
/// 1. **Community detection** — greedy label propagation driven by the
///    co-location gain: every account repeatedly joins the neighbouring
///    community it interacts with most, subject to a community-weight cap
///    (a community larger than one shard's capacity could never be
///    balanced later). Busiest accounts move first; iteration stops at a
///    fixed point.
/// 2. **Community-to-shard mapping** — longest-processing-time (LPT)
///    bin packing: communities in descending weight order land on the
///    currently lightest shard, which bounds load imbalance.
/// 3. **Account-level refinement** — single-account moves with the best
///    positive [`AlloObjective::move_delta`] polish the boundary, trading
///    residual cross-shard edges against overload.
///
/// Everything is order-deterministic: every miner computes the same ϕ
/// without extra consensus, as the Mosaic paper requires of miner-driven
/// methods. Complexity is `O(rounds · (Σ_v deg(v) + n·k))` — linear in
/// the full ledger, the cost Table VI charges as `O(|T|)`.
///
/// It takes [`mosaic_telemetry::global`] at construction: each
/// [`GlobalAllocator::allocate`] records a `txallo.allocate` span; each
/// community detection adds the accounts it scored to
/// `txallo.nodes_scored`; and each detection or refinement the round
/// limit cuts short adds one to `txallo.detect_cut_short` or
/// `txallo.refine_cut_short` (one branch each when telemetry is off).
#[derive(Debug, Clone)]
pub struct GTxAllo {
    config: TxAlloConfig,
    recorder: Recorder,
}

impl Default for GTxAllo {
    fn default() -> Self {
        GTxAllo::new(TxAlloConfig::default())
    }
}

impl GTxAllo {
    /// Creates the algorithm with an explicit config.
    pub fn new(config: TxAlloConfig) -> Self {
        GTxAllo::with_recorder(config, mosaic_telemetry::global())
    }

    /// Creates the algorithm recording its span into `recorder`.
    pub fn with_recorder(config: TxAlloConfig, recorder: Recorder) -> Self {
        GTxAllo { config, recorder }
    }

    /// The active configuration.
    pub fn config(&self) -> TxAlloConfig {
        self.config
    }

    /// Computes the partition vector (one part per graph node).
    ///
    /// Debug builds certify a refinement that reached a fixed point
    /// against TxAllo's score ([`improving_moves`]): no single-account
    /// move may still raise it. A refinement the round limit cut short
    /// promises nothing and is not checked, but counts one in
    /// `txallo.refine_cut_short`; release builds never check.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn partition(&self, graph: &TxGraph, k: u16) -> Vec<u16> {
        assert!(k > 0, "need at least one shard");
        let n = graph.node_count();
        let kk = usize::from(k);
        if n == 0 {
            return Vec::new();
        }
        if k == 1 {
            return vec![0; n];
        }

        // Weighted degree = the account's workload contribution.
        let dv: Vec<f64> = graph
            .nodes()
            .map(|v| graph.node_weight(v).max(1) as f64)
            .collect();
        let total: f64 = dv.iter().sum();
        let capacity = self.config.capacity_slack * total / f64::from(k);
        let objective = AlloObjective::new(self.config.eta, capacity);

        // Busiest accounts first (shared by phases 1 and 3).
        let order = sweep::busiest_first(graph);

        // --- Phase 1: community detection ---------------------------------
        let detection = sweep::detect_communities(graph, &dv, &order, capacity, self.config.rounds);
        self.recorder
            .add("txallo.nodes_scored", detection.nodes_scored);
        if !detection.converged {
            self.recorder.add("txallo.detect_cut_short", 1);
        }

        // --- Phase 2: LPT community-to-shard mapping -----------------------
        let mut parts = map_communities_lpt(&detection.communities, &dv, k);

        // --- Phase 3: account-level refinement -----------------------------
        let mut load = vec![0.0f64; kk];
        for v in 0..n {
            load[usize::from(parts[v])] += dv[v];
        }
        let converged = sweep::objective_refine(
            graph,
            &order,
            &dv,
            &objective,
            &mut parts,
            &mut load,
            self.config.rounds,
        );
        if !converged {
            self.recorder.add("txallo.refine_cut_short", 1);
        }
        if cfg!(debug_assertions) && converged {
            let left = improving_moves(graph, &parts, k, &objective);
            assert_eq!(
                left, 0,
                "single-account moves still raise the objective after G-TxAllo's converged \
                 refinement over {n} accounts"
            );
        }

        parts
    }
}

/// LPT bin packing of communities onto `k` shards: heaviest community to
/// the currently lightest shard (ties to the lower community id).
///
/// Community ids are node ids, so both per-community tables are `Vec`s
/// indexed by id. Every `dv` is ≥ 1, so a zero weight means "no member".
fn map_communities_lpt(communities: &[u32], dv: &[f64], k: u16) -> Vec<u16> {
    let n = communities.len();
    let kk = usize::from(k);
    let mut weight = vec![0.0f64; n];
    for v in 0..n {
        weight[communities[v] as usize] += dv[v];
    }
    let mut by_weight: Vec<u32> = (0..n as u32)
        .filter(|&c| weight[c as usize] > 0.0)
        .collect();
    by_weight.sort_unstable_by(|&a, &b| {
        weight[b as usize]
            .partial_cmp(&weight[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut shard_load = vec![0.0f64; kk];
    let mut comm_shard = vec![0u16; n];
    for c in by_weight {
        let lightest = (0..kk)
            .min_by(|&a, &b| {
                shard_load[a]
                    .partial_cmp(&shard_load[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("k > 0");
        shard_load[lightest] += weight[c as usize];
        comm_shard[c as usize] = lightest as u16;
    }

    communities
        .iter()
        .map(|&c| comm_shard[c as usize])
        .collect()
}

impl GlobalAllocator for GTxAllo {
    fn name(&self) -> &'static str {
        "G-TxAllo"
    }

    fn allocate(&self, graph: &TxGraph, k: u16) -> AccountShardMap {
        let _span = self.recorder.span("txallo.allocate");
        let parts = self.partition(graph, k);
        let mut phi = AccountShardMap::new(k);
        for node in graph.nodes() {
            phi.assign(graph.account_of(node), ShardId::new(parts[node.index()]))
                .expect("partition produced in-range shard");
        }
        phi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_txgraph::{analysis, GraphBuilder};
    use mosaic_types::{hash_shard, AccountId};

    fn acct(i: u64) -> AccountId {
        AccountId::new(i)
    }

    /// `count` 6-cliques of weight-10 edges, each joined to the next by
    /// one weight-1 edge.
    fn cliques(count: u64) -> TxGraph {
        let mut b = GraphBuilder::new();
        for base in (0..count).map(|c| 10 * c) {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.add_edge(acct(base + i), acct(base + j), 10);
                }
            }
        }
        for base in (1..count).map(|c| 10 * c) {
            b.add_edge(acct(base - 10), acct(base), 1);
        }
        b.build()
    }

    fn two_cliques() -> TxGraph {
        cliques(2)
    }

    #[test]
    fn colocates_cliques() {
        let g = two_cliques();
        let parts = GTxAllo::default().partition(&g, 2);
        assert_eq!(analysis::edge_cut(&g, &parts), 1);
        // And balanced: one clique per shard.
        let w = analysis::part_weights(&g, &parts, 2);
        assert!((w[0] as i64 - w[1] as i64).abs() <= 2, "{w:?}");
    }

    /// One `txallo.allocate` span per allocation, whatever the graph.
    #[test]
    fn telemetry_counts_every_allocation() {
        let recorder = mosaic_telemetry::Recorder::enabled();
        let allo = GTxAllo::with_recorder(TxAlloConfig::default(), recorder.clone());
        allo.allocate(&two_cliques(), 2);
        allo.allocate(&TxGraph::default(), 4);
        allo.allocate(&two_cliques(), 1);
        allo.partition(&two_cliques(), 2);
        let spans: Vec<_> = recorder
            .snapshot()
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count))
            .collect();
        assert_eq!(spans, [("txallo.allocate".to_string(), 3)]);
    }

    /// A refinement the round limit cut short counts one in
    /// `txallo.refine_cut_short`; a converged one counts nothing.
    #[test]
    fn telemetry_counts_refinements_cut_short() {
        let recorder = mosaic_telemetry::Recorder::enabled();
        let counted = || recorder.counter("txallo.refine_cut_short").value();
        let partition = |rounds, graph: &TxGraph| {
            let config = TxAlloConfig {
                rounds,
                ..TxAlloConfig::default()
            };
            GTxAllo::with_recorder(config, recorder.clone()).partition(graph, 2);
        };
        // Three cliques over two shards: the refinement moves an account
        // in its first round, so one round leaves no round to confirm a
        // fixed point.
        let graph = cliques(3);
        partition(TxAlloConfig::default().rounds, &graph);
        assert_eq!(counted(), 0, "a converged refinement counts nothing");
        partition(1, &graph);
        assert_eq!(counted(), 1, "one round cannot reach the fixed point");
    }

    /// Community detection the round limit cut short counts one in
    /// `txallo.detect_cut_short`; a converged one counts nothing.
    #[test]
    fn telemetry_counts_detections_cut_short() {
        let recorder = mosaic_telemetry::Recorder::enabled();
        let counted = || recorder.counter("txallo.detect_cut_short").value();
        let partition = |rounds| {
            let config = TxAlloConfig {
                rounds,
                ..TxAlloConfig::default()
            };
            GTxAllo::with_recorder(config, recorder.clone()).partition(&cliques(3), 2);
        };
        // Round 1 gathers every clique's accounts, so one round leaves no
        // round to confirm a fixed point.
        partition(TxAlloConfig::default().rounds);
        assert_eq!(counted(), 0, "a converged detection counts nothing");
        partition(1);
        assert_eq!(counted(), 1, "one round cannot reach the fixed point");
    }

    /// `txallo.nodes_scored` adds, per partition, the evaluations its
    /// community detection made; a graph too small to detect on adds
    /// nothing.
    #[test]
    fn telemetry_counts_nodes_scored() {
        let recorder = mosaic_telemetry::Recorder::enabled();
        let allo = GTxAllo::with_recorder(TxAlloConfig::default(), recorder.clone());
        let graph = cliques(3);
        let dv: Vec<f64> = graph
            .nodes()
            .map(|v| graph.node_weight(v).max(1) as f64)
            .collect();
        let capacity = allo.config.capacity_slack * dv.iter().sum::<f64>() / 2.0;
        let order = sweep::busiest_first(&graph);
        let rounds = allo.config.rounds;
        let detection = sweep::detect_communities(&graph, &dv, &order, capacity, rounds);
        assert!(detection.nodes_scored >= graph.node_count() as u64);

        allo.partition(&graph, 2);
        allo.partition(&graph, 1);
        allo.partition(&TxGraph::default(), 2);
        let counted = recorder.counter("txallo.nodes_scored").value();
        assert_eq!(counted, detection.nodes_scored);
        allo.partition(&graph, 2);
        let counted = recorder.counter("txallo.nodes_scored").value();
        assert_eq!(counted, 2 * detection.nodes_scored);
    }

    #[test]
    fn deterministic() {
        let g = two_cliques();
        let a = GTxAllo::default().partition(&g, 4);
        let b = GTxAllo::default().partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn caps_community_growth() {
        // One giant clique: without the cap it would form one community
        // heavier than any shard could hold. With the cap, LPT spreads
        // the (capped) communities over both shards.
        let mut b = GraphBuilder::new();
        for i in 0..30u64 {
            for j in (i + 1)..30 {
                b.add_edge(acct(i), acct(j), 1);
            }
        }
        let g = b.build();
        let cfg = TxAlloConfig::default();
        let parts = GTxAllo::new(cfg).partition(&g, 2);
        let w = analysis::part_weights(&g, &parts, 2);
        let total: u64 = w.iter().sum();
        let capacity = cfg.capacity_slack * total as f64 / 2.0;
        let max_dv = 29.0;
        let max = *w.iter().max().unwrap() as f64;
        assert!(
            max <= capacity + max_dv + 1.0,
            "loads beyond capacity bound: {w:?}, capacity {capacity}"
        );
    }

    #[test]
    fn trivial_cases() {
        let empty = TxGraph::from_weighted_edges([], []);
        assert!(GTxAllo::default().partition(&empty, 4).is_empty());
        let g = two_cliques();
        assert_eq!(GTxAllo::default().partition(&g, 1), vec![0; 12]);
    }

    #[test]
    fn allocate_covers_all_accounts() {
        let g = two_cliques();
        let phi = GTxAllo::default().allocate(&g, 2);
        assert_eq!(phi.assigned_len(), g.node_count());
    }

    #[test]
    fn improves_objective_over_hash_allocation() {
        let g = two_cliques();
        let cfg = TxAlloConfig::default();
        let total: f64 = g.nodes().map(|v| g.node_weight(v).max(1) as f64).sum();
        let capacity = cfg.capacity_slack * total / 2.0;
        let objective = AlloObjective::new(cfg.eta, capacity);
        let score = |parts: &[u16]| {
            let intra: u64 = g
                .nodes()
                .flat_map(|v| {
                    g.neighbors(v)
                        .filter(move |&(nb, _)| nb > v && parts[nb.index()] == parts[v.index()])
                        .map(|(_, w)| w)
                })
                .sum();
            let mut load = [0.0f64; 2];
            for v in g.nodes() {
                load[usize::from(parts[v.index()])] += g.node_weight(v).max(1) as f64;
            }
            let overload: f64 = load.iter().map(|&l| objective.overload(l)).sum();
            objective.colocation_gain() * (intra as f64 - overload)
        };
        let hash_parts: Vec<u16> = g
            .nodes()
            .map(|v| hash_shard(g.account_of(v), 2).as_u16())
            .collect();
        let allo_parts = GTxAllo::new(cfg).partition(&g, 2);
        assert!(
            score(&allo_parts) >= score(&hash_parts),
            "optimisation regressed the objective"
        );
    }

    #[test]
    fn many_small_communities_balance_over_shards() {
        // 12 tight pairs: communities = pairs, LPT spreads them evenly.
        let mut b = GraphBuilder::new();
        for i in 0..12u64 {
            b.add_edge(acct(2 * i), acct(2 * i + 1), 10);
        }
        let g = b.build();
        let parts = GTxAllo::default().partition(&g, 4);
        assert_eq!(analysis::edge_cut(&g, &parts), 0);
        let w = analysis::part_weights(&g, &parts, 4);
        assert_eq!(w, vec![60, 60, 60, 60]);
    }
}
