//! A-TxAllo: the fast adaptive allocation update.

use mosaic_telemetry::Recorder;
use mosaic_txgraph::TxGraph;
use mosaic_types::{AccountShardMap, ShardId, Transaction};

use crate::certificate;
use crate::config::TxAlloConfig;
use crate::objective::AlloObjective;
use crate::sweep;

/// The adaptive TxAllo variant.
///
/// Instead of re-optimising the whole ledger, A-TxAllo looks only at the
/// *recent window* of transactions: the accounts active in the window
/// re-evaluate their shard against the same throughput objective as
/// [`crate::GTxAllo`]; every other account keeps its previous allocation.
/// This is the `O(|T_[(t−τ),t]|)` per-epoch cost the Mosaic paper's
/// Table IV reports as ~0.4 s (versus ~60 s for the global pass).
///
/// Like the global variant it is fully deterministic.
///
/// It takes [`mosaic_telemetry::global`] at construction: each update
/// of a non-empty window records a `txallo.window_graph` and a
/// `txallo.refine` span (one branch each when telemetry is off).
#[derive(Debug, Clone)]
pub struct ATxAllo {
    config: TxAlloConfig,
    recorder: Recorder,
}

impl Default for ATxAllo {
    fn default() -> Self {
        ATxAllo::new(TxAlloConfig::default())
    }
}

/// What one [`ATxAllo::update`] worked on, handed back so its result
/// can be checked: the window graph, the shard the sweep left each of
/// the graph's nodes in, the objective it scored with, and whether the
/// sweep reached a fixed point.
#[derive(Debug, Clone)]
pub struct WindowRefinement {
    /// Accounts whose shard in ϕ changed.
    pub moved: usize,
    /// The window's interaction graph (empty when nothing was refined).
    pub graph: TxGraph,
    /// The shard of each node of `graph` after the sweep.
    pub parts: Vec<u16>,
    /// The shard count `k`.
    pub shards: u16,
    /// The objective the sweep maximised.
    pub objective: AlloObjective,
    /// `true` if a round moved nothing before the round limit.
    pub converged: bool,
}

impl WindowRefinement {
    /// The single-account moves that would still raise the objective on
    /// the window graph; see [`certificate::improving_moves`]. Zero
    /// after a converged sweep.
    pub fn improving_moves(&self) -> usize {
        certificate::improving_moves(&self.graph, &self.parts, self.shards, &self.objective)
    }
}

impl ATxAllo {
    /// Creates the algorithm with an explicit config.
    pub fn new(config: TxAlloConfig) -> Self {
        ATxAllo::with_recorder(config, mosaic_telemetry::global())
    }

    /// Creates the algorithm recording its spans into `recorder`.
    pub fn with_recorder(config: TxAlloConfig, recorder: Recorder) -> Self {
        ATxAllo { config, recorder }
    }

    /// The active configuration.
    pub fn config(&self) -> TxAlloConfig {
        self.config
    }

    /// Re-allocates the accounts active in `window`, mutating `phi` in
    /// place. Returns the move count with what the update worked on: the
    /// window graph, the parts and the sweep's verdict.
    ///
    /// Accounts not appearing in `window` are untouched; brand-new
    /// accounts (present in the window but never assigned) are first
    /// resolved through `phi`'s default rule, then optimised like any
    /// other active account.
    ///
    /// Cost: one sort of the window's endpoints and one of its account
    /// pairs build the window graph ([`TxGraph::from_transactions`]);
    /// the sweep then costs `O(rounds · (Σ_v deg(v) + n·k))` at worst,
    /// but scores a shard only while a move there can win (see the
    /// sweep kernels' exact rules), so in practice one or two shards
    /// per evaluated account.
    pub fn update(&self, phi: &mut AccountShardMap, window: &[Transaction]) -> WindowRefinement {
        let k = phi.shards();
        if window.is_empty() || k <= 1 {
            return WindowRefinement {
                moved: 0,
                graph: TxGraph::default(),
                parts: Vec::new(),
                shards: k,
                objective: AlloObjective::new(self.config.eta, 0.0),
                converged: true,
            };
        }

        let graph = {
            let _span = self.recorder.span("txallo.window_graph");
            TxGraph::from_transactions(window)
        };

        let span = self.recorder.span("txallo.refine");
        // Working assignment over window accounts, seeded from phi.
        let seed: Vec<u16> = graph
            .accounts()
            .iter()
            .map(|&account| phi.shard_of(account).as_u16())
            .collect();
        let mut parts = seed.clone();

        // Recent-load estimate per shard (window activity only).
        let dv: Vec<f64> = graph.vwgt().iter().map(|&w| w.max(1) as f64).collect();
        let total: f64 = dv.iter().sum();
        let capacity = self.config.capacity_slack * total / f64::from(k);
        let objective = AlloObjective::new(self.config.eta, capacity);
        let mut load = vec![0.0f64; usize::from(k)];
        for (&p, &w) in parts.iter().zip(&dv) {
            load[usize::from(p)] += w;
        }

        // Busiest-first order, then greedy passes.
        let converged = sweep::objective_refine(
            &graph,
            &sweep::busiest_first(&graph),
            &dv,
            &objective,
            &mut parts,
            &mut load,
            self.config.rounds,
        );

        // Write back only actual changes: the seed is what phi says.
        let mut moved = 0;
        for ((&account, &p), &was) in graph.accounts().iter().zip(&parts).zip(&seed) {
            if p != was {
                phi.assign(account, ShardId::new(p))
                    .expect("in-range shard from optimisation");
                moved += 1;
            }
        }
        span.finish();
        WindowRefinement {
            moved,
            graph,
            parts,
            shards: k,
            objective,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{AccountId, BlockHeight, TxId};

    fn tx(id: u64, from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(id),
        )
    }

    #[test]
    fn empty_window_is_noop() {
        let mut phi = AccountShardMap::new(4);
        assert_eq!(ATxAllo::default().update(&mut phi, &[]).moved, 0);
        assert_eq!(phi.assigned_len(), 0);
    }

    #[test]
    fn single_shard_is_noop() {
        let mut phi = AccountShardMap::new(1);
        let window = vec![tx(0, 1, 2)];
        assert_eq!(ATxAllo::default().update(&mut phi, &window).moved, 0);
    }

    #[test]
    fn colocates_active_pair() {
        let mut phi = AccountShardMap::new(2);
        phi.assign(AccountId::new(1), ShardId::new(0)).unwrap();
        phi.assign(AccountId::new(2), ShardId::new(1)).unwrap();
        // Heavy interaction between 1 and 2 in the window.
        let window: Vec<Transaction> = (0..20).map(|i| tx(i, 1, 2)).collect();
        let moved = ATxAllo::default().update(&mut phi, &window).moved;
        assert!(moved >= 1);
        assert_eq!(
            phi.shard_of(AccountId::new(1)),
            phi.shard_of(AccountId::new(2))
        );
    }

    #[test]
    fn inactive_accounts_untouched() {
        let mut phi = AccountShardMap::new(4);
        phi.assign(AccountId::new(99), ShardId::new(3)).unwrap();
        let window = vec![tx(0, 1, 2), tx(1, 2, 1)];
        ATxAllo::default().update(&mut phi, &window);
        assert_eq!(phi.shard_of(AccountId::new(99)), ShardId::new(3));
    }

    #[test]
    fn new_accounts_get_assigned() {
        let mut phi = AccountShardMap::new(2);
        // Account 5 has never been assigned; its window partner sits in
        // shard 1 with plenty of traffic.
        phi.assign(AccountId::new(7), ShardId::new(1)).unwrap();
        let window: Vec<Transaction> = (0..10).map(|i| tx(i, 5, 7)).collect();
        ATxAllo::default().update(&mut phi, &window);
        assert_eq!(phi.shard_of(AccountId::new(5)), ShardId::new(1));
    }

    /// Every update of a non-empty window records one span per phase;
    /// an empty window or a single shard records nothing.
    #[test]
    fn telemetry_counts_every_refined_window() {
        let recorder = Recorder::enabled();
        let allo = ATxAllo::with_recorder(TxAlloConfig::default(), recorder.clone());
        let window: Vec<Transaction> = (0..30).map(|i| tx(i, i % 4, i % 9)).collect();
        let mut refined = 0;
        for (shards, len) in [(4, 30), (4, 0), (1, 30), (4, 7), (2, 30), (4, 0)] {
            let mut phi = AccountShardMap::new(shards);
            allo.update(&mut phi, &window[..len]);
            refined += u64::from(shards > 1 && len > 0);
        }
        let spans: Vec<_> = recorder
            .snapshot()
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count))
            .collect();
        assert_eq!(
            spans,
            [
                ("txallo.refine".to_string(), refined),
                ("txallo.window_graph".to_string(), refined)
            ]
        );
        assert_eq!(refined, 3);
    }

    /// The returned window graph is the one the sweep refined: its parts
    /// are what phi now says, and a converged sweep leaves no improving
    /// move on it.
    #[test]
    fn update_hands_back_what_it_refined() {
        let window: Vec<Transaction> = (0..60).map(|i| tx(i, i % 6, (i * 7) % 11)).collect();
        let mut phi = AccountShardMap::new(4);
        let refined = ATxAllo::default().update(&mut phi, &window);
        assert_eq!(refined.graph, TxGraph::from_transactions(&window));
        for (&account, &p) in refined.graph.accounts().iter().zip(&refined.parts) {
            assert_eq!(phi.shard_of(account), ShardId::new(p));
        }
        assert!(refined.converged);
        assert_eq!(refined.improving_moves(), 0);
    }

    #[test]
    fn deterministic_updates() {
        let window: Vec<Transaction> = (0..50).map(|i| tx(i, i % 7, (i % 5) + 7)).collect();
        let run = || {
            let mut phi = AccountShardMap::new(4);
            ATxAllo::default().update(&mut phi, &window);
            let mut out: Vec<(u64, u16)> =
                phi.iter().map(|(a, s)| (a.as_u64(), s.as_u16())).collect();
            out.sort_unstable();
            out
        };
        assert_eq!(run(), run());
    }
}
