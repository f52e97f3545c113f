//! The Mosaic framework: epoch orchestration over a client population.
//!
//! This is the "assembles final allocation results from many migration
//! requests" part of the system: every epoch, clients independently run
//! their policy (Pilot by default) on their local state plus the public
//! workload vector, submit migration requests to the beacon chain, the
//! beacon commits the best `λ`, and reconfiguration applies them.
//!
//! In scope: simulating a *population* of clients. It is stored as one
//! interaction graph — row ν (of the training [`TxGraph`] CSR, plus the
//! edges ν gained since) *is* client ν's historical counterparty
//! multiset `T^ν_h` — plus a sparse map holding the expectations `T^ν_e`
//! of the accounts β-sampled this epoch. The scoring step for ν reads
//! only row ν, the public allocation ϕ and the public workload vector
//! `Ω` — the paper's information boundary — so a decision is still
//! `O(deg(ν) + k)` on
//! `16 + 12·deg(ν) + 12·|T^ν_e| + 8k` bytes (Table IV), whatever the
//! population size. Sharing one graph is a property of the simulator,
//! not of the protocol.
//!
//! Out of scope: being a wallet. A wallet holds one [`Client`], not a
//! graph; [`Client`] and [`CounterpartySet`] are that wallet-side
//! reference, [`MosaicFramework::client`] materialises a row as one, and
//! the population path is property-tested against one standalone
//! [`Client`] per account (`tests/framework_oracle.rs`).
//!
//! [`MosaicFramework::run_epoch`] bundles the five §V-A steps for
//! standalone use; the experiment engine (`mosaic-sim`'s
//! `MosaicStrategy`) drives the same steps through the finer-grained
//! [`MosaicFramework::set_expectations`] / [`MosaicFramework::propose`] /
//! [`MosaicFramework::observe_epoch`] hooks so that ledger processing
//! stays inside the strategy-agnostic epoch pipeline.
//!
//! The population graph is a [`GrowingGraph`] while the training prefix
//! goes in through [`MosaicFramework::preload`], which merges on a
//! geometric schedule instead of once per chunk. The first epoch hook
//! hands its sorted CSR over to the population, which from then on
//! patches the CSR's weights in place and keeps edges and clients first
//! seen after training in per-row overflow blocks next to it
//! (`population.rs`). An epoch costs O(window · log deg) to learn; the
//! only other whole-graph passes are `propose`'s scoring pass and a fold
//! of the overflow into the CSR each time it reaches an eighth of it.

use std::iter;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::resume_unwind;
use std::thread;
use std::time::{Duration, Instant};

use mosaic_chain::{EpochOutcome, Ledger};
use mosaic_metrics::data_size::client_input_bytes;
use mosaic_txgraph::{GrowingGraph, TxGraph};
use mosaic_types::hash::{sha256_prefix_u64, FnvHashMap};
use mosaic_types::{AccountId, MigrationRequest, ShardId, SystemParams, Transaction};

use crate::client::Client;
use crate::fusion::fuse_in_place;
use crate::interaction::CounterpartySet;
use crate::policy::{ClientPolicy, PilotPolicy, PolicyContext};
use crate::population::Population;

/// Fewest clients a scoring lane is given. Below twice this a population
/// is scored on the calling thread: a lane costs a thread spawn, which a
/// few thousand ≈ 150 ns decisions do not repay.
const MIN_CLIENTS_PER_LANE: usize = 4096;

/// One scoring lane's output: its requests in node order, the input bytes
/// of its clients, and the wall-clock time the lane spent scoring.
struct Lane {
    requests: Vec<MigrationRequest>,
    input_bytes: usize,
    elapsed: Duration,
}

/// Per-epoch framework statistics (the client-side half of Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkReport {
    /// Clients that ran their policy this epoch.
    pub decisions: usize,
    /// Migration requests proposed to the beacon chain.
    pub proposed: usize,
    /// Mean compute time of one client decision (Table IV's per-client
    /// cost): the per-epoch ϕ snapshot plus every scoring lane's
    /// wall-clock time, summed and divided by `decisions`. Lanes run at
    /// once but their times add, so scoring on more cores does not shrink
    /// this figure. Each span is timed with one clock pair, so no
    /// per-client clock read is counted. Zero for an empty population.
    pub mean_decision_time: Duration,
    /// Mean bytes of input per deciding client (counterparty sets + Ω).
    pub mean_input_bytes: f64,
}

/// The client population under the Mosaic framework.
///
/// # Example
///
/// ```
/// use mosaic_chain::Ledger;
/// use mosaic_core::MosaicFramework;
/// use mosaic_types::{AccountShardMap, SystemParams};
///
/// # fn main() -> Result<(), mosaic_types::Error> {
/// let params = SystemParams::builder().shards(2).tau(10).build()?;
/// let mut ledger = Ledger::new(params, AccountShardMap::new(2), 4)?;
/// let mut mosaic = MosaicFramework::new(params);
/// let (outcome, report) = mosaic.run_epoch(&mut ledger, &[]);
/// assert_eq!(outcome.load.total_txs(), 0);
/// assert_eq!(report.proposed, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MosaicFramework<P = PilotPolicy> {
    params: SystemParams,
    /// The population: node ν is client ν, row ν its `T^ν_h`.
    graph: Histories,
    /// `T^ν_e` of the accounts β-sampled for the upcoming epoch only.
    expected: FnvHashMap<AccountId, CounterpartySet>,
    expectation_seed: u64,
    policy: P,
}

/// The population's interaction graph in its two phases.
#[derive(Debug, Clone)]
enum Histories {
    /// Before the first epoch hook, and after [`MosaicFramework::graph`]
    /// rebuilt the population sorted: merged on a geometric schedule,
    /// nodes in ascending account order.
    Training(GrowingGraph),
    /// From the first epoch on: the training CSR, updated in place.
    Live(Population),
}

impl Histories {
    /// The sorted graph (see [`MosaicFramework::graph`]).
    fn graph(&mut self) -> &TxGraph {
        if let Histories::Live(population) = self {
            *self = Histories::Training(GrowingGraph::from(population.to_graph()));
        }
        match self {
            Histories::Training(graph) => graph.graph(),
            Histories::Live(_) => unreachable!("rebuilt above"),
        }
    }

    /// The population after the training handover: the first call takes
    /// over the training CSR's buffers, copying nothing.
    fn live(&mut self) -> &mut Population {
        if let Histories::Training(graph) = self {
            let graph = std::mem::take(graph).into_graph();
            *self = Histories::Live(Population::new(graph));
        }
        match self {
            Histories::Live(population) => population,
            Histories::Training(_) => unreachable!("handed over above"),
        }
    }
}

impl MosaicFramework<PilotPolicy> {
    /// Creates an empty client population running the reference policy
    /// (Pilot).
    pub fn new(params: SystemParams) -> Self {
        MosaicFramework::with_policy(params, PilotPolicy)
    }
}

impl<P: ClientPolicy> MosaicFramework<P> {
    /// Creates an empty client population with a custom policy — clients
    /// in Mosaic are free to run any allocation algorithm (§I).
    pub fn with_policy(params: SystemParams, policy: P) -> Self {
        MosaicFramework {
            params,
            graph: Histories::Training(GrowingGraph::new()),
            expected: FnvHashMap::default(),
            expectation_seed: 0x6d6f_7361_6963, // "mosaic"
            policy,
        }
    }

    /// The policy clients run.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Checks the population graph once the epochs run (`Ok` during
    /// training); see `population.rs`.
    pub fn check_invariants(&self) -> mosaic_types::Result<()> {
        match &self.graph {
            Histories::Training(_) => Ok(()),
            Histories::Live(population) => population.check_invariants(),
        }
    }

    /// Number of known clients.
    pub fn client_count(&mut self) -> usize {
        self.graph.live().node_count()
    }

    /// The population's interaction graph: every observed or preloaded
    /// transaction, one node per client (what a miner-side allocator
    /// would build from the same history), nodes in account order.
    /// Before the first epoch hook this completes any pending
    /// [`MosaicFramework::preload`] fold; after it, the graph is rebuilt
    /// sorted, one pass over the whole graph, which only tests pay.
    pub fn graph(&mut self) -> &TxGraph {
        self.graph.graph()
    }

    /// Materialises a client's state as the wallet-side [`Client`].
    ///
    /// # Panics
    ///
    /// Panics if the client transacted with one counterparty more than
    /// `u32::MAX` times (the wallet-side multiset counts in `u32`).
    pub fn client(&mut self, account: AccountId) -> Option<Client> {
        let population = self.graph.live();
        let node = population.node_of(account)?;
        let mut history = CounterpartySet::new();
        population.visit(node.index(), |other, weight| {
            let count = u32::try_from(weight).expect("interaction count fits u32");
            history.add(population.accounts()[other.index()], count);
        });
        let expected = self.expected.get(&account).cloned().unwrap_or_default();
        Some(Client::with_knowledge(account, history, expected))
    }

    /// Preloads clients' histories from training transactions (§V-B):
    /// the same fold as [`MosaicFramework::observe_epoch`], but before
    /// the first epoch hook it merges into the training CSR only on
    /// [`GrowingGraph::absorb`]'s geometric schedule, so a training
    /// prefix fed in many chunks costs O(log E) merges.
    /// [`MosaicFramework::graph`] completes the fold, and the first
    /// epoch hook hands the CSR to the population.
    pub fn preload(&mut self, txs: &[Transaction]) {
        match &mut self.graph {
            Histories::Training(graph) => graph.absorb(txs),
            Histories::Live(population) => population.absorb(txs),
        }
    }

    /// Feeds committed transactions into the affected clients' histories
    /// (both endpoints), creating clients on first sight, in
    /// O(txs · log deg): an edge the CSR holds is patched in place, and
    /// any other edge, or client, is added next to it. Once those reach
    /// an eighth of the CSR, one pass folds them into it.
    pub fn observe_epoch(&mut self, txs: &[Transaction]) {
        self.graph.live().absorb(txs);
    }

    /// Distributes expected-future knowledge for the upcoming epoch: each
    /// client learns an (approximately) β-fraction sample of its own
    /// upcoming transactions, selected deterministically per transaction.
    /// With `β = 0` this clears all expectations. A sampled account that
    /// is not a client yet becomes one, with an empty history.
    pub fn set_expectations(&mut self, future: &[Transaction]) {
        self.expected.clear();
        let beta = self.params.beta();
        if beta <= 0.0 {
            return;
        }
        let threshold = (beta * u64::MAX as f64) as u64;
        let population = self.graph.live();
        for tx in future {
            if tx.is_self_transfer() {
                continue;
            }
            // Deterministic per-transaction coin flip.
            let mut seed_bytes = [0u8; 16];
            seed_bytes[..8].copy_from_slice(&tx.id.as_u64().to_be_bytes());
            seed_bytes[8..].copy_from_slice(&self.expectation_seed.to_be_bytes());
            if sha256_prefix_u64(&seed_bytes) <= threshold {
                self.expected.entry(tx.from).or_default().add(tx.to, 1);
                self.expected.entry(tx.to).or_default().add(tx.from, 1);
                // New accounts with plans become clients.
                population.add_client(tx.from);
                population.add_client(tx.to);
            }
        }
    }

    /// Runs every client's Pilot against the current ϕ and the published
    /// `Ω`, submitting the resulting migration requests to the ledger's
    /// beacon chain. Returns the framework report.
    ///
    /// One streaming pass over the population: ϕ is resolved once per
    /// client into a snapshot, then each row is scored against it. No
    /// decision reads another client's decision (§V-A), so a large
    /// population is scored in contiguous node-range lanes, one per
    /// available core, at least `MIN_CLIENTS_PER_LANE` clients each.
    /// Lanes are submitted in node order, so the beacon pool — and every
    /// result byte — is the same for any lane count.
    ///
    /// # Panics
    ///
    /// Panics if `omega.len()` is not the shard count or `β ∉ [0, 1]`.
    pub fn propose(&mut self, ledger: &mut Ledger, omega: &[f64]) -> FrameworkReport {
        let clients = self.client_count();
        let lanes = if clients < 2 * MIN_CLIENTS_PER_LANE {
            1
        } else {
            thread::available_parallelism()
                .map_or(1, NonZeroUsize::get)
                .min(clients / MIN_CLIENTS_PER_LANE)
        };
        self.propose_in_lanes(ledger, omega, lanes)
    }

    /// [`MosaicFramework::propose`] on exactly `lanes` lanes; lane `i`
    /// scores nodes `[n·i/lanes, n·(i+1)/lanes)`, and lane 0 runs on the
    /// calling thread.
    fn propose_in_lanes(
        &mut self,
        ledger: &mut Ledger,
        omega: &[f64],
        lanes: usize,
    ) -> FrameworkReport {
        let shards = self.params.shards();
        let beta = self.params.beta();
        let eta = self.params.eta();
        assert_eq!(omega.len(), usize::from(shards), "one Ω entry per shard");
        assert!(
            (0.0..=1.0).contains(&beta),
            "beta must be in [0,1], got {beta}"
        );
        assert!(lanes > 0, "at least one scoring lane");
        let epoch = ledger.current_epoch();
        let (expected, policy) = (&self.expected, &self.policy);
        let population = &*self.graph.live();
        let decisions = population.node_count();

        let start = Instant::now();
        let phi = ledger.phi();
        let shard_now: Vec<ShardId> = population
            .accounts()
            .iter()
            .map(|&a| phi.shard_of(a))
            .collect();
        let snapshot = start.elapsed();

        let score = |nodes: Range<usize>| -> Lane {
            let start = Instant::now();
            let mut requests = Vec::new();
            let mut input_bytes = 0usize;
            let mut psi = vec![0.0f64; usize::from(shards)];
            let mut psi_e_buf = vec![0.0f64; usize::from(shards)];
            for node in nodes {
                let account = population.accounts()[node];
                // Equation 1 over row ν. Interaction counts are integers,
                // so the sums are exact in any order.
                psi.fill(0.0);
                let degree = population.visit(node, |other, weight| {
                    psi[shard_now[other.index()].index()] += weight as f64;
                });
                let (psi_e, expected_len) = match expected.get(&account) {
                    Some(expected) => {
                        psi_e_buf.fill(0.0);
                        for (other, count) in expected.iter() {
                            // `set_expectations` made every sampled
                            // endpoint a client, so the snapshot covers it.
                            let other = population
                                .node_of(other)
                                .expect("sampled account is a client");
                            psi_e_buf[shard_now[other.index()].index()] += f64::from(count);
                        }
                        (Some(psi_e_buf.as_slice()), expected.distinct())
                    }
                    None => (None, 0),
                };
                fuse_in_place(&mut psi, psi_e, beta);

                let current = shard_now[node];
                let (target, gain) = policy.choose(&PolicyContext {
                    psi: &psi,
                    omega,
                    current,
                    eta,
                });
                if target != current {
                    requests.push(
                        MigrationRequest::new(account, current, target, epoch, gain)
                            .expect("target differs from current"),
                    );
                }
                input_bytes += client_input_bytes(degree + expected_len, shards);
            }
            Lane {
                requests,
                input_bytes,
                elapsed: start.elapsed(),
            }
        };
        let bound = |lane: usize| decisions * lane / lanes;
        let scored: Vec<Lane> = thread::scope(|scope| {
            let score = &score;
            let others: Vec<_> = (1..lanes)
                .map(|lane| scope.spawn(move || score(bound(lane)..bound(lane + 1))))
                .collect();
            let first = score(0..bound(1));
            iter::once(first)
                .chain(
                    others
                        .into_iter()
                        .map(|lane| lane.join().unwrap_or_else(|panic| resume_unwind(panic))),
                )
                .collect()
        });

        // Lanes are node ranges in order, so requests reach the beacon in
        // node order, as from a single lane. Node order is not account
        // order once newcomers join, and need not be: each client submits
        // at most one request, and the beacon sorts the pool by account.
        let mut proposed = 0usize;
        let mut input_bytes = 0usize;
        let mut compute = snapshot;
        for lane in scored {
            proposed += lane.requests.len();
            input_bytes += lane.input_bytes;
            compute += lane.elapsed;
            for request in lane.requests {
                ledger.submit_migration(request);
            }
        }

        FrameworkReport {
            decisions,
            proposed,
            mean_decision_time: compute
                .checked_div(u32::try_from(decisions).expect("TxGraph node ids are u32"))
                .unwrap_or_default(),
            mean_input_bytes: if decisions == 0 {
                0.0
            } else {
                input_bytes as f64 / decisions as f64
            },
        }
    }

    /// One full Mosaic epoch against `ledger`, following §V-A's protocol:
    ///
    /// 1. the oracle publishes `Ω` from the upcoming epoch's mempool
    ///    (`window`) under the current ϕ;
    /// 2. clients receive their β-sample of expected transactions;
    /// 3. every client runs Pilot and proposes migrations;
    /// 4. the ledger commits ≤ λ requests, reconfigures, and processes
    ///    the window;
    /// 5. clients observe the committed transactions.
    pub fn run_epoch(
        &mut self,
        ledger: &mut Ledger,
        window: &[Transaction],
    ) -> (EpochOutcome, FrameworkReport) {
        // Step 1: mempool-derived workload distribution (§V-A).
        let omega = ledger.classify(window).workload_vector();

        // Step 2: future knowledge.
        self.set_expectations(window);

        // Step 3: propose.
        let report = self.propose(ledger, &omega);

        // Step 4: commit + reconfigure + process.
        let outcome = ledger.process_epoch(window);

        // Step 5: observe.
        self.observe_epoch(window);

        (outcome, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{AccountShardMap, BlockHeight, ShardId, TxId};

    fn tx(id: u64, from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(id),
        )
    }

    fn params(k: u16) -> SystemParams {
        SystemParams::builder().shards(k).tau(10).build().unwrap()
    }

    fn ledger_with(k: u16, pairs: &[(u64, u16)]) -> Ledger {
        let mut phi = AccountShardMap::new(k);
        for &(a, s) in pairs {
            phi.assign(AccountId::new(a), ShardId::new(s)).unwrap();
        }
        Ledger::new(params(k), phi, usize::from(k) * 2).unwrap()
    }

    #[test]
    fn observe_creates_clients_for_both_endpoints() {
        let mut m = MosaicFramework::new(params(2));
        m.observe_epoch(&[tx(0, 1, 2), tx(1, 2, 3)]);
        assert_eq!(m.client_count(), 3);
        assert_eq!(m.client(AccountId::new(2)).unwrap().history().total(), 2);
    }

    /// Builds one epoch's window: 10 txs between 1 and 2, 15 between 2
    /// and 3. Account 2 is anchored to shard 1 by its heavier traffic
    /// with 3, so only account 1 should migrate.
    fn anchored_window(epoch: u64) -> Vec<Transaction> {
        let base = epoch * 25;
        let mut w: Vec<Transaction> = (0..10).map(|i| tx(base + i, 1, 2)).collect();
        w.extend((10..25).map(|i| tx(base + i, 2, 3)));
        w
    }

    #[test]
    fn repeated_interactions_drive_migration() {
        let mut ledger = ledger_with(2, &[(1, 0), (2, 1), (3, 1)]);
        let mut m = MosaicFramework::new(params(2));

        // Epoch 0: history accumulates (no proposals yet — no clients).
        let (out0, rep0) = m.run_epoch(&mut ledger, &anchored_window(0));
        assert_eq!(rep0.decisions, 0);
        assert_eq!(out0.load.cross_txs(), 10);

        // Epoch 1: account 1 follows its counterparty into shard 1.
        let (out1, rep1) = m.run_epoch(&mut ledger, &anchored_window(1));
        assert!(rep1.proposed >= 1, "a migration should be proposed");
        assert!(!out1.committed.is_empty(), "a migration should commit");
        assert_eq!(
            ledger.phi().shard_of(AccountId::new(1)),
            ledger.phi().shard_of(AccountId::new(2)),
            "pair should be co-located after migration"
        );
        assert_eq!(out1.load.cross_txs(), 0);
    }

    /// The paper's simultaneous-decision model (§V-A sets ϕ(A_Tx − {ν})
    /// to the *current* allocation for everyone) permits a perfectly
    /// symmetric pair to swap shards and keep oscillating — §VII-C leaves
    /// client coordination as future work. This test documents the
    /// behaviour rather than hiding it.
    #[test]
    fn symmetric_pair_may_swap_without_coordination() {
        let mut ledger = ledger_with(2, &[(1, 0), (2, 1)]);
        let mut m = MosaicFramework::new(params(2));
        let w0: Vec<Transaction> = (0..10).map(|i| tx(i, 1, 2)).collect();
        let _ = m.run_epoch(&mut ledger, &w0);
        let w1: Vec<Transaction> = (10..20).map(|i| tx(i, 1, 2)).collect();
        let (out1, rep1) = m.run_epoch(&mut ledger, &w1);
        // Both propose with equal gain, both commit: the pair swaps.
        assert_eq!(rep1.proposed, 2);
        assert_eq!(out1.committed.len(), 2);
        assert_ne!(
            ledger.phi().shard_of(AccountId::new(1)),
            ledger.phi().shard_of(AccountId::new(2))
        );
    }

    #[test]
    fn expectations_respect_beta_zero() {
        let mut m = MosaicFramework::new(params(2));
        m.observe_epoch(&[tx(0, 1, 2)]);
        m.set_expectations(&[tx(1, 1, 3)]);
        assert!(m.client(AccountId::new(1)).unwrap().expected().is_empty());
    }

    #[test]
    fn expectations_with_beta_one_cover_all_txs() {
        let p = params(2).with_beta(1.0).unwrap();
        let mut m = MosaicFramework::new(p);
        m.set_expectations(&[tx(0, 1, 2), tx(1, 1, 3)]);
        let c1 = m.client(AccountId::new(1)).unwrap();
        assert_eq!(c1.expected().total(), 2);
        // Clients created by expectations alone (new accounts with plans).
        assert!(m.client(AccountId::new(3)).is_some());
    }

    #[test]
    fn expectations_with_fractional_beta_sample_subset() {
        let p = params(2).with_beta(0.5).unwrap();
        let mut m = MosaicFramework::new(p);
        let future: Vec<Transaction> = (0..200).map(|i| tx(i, 1, 2)).collect();
        m.set_expectations(&future);
        let total = m.client(AccountId::new(1)).unwrap().expected().total();
        assert!(
            total > 50 && total < 150,
            "sample size {total} for beta 0.5"
        );
    }

    #[test]
    fn report_accounts_input_bytes() {
        let mut ledger = ledger_with(2, &[(1, 0), (2, 1)]);
        let mut m = MosaicFramework::new(params(2));
        let w: Vec<Transaction> = (0..4).map(|i| tx(i, 1, 2)).collect();
        let _ = m.run_epoch(&mut ledger, &w);
        let (_, rep) = m.run_epoch(&mut ledger, &w);
        assert_eq!(rep.decisions, 2);
        // Header (16) + 1 counterparty (12) + omega (2*8) = 44 per client.
        assert!((rep.mean_input_bytes - 44.0).abs() < 1e-9);
        assert!(rep.mean_decision_time > Duration::ZERO);
    }

    /// Any lane count submits exactly the one-lane pool — every field,
    /// gain bits included, in the same order — and reports the same
    /// counts and input bytes: with and without β-sampled expectations,
    /// with expectation-only newcomers and clients whose only history is
    /// a self-transfer, and with more lanes than clients.
    #[test]
    fn lanes_submit_what_one_lane_submits() {
        let k = 4;
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound
        };
        let history: Vec<Transaction> = (0..400)
            .map(|i| tx(i, next(40), next(40)))
            .chain((40..45).map(|a| tx(400 + a, a, a)))
            .collect();
        // Accounts 100.. are new: with β > 0 the sampled ones become
        // clients that have expectations and no history.
        let future: Vec<Transaction> = (0..120)
            .map(|i| tx(1000 + i, next(40), 100 + next(12)))
            .collect();
        let pairs: Vec<(u64, u16)> = (0..30).map(|a| (a, (a % 3) as u16)).collect();
        let omega = [40.0, 25.0, 10.0, 1.0];

        for beta in [0.0, 0.5] {
            let p = params(k).with_beta(beta).unwrap();
            let mut population = MosaicFramework::new(p);
            population.observe_epoch(&history);
            population.set_expectations(&future);
            let clients = population.client_count();
            assert_eq!(clients > 45, beta > 0.0, "newcomers only with β > 0");

            let run = |lanes: usize| {
                let mut ledger = ledger_with(k, &pairs);
                let report = population
                    .clone()
                    .propose_in_lanes(&mut ledger, &omega, lanes);
                let pool: Vec<_> = ledger
                    .beacon()
                    .pending()
                    .iter()
                    .map(|m| (m.account, m.from, m.to, m.proposed_at, m.gain.to_bits()))
                    .collect();
                (
                    pool,
                    report.decisions,
                    report.proposed,
                    report.mean_input_bytes.to_bits(),
                )
            };
            let one = run(1);
            assert!(!one.0.is_empty(), "β = {beta}: the skewed Ω moves someone");
            assert_eq!(one.1, clients);
            for lanes in [2, 3, 8, clients + 3] {
                assert_eq!(run(lanes), one, "β = {beta}, {lanes} lanes");
            }
        }
    }

    #[test]
    fn run_epoch_is_deterministic() {
        let run = || {
            let mut ledger = ledger_with(4, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
            let mut m = MosaicFramework::new(params(4));
            let mut summary = Vec::new();
            for e in 0..5u64 {
                let w: Vec<Transaction> = (0..20)
                    .map(|i| tx(e * 20 + i, (i % 4) + 1, ((i + 1) % 4) + 1))
                    .collect();
                let (out, rep) = m.run_epoch(&mut ledger, &w);
                summary.push((out.committed.len(), rep.proposed, out.load.cross_txs()));
            }
            summary
        };
        assert_eq!(run(), run());
    }
}
