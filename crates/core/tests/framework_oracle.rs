//! The population path against its oracle: `MosaicFramework` scores
//! every client in one pass over a shared graph and a ϕ snapshot; a
//! wallet scores itself from its own [`Client`]. For arbitrary traces,
//! allocations and workload vectors the two must submit the same
//! migration requests — gain bits included — and report the same
//! Table IV numbers. The training prefix goes in through `preload` in
//! arbitrary chunks, whose geometric merge schedule must build the same
//! graph as one `observe_epoch` per chunk. After every epoch the
//! population, materialised, must be the graph a `GraphBuilder` builds
//! from everything observed plus the expectation-only clients: that pins
//! the vertex weights, which no wallet sees, across the boundary between
//! the training CSR and the edges and clients added after it, and its
//! `check_invariants` must hold.

use std::collections::BTreeMap;

use mosaic_chain::Ledger;
use mosaic_core::{Client, CounterpartySet, MosaicFramework};
use mosaic_txgraph::GraphBuilder;
use mosaic_types::hash::sha256_prefix_u64;
use mosaic_types::{
    AccountId, AccountShardMap, BlockHeight, MigrationRequest, ShardId, SystemParams, Transaction,
    TxId,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The framework's sampling rule (`set_expectations`): one deterministic
/// coin per transaction id, heads with probability β.
fn is_sampled(tx: &Transaction, beta: f64) -> bool {
    let mut seed = [0u8; 16];
    seed[..8].copy_from_slice(&tx.id.as_u64().to_be_bytes());
    seed[8..].copy_from_slice(&0x6d6f_7361_6963u64.to_be_bytes()); // "mosaic"
    beta > 0.0 && sha256_prefix_u64(&seed) <= (beta * u64::MAX as f64) as u64
}

/// One standalone wallet per account, fed only through `Client`'s own
/// API.
#[derive(Default)]
struct Wallets(BTreeMap<AccountId, Client>);

impl Wallets {
    fn wallet(&mut self, account: AccountId) -> &mut Client {
        self.0
            .entry(account)
            .or_insert_with(|| Client::new(account))
    }

    /// Hands each sampled account its expectations and returns those
    /// accounts, which become clients.
    fn set_expectations(&mut self, future: &[Transaction], beta: f64) -> Vec<AccountId> {
        self.0.values_mut().for_each(Client::clear_expected);
        let mut sampled: BTreeMap<AccountId, CounterpartySet> = BTreeMap::new();
        for tx in future {
            if !tx.is_self_transfer() && is_sampled(tx, beta) {
                sampled.entry(tx.from).or_default().add(tx.to, 1);
                sampled.entry(tx.to).or_default().add(tx.from, 1);
            }
        }
        let accounts = sampled.keys().copied().collect();
        for (account, expected) in sampled {
            self.wallet(account).set_expected(expected);
        }
        accounts
    }

    fn observe(&mut self, txs: &[Transaction]) {
        for tx in txs {
            for account in tx.accounts() {
                self.wallet(account).observe(tx);
            }
        }
    }
}

fn request_key(mr: &MigrationRequest) -> (AccountId, ShardId, ShardId, u64, u64) {
    (
        mr.account,
        mr.from,
        mr.to,
        mr.proposed_at.as_u64(),
        mr.gain.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn population_pass_equals_one_wallet_per_account(
        seed in any::<u64>(),
        k in 2u16..=16,
        beta_idx in 0usize..3,
        accounts in 3u64..30,
        training_len in 0u64..200,
        window_len in 0u64..60,
        epochs in 3u64..6,
    ) {
        let mut rng = TestRng::deterministic(seed);
        let beta = [0.0, 0.3, 1.0][beta_idx];
        let params = SystemParams::builder()
            .shards(k)
            .tau(10)
            .beta(beta)
            .build()
            .unwrap();

        // Random ϕ that leaves about a third of the accounts to the
        // default rule.
        let mut phi = AccountShardMap::new(k);
        for a in 0..accounts {
            if rng.next_u64() % 3 < 2 {
                let shard = ShardId::new((rng.next_u64() % u64::from(k)) as u16);
                phi.assign(AccountId::new(a), shard).unwrap();
            }
        }
        let mut ledger = Ledger::new(params, phi, usize::from(k) * 2).unwrap();
        ledger.set_migration_capacity(Some(5));

        let mut framework = MosaicFramework::new(params);
        let mut wallets = Wallets::default();
        let mut next_tx = 0u64;

        // Training prefix, cut into random chunks (empty ones included):
        // `framework` preloads them, `per_chunk` observes one each.
        let training: Vec<Transaction> = (0..training_len)
            .map(|_| {
                let from = rng.next_u64() % (accounts + 8);
                let to = rng.next_u64() % (accounts + 8);
                next_tx += 1;
                Transaction::new(
                    TxId::new(next_tx),
                    AccountId::new(from),
                    AccountId::new(to),
                    BlockHeight::new(0),
                )
            })
            .collect();
        let mut per_chunk = MosaicFramework::new(params);
        let mut rest = training.as_slice();
        loop {
            let cut = (rng.next_u64() % 16).min(rest.len() as u64) as usize;
            let (chunk, tail) = rest.split_at(cut);
            framework.preload(chunk);
            per_chunk.observe_epoch(chunk);
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        wallets.observe(&training);
        let mut oracle = GraphBuilder::new();
        oracle.add_transactions(&training);
        // Read through a clone, so that the epochs below still start
        // with the preload fold pending.
        prop_assert_eq!(framework.clone().graph(), per_chunk.graph());
        prop_assert_eq!(per_chunk.graph(), &oracle.build());

        for epoch in 0..epochs {
            // Self-transfers and repeated pairs come from the small id
            // range; ids past `accounts` are newcomers of this window.
            let window: Vec<Transaction> = (0..window_len)
                .map(|_| {
                    let mut pick = || match rng.next_u64() % 8 {
                        0 => accounts + epoch * 4 + rng.next_u64() % 4,
                        _ => rng.next_u64() % accounts,
                    };
                    let (from, to) = (pick(), pick());
                    next_tx += 1;
                    Transaction::new(
                        TxId::new(next_tx),
                        AccountId::new(from),
                        AccountId::new(to),
                        BlockHeight::new(epoch),
                    )
                })
                .collect();
            let omega: Vec<f64> = (0..k).map(|_| rng.next_unit_f64() * 100.0).collect();

            framework.set_expectations(&window);
            for account in wallets.set_expectations(&window, beta) {
                oracle.touch(account);
            }

            prop_assert!(ledger.beacon().pending().is_empty());
            let report = framework.propose(&mut ledger, &omega);

            let mut expected_requests = Vec::new();
            let mut input_bytes = 0usize;
            for wallet in wallets.0.values() {
                input_bytes += wallet.input_size_bytes(k);
                let request = wallet
                    .migration_request(ledger.phi(), &omega, &params, ledger.current_epoch())
                    .unwrap();
                expected_requests.extend(request);
            }
            let mut submitted = ledger.beacon().pending().to_vec();
            submitted.sort_by_key(|mr| mr.account);
            prop_assert_eq!(
                submitted.iter().map(request_key).collect::<Vec<_>>(),
                expected_requests.iter().map(request_key).collect::<Vec<_>>(),
                "epoch {} k {} beta {}", epoch, k, beta
            );
            prop_assert_eq!(report.decisions, wallets.0.len());
            prop_assert_eq!(report.proposed, expected_requests.len());
            let mean_input_bytes = if wallets.0.is_empty() {
                0.0
            } else {
                input_bytes as f64 / wallets.0.len() as f64
            };
            prop_assert_eq!(report.mean_input_bytes.to_bits(), mean_input_bytes.to_bits());

            prop_assert_eq!(framework.client_count(), wallets.0.len());
            for (&account, wallet) in &wallets.0 {
                prop_assert_eq!(framework.client(account).as_ref(), Some(wallet));
            }
            prop_assert!(framework.client(AccountId::new(u64::MAX)).is_none());

            // Commit up to 5 of the requests (ϕ moves under the next
            // epoch's decisions), then observe only three quarters of
            // the window, so some newcomers stay expectation-only
            // clients for good.
            ledger.process_epoch(&window);
            let observed = &window[..window.len() * 3 / 4];
            framework.observe_epoch(observed);
            wallets.observe(observed);
            oracle.add_transactions(observed);
            framework.check_invariants().unwrap();
            ledger.check_invariants().unwrap();
            prop_assert_eq!(framework.clone().graph(), &oracle.build(), "after epoch {}", epoch);
        }
    }
}
