//! Property: for any random transaction stream split into arbitrary
//! chunks, with accounts touched, self-transfers absorbed and the graph
//! read between them, `GrowingGraph` reads back exactly the graph a
//! single cumulative `GraphBuilder::build` (the full-rebuild reference
//! oracle) makes of the same stream and touches — same accounts, vertex
//! weights, `xadj`, `adjncy`, `adjwgt`, total edge weight and index —
//! whatever its schedule folded when, while it is learning (edges in the
//! log) and once it is patching (edges in the rows). That schedule takes
//! O(log E) folds.

use proptest::prelude::*;

use mosaic_telemetry::Recorder;
use mosaic_txgraph::{GraphBuilder, GrowingGraph, TxGraph};
use mosaic_types::{AccountId, BlockHeight, Transaction, TxId};

fn tx(id: u64, from: u64, to: u64) -> Transaction {
    Transaction::new(
        TxId::new(id),
        AccountId::new(from),
        AccountId::new(to),
        BlockHeight::new(id),
    )
}

/// Absorbs `chunk` into both sides.
fn absorb(growing: &mut GrowingGraph, oracle: &mut GraphBuilder, chunk: &[Transaction]) {
    growing.absorb(chunk);
    oracle.add_transactions(chunk);
}

/// Row `node` of `growing` as `(account, weight)` pairs, ascending.
fn row_of(growing: &GrowingGraph, node: usize) -> Vec<(AccountId, u64)> {
    let mut row = Vec::new();
    let read = growing.visit(node, |nbr, weight| {
        row.push((growing.accounts()[nbr.index()], weight));
    });
    assert_eq!(read, row.len());
    row.sort_unstable();
    row
}

/// The row of `account` in `oracle` as `(account, weight)` pairs,
/// ascending.
fn oracle_row(oracle: &TxGraph, account: AccountId) -> Vec<(AccountId, u64)> {
    let node = oracle
        .node_of(account)
        .expect("the oracle knows the account");
    let mut row: Vec<_> = oracle
        .neighbors(node)
        .map(|(nbr, weight)| (oracle.account_of(nbr), weight))
        .collect();
    row.sort_unstable();
    row
}

/// The fold count of a graph recording into `recorder`.
fn folds(recorder: &Recorder) -> u64 {
    recorder.counter("txgraph.folds").value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn growing_graph_equals_full_rebuild(
        endpoints in proptest::collection::vec((0u64..300, 0u64..300), 0..3000),
        // (op, n): op 0..=8 absorbs the next n transactions (n = 0 is an
        // empty chunk), 9..=10 touches account 3n, 11 absorbs a
        // self-transfer of account 2n, 12 reads the whole graph of a
        // clone (which leaves this one learning), 13 reads the row of
        // node n mod the node count, 14 asks for the rows, 15 reads the
        // whole graph. Touched and self-transferring accounts past 300
        // join with no edge; the next fold re-sorts them.
        ops in proptest::collection::vec((0u8..16, 0usize..400), 1..48),
    ) {
        let txs: Vec<Transaction> = endpoints
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| tx(i as u64, from, to))
            .collect();
        let mut growing = GrowingGraph::new();
        let mut oracle = GraphBuilder::new();
        let mut fed = 0;
        for &(op, n) in &ops {
            match op {
                0..=8 => {
                    let end = (fed + n).min(txs.len());
                    absorb(&mut growing, &mut oracle, &txs[fed..end]);
                    fed = end;
                }
                9 | 10 => {
                    let account = AccountId::new(3 * n as u64);
                    growing.touch(account);
                    oracle.touch(account);
                }
                11 => {
                    let account = 2 * n as u64;
                    absorb(&mut growing, &mut oracle, &[tx(10_000, account, account)]);
                }
                12 => prop_assert_eq!(growing.clone().graph(), &oracle.build()),
                13 if growing.node_count() > 0 => {
                    let node = n % growing.node_count();
                    let account = growing.accounts()[node];
                    prop_assert_eq!(row_of(&growing, node), oracle_row(&oracle.build(), account));
                }
                14 => {
                    growing.rows();
                }
                15 => prop_assert_eq!(growing.graph(), &oracle.build()),
                _ => {}
            }
            growing.check_invariants().unwrap();
        }
        absorb(&mut growing, &mut oracle, &txs[fed..]);
        growing.check_invariants().unwrap();
        prop_assert_eq!(growing.graph(), &oracle.build());
        growing.check_invariants().unwrap();
    }
}

/// A learning stream of 20 000 transactions over 2 000 accounts in
/// random chunks crosses the log's fold threshold dozens of times, with
/// touches, row reads and whole-graph reads of clones between the folds;
/// every state checks out and reads what the oracle holds. Then the rows
/// are read and the rest of the stream is patched in.
#[test]
fn learning_crosses_the_fold_threshold_many_times() {
    let mut state = 0x5eed_f01d_u64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let recorder = Recorder::enabled();
    let mut growing = GrowingGraph::new();
    growing.set_recorder(&recorder);
    let mut oracle = GraphBuilder::new();
    let mut id = 0;
    let mut learning_folds = 0;
    for round in 0..240 {
        if round == 160 {
            learning_folds = folds(&recorder);
            growing.rows();
        }
        let chunk: Vec<Transaction> = (0..next(250))
            .map(|_| {
                id += 1;
                // Half the traffic among 100 busy accounts, so many
                // pairs repeat an edge the CSR holds.
                let spread = if next(2) == 0 { 100 } else { 2_000 };
                tx(id, next(spread), next(spread))
            })
            .collect();
        absorb(&mut growing, &mut oracle, &chunk);
        match round % 4 {
            0 => {
                let account = AccountId::new(5_000 + next(50));
                growing.touch(account);
                oracle.touch(account);
            }
            1 => {
                // The clone's folds are not this graph's: count none.
                let mut copy = growing.clone();
                copy.set_recorder(&Recorder::disabled());
                assert_eq!(copy.graph(), &oracle.build());
            }
            2 => {
                let node = next(growing.node_count() as u64) as usize;
                let account = growing.accounts()[node];
                assert_eq!(row_of(&growing, node), oracle_row(&oracle.build(), account));
            }
            _ => {}
        }
        growing.check_invariants().unwrap();
    }
    assert!(
        learning_folds >= 20,
        "{learning_folds} folds while learning"
    );
    assert!(folds(&recorder) > learning_folds, "patching folds too");
    assert_eq!(growing.graph(), &oracle.build());
}

#[test]
fn one_edge_chunks_take_logarithmically_many_merges() {
    // Each chunk adds one new edge to a path: one log pair, two CSR
    // entries. Folding every chunk as it arrives takes 4096 folds. The
    // schedule folds once the log's pairs, two entries each, reach an
    // eighth of the CSR's entries: every chunk while the CSR has at most
    // 16 entries (9 folds, leaving 18), then each fold grows the CSR by
    // at least an eighth, to 8192 entries: 9 + ⌈log_{9/8}(8192 / 18)⌉
    // = 61.
    const CHUNKS: u64 = 4096;
    let bound = 9 + ((2 * CHUNKS) as f64 / 18.0).log(1.125).ceil() as u64;
    let recorder = Recorder::enabled();
    let mut growing = GrowingGraph::new();
    growing.set_recorder(&recorder);
    let mut oracle = GraphBuilder::new();
    let mut merges = 0;
    for i in 0..CHUNKS {
        let chunk = [tx(i, i, i + 1)];
        let before = growing.merged_edge_count();
        absorb(&mut growing, &mut oracle, &chunk);
        if growing.merged_edge_count() != before {
            merges += 1;
        }
    }
    let folds = folds(&recorder);
    assert_eq!(folds, merges, "every fold merges new edges");
    assert!(folds <= bound, "{folds} folds for {CHUNKS} one-edge chunks");
    assert_eq!(growing.graph(), &oracle.build());
    assert_eq!(growing.merged_edge_count(), CHUNKS as usize);
}
