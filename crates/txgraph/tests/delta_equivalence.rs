//! Property: for any random transaction stream split into arbitrary
//! chunks, with accounts touched and self-transfers absorbed between
//! them, `GrowingGraph` reads back exactly the graph a single cumulative
//! `GraphBuilder::build` (the full-rebuild reference oracle) makes of
//! the same stream and touches — same accounts, vertex weights, `xadj`,
//! `adjncy`, `adjwgt`, total edge weight and index — whatever its
//! schedule folded when. That schedule takes O(log E) folds.

use proptest::prelude::*;

use mosaic_txgraph::{GraphBuilder, GrowingGraph};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn growing_graph_equals_full_rebuild(
        endpoints in proptest::collection::vec((0u64..40, 0u64..40), 0..400),
        // (op, n): op 0..=5 absorbs the next n transactions (n = 0 is an
        // empty chunk), 6 touches account 3n, 7 absorbs a self-transfer
        // of account 2n, 8 reads the graph. Touched and self-transferring
        // accounts past 40 join with no edge; the next fold re-sorts them.
        ops in proptest::collection::vec((0u8..9, 0usize..48), 1..40),
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
                0..=5 => {
                    let end = (fed + n).min(txs.len());
                    absorb(&mut growing, &mut oracle, &txs[fed..end]);
                    fed = end;
                }
                6 => {
                    let account = AccountId::new(3 * n as u64);
                    growing.touch(account);
                    oracle.touch(account);
                }
                7 => {
                    let account = 2 * n as u64;
                    absorb(&mut growing, &mut oracle, &[tx(1000, account, account)]);
                }
                _ => prop_assert_eq!(growing.graph(), &oracle.build()),
            }
            growing.check_invariants().unwrap();
        }
        absorb(&mut growing, &mut oracle, &txs[fed..]);
        prop_assert_eq!(growing.graph(), &oracle.build());
        growing.check_invariants().unwrap();
    }
}

#[test]
fn one_edge_chunks_take_logarithmically_many_merges() {
    // Each chunk adds one new edge to a path. Folding every chunk as it
    // arrives takes 4096 folds; the geometric schedule grows the CSR by
    // ≥ 1/8 per fold once it has 8 edges: ≈ 8 + log_{9/8}(512) ≈ 61.
    const CHUNKS: u64 = 4096;
    let mut growing = GrowingGraph::new();
    let mut oracle = GraphBuilder::new();
    let mut folds = 0;
    for i in 0..CHUNKS {
        let chunk = [tx(i, i, i + 1)];
        let before = growing.merged_edge_count();
        growing.absorb(&chunk);
        oracle.add_transactions(&chunk);
        if growing.merged_edge_count() != before {
            folds += 1;
        }
    }
    assert!(folds <= 100, "{folds} folds for {CHUNKS} one-edge chunks");
    assert_eq!(growing.graph(), &oracle.build());
    assert_eq!(growing.merged_edge_count(), CHUNKS as usize);
}
