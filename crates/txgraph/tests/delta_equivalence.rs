//! Property: for any random transaction stream split into arbitrary
//! windows, accreting per-window deltas with `TxGraph::merge_delta`
//! produces exactly the graph a single cumulative `GraphBuilder::build`
//! (the full-rebuild reference oracle) produces from the whole stream —
//! same accounts, vertex weights, `xadj`, `adjncy`, `adjwgt`, and total
//! edge weight. The same holds for `GrowingGraph`, whatever its merge
//! schedule merged when — and that schedule keeps the pending delta
//! under an eighth of the CSR while taking O(log E) merges.

use proptest::prelude::*;

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

/// Splits `txs` into consecutive windows at the (deduplicated, sorted)
/// cut positions, dropping empty windows.
fn windows<'t>(txs: &'t [Transaction], cuts: &[usize]) -> Vec<&'t [Transaction]> {
    let mut positions: Vec<usize> = cuts
        .iter()
        .map(|&c| if txs.is_empty() { 0 } else { c % txs.len() })
        .collect();
    positions.push(0);
    positions.push(txs.len());
    positions.sort_unstable();
    positions.dedup();
    positions
        .windows(2)
        .map(|w| &txs[w[0]..w[1]])
        .filter(|w| !w.is_empty())
        .collect()
}

/// Absorbs `chunk` into both sides, then checks the schedule's bound:
/// no edge pending, or fewer than an eighth of the merged CSR's.
fn absorb_checked(growing: &mut GrowingGraph, oracle: &mut GraphBuilder, chunk: &[Transaction]) {
    growing.absorb(chunk);
    oracle.add_transactions(chunk);
    let (pending, merged) = (growing.pending_edge_count(), growing.merged_edge_count());
    assert!(
        pending == 0 || pending * 8 < merged,
        "{pending} edges pending over {merged} merged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_accretion_equals_full_rebuild(
        endpoints in proptest::collection::vec((0u64..48, 0u64..48), 1..300),
        cuts in proptest::collection::vec(0usize..300, 0..10),
    ) {
        let txs: Vec<Transaction> = endpoints
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| tx(i as u64, from, to))
            .collect();

        // Full-rebuild oracle: one cumulative builder over the stream.
        let mut oracle_builder = GraphBuilder::new();
        oracle_builder.add_transactions(&txs);
        let oracle = oracle_builder.build();

        // Incremental path: per-window drain_delta + merge_delta.
        let mut incremental = TxGraph::default();
        let mut window_builder = GraphBuilder::new();
        for window in windows(&txs, &cuts) {
            window_builder.add_transactions(window);
            incremental.merge_delta(&window_builder.drain_delta());
        }

        // Field-by-field (the quantities the partitioners consume) ...
        prop_assert_eq!(incremental.accounts(), oracle.accounts());
        prop_assert_eq!(incremental.vwgt(), oracle.vwgt());
        prop_assert_eq!(incremental.xadj(), oracle.xadj());
        prop_assert_eq!(incremental.adjncy(), oracle.adjncy());
        prop_assert_eq!(incremental.adjwgt(), oracle.adjwgt());
        prop_assert_eq!(
            incremental.total_edge_weight(),
            oracle.total_edge_weight()
        );
        // ... and wholesale (also covers the account -> node index).
        prop_assert_eq!(&incremental, &oracle);
    }

    #[test]
    fn reused_window_builder_leaves_no_residue(
        endpoints in proptest::collection::vec((0u64..16, 0u64..16), 1..60),
    ) {
        // Draining twice in a row yields an empty delta: nothing leaks
        // between windows through the reused allocations.
        let txs: Vec<Transaction> = endpoints
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| tx(i as u64, from, to))
            .collect();
        let mut builder = GraphBuilder::new();
        builder.add_transactions(&txs);
        let first = builder.drain_delta();
        prop_assert!(!first.is_empty());
        prop_assert!(builder.drain_delta().is_empty());
        prop_assert_eq!(builder.vertex_count(), 0);
        prop_assert_eq!(builder.edge_count(), 0);
    }

    #[test]
    fn growing_graph_equals_full_rebuild(
        endpoints in proptest::collection::vec((0u64..40, 0u64..40), 0..400),
        // (op, n): op 0..=5 absorbs the next n transactions (n = 0 is an
        // empty chunk), 6 reads the graph.
        ops in proptest::collection::vec((0u8..7, 0usize..48), 1..40),
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
                    absorb_checked(&mut growing, &mut oracle, &txs[fed..end]);
                    fed = end;
                }
                _ => prop_assert_eq!(growing.graph(), &oracle.build()),
            }
        }
        absorb_checked(&mut growing, &mut oracle, &txs[fed..]);
        prop_assert_eq!(growing.graph(), &oracle.build());
        prop_assert_eq!(growing.pending_edge_count(), 0);
    }
}

#[test]
fn one_edge_chunks_take_logarithmically_many_merges() {
    // Each chunk adds one new edge to a path. Merging every chunk as it
    // arrives takes 4096 merges; the geometric schedule grows the CSR by
    // ≥ 1/8 per merge once it has 8 edges: ≈ 8 + log_{9/8}(512) ≈ 61.
    const CHUNKS: u64 = 4096;
    let mut growing = GrowingGraph::new();
    let mut oracle = GraphBuilder::new();
    let mut merges = 0;
    for i in 0..CHUNKS {
        let chunk = [tx(i, i, i + 1)];
        let before = growing.merged_edge_count();
        growing.absorb(&chunk);
        oracle.add_transactions(&chunk);
        if growing.merged_edge_count() != before {
            merges += 1;
        }
    }
    assert!(
        merges <= 100,
        "{merges} merges for {CHUNKS} one-edge chunks"
    );
    assert_eq!(growing.graph(), &oracle.build());
    assert_eq!(growing.merged_edge_count(), CHUNKS as usize);
}
