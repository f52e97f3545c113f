//! Property: `TxGraph::from_transactions` builds exactly the graph
//! `GraphBuilder` makes of the same transactions, and exactly the graph
//! an ordered-map construction written here makes of them. The second
//! oracle matters because `GraphBuilder::build` shares the CSR fill with
//! `from_transactions`: a fault in that fill would hide from the first.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mosaic_txgraph::{GraphBuilder, NodeId, TxGraph};
use mosaic_types::{AccountId, AccountShardMap, BlockHeight, Transaction, TxId};

/// Endpoints are drawn from this pool: small ids, so pairs repeat in
/// both directions, and ids at and past ϕ's dense-table cap.
const POOL: [u64; 14] = [
    0,
    1,
    2,
    3,
    5,
    8,
    13,
    21,
    AccountShardMap::TABLE_CAP - 1,
    AccountShardMap::TABLE_CAP,
    AccountShardMap::TABLE_CAP + 9,
    1 << 40,
    u64::MAX - 1,
    u64::MAX,
];

fn tx(id: u64, from: u64, to: u64) -> Transaction {
    Transaction::new(
        TxId::new(id),
        AccountId::new(from),
        AccountId::new(to),
        BlockHeight::new(id),
    )
}

fn builder_graph(txs: &[Transaction]) -> TxGraph {
    let mut b = GraphBuilder::new();
    b.add_transactions(txs);
    b.build()
}

/// Checks `graph` against the slow obvious construction: ordered maps of
/// vertex weights and of each account's neighbours.
fn assert_matches_ordered_maps(graph: &TxGraph, txs: &[Transaction]) {
    let mut vertex: BTreeMap<AccountId, u64> = BTreeMap::new();
    let mut adjacent: BTreeMap<AccountId, BTreeMap<AccountId, u64>> = BTreeMap::new();
    for tx in txs {
        *vertex.entry(tx.from).or_default() += 1;
        if tx.from == tx.to {
            continue;
        }
        *vertex.entry(tx.to).or_default() += 1;
        *adjacent
            .entry(tx.from)
            .or_default()
            .entry(tx.to)
            .or_default() += 1;
        *adjacent
            .entry(tx.to)
            .or_default()
            .entry(tx.from)
            .or_default() += 1;
    }
    let accounts: Vec<AccountId> = vertex.keys().copied().collect();
    assert_eq!(graph.accounts(), accounts.as_slice());
    assert_eq!(graph.vwgt(), vertex.values().copied().collect::<Vec<_>>());
    let mut twice_total = 0;
    for (i, &account) in accounts.iter().enumerate() {
        let node = NodeId::new(i as u32);
        assert_eq!(graph.node_of(account), Some(node));
        let row: Vec<(AccountId, u64)> = graph
            .neighbors(node)
            .map(|(nb, w)| (graph.account_of(nb), w))
            .collect();
        let expected: Vec<(AccountId, u64)> = adjacent
            .get(&account)
            .map(|nbs| nbs.iter().map(|(&a, &w)| (a, w)).collect())
            .unwrap_or_default();
        twice_total += expected.iter().map(|&(_, w)| w).sum::<u64>();
        assert_eq!(row, expected, "row of {account:?}");
    }
    assert_eq!(graph.total_edge_weight() * 2, twice_total);
    assert_eq!(graph.xadj().len(), accounts.len() + 1);
}

#[test]
fn empty_slice_is_the_empty_graph() {
    let g = TxGraph::from_transactions(&[]);
    assert_eq!(g, TxGraph::default());
    assert_eq!(g, builder_graph(&[]));
}

#[test]
fn self_transfers_only_weigh_vertices() {
    let txs = [tx(0, 7, 7), tx(1, 7, 7), tx(2, POOL[9], POOL[9])];
    let g = TxGraph::from_transactions(&txs);
    assert_eq!(g.edge_count(), 0);
    assert_eq!(g.vwgt(), [2, 1]);
    assert_eq!(g, builder_graph(&txs));
}

#[test]
fn a_pair_in_both_directions_is_one_edge() {
    let txs = [tx(0, 9, 4), tx(1, 4, 9), tx(2, 9, 4), tx(3, 4, 4)];
    let g = TxGraph::from_transactions(&txs);
    assert_eq!(g.edge_count(), 1);
    assert_eq!(g.total_edge_weight(), 3);
    assert_eq!(g.vwgt(), [4, 3]);
    assert_eq!(g, builder_graph(&txs));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any slice (empty included) over the pool; with `self_only` every
    /// transaction is a self-transfer.
    #[test]
    fn from_transactions_equals_both_oracles(
        endpoints in proptest::collection::vec((0..POOL.len(), 0..POOL.len()), 0..300),
        self_only in any::<bool>(),
    ) {
        let txs: Vec<Transaction> = endpoints
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let to = if self_only { a } else { b };
                tx(i as u64, POOL[a], POOL[to])
            })
            .collect();
        let graph = TxGraph::from_transactions(&txs);
        prop_assert_eq!(&graph, &builder_graph(&txs));
        assert_matches_ordered_maps(&graph, &txs);
    }
}
