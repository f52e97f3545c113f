//! `AllocationCore`'s event API is the one place a block-ordered
//! transaction sequence becomes training chunks and τ-block epochs, so
//! its rows must not depend on how a driver cuts the sequence into
//! batches: one transaction at a time, batches spanning several
//! windows, gaps of empty blocks, with or without `advance_to` marks in
//! between — all yield the rows of one batch per window.

use mosaic::metrics::EpochMetrics;
use mosaic::prelude::*;
use mosaic::sim::engine::{EpochStrategy, RunSummary};
use mosaic::sim::AllocationCore;
use mosaic::types::Error;
use mosaic::workload::WorkloadConfig;
use proptest::prelude::*;

// Both glob imports export a `Strategy`; the tests mean the registry.
use mosaic::sim::Strategy;

type Outcome = (Vec<EpochMetrics>, RunSummary);

/// A core and its strategy, checked after every event: the owner's
/// `check_invariants` holds, and `next_boundary` never moves back —
/// `Some` values do not decrease, and once `None` it stays `None`.
struct Checked {
    core: AllocationCore,
    strategy: Box<dyn EpochStrategy>,
    rows: Vec<EpochMetrics>,
    boundary: Option<u64>,
}

impl Checked {
    fn begin(config: &ExperimentConfig, blocks: u64) -> Self {
        let mut core = AllocationCore::new(*config);
        core.begin(blocks).unwrap();
        let mut checked = Checked {
            core,
            strategy: config.strategy.build(config.params),
            rows: Vec::new(),
            boundary: Some(0),
        };
        checked.check();
        checked
    }

    fn check(&mut self) {
        self.core.check_invariants(self.strategy.as_ref()).unwrap();
        let next = self.core.next_boundary();
        let monotone = match (self.boundary, next) {
            (Some(before), Some(now)) => now >= before,
            (None, Some(_)) => false,
            (_, None) => true,
        };
        assert!(
            monotone,
            "next_boundary went {:?} -> {next:?}",
            self.boundary
        );
        self.boundary = next;
    }

    fn ingest_block(&mut self, txs: &[Transaction]) -> Result<(), Error> {
        let result = self
            .core
            .ingest_block(self.strategy.as_mut(), txs, &mut self.rows);
        self.check();
        result
    }

    fn advance_to(&mut self, block: u64) {
        self.core
            .advance_to(self.strategy.as_mut(), block, &mut self.rows)
            .unwrap();
        self.check();
    }

    fn end_stream(mut self) -> Outcome {
        self.core
            .end_stream(self.strategy.as_mut(), &mut self.rows)
            .unwrap();
        self.check();
        (self.rows, self.core.summary())
    }
}

/// The wall-clock-free part of a summary.
fn counted(summary: &RunSummary) -> (Aggregate, usize, usize, u64) {
    (
        summary.aggregate,
        summary.epochs,
        summary.total_migrations,
        summary.mean_input_bytes.to_bits(),
    )
}

/// The reference feed: one batch per training chunk / evaluation
/// window, cut at the core's own boundaries, stopping once the core
/// wants no more.
fn feed_per_window(config: &ExperimentConfig, blocks: u64, txs: &[Transaction]) -> Outcome {
    let mut feed = Checked::begin(config, blocks);
    let mut rest = txs;
    while let Some(boundary) = feed.core.next_boundary() {
        if rest.is_empty() {
            break;
        }
        let n = rest.partition_point(|tx| tx.block.as_u64() < boundary);
        feed.ingest_block(&rest[..n]).unwrap();
        feed.advance_to(boundary);
        rest = &rest[n..];
    }
    feed.end_stream()
}

/// Feeds *all* of `txs` in batches of the cycled `sizes`; after batch
/// `i`, `marks[i % len]` decides whether to declare everything below
/// the next transaction's block delivered.
fn feed_split(
    config: &ExperimentConfig,
    blocks: u64,
    txs: &[Transaction],
    sizes: &[usize],
    marks: &[bool],
) -> Outcome {
    let mut feed = Checked::begin(config, blocks);
    let mut rest = txs;
    for i in 0.. {
        if rest.is_empty() {
            break;
        }
        let n = sizes[i % sizes.len()].min(rest.len());
        feed.ingest_block(&rest[..n]).unwrap();
        rest = &rest[n..];
        if marks[i % marks.len()] {
            let mark = rest.first().map_or(blocks, |tx| tx.block.as_u64());
            feed.advance_to(mark);
        }
    }
    feed.end_stream()
}

fn tx_at(block: u64) -> Transaction {
    Transaction::new(
        TxId::new(9_999_999),
        AccountId::new(1),
        AccountId::new(2),
        BlockHeight::new(block),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn rows_do_not_depend_on_how_the_feed_is_batched(
        seed in 0u64..100_000,
        blocks in 20u64..120,
        txs_per_block in 1usize..5,
        tau in 1u32..30,
        eval_epochs in 1usize..12,
        strategy_idx in 0usize..Strategy::ALL.len(),
        gap_start in 0u64..120,
        gap_len in 0u64..40,
        sizes in proptest::collection::vec(1usize..120, 1..6),
        marks in proptest::collection::vec(any::<bool>(), 1..5),
        fault_at in 0usize..400,
        fault_kind in 0u8..2,
    ) {
        let mut workload = WorkloadConfig::small_test(seed);
        workload.blocks = blocks;
        workload.txs_per_block = txs_per_block;
        // Blocks [gap_start, gap_start + gap_len) carry nothing: empty
        // blocks, empty windows, possibly an empty tail.
        let txs: Vec<Transaction> = generate(&workload)
            .into_trace()
            .iter()
            .copied()
            .filter(|tx| !(gap_start..gap_start + gap_len).contains(&tx.block.as_u64()))
            .collect();
        let params = SystemParams::builder().shards(4).eta(2.0).tau(tau).build().unwrap();
        let config = ExperimentConfig::new(params, Strategy::ALL[strategy_idx], eval_epochs);

        let (rows, summary) = feed_per_window(&config, blocks, &txs);
        prop_assert!(rows.len() <= eval_epochs);
        prop_assert_eq!(rows.len(), summary.epochs);

        // One transaction per batch, with and without marks.
        for single_marks in [[false], [true]] {
            let (r, s) = feed_split(&config, blocks, &txs, &[1], &single_marks);
            prop_assert_eq!(&r, &rows);
            prop_assert_eq!(counted(&s), counted(&summary));
        }
        // Arbitrary batches, up to several windows long. The reference
        // stopped feeding at the `eval_epochs` cap; this feed delivers
        // the whole tail, which must be ignored.
        let (r, s) = feed_split(&config, blocks, &txs, &sizes, &marks);
        prop_assert_eq!(&r, &rows);
        prop_assert_eq!(counted(&s), counted(&summary));
        // The whole trace as one batch.
        let (r, s) = feed_split(&config, blocks, &txs, &[usize::MAX], &[false]);
        prop_assert_eq!(&r, &rows);
        prop_assert_eq!(counted(&s), counted(&summary));

        // A faulty transaction in the middle of a batch: the batch
        // fails, its valid prefix is ingested and nothing after it, so
        // delivering the rest afterwards completes the same run.
        if txs.len() >= 2 {
            let at = 1 + fault_at % (txs.len() - 1);
            let before = txs[at - 1].block.as_u64();
            let bad = if fault_kind == 0 && before > 0 {
                tx_at(before - 1)
            } else {
                tx_at(blocks)
            };
            let mut batch = txs[..at].to_vec();
            batch.push(bad);
            batch.extend_from_slice(&txs[at..]);

            let mut feed = Checked::begin(&config, blocks);
            let err = feed.ingest_block(&batch).unwrap_err();
            prop_assert!(matches!(err, Error::ParseTrace { .. }), "{}", err);
            feed.ingest_block(&txs[at..]).unwrap();
            let (r, s) = feed.end_stream();
            prop_assert_eq!(&r, &rows);
            prop_assert_eq!(counted(&s), counted(&summary));
        }
    }
}

#[test]
fn the_feed_is_checked_at_every_entry() {
    let params = SystemParams::builder().shards(2).tau(5).build().unwrap();
    let config = ExperimentConfig::new(params, Strategy::Random, 3);
    let mut core = AllocationCore::new(config);
    let mut strategy = config.strategy.build(config.params);
    let mut rows = Vec::new();

    // Nothing works before `begin`, and nothing panics.
    assert_eq!(core.next_boundary(), None);
    for result in [
        core.ingest_block(strategy.as_mut(), &[tx_at(0)], &mut rows),
        core.advance_to(strategy.as_mut(), 1, &mut rows),
        core.end_stream(strategy.as_mut(), &mut rows),
    ] {
        assert!(
            matches!(result, Err(Error::NotInitialized(_))),
            "{result:?}"
        );
    }
    assert_eq!(core.begin(0), Err(Error::EmptyTrace));
    core.check_invariants(strategy.as_ref()).unwrap();

    // 40 blocks: training [0, 36) in chunks [0, 5) … [30, 31), [31, 36).
    core.begin(40).unwrap();
    assert_eq!(core.next_boundary(), Some(5));
    core.ingest_block(strategy.as_mut(), &[tx_at(3)], &mut rows)
        .unwrap();
    // `advance_to` is a promise: blocks below the mark are closed.
    core.advance_to(strategy.as_mut(), 12, &mut rows).unwrap();
    assert_eq!(core.next_boundary(), Some(15));
    let late = core.ingest_block(strategy.as_mut(), &[tx_at(11)], &mut rows);
    assert!(matches!(late, Err(Error::ParseTrace { .. })), "{late:?}");
    core.ingest_block(strategy.as_mut(), &[tx_at(12)], &mut rows)
        .unwrap();
    let beyond = core.ingest_block(strategy.as_mut(), &[tx_at(40)], &mut rows);
    assert!(
        matches!(beyond, Err(Error::ParseTrace { .. })),
        "{beyond:?}"
    );
    assert!(core.lookup(AccountId::new(1)).is_none());

    // A mark past the end is the end: training closes, the one whole
    // window [36, 40) does not (it would end at 41), `end_stream` does.
    core.advance_to(strategy.as_mut(), u64::MAX, &mut rows)
        .unwrap();
    assert!(core.lookup(AccountId::new(1)).is_some());
    assert!(rows.is_empty());
    core.end_stream(strategy.as_mut(), &mut rows).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(core.next_boundary(), None);
    assert_eq!(core.epochs_processed(), 1);
    core.check_invariants(strategy.as_ref()).unwrap();
    assert_eq!(core.ledger().unwrap().beacon().rounds(), 1);
}
