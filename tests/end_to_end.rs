//! Cross-crate integration tests: the full pipeline (workload → initial
//! allocation → Mosaic epochs → metrics) with system-level invariants.

use std::sync::Arc;

use mosaic::prelude::*;

/// `scenarios/quick.scenario`: the workload, τ and epoch count the
/// tests here run.
fn quick() -> Scenario {
    Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/quick.scenario"
    ))
    .unwrap()
}

/// One `strategy` cell at `k = 4` on the quick scale over `trace`, rows
/// collected.
fn run_quick_cell(strategy: Strategy, epochs: usize, trace: TransactionTrace) -> ExperimentResult {
    let quick = quick();
    let scenario = Scenario::new("end-to-end", quick.trace, epochs)
        .with_base(quick.base.with_shards(4).unwrap())
        .with_strategies([strategy]);
    let report = Simulation::with_trace(scenario, Arc::new(trace))
        .unwrap()
        .run()
        .unwrap();
    report.cells.into_iter().next().unwrap().result
}

/// Runs the Mosaic strategy on the quick scale and returns everything
/// needed for invariant checks.
fn run_mosaic_pipeline(k: u16) -> (Ledger, MosaicFramework) {
    let quick = quick();
    let trace = generate(quick.workload().unwrap()).into_trace();
    let params = quick.base.with_shards(k).unwrap();
    let (train, _) = trace.split_at_fraction(0.9);
    let mut builder = GraphBuilder::new();
    builder.add_transactions(train);
    let phi = GTxAllo::default().allocate(&builder.build(), k);
    let mut ledger = Ledger::new(params, phi, usize::from(k) * 2).unwrap();
    let mut mosaic = MosaicFramework::new(params);
    mosaic.observe_epoch(train);

    let cut = BlockHeight::new((trace.max_block().unwrap().as_u64() + 1) * 9 / 10);
    let windows: Vec<Vec<Transaction>> = trace
        .epoch_windows(cut, params.tau())
        .take(4)
        .map(|w| w.to_vec())
        .collect();
    for window in &windows {
        let (_outcome, _report) = mosaic.run_epoch(&mut ledger, window);
    }
    (ledger, mosaic)
}

#[test]
fn phi_remains_a_valid_partition_through_migrations() {
    let (ledger, mosaic) = run_mosaic_pipeline(4);
    // Definition 1 over every account the windows resolved, committed
    // migrations included; the clients' graph stays one undirected graph.
    ledger.check_invariants().unwrap();
    mosaic.check_invariants().unwrap();
}

#[test]
fn chains_verify_after_full_run() {
    let (ledger, _) = run_mosaic_pipeline(4);
    ledger.check_invariants().unwrap();
    // One block per processed epoch on every chain.
    for shard in ledger.shards() {
        assert_eq!(shard.len(), 5); // genesis + 4 epochs
    }
    assert_eq!(ledger.beacon().len(), 5);
}

#[test]
fn committed_migrations_never_exceed_lambda() {
    let quick = quick();
    let trace = generate(quick.workload().unwrap()).into_trace();
    let result = run_quick_cell(Strategy::Mosaic, quick.eval_epochs, trace);
    for epoch in &result.per_epoch {
        let lambda = epoch.total_txs as f64 / 4.0;
        assert!(
            epoch.migrations as f64 <= lambda,
            "{} migrations > lambda {lambda}",
            epoch.migrations
        );
    }
}

#[test]
fn full_pipeline_is_deterministic_across_runs() {
    let collect = || {
        let (ledger, mut mosaic) = run_mosaic_pipeline(4);
        (
            ledger.beacon().committed_len(),
            ledger.meter().total(),
            mosaic.client_count(),
        )
    };
    assert_eq!(collect(), collect());
}

#[test]
fn migration_state_bytes_track_committed_migrations() {
    let (ledger, _) = run_mosaic_pipeline(4);
    // One account's state metered per committed migration.
    assert!(ledger.beacon().committed_len() > 0);
    ledger.check_invariants().unwrap();
}

#[test]
fn mosaic_converges_not_thrashes() {
    // Cross-shard ratio in the last epoch should not be dramatically
    // worse than in the first: client-driven migration must not cause
    // systemic thrash.
    let quick = quick();
    let trace = generate(quick.workload().unwrap()).into_trace();
    let result = run_quick_cell(Strategy::Mosaic, quick.eval_epochs, trace);
    let first = result.per_epoch.first().unwrap().cross_ratio;
    let last = result.per_epoch.last().unwrap().cross_ratio;
    assert!(
        last <= first + 0.15,
        "cross ratio drifted {first} -> {last}"
    );
}

#[test]
fn csv_roundtrip_preserves_experiment_results() {
    // A trace exported and re-imported must produce identical metrics.
    let trace = generate(quick().workload().unwrap()).into_trace();
    let mut buf = Vec::new();
    mosaic::workload::csv::write_trace(&trace, &mut buf).unwrap();
    let reloaded = mosaic::workload::csv::read_trace(buf.as_slice()).unwrap();

    let a = run_quick_cell(Strategy::Random, 3, trace);
    let b = run_quick_cell(Strategy::Random, 3, reloaded);
    assert_eq!(a.per_epoch, b.per_epoch);
}
