//! Shape assertions across strategies — the qualitative claims of the
//! paper's evaluation that must hold at any scale:
//!
//! * pattern-aware allocation beats hash-based on cross-shard ratio;
//! * Pilot's per-decision cost and input size are orders of magnitude
//!   below the miner-driven algorithms;
//! * throughput ordering follows the cross-shard ratio ordering.
//!
//! The k = 8 grid runs once and is shared by every test that reads it.

use std::sync::OnceLock;

use mosaic::prelude::*;
use mosaic::sim::Simulation;

fn quick_results(k: u16) -> Vec<GridCell> {
    let quick = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/quick.scenario"
    ))
    .unwrap();
    let scenario = Scenario::new(
        format!("strategy-shape-k{k}"),
        quick.trace,
        quick.eval_epochs,
    )
    .with_base(quick.base.with_shards(k).unwrap());
    Simulation::from_scenario(scenario).unwrap().run().unwrap()
}

/// The quick grid at k = 8, run once per test binary.
fn at_k8() -> &'static [GridCell] {
    static RESULTS: OnceLock<Vec<GridCell>> = OnceLock::new();
    RESULTS.get_or_init(|| quick_results(8))
}

fn result(results: &[GridCell], s: Strategy) -> &GridCell {
    results
        .iter()
        .find(|r| r.config.strategy == s)
        .expect("strategy ran")
}

#[test]
fn pattern_aware_beats_random_on_cross_ratio_at_k8() {
    let results = at_k8();
    let random = result(results, Strategy::Random)
        .summary
        .aggregate
        .cross_ratio;
    for s in [
        Strategy::Mosaic,
        Strategy::GTxAllo,
        Strategy::ATxAllo,
        Strategy::Metis,
    ] {
        let r = result(results, s).summary.aggregate.cross_ratio;
        assert!(r < random, "{s}: {r} !< random {random}");
    }
}

#[test]
fn pilot_within_striking_distance_of_graph_methods() {
    // The paper's headline: ~5% cross-ratio gap, ~98% of throughput.
    // At quick scale we allow a generous envelope but the order of
    // magnitude must hold.
    let results = at_k8();
    let pilot = result(results, Strategy::Mosaic).summary.aggregate;
    let best_ratio = result(results, Strategy::GTxAllo)
        .summary
        .aggregate
        .cross_ratio
        .min(
            result(results, Strategy::Metis)
                .summary
                .aggregate
                .cross_ratio,
        );
    assert!(
        pilot.cross_ratio < best_ratio * 1.35 + 0.02,
        "pilot ratio {} vs best graph {best_ratio}",
        pilot.cross_ratio
    );
    let best_tp = result(results, Strategy::GTxAllo)
        .summary
        .aggregate
        .normalized_throughput
        .max(
            result(results, Strategy::Metis)
                .summary
                .aggregate
                .normalized_throughput,
        );
    assert!(
        pilot.normalized_throughput > best_tp * 0.8,
        "pilot throughput {} vs best graph {best_tp}",
        pilot.normalized_throughput
    );
}

#[test]
fn pilot_is_orders_of_magnitude_cheaper() {
    let extra: Vec<Vec<GridCell>> = (0..2).map(|_| quick_results(8)).collect();
    let runs: Vec<&[GridCell]> = [at_k8()]
        .into_iter()
        .chain(extra.iter().map(Vec::as_slice))
        .collect();
    let results = runs[0];
    // A wall clock only reads high under load, so each strategy's cost
    // is its fastest of the three runs.
    let seconds = |s: Strategy| {
        runs.iter()
            .map(|results| result(results, s).summary.mean_alloc_seconds)
            .fold(f64::INFINITY, f64::min)
    };
    let pilot = result(results, Strategy::Mosaic);
    let g = result(results, Strategy::GTxAllo);
    let a = result(results, Strategy::ATxAllo);
    // Runtime: Pilot per decision vs miner-driven per epoch.
    let pilot_s = seconds(Strategy::Mosaic);
    assert!(pilot_s * 50.0 < seconds(Strategy::ATxAllo));
    assert!(pilot_s * 1000.0 < seconds(Strategy::GTxAllo));
    assert!(pilot_s * 1000.0 < seconds(Strategy::Metis));
    // Input size: hundreds of bytes vs kilo/megabytes.
    assert!(pilot.summary.mean_input_bytes < 1000.0);
    assert!(g.summary.mean_input_bytes > 10_000.0);
    assert!(pilot.summary.mean_input_bytes * 10.0 < a.summary.mean_input_bytes);
}

#[test]
fn throughput_tracks_cross_ratio_inversely() {
    let results = at_k8();
    // Within a fixed parameter set, the strategy with fewer cross-shard
    // transactions processes more: compare best and worst.
    let mut sorted: Vec<_> = results.iter().collect();
    sorted.sort_by(|x, y| {
        x.summary
            .aggregate
            .cross_ratio
            .partial_cmp(&y.summary.aggregate.cross_ratio)
            .unwrap()
    });
    let best = sorted.first().unwrap();
    let worst = sorted.last().unwrap();
    assert!(
        best.summary.aggregate.normalized_throughput
            > worst.summary.aggregate.normalized_throughput,
        "best-ratio {} ({}) should out-process worst-ratio {} ({})",
        best.config.strategy,
        best.summary.aggregate.normalized_throughput,
        worst.config.strategy,
        worst.summary.aggregate.normalized_throughput
    );
}

#[test]
fn static_hash_never_migrates_dynamic_strategies_do() {
    let results = at_k8();
    let random = &result(results, Strategy::Random).summary;
    assert_eq!(random.total_migrations, 0);
    assert_eq!(random.mean_alloc_seconds, 0.0);
    assert!(result(results, Strategy::Mosaic).summary.total_migrations > 0);
    assert!(result(results, Strategy::GTxAllo).summary.total_migrations > 0);
}

#[test]
fn sharding_scales_throughput_with_k() {
    // Λ/λ must grow with k for the pattern-aware strategies (Table II's
    // central trend: 2.3 -> 7.6 -> 13.1 for Pilot).
    let at_k = |k: u16| {
        let results = quick_results(k);
        result(&results, Strategy::Mosaic)
            .summary
            .aggregate
            .normalized_throughput
    };
    let t4 = at_k(4);
    let t16 = at_k(16);
    assert!(t16 > t4, "throughput should scale with k: {t4} -> {t16}");
}
