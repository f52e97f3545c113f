//! Registry-level tests of the epoch engine: every strategy the
//! registry can build must produce a valid total allocation, and the
//! parallel experiment grid must be indistinguishable from a sequential
//! run of the same seed.

use std::sync::Arc;

use mosaic::metrics::EpochCsvWriter;
use mosaic::prelude::*;
use mosaic::sim::engine::{self, History};
use mosaic::telemetry::Recorder;
use mosaic::types::Error;
use mosaic::workload::EpochWindowStream;

/// `scenarios/quick.scenario`: the workload, τ and epoch count the
/// tests here run.
fn quick() -> Scenario {
    Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/quick.scenario"
    ))
    .unwrap()
}

/// A one-cell session: `strategy` at `k = 4` on the quick scale, rows
/// collected, over the shared `trace`.
fn quick_cell(strategy: Strategy, trace: &Arc<TransactionTrace>) -> Simulation {
    let quick = quick();
    let scenario = Scenario::new("engine-registry", quick.trace, quick.eval_epochs)
        .with_base(quick.base.with_shards(4).unwrap())
        .with_strategies([strategy]);
    Simulation::with_trace(scenario, Arc::clone(trace)).unwrap()
}

fn run_quick_cell(strategy: Strategy, trace: &Arc<TransactionTrace>) -> GridCell {
    quick_cell(strategy, trace).run().unwrap().remove(0)
}

/// A collected cell's rows as the per-epoch CSV the runners write.
fn collected_csv(cell: &GridCell) -> String {
    let mut writer = EpochCsvWriter::new(Vec::new()).unwrap();
    for row in &cell.per_epoch {
        writer.write_epoch(row).unwrap();
    }
    String::from_utf8(writer.finish().unwrap()).unwrap()
}

#[test]
fn every_registry_strategy_yields_valid_shards_for_all_accounts() {
    let quick = quick();
    let trace = generate(quick.workload().unwrap()).into_trace();
    let k = 8u16;
    let params = quick.base.with_shards(k).unwrap();
    let (train, _eval) = trace.split_at_fraction(0.9);

    for strategy in Strategy::ALL {
        let mut built = strategy.build(params);
        assert_eq!(built.name(), strategy.name());
        let mut history = History::new();
        history.absorb(train);
        built.observe_training(train);
        let (phi, _elapsed) = built.initial_allocation(&mut history, k);
        assert_eq!(phi.shards(), k, "{strategy}: wrong shard count");
        // ϕ is total (Definition 1): every account of the whole trace —
        // including evaluation-only accounts the initial allocation never
        // saw — resolves to a valid shard.
        for account in trace.accounts() {
            let shard = phi.shard_of(account);
            assert!(
                shard.index() < usize::from(k),
                "{strategy}: account {account:?} escaped to shard {shard:?}"
            );
        }
    }
}

/// Each strategy's three protocol flags, pinned:
/// `(is_client_driven, needs_training_graph, consumes_history)`. Random
/// reads no graph and keeps no history, which is the memory bound the
/// million-account scenarios rely on; Pilot builds its own graph from
/// its clients' histories.
#[test]
fn every_registry_strategy_declares_its_protocol_flags() {
    let params = quick().base.with_shards(4).unwrap();
    for strategy in Strategy::ALL {
        let expected = match strategy {
            Strategy::Mosaic => (true, false, false),
            Strategy::GTxAllo | Strategy::Metis => (false, true, true),
            Strategy::ATxAllo => (false, true, false),
            Strategy::Random => (false, false, false),
        };
        let built = strategy.build(params);
        let flags = (
            built.is_client_driven(),
            built.needs_training_graph(),
            built.consumes_history(),
        );
        assert_eq!(flags, expected, "{strategy}");
    }
}

#[test]
fn full_runs_stay_within_shard_bounds_for_every_strategy() {
    let quick = quick();
    let trace = Arc::new(generate(quick.workload().unwrap()).into_trace());
    for strategy in Strategy::ALL {
        let cell = run_quick_cell(strategy, &trace);
        assert_eq!(cell.config.strategy, strategy);
        assert_eq!(cell.per_epoch.len(), quick.eval_epochs);
        for epoch in &cell.per_epoch {
            assert!(epoch.cross_ratio >= 0.0 && epoch.cross_ratio <= 1.0);
        }
        assert!(
            cell.summary.aggregate.normalized_throughput > 0.0,
            "{strategy} throughput zero"
        );
    }
}

#[test]
fn streamed_cell_matches_collected_cell() {
    // `Simulation::stream_cell` (rows straight to a sink) must write
    // exactly the bytes `EpochCsvWriter` renders from the collected
    // rows, and report a bit-identical aggregate.
    let trace = Arc::new(generate(quick().workload().unwrap()).into_trace());
    for strategy in Strategy::ALL {
        let sim = quick_cell(strategy, &trace);
        let collected = sim.run().unwrap().remove(0);
        let mut bytes: Vec<u8> = Vec::new();
        let summary = sim.stream_cell(&sim.cells()[0], &mut bytes).unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            collected_csv(&collected),
            "{strategy}"
        );
        assert_eq!(summary.aggregate, collected.summary.aggregate, "{strategy}");
    }
}

#[test]
fn empty_resident_trace_is_an_error_not_a_panic() {
    let config = ExperimentConfig::new(SystemParams::default(), Strategy::Random, 4);
    let mut stream = EpochWindowStream::resident(Arc::new(TransactionTrace::new(Vec::new())));
    let mut strategy = config.strategy.build(config.params);
    let result = engine::run_cell(
        &config,
        &mut stream,
        strategy.as_mut(),
        &Recorder::disabled(),
        &mut |_, _| true,
    );
    assert_eq!(result.unwrap_err(), Error::EmptyTrace);
}

#[test]
fn parallel_grid_output_is_byte_identical_to_sequential() {
    let effectiveness = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/effectiveness-quick.scenario"
    ))
    .unwrap();
    let grid = |parallelism| {
        let scenario = effectiveness.clone().with_grid_parallelism(parallelism);
        Simulation::from_scenario(scenario).unwrap().run().unwrap()
    };
    // Four real lanes whatever the machine's core count: `Auto` is one
    // lane on a one-core box, which would compare sequential with
    // sequential.
    let sequential = grid(Parallelism::Sequential);
    let parallel = grid(Parallelism::Threads(4));

    let csv = |cells: &[GridCell]| -> String {
        cells
            .iter()
            .map(|c| {
                format!(
                    "# {} / {} / {}\n{}",
                    c.param_label,
                    c.config.strategy,
                    c.summary.total_migrations,
                    collected_csv(c)
                )
            })
            .collect()
    };
    assert_eq!(
        csv(&sequential),
        csv(&parallel),
        "parallel grid must be byte-identical to the sequential run"
    );
}
