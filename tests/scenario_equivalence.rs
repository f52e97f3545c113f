//! Fixed points of the one epoch loop: the checked-in `quick` scenario
//! reproduces its golden CSVs from a resident and from a streamed
//! source, and `beta-sweep-quick` and `miner-quick` theirs; every
//! window source (resident, generated, CSV file) drives the same bytes
//! out of `engine::run_cell` on arbitrary workloads; and every
//! checked-in spec parses, expands and is in canonical form.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mosaic::metrics::EpochCsvWriter;
use mosaic::prelude::*;
use mosaic::sim::engine::{self, RunSummary};
use mosaic::sim::experiments::{effectiveness, Effectiveness};
use mosaic::sim::{GridCell, ObserverSpec, Scenario, Simulation};
use mosaic::telemetry::Recorder;
use mosaic::workload::{EpochWindowStream, TraceSource, WorkloadConfig};
use proptest::prelude::*;

// Both glob imports export a `Strategy` (the registry enum and
// proptest's generation trait); the experiments below mean the enum.
use mosaic::sim::Strategy;

/// One registry cell over `stream`: its CSV bytes and summary.
fn csv_of(config: &ExperimentConfig, mut stream: EpochWindowStream) -> (Vec<u8>, RunSummary) {
    let mut strategy = config.strategy.build(config.params);
    let mut writer = EpochCsvWriter::new(Vec::new()).unwrap();
    let summary = engine::run_cell(
        config,
        &mut stream,
        strategy.as_mut(),
        &Recorder::disabled(),
        &mut |_, row| writer.write_epoch(row).is_ok(),
    )
    .unwrap();
    (writer.finish().unwrap(), summary)
}

/// A collected cell's rows as the per-epoch CSV the runners write.
fn collected_csv(cell: &GridCell) -> String {
    let mut writer = EpochCsvWriter::new(Vec::new()).unwrap();
    for row in &cell.per_epoch {
        writer.write_epoch(row).unwrap();
    }
    String::from_utf8(writer.finish().unwrap()).unwrap()
}

/// The hand-wired oracle for the effectiveness grid: the paper's five
/// parameter points (§V-A: `k ∈ {4, 16, 32}` at `η = 2`, then
/// `η ∈ {5, 10}` at `k = 16`) × every strategy, each cell straight
/// through `engine::run_cell` with no scenario expansion in between.
fn manual_grid(tau: u32, eval_epochs: usize, trace: &Arc<TransactionTrace>) -> Vec<GridCell> {
    let points = [
        ("k = 4", 4, 2.0),
        ("k = 16", 16, 2.0),
        ("k = 32", 32, 2.0),
        ("η = 5", 16, 5.0),
        ("η = 10", 16, 10.0),
    ];
    let mut cells = Vec::new();
    for (label, k, eta) in points {
        let params = SystemParams::builder()
            .shards(k)
            .eta(eta)
            .tau(tau)
            .build()
            .unwrap();
        for strategy in Strategy::ALL {
            let config = ExperimentConfig::new(params, strategy, eval_epochs);
            let mut built = strategy.build(params);
            let mut per_epoch = Vec::new();
            let summary = engine::run_cell(
                &config,
                &mut EpochWindowStream::resident(Arc::clone(trace)),
                built.as_mut(),
                &Recorder::disabled(),
                &mut |_, row| {
                    per_epoch.push(*row);
                    true
                },
            )
            .unwrap();
            cells.push(GridCell {
                param_label: label.to_string(),
                config,
                per_epoch,
                summary,
            });
        }
    }
    cells
}

/// Every cell of `scenario` must stream exactly the bytes checked in
/// under `tests/golden/<dir>/`.
fn assert_reproduces_golden(scenario: Scenario, dir: &str, cells: usize) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(dir);
    let single_point = scenario.is_single_point();
    let sim = Simulation::from_scenario(scenario).unwrap();
    assert_eq!(sim.cells().len(), cells);
    for cell in sim.cells() {
        let stem = cell.file_stem(single_point);
        let mut bytes = Vec::new();
        sim.stream_cell(cell, &mut bytes).unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            std::fs::read_to_string(golden.join(format!("{stem}.csv"))).unwrap(),
            "{stem} diverged from its golden CSV (streamed source: {})",
            sim.scenario().trace.is_streamed()
        );
    }
}

/// The fixed point: `tests/golden/quick/` holds the five CSVs
/// `mosaic-bench run --scenario scenarios/quick.scenario` wrote before the
/// driver stack collapsed onto `AllocationCore`'s event API. The same
/// spec must reproduce them byte-for-byte whether its trace is resident
/// or streamed.
#[test]
fn quick_scenario_reproduces_the_golden_csvs() {
    let resident = Scenario::load(scenarios_dir().join("quick.scenario")).unwrap();
    let TraceSource::Generated(workload) = resident.trace.clone() else {
        panic!("quick.scenario declares trace = generated");
    };
    let streamed = Scenario {
        trace: TraceSource::StreamedGenerated(workload),
        ..resident.clone()
    };
    for scenario in [resident, streamed] {
        assert_reproduces_golden(scenario, "quick", 5);
    }
}

/// The β > 0 fixed point (`quick` runs Pilot at β = 0 only):
/// `tests/golden/beta-sweep-quick/` holds the five CSVs `mosaic-bench run` wrote
/// for `scenarios/beta-sweep-quick.scenario` while every client was its
/// own pair of hash maps — future-knowledge fusion and expectation-only
/// clients included.
#[test]
fn beta_sweep_reproduces_the_golden_csvs() {
    let scenario = Scenario::load(scenarios_dir().join("beta-sweep-quick.scenario")).unwrap();
    assert_reproduces_golden(scenario, "beta-sweep-quick", 5);
}

/// The miner-driven fixed point, at a shape where the allocators' cap
/// and overload rules bite (`quick`'s 800 accounts cannot be relied on
/// for that): `tests/golden/miner-quick/` holds the three CSVs
/// `mosaic-bench run` wrote for `scenarios/miner-quick.scenario` — the
/// `miner-recompute` benchmark workload cut to four epochs, plus
/// A-TxAllo — while G-TxAllo re-scored every capped and every glued
/// account and Metis sorted each coarse row.
#[test]
fn miner_quick_reproduces_the_golden_csvs() {
    let scenario = Scenario::load(scenarios_dir().join("miner-quick.scenario")).unwrap();
    assert_reproduces_golden(scenario, "miner-quick", 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// For *any* workload shape, epoch length and strategy, a generator stream and the resident trace it would
    /// materialise to drive exactly the same bytes out of the engine,
    /// with a bit-identical aggregate.
    #[test]
    fn streamed_pipeline_is_byte_identical_to_materialised(
        seed in 0u64..100_000,
        accounts in 10usize..200,
        blocks in 30u64..120,
        txs_per_block in 1usize..6,
        tau in 1u32..40,
        churn in 0u8..3,
        strategy_idx in 0usize..Strategy::ALL.len(),
    ) {
        let mut workload = WorkloadConfig::small_test(seed);
        workload.initial_accounts = accounts;
        workload.blocks = blocks;
        workload.txs_per_block = txs_per_block;
        workload.new_accounts_per_block = f64::from(churn) * 0.3;
        let strategy = Strategy::ALL[strategy_idx];
        let params = SystemParams::builder()
            .shards(4)
            .eta(2.0)
            .tau(tau)
            .build()
            .unwrap();
        let config = ExperimentConfig::new(params, strategy, 200);

        let trace = Arc::new(generate(&workload).into_trace());
        let (resident, collected) = csv_of(&config, EpochWindowStream::resident(trace));
        let (streamed, summary) = csv_of(&config, EpochWindowStream::generated(&workload));

        prop_assert_eq!(
            String::from_utf8(streamed).unwrap(),
            String::from_utf8(resident).unwrap(),
            "{} @ tau={}: streamed CSV diverged",
            strategy, tau
        );
        prop_assert_eq!(summary.aggregate, collected.aggregate);
        prop_assert_eq!(summary.epochs, collected.epochs);
        prop_assert_eq!(summary.total_migrations, collected.total_migrations);
    }
}

#[test]
fn streamed_csv_source_matches_materialised_run() {
    // End-to-end through the bounded-buffer CSV reader: write a
    // generated trace to disk, then drive the experiment from a
    // `streamed-csv` source and byte-compare against the resident run.
    // The second file is the same trace with `\r\n` endings and no final
    // newline; both are far larger than the reader's 8 KiB buffer, so the
    // in-place head and the straddling-line fallback both run.
    let quick = Scenario::load(scenarios_dir().join("quick.scenario")).unwrap();
    let trace = Arc::new(generate(quick.workload().unwrap()).into_trace());
    let dir = std::env::temp_dir().join("mosaic-streamed-csv-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes = Vec::new();
    mosaic::workload::csv::write_trace(&trace, &mut bytes).unwrap();
    let mut crlf = Vec::with_capacity(bytes.len() + trace.len() + 1);
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        crlf.extend_from_slice(line.strip_suffix(b"\n").unwrap());
        crlf.extend_from_slice(b"\r\n");
    }
    crlf.truncate(crlf.len() - 2);
    assert!(crlf.len() > 16 * 8192);
    let paths = [dir.join("trace.csv"), dir.join("trace-crlf.csv")];
    std::fs::write(&paths[0], bytes).unwrap();
    std::fs::write(&paths[1], crlf).unwrap();

    let params = quick.base.with_shards(4).unwrap();
    for strategy in Strategy::ALL {
        let config = ExperimentConfig::new(params, strategy, quick.eval_epochs);
        let (resident, _) = csv_of(&config, EpochWindowStream::resident(Arc::clone(&trace)));
        for path in &paths {
            let stream = TraceSource::streamed_csv(path).window_stream().unwrap();
            let (streamed, _) = csv_of(&config, stream);
            assert_eq!(
                streamed,
                resident,
                "{strategy}: streamed-csv run of {} diverged",
                path.display()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// A checked-in `.scenario` file, loaded and run via
/// `Simulation::from_scenario` only, reproduces the Table I
/// effectiveness grid byte-identically to the hand-wired grid on the
/// same seed.
#[test]
fn checked_in_effectiveness_scenario_reproduces_the_table1_grid() {
    let scenario = Scenario::load(scenarios_dir().join("effectiveness-quick.scenario")).unwrap();
    let trace = Arc::new(generate(scenario.workload().unwrap()).into_trace());
    let manual = manual_grid(scenario.base.tau(), scenario.eval_epochs, &trace);
    let cells = Simulation::from_scenario(scenario).unwrap().run().unwrap();

    assert_eq!(cells.len(), manual.len());
    for (cell, oracle) in cells.iter().zip(&manual) {
        assert_eq!(cell.param_label, oracle.param_label);
        assert_eq!(cell.config, oracle.config);
        assert_eq!(collected_csv(cell), collected_csv(oracle));
        assert_eq!(cell.summary.aggregate, oracle.summary.aggregate);
        assert_eq!(
            cell.summary.total_migrations,
            oracle.summary.total_migrations
        );
    }
    assert_eq!(
        effectiveness(&cells, Effectiveness::CrossRatio).to_string(),
        effectiveness(&manual, Effectiveness::CrossRatio).to_string(),
        "Table I rendered from the scenario file diverged from the hand-wired grid"
    );
}

/// Every checked-in spec — the presets under `scenarios/` and the
/// benchmark's frozen `bench/workloads/` — parses, expands into cells
/// and is byte-for-byte its canonical text; a generated trace leaves
/// room for every evaluation epoch (`eval_epochs × τ` blocks) after the
/// training cut. Two presets are derived from other files and must stay
/// so.
#[test]
fn checked_in_scenario_files_are_canonical_presets() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for dir in [root.join("scenarios"), root.join("bench/workloads")] {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|ext| ext != "scenario") {
                continue;
            }
            let name = path.display();
            let text = std::fs::read_to_string(&path).unwrap();
            let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            scenario.cells().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scenario.to_text(), text, "{name} is not in canonical form");
            if let Some(workload) = scenario.workload() {
                workload.validate().unwrap();
                let train_blocks =
                    (workload.blocks as f64 * scenario.train_fraction).floor() as u64;
                let eval_blocks = scenario.eval_epochs as u64 * u64::from(scenario.base.tau());
                assert!(
                    workload.blocks - train_blocks >= eval_blocks,
                    "{name}: evaluation tail shorter than {} epochs",
                    scenario.eval_epochs
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 16, "found only {checked} specs");

    let load = |file: &str| Scenario::load(root.join(file)).unwrap();
    // quick-telemetry = quick with the telemetry observer attached, CSVs
    // to results-telemetry so CI can byte-compare against a plain run.
    let quick_telemetry = Scenario {
        name: "quick-telemetry".to_string(),
        observers: vec![
            ObserverSpec::StreamCsv(PathBuf::from("results-telemetry")),
            ObserverSpec::Telemetry(PathBuf::from("telemetry/quick.jsonl")),
        ],
        ..load("scenarios/quick.scenario")
    };
    assert_eq!(load("scenarios/quick-telemetry.scenario"), quick_telemetry);
    // miner-quick = the miner-recompute benchmark workload cut to four
    // epochs, plus A-TxAllo.
    let miner_quick = Scenario {
        name: "miner-quick".to_string(),
        eval_epochs: 4,
        strategies: vec![Strategy::GTxAllo, Strategy::ATxAllo, Strategy::Metis],
        ..load("bench/workloads/miner-recompute.scenario")
    };
    assert_eq!(load("scenarios/miner-quick.scenario"), miner_quick);
}

/// Pins the generator at the benchmark's own scale: the first 400 000
/// transactions of `bench/workloads/wide-csv.scenario`'s workload
/// (1 M accounts, 512 communities, 200 transactions a block), which the
/// generator samples in staged runs. The digest was recorded from the
/// one-transaction-at-a-time generator.
#[test]
fn wide_csv_trace_is_pinned_at_a_million_accounts() {
    use std::hash::Hasher;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scenario = Scenario::load(root.join("bench/workloads/wide-csv.scenario")).unwrap();
    let mut cfg = scenario.workload().expect("a generated workload").clone();
    assert_eq!(
        (cfg.initial_accounts, cfg.communities, cfg.txs_per_block),
        (1_000_000, 512, 200)
    );
    cfg.blocks = 2_000;
    let mut txs = Vec::new();
    mosaic::workload::GeneratedStream::new(&cfg).emit_through(cfg.blocks, &mut txs);
    assert_eq!(txs.len(), 400_000);
    let mut h = mosaic::types::hash::FnvHasher::default();
    for tx in &txs {
        h.write(&tx.id.as_u64().to_le_bytes());
        h.write(&tx.from.as_u64().to_le_bytes());
        h.write(&tx.to.as_u64().to_le_bytes());
        h.write(&tx.block.as_u64().to_le_bytes());
        h.write(&[tx.kind as u8]);
    }
    assert_eq!(
        h.finish(),
        0x8b8d_17c5_9e9a_1a30,
        "digest {:#018x}",
        h.finish()
    );
}

/// Pins G-TxAllo and Metis at the benchmark's full scale: the graph of
/// the first 3/4 of `bench/workloads/miner-recompute.scenario`'s
/// transactions (≈ 8.8 k accounts, ≈ 99 k CSR entries), which reaches
/// the community cap and the hub regimes the 4-epoch `miner-quick`
/// golden rarely does. The digests fold each node's part as
/// `h = h · 1 000 003 + part`; they were recorded from the kernels
/// before label propagation and the Metis levels were rewritten. Debug
/// builds certify G-TxAllo's converged refinement inside `partition`;
/// this graph's hubs are too heavy for Metis's balance promise, so the
/// balance bound is asserted here.
#[test]
fn miner_recompute_partitions_are_pinned_at_full_scale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scenario = Scenario::load(root.join("bench/workloads/miner-recompute.scenario")).unwrap();
    let cfg = scenario.workload().expect("a generated workload").clone();
    let mut txs = Vec::new();
    mosaic::workload::GeneratedStream::new(&cfg).emit_through(cfg.blocks, &mut txs);
    assert_eq!(txs.len(), 81_600);
    let mut history = mosaic::txgraph::GrowingGraph::new();
    history.absorb(&txs[..txs.len() * 3 / 4]);
    let graph = history.graph();
    assert_eq!((graph.node_count(), graph.adjncy().len()), (8_758, 99_364));
    let digest = |parts: &[u16]| {
        parts.iter().fold(0u64, |h, &p| {
            h.wrapping_mul(1_000_003).wrapping_add(u64::from(p))
        })
    };
    let txallo = digest(&GTxAllo::new(TxAlloConfig::with_eta(2.0)).partition(graph, 16));
    let metis = MetisPartitioner::default().partition(graph, 16);
    assert_eq!(
        mosaic::partition::overweight_parts(graph, &metis, 16, 1.10),
        0
    );
    let metis = digest(&metis);
    assert_eq!(
        (txallo, metis),
        (0xb05d_67c8_8064_195d, 0x119f_c5f4_9f07_b45a),
        "digests {txallo:#018x} {metis:#018x}"
    );
}
