//! Streams one full-protocol run per scenario cell to disk — and
//! doubles as the CI determinism gate.
//!
//! The run is described by a declarative scenario: the spec given with
//! `--scenario`, or else `scenarios/default.scenario` with its CSVs sent
//! to `results/` at the repository root. An invalid spec, or any
//! argument other than `--scenario` and `--check-determinism`, exits 2.
//! The session materialises the trace once, runs every cell, and each
//! per-epoch metric row is written to `<dir>/<cell>.csv` the moment it
//! is computed — no per-epoch vector is held in memory, so the paper's
//! 200-epoch protocol (`scenarios/full.scenario`) runs in bounded
//! memory at hardware speed.
//!
//! With `--check-determinism` no files are written: every cell runs
//! twice through [`Simulation::stream_cell`], once with telemetry off
//! and once with a live process-wide recorder installed, and the two
//! CSV byte streams are compared. This enforces the observability
//! invariant end to end — instrumentation must never perturb a result
//! byte — through the scenario parser and session path CI actually
//! ships. Any difference exits non-zero.
//!
//! ```text
//! cargo run -p mosaic-bench --release --bin full_run -- --scenario scenarios/full.scenario
//! MOSAIC_STRATEGY=Pilot cargo run -p mosaic-bench --release --bin full_run
//! cargo run -p mosaic-bench --release --bin full_run -- \
//!     --scenario scenarios/quick.scenario --check-determinism
//! ```

use std::path::{Path, PathBuf};

use mosaic_bench::{args_or_exit, load_or_exit, preset_path, print_header};
use mosaic_sim::engine::RunSummary;
use mosaic_sim::scenario::CellSpec;
use mosaic_sim::{ObserverSpec, RunObserver, Simulation, Strategy};
use mosaic_telemetry::Recorder;

/// Runs every cell through the session with telemetry disabled, then
/// again with a live recorder installed, and fails on any CSV byte
/// difference. Returns `(checked, divergent)` cell counts — a gate that
/// compared nothing must not pass.
fn check_determinism(sim: &Simulation) -> (usize, usize) {
    let mut checked = 0usize;
    let mut divergent = 0usize;
    for cell in sim.cells() {
        checked += 1;
        let name = format!("{} / {}", cell.label, cell.config.strategy.name());
        let stream_with = |recorder: Recorder| {
            mosaic_telemetry::install_global(recorder);
            let mut bytes: Vec<u8> = Vec::new();
            sim.stream_cell(cell, &mut bytes)
                .expect("vec sink cannot fail");
            bytes
        };
        let plain = stream_with(Recorder::disabled());
        // Events go to `io::sink()`: the recorder still takes every hot
        // path (counters, spans, clock reads), only the bytes vanish.
        let instrumented = stream_with(Recorder::with_sink(Box::new(std::io::sink())));
        if plain == instrumented {
            println!(
                "{name:<20} OK: {} CSV bytes identical, telemetry on and off",
                plain.len(),
            );
        } else {
            divergent += 1;
            let first_diff = plain
                .iter()
                .zip(&instrumented)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| plain.len().min(instrumented.len()));
            eprintln!(
                "{name:<20} DIVERGED with telemetry on: first differing byte at offset \
                 {first_diff} ({} vs {} bytes total)",
                plain.len(),
                instrumented.len(),
            );
        }
    }
    mosaic_telemetry::install_global(Recorder::disabled());
    (checked, divergent)
}

/// Prints one summary line per finished cell, as cells complete.
struct PrintSummary {
    single_point: bool,
    dir: Option<PathBuf>,
}

impl RunObserver for PrintSummary {
    fn on_cell(&self, cell: &CellSpec, summary: &RunSummary) {
        let dest = self
            .dir
            .as_ref()
            .map(|d| {
                format!(
                    " -> {}",
                    d.join(format!("{}.csv", cell.file_stem(self.single_point)))
                        .display()
                )
            })
            .unwrap_or_default();
        println!(
            "{:<20} {} epochs{dest}: ratio {:.4}, throughput {:.2}, deviation {:.2}, \
             {} migrations, mean alloc {:.3e} s",
            format!("{} / {}", cell.label, cell.config.strategy.name()),
            summary.epochs,
            summary.aggregate.cross_ratio,
            summary.aggregate.normalized_throughput,
            summary.aggregate.workload_deviation,
            summary.total_migrations,
            summary.mean_alloc_seconds,
        );
    }
}

fn main() {
    let args = args_or_exit(&["--check-determinism"]);
    let check = args.has("--check-determinism");
    let mut scenario = match args.scenario {
        Some(path) => load_or_exit(path),
        None => {
            // Repo root resolved from this crate's manifest dir so the
            // output lands in the gitignored /results regardless of
            // invocation cwd.
            let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
            load_or_exit(preset_path("default")).with_observers([ObserverSpec::StreamCsv(results)])
        }
    };
    // Fail fast on a typo'd filter: silently matching nothing would let
    // an overnight run exit 0 with no data.
    if let Ok(name) = std::env::var("MOSAIC_STRATEGY") {
        let strategy: Strategy = name.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        scenario.strategies.retain(|s| *s == strategy);
        if scenario.strategies.is_empty() {
            eprintln!("MOSAIC_STRATEGY {name:?} is not in the scenario's strategy set");
            std::process::exit(2);
        }
    }
    print_header(
        if check {
            "Determinism gate (telemetry off vs on, byte-compared CSVs)"
        } else {
            "Full-protocol streaming run (per-epoch CSV per cell)"
        },
        &scenario,
    );

    if check {
        let sim = Simulation::from_scenario(scenario).unwrap_or_else(|e| {
            eprintln!("failed to materialise scenario: {e}");
            std::process::exit(2);
        });
        let (checked, divergent) = check_determinism(&sim);
        if divergent > 0 {
            eprintln!("determinism check FAILED for {divergent} cells");
            std::process::exit(1);
        }
        // Belt and braces: validation guarantees at least one strategy,
        // but a gate that compared nothing must never report success.
        if checked == 0 {
            eprintln!("determinism check matched no cells");
            std::process::exit(1);
        }
        println!("determinism check passed for all {checked} cells");
        return;
    }

    let printer = PrintSummary {
        single_point: scenario.is_single_point(),
        dir: scenario.observers.iter().find_map(|o| match o {
            ObserverSpec::StreamCsv(dir) => Some(dir.clone()),
            ObserverSpec::Collect | ObserverSpec::Telemetry(_) => None,
        }),
    };
    let sim = Simulation::from_scenario(scenario)
        .unwrap_or_else(|e| {
            eprintln!("failed to materialise scenario: {e}");
            std::process::exit(2);
        })
        .with_observer(Box::new(printer));
    if let Err(e) = sim.run() {
        eprintln!("scenario run failed: {e}");
        std::process::exit(1);
    }
}
