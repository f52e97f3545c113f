//! `run` streams one full-protocol run per scenario cell to disk and
//! doubles as the CI determinism gate; `validate` checks spec files.
//!
//! `run` reads the spec given with `--scenario`, or else
//! `scenarios/default.scenario` with its CSVs sent to `results/` at the
//! repository root. `--strategy <name>` keeps only that strategy's
//! cells; a name that is unknown or not in the scenario exits 2. The
//! session materialises the trace once, runs every cell, and each
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
//! ships. Any difference exits 1.
//!
//! `validate <file>...` loads every spec and also rejects a file that
//! is not byte-identical to its canonical serialisation
//! ([`Scenario::to_text`]), so checked-in specs never drift from the
//! canonical format.

use std::path::{Path, PathBuf};

use mosaic_sim::engine::RunSummary;
use mosaic_sim::scenario::CellSpec;
use mosaic_sim::{ObserverSpec, RunObserver, Scenario, Simulation, Strategy};
use mosaic_telemetry::Recorder;

use crate::{load_scenario, print_header, Args, Failure};

/// Runs every cell through the session with telemetry disabled, then
/// again with a live recorder installed, and fails on any CSV byte
/// difference. Returns the number of divergent cells.
fn check_determinism(sim: &Simulation) -> usize {
    let mut divergent = 0usize;
    for cell in sim.cells() {
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
    divergent
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

pub(crate) fn run(args: &Args) -> Result<(), Failure> {
    let check = args.has("--check-determinism");
    let mut scenario = load_scenario(args, "default")?;
    if args.value("--scenario").is_none() {
        // Repo root resolved from this crate's manifest dir so the
        // output lands in the gitignored /results regardless of
        // invocation cwd.
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        scenario = scenario.with_observers([ObserverSpec::StreamCsv(results)]);
    }
    // Fail fast on a typo'd filter: silently matching nothing would let
    // an overnight run exit 0 with no data.
    if let Some(name) = args.value("--strategy") {
        let strategy: Strategy = name
            .parse()
            .map_err(|e| Failure::Usage(format!("--strategy: {e}")))?;
        scenario.strategies.retain(|s| *s == strategy);
        if scenario.strategies.is_empty() {
            return Err(Failure::Usage(format!(
                "--strategy {name:?} is not in the scenario's strategy set"
            )));
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
    let printer = PrintSummary {
        single_point: scenario.is_single_point(),
        dir: scenario.observers.iter().find_map(|o| match o {
            ObserverSpec::StreamCsv(dir) => Some(dir.clone()),
            ObserverSpec::Collect | ObserverSpec::Telemetry(_) => None,
        }),
    };
    let sim = Simulation::from_scenario(scenario)
        .map_err(|e| Failure::Usage(format!("failed to materialise scenario: {e}")))?;

    if check {
        let (checked, divergent) = (sim.cells().len(), check_determinism(&sim));
        if divergent > 0 {
            return Err(Failure::Failed(format!(
                "determinism check failed for {divergent} cells"
            )));
        }
        // Belt and braces: validation guarantees at least one strategy,
        // but a gate that compared nothing must never report success.
        if checked == 0 {
            return Err(Failure::Failed("determinism check matched no cells".into()));
        }
        println!("determinism check passed for all {checked} cells");
        return Ok(());
    }
    sim.with_observer(Box::new(printer))
        .run()
        .map(drop)
        .map_err(|e| Failure::Failed(format!("scenario run failed: {e}")))
}

pub(crate) fn validate(args: &Args) -> Result<(), Failure> {
    if args.positionals.is_empty() {
        return Err(Failure::Usage("needs at least one scenario file".into()));
    }
    let mut invalid = 0usize;
    for path in &args.positionals {
        match Scenario::load(path) {
            Ok(scenario) => {
                let on_disk = std::fs::read_to_string(path).expect("load() just read it");
                if on_disk != scenario.to_text() {
                    eprintln!(
                        "{path}: NOT CANONICAL — rewrite it as its canonical \
                         form, Scenario::to_text"
                    );
                    invalid += 1;
                    continue;
                }
                let cells = scenario.cells().expect("load() validated the scenario");
                println!(
                    "{path}: ok — '{}', {} cells ({} points x {} strategies), \
                     {} eval epochs",
                    scenario.name,
                    cells.len(),
                    cells.len() / scenario.strategies.len(),
                    scenario.strategies.len(),
                    scenario.eval_epochs,
                );
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                invalid += 1;
            }
        }
    }
    if invalid > 0 {
        return Err(Failure::Failed(format!(
            "{invalid} invalid scenario file(s)"
        )));
    }
    Ok(())
}
