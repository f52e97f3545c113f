//! Shared plumbing for the report binaries and criterion benches.
//!
//! Every table and figure of the paper has a dedicated binary, and every
//! binary is driven by a declarative [`Scenario`] file: the one given
//! with `--scenario <file>`, or else the binary's default under the
//! workspace's `scenarios/` (`effectiveness-default` for the tables,
//! figure and `all_experiments`, `beta-sweep-default` for Table V,
//! `ablation-default` for `ablation`, `default` for `dataset_stats` and
//! `full_run`):
//!
//! ```text
//! cargo run -p mosaic-bench --release --bin table1   # cross-shard ratio
//! cargo run -p mosaic-bench --release --bin table2   # throughput
//! cargo run -p mosaic-bench --release --bin table3   # workload deviation
//! cargo run -p mosaic-bench --release --bin table4   # runtime + input size
//! cargo run -p mosaic-bench --release --bin table5   # future-knowledge sweep
//! cargo run -p mosaic-bench --release --bin table6   # framework comparison
//! cargo run -p mosaic-bench --release --bin fig1     # radar series
//! cargo run -p mosaic-bench --release --bin all_experiments
//! cargo run -p mosaic-bench --release --bin ablation # policy ablation
//! cargo run -p mosaic-bench --release --bin full_run # streamed per-epoch CSVs
//! cargo run -p mosaic-bench --release --bin table1 -- \
//!     --scenario scenarios/effectiveness-quick.scenario   # seconds, not minutes
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::path::{Path, PathBuf};

use mosaic_sim::Scenario;

/// Extracts the `--scenario <path>` (or `--scenario=<path>`) argument,
/// if present.
pub fn scenario_path_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scenario" {
            return args.next().or_else(|| {
                eprintln!("--scenario needs a file path");
                std::process::exit(2);
            });
        }
        if let Some(path) = arg.strip_prefix("--scenario=") {
            return Some(path.to_string());
        }
    }
    None
}

/// The checked-in spec `scenarios/<stem>.scenario` at the workspace
/// root, wherever the binary runs from.
pub fn preset_path(stem: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{stem}.scenario"))
}

/// Loads a scenario file, exiting with status 2 if it is unreadable,
/// malformed or invalid.
pub fn load_or_exit(path: impl AsRef<Path>) -> Scenario {
    let path = path.as_ref();
    Scenario::load(path).unwrap_or_else(|e| {
        eprintln!("failed to load scenario {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// Resolves the scenario driving a report binary: the `--scenario
/// <file>` argument, or else the checked-in `scenarios/<default>.scenario`
/// ([`preset_path`]). Prints the standard experiment header.
///
/// Exits with status 2 on an unreadable or malformed scenario file.
pub fn scenario_from_args(experiment: &str, default: &str) -> Scenario {
    let scenario =
        load_or_exit(scenario_path_from_args().map_or_else(|| preset_path(default), PathBuf::from));
    print_header(experiment, &scenario);
    scenario
}

/// Prints the standard two-line experiment header for a scenario.
pub fn print_header(experiment: &str, scenario: &Scenario) {
    println!("== {experiment} ==");
    match scenario.workload() {
        Some(w) => println!(
            "scenario: {} ({} blocks x {} txs/block, tau = {}, {} eval epochs)",
            scenario.name,
            w.blocks,
            w.txs_per_block,
            scenario.base.tau(),
            scenario.eval_epochs
        ),
        None => println!(
            "scenario: {} (csv trace, tau = {}, {} eval epochs)",
            scenario.name,
            scenario.base.tau(),
            scenario.eval_epochs
        ),
    }
    println!();
}
