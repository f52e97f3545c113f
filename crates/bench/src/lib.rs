//! Shared plumbing for the report binaries and criterion benches.
//!
//! Every table and figure of the paper has a dedicated binary, and every
//! binary is driven by a declarative [`Scenario`] — either a checked-in
//! spec file (`--scenario scenarios/effectiveness-default.scenario`) or,
//! when no file is given, the binary's preset at the `MOSAIC_SCALE`
//! scale:
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
//! cargo run -p mosaic-bench --release --bin scenario -- print effectiveness quick
//! ```
//!
//! All binaries accept `--scenario <file>` and honour
//! `MOSAIC_SCALE=quick|default|full` as the preset fallback.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use mosaic_sim::{Scale, Scenario};

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

/// Resolves the scenario driving a report binary: `--scenario <file>`
/// loads a checked-in spec; otherwise `preset` is applied to the
/// `MOSAIC_SCALE` scale. Prints the standard experiment header.
///
/// Exits with status 2 on an unreadable or malformed scenario file.
pub fn scenario_from_args(experiment: &str, preset: impl FnOnce(&Scale) -> Scenario) -> Scenario {
    let scenario = match scenario_path_from_args() {
        Some(path) => match Scenario::load(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to load scenario {path}: {e}");
                std::process::exit(2);
            }
        },
        None => preset(&Scale::from_env()),
    };
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
