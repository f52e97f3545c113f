//! Shared plumbing for the report binaries.
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

/// A report binary's command line: the `--scenario` file, if one was
/// given, and which of the caller's own flags were set.
#[derive(Debug, Default)]
pub struct Args {
    /// The file given with `--scenario <file>` or `--scenario=<file>`.
    pub scenario: Option<PathBuf>,
    flags: Vec<String>,
}

impl Args {
    /// Whether `flag` (one of the flags passed to [`parse_args`]) was
    /// given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

/// Parses a report binary's arguments (without the program name). It
/// knows `--scenario <file>`, `--scenario=<file>` and the bare `flags`
/// its caller names; anything else — a typo'd flag, a stray positional,
/// `--scenario` without a file — is an error, so a mistyped gate never
/// silently runs as something else.
pub fn parse_args(args: &[String], flags: &[&str]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--scenario" {
            let path = it.next().ok_or("--scenario needs a file path")?;
            parsed.scenario = Some(PathBuf::from(path));
        } else if let Some(path) = arg.strip_prefix("--scenario=") {
            parsed.scenario = Some(PathBuf::from(path));
        } else if flags.contains(&arg.as_str()) {
            parsed.flags.push(arg.clone());
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(parsed)
}

/// [`parse_args`] over this process's arguments; prints the error and
/// a usage line and exits with status 2 when they do not parse.
pub fn args_or_exit(flags: &[&str]) -> Args {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    parse_args(&args, flags).unwrap_or_else(|e| {
        let program = Path::new(&program)
            .file_name()
            .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
        let flags: String = flags.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("{program}: {e}\nusage: {program} [--scenario <file>]{flags}");
        std::process::exit(2);
    })
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
/// Exits with status 2 on any other argument ([`args_or_exit`]) and on
/// an unreadable or malformed scenario file.
pub fn scenario_from_args(experiment: &str, default: &str) -> Scenario {
    let scenario = load_or_exit(
        args_or_exit(&[])
            .scenario
            .unwrap_or_else(|| preset_path(default)),
    );
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], flags: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args, flags)
    }

    #[test]
    fn scenario_forms_and_named_flags_are_accepted() {
        let none = parse(&[], &[]).unwrap();
        assert_eq!(none.scenario, None);
        for args in [
            &["--scenario", "q.scenario"][..],
            &["--scenario=q.scenario"][..],
        ] {
            let parsed = parse(args, &[]).unwrap();
            assert_eq!(parsed.scenario, Some(PathBuf::from("q.scenario")));
        }
        let gate = ["--scenario", "q.scenario", "--check-determinism"];
        let parsed = parse(&gate, &["--check-determinism"]).unwrap();
        assert!(parsed.has("--check-determinism"));
        assert_eq!(parsed.scenario, Some(PathBuf::from("q.scenario")));
        assert!(!parse(&gate[..2], &["--check-determinism"])
            .unwrap()
            .has("--check-determinism"));
    }

    #[test]
    fn typos_strays_and_missing_values_are_refused() {
        // A typo'd gate flag must not run the scenario ungated.
        let typo = parse(
            &["--scenario", "q.scenario", "--check-determinsm"],
            &["--check-determinism"],
        );
        assert!(typo.unwrap_err().contains("--check-determinsm"));
        // A file without --scenario must not fall back to the default grid.
        let stray = parse(&["scenarios/effectiveness-quick.scenario"], &[]);
        assert!(stray.unwrap_err().contains("effectiveness-quick"));
        assert!(parse(&["--scenario"], &[]).is_err());
        // A caller's flag is only known to that caller.
        assert!(parse(&["--check-determinism"], &[]).is_err());
    }
}
