//! `mosaic-bench`: one binary that regenerates the paper's tables and
//! runs the CI gates. [`main`] dispatches from one command table, and
//! each command's usage line is also its argument grammar:
//!
//! ```text
//! mosaic-bench report [--scenario <file>]          # Tables I-VI and Figure 1
//! mosaic-bench ablation [--scenario <file>]        # policy, capacity and churn ablations
//! mosaic-bench dataset-stats [--scenario <file>]   # descriptive trace statistics
//! mosaic-bench run [--scenario <file>] [--strategy <name>] [--check-determinism]
//! mosaic-bench validate <file>...                  # specs parse, validate, are canonical
//! mosaic-bench scale [--scenario <file>] [--accounts <n,n,...>] [--depth <mult>]
//!                    [--max-rss-mb <mb>]           # streamed scale curve + RSS gate
//! mosaic-bench bench-check <baseline.json> <current.json> [--min-ratio <r>]
//!                    [--wire <codec>] [--summary <file.md>]   # node-replay gate
//! mosaic-bench telemetry-check <file.jsonl>... [--require <kind>]...   # JSONL gate
//! ```
//!
//! Without `--scenario` a command reads its checked-in default under
//! the workspace's `scenarios/`: `effectiveness-default` for `report`,
//! `ablation-default` for `ablation`, `default` for `dataset-stats` and
//! `run` (whose CSVs then go to `results/` at the repository root), and
//! `scenarios/huge.scenario` relative to the working directory for
//! `scale`.
//!
//! Every command exits 0 when it passes, 1 when a gate or the run
//! failed, and 2 on a usage error — an unknown command, an unknown
//! `--flag`, a stray positional, a missing or malformed value, an
//! unusable input file — printed with the command's usage line. A
//! numeric value that does not parse or is out of range is an error,
//! never a default, so a mistyped gate never silently runs as something
//! else.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use mosaic_sim::Scenario;

mod gates;
pub mod json;
mod report;
mod run;
mod scale;

/// Why a command did not pass.
#[derive(Debug)]
pub(crate) enum Failure {
    /// A gate or the run failed: exit status 1.
    Failed(String),
    /// The command line, or a file it names, is unusable: exit status
    /// 2, printed with the command's usage line.
    Usage(String),
}

/// A command's body, run on its parsed arguments.
type Run = fn(&Args) -> Result<(), Failure>;

/// Every command, as its usage line and its body. The usage line is
/// also the grammar [`parse`] reads: the first word is the name,
/// `[--flag]` a bare flag, `[--option <value>]` a valued option (also
/// `--option=<value>`; a repeated option keeps every value), and any
/// other word a positional, whose count the body checks.
const COMMANDS: &[(&str, Run)] = &[
    ("report [--scenario <file>]", report::report),
    ("ablation [--scenario <file>]", report::ablation),
    ("dataset-stats [--scenario <file>]", report::dataset_stats),
    (
        "run [--scenario <file>] [--strategy <name>] [--check-determinism]",
        run::run,
    ),
    ("validate <file>...", run::validate),
    (
        // `--one` is internal: the child process that measures one size.
        "scale [--scenario <file>] [--accounts <n,n,...>] [--depth <mult>] \
         [--max-rss-mb <mb>] [--one <n>]",
        scale::scale,
    ),
    (
        "bench-check <baseline.json> <current.json> [--min-ratio <r>] [--wire <codec>] \
         [--summary <file.md>]",
        gates::bench_check,
    ),
    (
        "telemetry-check <file.jsonl>... [--require <kind>]...",
        gates::telemetry_check,
    ),
];

/// Parses the arguments that follow a command's name by the grammar of
/// its `usage` line. Anything the line does not name — a typo'd flag,
/// a positional the command does not take, an option without its value
/// — is an error naming the argument.
fn parse(usage: &'static str, args: &[String]) -> Result<Args, String> {
    let (mut flags, mut options, mut positionals) = (Vec::new(), Vec::new(), false);
    let mut words = usage.split_whitespace().skip(1);
    while let Some(word) = words.next() {
        match word.strip_prefix('[') {
            Some(flag) if flag.ends_with(']') => flags.push(flag.trim_end_matches(']')),
            Some(option) => {
                options.push(option);
                words.next(); // its <value>]
            }
            None => positionals = true,
        }
    }
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if !positionals {
                return Err(format!("unexpected argument {arg:?}"));
            }
            parsed.positionals.push(arg.clone());
        } else if let Some(&flag) = flags.iter().find(|f| *f == arg) {
            parsed.flags.push(flag);
        } else if let Some(&option) = options.iter().find(|o| *o == arg) {
            let value = it.next().ok_or_else(|| format!("{option} needs a value"))?;
            parsed.options.push((option, value.clone()));
        } else if let Some((option, value)) = options.iter().find_map(|&o| {
            let value = arg.strip_prefix(o)?.strip_prefix('=')?;
            Some((o, value))
        }) {
            parsed.options.push((option, value.to_string()));
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(parsed)
}

/// A command's parsed arguments.
#[derive(Debug, Default)]
pub(crate) struct Args {
    flags: Vec<&'static str>,
    options: Vec<(&'static str, String)>,
    /// The positional arguments, in order.
    pub(crate) positionals: Vec<String>,
}

impl Args {
    /// Whether the bare `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }

    /// The last value given for `option`.
    pub(crate) fn value(&self, option: &str) -> Option<&str> {
        let last = self.options.iter().rev().find(|(o, _)| *o == option);
        last.map(|(_, v)| v.as_str())
    }

    /// Every value given for `option`, in order.
    pub(crate) fn values<'a>(&'a self, option: &'a str) -> impl Iterator<Item = &'a str> {
        self.options
            .iter()
            .filter(move |(o, _)| *o == option)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `option` through [`number`], or `None` when the
    /// option was not given.
    pub(crate) fn number<T: FromStr>(
        &self,
        option: &str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.value(option)
            .map(|text| number(option, text, expected, valid))
            .transpose()
    }
}

/// Parses `text`, a value of `option`, as a `T` that `valid` accepts;
/// `expected` names the accepted values in the error. Every numeric
/// value of every command goes through here.
pub(crate) fn number<T: FromStr>(
    option: &str,
    text: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    text.trim()
        .parse()
        .ok()
        .filter(|value| valid(value))
        .ok_or_else(|| format!("{option}: {text:?} is not {expected}"))
}

/// Accepts a finite value above zero (a ceiling or a ratio floor that
/// zero, a negative or NaN would switch off).
pub(crate) fn positive(value: &f64) -> bool {
    value.is_finite() && *value > 0.0
}

/// Runs the command `args` names (`args` without the program name) and
/// returns its exit status, printing any failure to stderr.
pub fn main(args: &[String]) -> ExitCode {
    let name = args.first().map_or("", String::as_str);
    let Some(&(usage, run)) = COMMANDS
        .iter()
        .find(|(usage, _)| usage.split(' ').next() == Some(name))
    else {
        eprintln!("mosaic-bench: unknown command {name:?}; the commands are:");
        for (usage, _) in COMMANDS {
            eprintln!("  mosaic-bench {usage}");
        }
        return ExitCode::from(2);
    };
    match parse(usage, &args[1..])
        .map_err(Failure::Usage)
        .and_then(|parsed| run(&parsed))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Failed(message)) => {
            eprintln!("mosaic-bench {name}: FAIL: {message}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(message)) => {
            eprintln!("mosaic-bench {name}: {message}\nusage: mosaic-bench {usage}");
            ExitCode::from(2)
        }
    }
}

/// Loads the scenario given with `--scenario`, or else the checked-in
/// `scenarios/<default>.scenario` at the workspace root, wherever the
/// binary runs from.
pub(crate) fn load_scenario(args: &Args, default: &str) -> Result<Scenario, Failure> {
    let preset = format!("../../scenarios/{default}.scenario");
    let path = args.value("--scenario").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join(preset),
        PathBuf::from,
    );
    Scenario::load(&path)
        .map_err(|e| Failure::Usage(format!("failed to load scenario {}: {e}", path.display())))
}

/// Prints the standard two-line experiment header for a scenario.
pub(crate) fn print_header(experiment: &str, scenario: &Scenario) {
    let trace = match scenario.workload() {
        Some(w) => format!("{} blocks x {} txs/block", w.blocks, w.txs_per_block),
        None => "csv trace".to_string(),
    };
    println!("== {experiment} ==");
    println!(
        "scenario: {} ({trace}, tau = {}, {} eval epochs)\n",
        scenario.name,
        scenario.base.tau(),
        scenario.eval_epochs
    );
}

/// Parses `args` with the grammar of the command `name`.
#[cfg(test)]
fn parse_as(name: &str, args: &[&str]) -> Result<Args, String> {
    let (usage, _) = COMMANDS
        .iter()
        .find(|(usage, _)| usage.split(' ').next() == Some(name))
        .expect("a command of the table");
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    parse(usage, &args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_forms_and_named_flags_are_accepted() {
        let none = parse_as("run", &[]).unwrap();
        assert_eq!(none.value("--scenario"), None);
        for args in [
            &["--scenario", "q.scenario"][..],
            &["--scenario=q.scenario"][..],
        ] {
            let parsed = parse_as("report", args).unwrap();
            assert_eq!(parsed.value("--scenario"), Some("q.scenario"));
        }
        let gate = ["--scenario", "q.scenario", "--check-determinism"];
        let parsed = parse_as("run", &gate).unwrap();
        assert!(parsed.has("--check-determinism"));
        assert_eq!(parsed.value("--scenario"), Some("q.scenario"));
        assert!(!parse_as("run", &gate[..2])
            .unwrap()
            .has("--check-determinism"));
        // A repeated option keeps every value, in order.
        let kinds = parse_as("telemetry-check", &["--require", "span", "--require=epoch"]).unwrap();
        assert_eq!(
            kinds.values("--require").collect::<Vec<_>>(),
            ["span", "epoch"]
        );
    }

    #[test]
    fn typos_strays_and_missing_values_are_refused() {
        // A typo'd gate flag must not run the scenario ungated.
        let typo = parse_as("run", &["--scenario", "q.scenario", "--check-determinsm"]);
        assert!(typo.unwrap_err().contains("--check-determinsm"));
        // A file without --scenario must not fall back to the default grid.
        let stray = parse_as("report", &["scenarios/effectiveness-quick.scenario"]);
        assert!(stray.unwrap_err().contains("effectiveness-quick"));
        assert!(parse_as("report", &["--scenario"]).is_err());
        // A command's flag is only known to that command.
        assert!(parse_as("report", &["--check-determinism"]).is_err());
        assert!(parse_as("run", &["--strategy"])
            .unwrap_err()
            .contains("--strategy"));
    }
}
