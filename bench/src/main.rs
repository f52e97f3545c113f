//! `mosaic-e2e-bench` — the repository's end-to-end benchmark: every
//! workload runs the offline pipeline and a live node over the same
//! inputs, checks that both produce the same bytes, and prints the
//! end-to-end metrics (untraced) or the per-layer ledger (traced).
//! `bench/README.md` defines every metric and workload.

mod agree;
mod layers;
mod metrics;
mod passes;
mod placement;
mod probe;
mod run;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use workloads::{Workload, WORKLOADS};

/// The benchmark's error type: anything printable.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage: mosaic-e2e-bench [run] [--workload <name>] [--seed <n>] \
                     [--seconds <n>] [--trace <0|1>]\n       \
                     mosaic-e2e-bench agree [--workload <name>] [--seed <n>] [--seconds <n>]\n       \
                     mosaic-e2e-bench manifest";

/// The flags every subcommand shares.
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    /// `None` runs every workload, each in a child process.
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Res<Flags> {
        let mut flags = Flags {
            workload: None,
            seed: 44224,
            seconds: metrics::RUN_SECONDS,
            traced: false,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => flags.workload = Some(workloads::find(value)?),
                "--seed" => flags.seed = number()?,
                "--seconds" => flags.seconds = number()?.max(1),
                "--trace" => {
                    flags.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}").into()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}").into()),
            }
        }
        Ok(flags)
    }

    /// The flags as a child process takes them.
    fn child_args(&self, workload: &Workload, seed: u64) -> Vec<String> {
        vec![
            "--workload".into(),
            workload.name.into(),
            "--seed".into(),
            seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.traced).to_string(),
        ]
    }
}

/// Runs one workload in this process, or — when none is named — each in
/// a fresh child process of this executable, so that the peak resident
/// set is the workload's own. `Ok(false)` is a correctness failure.
fn run(flags: &Flags) -> Res<bool> {
    if let Some(workload) = flags.workload {
        let outcome = run::run_workload(workload, flags.seed, flags.seconds, flags.traced)?;
        run::report(workload, flags.seed, flags.traced, &outcome);
        return Ok(outcome.correct());
    }
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let status = Command::new(&exe)
            .args(flags.child_args(workload, flags.seed))
            .status()?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Res<bool> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("agree") => agree::agree(&Flags::parse(&args[1..])?),
        Some("run") => run(&Flags::parse(&args[1..])?),
        _ => run(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mosaic-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Res<Flags> {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_the_driver_form_and_round_trip_to_a_child() {
        let flags = parse(&[
            "--workload",
            "wide-csv",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(flags.workload.unwrap().name, "wide-csv");
        assert_eq!((flags.seed, flags.seconds, flags.traced), (7, 3, true));
        let child = Flags::parse(&flags.child_args(flags.workload.unwrap(), 7)).unwrap();
        assert_eq!(child, flags);
        assert!(parse(&["--trace", "yes"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
