//! Scaling curve of the streamed epoch pipeline: epochs/sec and peak
//! RSS versus account count, printed as one JSON document on stdout
//! (progress goes to stderr).
//!
//! ```text
//! bench_scale [--scenario scenarios/huge.scenario]
//!             [--accounts 100000,300000,1000000] [--depth 4]
//!             [--max-rss-mb <ceiling>]
//! ```
//!
//! The default scenario, `scenarios/huge.scenario`, is the 10M-account
//! scale proof: 10M accounts is the order of the paper's Ethereum
//! dataset (~12 M accounts), and its streamed synthetic workload (40M
//! transactions) is never materialised. It runs the full epoch protocol
//! at the paper's parameter point (`k = 16`, `η = 2`) with the
//! hash-based Random strategy, because Random frees the accreted graph
//! right after the initial allocation
//! (`EpochStrategy::consumes_history`): steady-state memory is then the
//! current and recent window plus O(accounts) generator and ledger
//! state, which is what this curve measures.
//!
//! Each account count is measured in a **fresh child process** (the
//! parent re-execs itself with the internal `--one` flag): `VmHWM` in
//! `/proc/self/status` is a process-lifetime high-water mark, so two
//! sizes measured in one process would share one peak and the curve
//! would be the largest size repeated. The child scales the scenario's
//! workload to the requested account count — blocks and τ shrink by the
//! same factor, so every size runs the same number of epoch windows and
//! the trace volume stays proportional to the account count.
//!
//! The recorded `speedup` is `trace_mb / peak_rss_mb` — how many times
//! larger the trace is than the memory the streamed run actually held.
//! Streamed memory is O(accounts + window): per-account state
//! (generator population, training graph, the allocation ϕ itself)
//! plus the current and previous τ-block windows — never the
//! transaction vector. So along the *account* axis the ratio is
//! roughly flat, and along the *depth* axis (`--depth` multiplies the
//! block count at fixed accounts) the trace grows while RSS does not —
//! the entry that directly witnesses "bounded by window, not trace
//! length". `--max-rss-mb` turns the curve into a gate: any size that
//! peaks above the ceiling fails the run.
//!
//! At the smallest requested size the parent additionally materialises
//! the scaled trace and byte-compares the streamed CSV against the
//! resident path — the scale curve is only meaningful if the streamed
//! pipeline computes the same experiment.
//!
//! Exit status: 0 ok, 1 RSS ceiling exceeded or verification failed,
//! 2 usage/run error — an unknown argument or a value that does not
//! parse included, so a mistyped ceiling never switches the gate off.

use std::process::ExitCode;
use std::time::Instant;

use mosaic_sim::engine::RunSummary;
use mosaic_sim::{Scenario, Simulation};
use mosaic_types::Transaction;
use mosaic_workload::{TraceSource, WorkloadConfig};

const USAGE: &str = "usage: bench_scale [--scenario <file>] [--accounts <n,n,...>] \
                     [--depth <mult>] [--max-rss-mb <mb>]";

/// What one invocation measures.
#[derive(Debug)]
struct Options {
    scenario: String,
    /// Account counts, ascending.
    accounts: Vec<usize>,
    depth: u64,
    max_rss_mb: Option<f64>,
    /// Child mode (internal): measure this one account count.
    one: Option<usize>,
}

/// Parses the arguments (without the program name). Every value must
/// parse: a malformed one is an error, never a default.
fn parse_args(args: &[String]) -> Result<Options, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .trim()
            .parse()
            .map_err(|_| format!("{flag}: cannot parse {value:?}"))
    }
    let mut options = Options {
        scenario: "scenarios/huge.scenario".to_string(),
        accounts: vec![100_000, 300_000, 1_000_000],
        depth: 4,
        max_rss_mb: None,
        one: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scenario" => options.scenario = value?.clone(),
            "--accounts" => {
                options.accounts = value?
                    .split(',')
                    .map(|n| number(flag, n))
                    .collect::<Result<_, _>>()?;
            }
            "--depth" => options.depth = number(flag, value?)?,
            "--max-rss-mb" => {
                let ceiling: f64 = number(flag, value?)?;
                if !(ceiling.is_finite() && ceiling > 0.0) {
                    return Err(format!("{flag}: {ceiling} is not a positive size"));
                }
                options.max_rss_mb = Some(ceiling);
            }
            "--one" => options.one = Some(number(flag, value?)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if options.accounts.is_empty() {
        return Err("--accounts needs at least one count".into());
    }
    options.accounts.sort_unstable();
    Ok(options)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("bench_scale: {message}");
    std::process::exit(2);
}

/// Peak resident set size of this process in MB (`VmHWM`, linux only);
/// 0.0 when the field is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The scenario scaled to `accounts` as one streamed cell (its first
/// strategy at the base point): blocks and τ shrink by the same factor
/// so every size runs the same window count and the trace volume stays
/// proportional. `depth` then multiplies the block count at fixed
/// accounts — the axis along which the streamed pipeline's memory must
/// stay flat while the trace grows.
fn scaled(scenario: &Scenario, accounts: usize, depth: u64) -> (WorkloadConfig, Scenario) {
    let Some(workload) = scenario.trace.workload() else {
        fail("scenario's trace source is not generated; bench_scale needs workload.* to scale");
    };
    let factor = accounts as f64 / workload.initial_accounts as f64;
    let mut w = workload.clone();
    w.initial_accounts = accounts;
    w.blocks = ((workload.blocks as f64 * factor) as u64).max(2) * depth.max(1);
    let tau = ((f64::from(scenario.base.tau()) * factor) as u32).max(1);
    let cell = Scenario {
        trace: TraceSource::StreamedGenerated(w.clone()),
        base: scenario
            .base
            .with_tau(tau)
            .unwrap_or_else(|e| fail(format!("scaled tau invalid: {e}"))),
        grid: Vec::new(),
        strategies: vec![scenario.strategies[0]],
        ..scenario.clone()
    };
    (w, cell)
}

/// Runs the scenario's one cell, writing its per-epoch CSV to `out`.
fn stream_csv(cell: Scenario, out: &mut dyn std::io::Write) -> Result<RunSummary, String> {
    let sim = Simulation::from_scenario(cell).map_err(|e| e.to_string())?;
    sim.stream_cell(&sim.cells()[0], out)
        .map_err(|e| e.to_string())
}

/// Child mode: measure one account count, print one JSON entry line.
fn run_one(scenario_path: &str, accounts: usize, depth: u64) -> ExitCode {
    let scenario =
        Scenario::load(scenario_path).unwrap_or_else(|e| fail(format!("{scenario_path}: {e}")));
    let (workload, cell) = scaled(&scenario, accounts, depth);
    let txs = workload.blocks as u128 * workload.txs_per_block as u128;
    let trace_mb = (txs as f64 * std::mem::size_of::<Transaction>() as f64) / (1024.0 * 1024.0);

    let started = Instant::now();
    let summary = stream_csv(cell, &mut std::io::sink())
        .unwrap_or_else(|e| fail(format!("streamed run failed: {e}")));
    let seconds = started.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    println!(
        "{{\"accounts\": {}, \"blocks\": {}, \"txs\": {}, \"trace_mb\": {:.1}, \
         \"peak_rss_mb\": {:.1}, \"seconds\": {:.2}, \"epochs_per_sec\": {:.3}, \
         \"speedup\": {:.2}}}",
        accounts,
        workload.blocks,
        txs,
        trace_mb,
        rss,
        seconds,
        summary.epochs as f64 / seconds.max(1e-9),
        trace_mb / rss.max(1e-9),
    );
    ExitCode::SUCCESS
}

/// Byte-compares the streamed CSV against the materialised path at the
/// given size (must be small enough to fit in memory).
fn verify(scenario: &Scenario, accounts: usize) -> Result<(), String> {
    let (workload, cell) = scaled(scenario, accounts, 1);
    let mut streamed: Vec<u8> = Vec::new();
    stream_csv(cell.clone(), &mut streamed)?;
    let mut resident: Vec<u8> = Vec::new();
    let cell = Scenario {
        trace: TraceSource::Generated(workload),
        ..cell
    };
    stream_csv(cell, &mut resident)?;
    if streamed != resident {
        return Err(format!(
            "streamed CSV diverged from materialised path at {accounts} accounts"
        ));
    }
    eprintln!(
        "bench_scale: streamed == materialised at {accounts} accounts ({} bytes)",
        streamed.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        scenario: scenario_path,
        accounts,
        depth,
        max_rss_mb,
        one,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_scale: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(n) = one {
        return run_one(&scenario_path, n, depth);
    }

    let scenario =
        Scenario::load(&scenario_path).unwrap_or_else(|e| fail(format!("{scenario_path}: {e}")));
    if let Err(e) = verify(&scenario, accounts[0]) {
        eprintln!("bench_scale: FAIL: {e}");
        return ExitCode::FAILURE;
    }

    // One (accounts, depth) measurement per child process: every size
    // at natural depth, plus — when --depth > 1 — the middle size with
    // its block count multiplied, the entry whose trace grows while the
    // streamed pipeline's memory must not.
    let mut plan: Vec<(usize, u64)> = accounts.iter().map(|&n| (n, 1)).collect();
    if depth > 1 {
        plan.push((accounts[accounts.len() / 2], depth));
    }

    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("current_exe: {e}")));
    let mut entries = Vec::new();
    let mut over_ceiling = false;
    for &(n, d) in &plan {
        let output = std::process::Command::new(&exe)
            .args([
                "--scenario",
                &scenario_path,
                "--one",
                &n.to_string(),
                "--depth",
                &d.to_string(),
            ])
            .output()
            .unwrap_or_else(|e| fail(format!("spawning child: {e}")));
        if !output.status.success() {
            eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            fail(format!("child for {n} accounts failed: {}", output.status));
        }
        let entry = String::from_utf8_lossy(&output.stdout).trim().to_string();
        let rss = entry
            .split("\"peak_rss_mb\":")
            .nth(1)
            .and_then(|r| r.trim().split(',').next())
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or_else(|| fail(format!("child printed no peak_rss_mb: {entry}")));
        eprintln!("bench_scale: {entry}");
        if let Some(ceiling) = max_rss_mb {
            if rss > ceiling {
                eprintln!(
                    "bench_scale: FAIL: {n} accounts peaked at {rss:.1} MB \
                     (ceiling {ceiling} MB)"
                );
                over_ceiling = true;
            }
        }
        entries.push(entry);
    }

    println!("{{");
    println!("  \"bench\": \"scale_streaming\",");
    println!("  \"unit\": \"MB and epochs/sec; speedup = trace_mb / peak_rss_mb\",");
    println!("  \"scenario\": \"{scenario_path}\",");
    println!("  \"results\": [");
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        println!("    {entry}{comma}");
    }
    println!("  ]");
    println!("}}");
    if over_ceiling {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn malformed_rss_ceilings_are_refused_not_dropped() {
        assert_eq!(
            parse(&["--max-rss-mb", "80"]).unwrap().max_rss_mb,
            Some(80.0)
        );
        assert_eq!(parse(&[]).unwrap().max_rss_mb, None);
        for bad in ["1MB", "-", "NaN", "0"] {
            let err = parse(&["--max-rss-mb", bad]).unwrap_err();
            assert!(err.contains("--max-rss-mb"), "{bad}: {err}");
        }
        assert!(parse(&["--max-rss-mb"]).is_err());
    }

    #[test]
    fn every_value_must_parse() {
        let o = parse(&["--accounts", "1000000,300000", "--depth", "2", "--one", "7"]).unwrap();
        assert_eq!(o.accounts, [300_000, 1_000_000]);
        assert_eq!((o.depth, o.one), (2, Some(7)));
        assert!(parse(&["--one", "x"]).is_err());
        assert!(parse(&["--accounts", "10,,20"]).is_err());
        assert!(parse(&["--depth", "-1"]).is_err());
        assert!(parse(&["--out", "scale.json"]).is_err());
    }
}
