//! `scale`: the scaling curve of the streamed epoch pipeline —
//! epochs/sec and peak RSS versus account count, printed as one JSON
//! document on stdout (progress goes to stderr).
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
//! parent re-execs itself as `scale ... --one <n>`): `VmHWM` in
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

use std::time::Instant;

use mosaic_sim::engine::RunSummary;
use mosaic_sim::{Scenario, Simulation};
use mosaic_types::Transaction;
use mosaic_workload::{TraceSource, WorkloadConfig};

use crate::json::parse_json;
use crate::{number, positive, Args, Failure};

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

impl Options {
    fn from_args(args: &Args) -> Result<Options, String> {
        let mut accounts = match args.value("--accounts") {
            Some(list) => list
                .split(',')
                .map(|n| number("--accounts", n, "an account count", |_| true))
                .collect::<Result<Vec<usize>, _>>()?,
            None => vec![100_000, 300_000, 1_000_000],
        };
        accounts.sort_unstable();
        Ok(Options {
            scenario: args
                .value("--scenario")
                .unwrap_or("scenarios/huge.scenario")
                .to_string(),
            accounts,
            depth: args
                .number("--depth", "a block-count multiplier", |_| true)?
                .unwrap_or(4),
            max_rss_mb: args.number("--max-rss-mb", "a positive size", positive)?,
            one: args.number("--one", "an account count", |_| true)?,
        })
    }
}

/// The arguments of the child process that measures one size: it runs
/// this same binary, so they start with the `scale` command.
fn child_args(scenario: &str, accounts: usize, depth: u64) -> Vec<String> {
    let (accounts, depth) = (accounts.to_string(), depth.to_string());
    [
        "scale",
        "--scenario",
        scenario,
        "--one",
        &accounts,
        "--depth",
        &depth,
    ]
    .map(String::from)
    .to_vec()
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
fn scaled(
    scenario: &Scenario,
    accounts: usize,
    depth: u64,
) -> Result<(WorkloadConfig, Scenario), Failure> {
    let Some(workload) = scenario.trace.workload() else {
        return Err(Failure::Usage(
            "scenario's trace source is not generated; scale needs workload.* to scale".into(),
        ));
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
            .map_err(|e| Failure::Usage(format!("scaled tau invalid: {e}")))?,
        grid: Vec::new(),
        strategies: vec![scenario.strategies[0]],
        ..scenario.clone()
    };
    Ok((w, cell))
}

/// Runs the scenario's one cell, writing its per-epoch CSV to `out`.
fn stream_csv(cell: Scenario, out: &mut dyn std::io::Write) -> Result<RunSummary, Failure> {
    let run_error = |e: mosaic_types::Error| Failure::Failed(format!("streamed run failed: {e}"));
    let sim = Simulation::from_scenario(cell).map_err(run_error)?;
    sim.stream_cell(&sim.cells()[0], out).map_err(run_error)
}

/// Child mode: measure one account count, print one JSON entry line.
fn run_one(scenario: &Scenario, accounts: usize, depth: u64) -> Result<(), Failure> {
    let (workload, cell) = scaled(scenario, accounts, depth)?;
    let txs = workload.blocks as u128 * workload.txs_per_block as u128;
    let trace_mb = (txs as f64 * std::mem::size_of::<Transaction>() as f64) / (1024.0 * 1024.0);

    let started = Instant::now();
    let summary = stream_csv(cell, &mut std::io::sink())?;
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
    Ok(())
}

/// Byte-compares the streamed CSV against the materialised path at the
/// given size (must be small enough to fit in memory).
fn verify(scenario: &Scenario, accounts: usize) -> Result<(), Failure> {
    let (workload, cell) = scaled(scenario, accounts, 1)?;
    let mut streamed: Vec<u8> = Vec::new();
    stream_csv(cell.clone(), &mut streamed)?;
    let mut resident: Vec<u8> = Vec::new();
    let cell = Scenario {
        trace: TraceSource::Generated(workload),
        ..cell
    };
    stream_csv(cell, &mut resident)?;
    if streamed != resident {
        return Err(Failure::Failed(format!(
            "streamed CSV diverged from materialised path at {accounts} accounts"
        )));
    }
    eprintln!(
        "scale: streamed == materialised at {accounts} accounts ({} bytes)",
        streamed.len()
    );
    Ok(())
}

pub(crate) fn scale(args: &Args) -> Result<(), Failure> {
    let options = Options::from_args(args).map_err(Failure::Usage)?;
    let (accounts, depth, scenario_path) = (&options.accounts, options.depth, &options.scenario);
    let scenario = Scenario::load(scenario_path)
        .map_err(|e| Failure::Usage(format!("{scenario_path}: {e}")))?;
    if let Some(n) = options.one {
        return run_one(&scenario, n, depth);
    }
    verify(&scenario, accounts[0])?;

    // One (accounts, depth) measurement per child process: every size
    // at natural depth, plus — when --depth > 1 — the middle size with
    // its block count multiplied, the entry whose trace grows while the
    // streamed pipeline's memory must not.
    let mut plan: Vec<(usize, u64)> = accounts.iter().map(|&n| (n, 1)).collect();
    if depth > 1 {
        plan.push((accounts[accounts.len() / 2], depth));
    }

    let exe = std::env::current_exe().map_err(|e| Failure::Failed(format!("current_exe: {e}")))?;
    let mut entries = Vec::new();
    let mut over_ceiling = Vec::new();
    for &(n, d) in &plan {
        let output = std::process::Command::new(&exe)
            .args(child_args(scenario_path, n, d))
            .output()
            .map_err(|e| Failure::Failed(format!("spawning child: {e}")))?;
        if !output.status.success() {
            eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            return Err(Failure::Failed(format!(
                "child for {n} accounts failed: {}",
                output.status
            )));
        }
        let entry = String::from_utf8_lossy(&output.stdout).trim().to_string();
        let rss = parse_json(&entry)
            .ok()
            .and_then(|json| json.get("peak_rss_mb")?.as_f64())
            .ok_or_else(|| Failure::Failed(format!("child printed no peak_rss_mb: {entry}")))?;
        eprintln!("scale: {entry}");
        if let Some(ceiling) = options.max_rss_mb.filter(|&ceiling| rss > ceiling) {
            over_ceiling.push(format!(
                "{n} accounts peaked at {rss:.1} MB (ceiling {ceiling} MB)"
            ));
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
    if !over_ceiling.is_empty() {
        return Err(Failure::Failed(over_ceiling.join("; ")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        crate::parse_as("scale", args).and_then(|a| Options::from_args(&a))
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
        // The re-exec'd child's arguments name the command first, then
        // parse back to the one size it measures.
        let child = child_args("h.scenario", 300_000, 4);
        assert_eq!(child[0], "scale");
        let child: Vec<&str> = child[1..].iter().map(String::as_str).collect();
        let o = parse(&child).unwrap();
        assert_eq!(
            (o.scenario.as_str(), o.one, o.depth),
            ("h.scenario", Some(300_000), 4)
        );
    }
}
