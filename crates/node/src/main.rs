//! The `mosaic-node` binary: serve a scenario as a live allocation
//! service, or replay a scenario's trace against a running node.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use mosaic_node::replay::{offline_baseline_seconds, replay_sessions};
use mosaic_node::{serve_with_telemetry, MosaicClient, Wire};
use mosaic_sim::{RunTarget, Scenario};
use mosaic_types::Result;

const USAGE: &str = "usage:
  mosaic-node serve  --scenario <file> --addr <host:port>
                     [--telemetry on|off]
  mosaic-node replay --scenario <file> --addr <host:port>
                     [--wire line|binary] [--sessions <n>]
                     [--out <dir>] [--bench-out <file>] [--stats]
                     [--shutdown]

serve   boots the allocation service for the scenario's cells and blocks
        until a client sends SHUTDOWN. Every connection gets its own
        session and may speak either wire format (negotiated from its
        first bytes). --telemetry off disables all counters (STATS still
        answers, saying so).
replay  streams the scenario's trace through a running node, writes each
        cell's node-side per-epoch CSV to <dir> (default: node-results),
        and prints the replay throughput. --wire picks the codec
        (default: binary); --sessions replays over <n> concurrent
        connections and verifies their CSVs are byte-identical.
        --bench-out also times the offline runner on the same cells and
        records the tx/s ratio as a BENCH_node.json-style speedup.
        --stats prints the node's STATS reply (session + server-wide
        telemetry) after the replay. --shutdown stops the node after.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mosaic-node: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> std::result::Result<(), String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    let mut scenario_path: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut out_dir = PathBuf::from("node-results");
    let mut bench_out: Option<PathBuf> = None;
    let mut shutdown = false;
    let mut stats = false;
    let mut telemetry = true;
    let mut wire = Wire::default();
    let mut sessions = 1usize;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--scenario" => scenario_path = Some(PathBuf::from(value(&mut rest, flag)?)),
            "--addr" => addr = Some(value(&mut rest, flag)?),
            "--telemetry" if command == "serve" => {
                telemetry = match value(&mut rest, flag)?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!(
                            "--telemetry must be on or off, not {other:?}\n{USAGE}"
                        ))
                    }
                };
            }
            "--wire" if command == "replay" => {
                wire = value(&mut rest, flag)?.parse()?;
            }
            "--sessions" if command == "replay" => {
                sessions = value(&mut rest, flag)?
                    .parse()
                    .map_err(|_| format!("--sessions needs a positive integer\n{USAGE}"))?;
                if sessions == 0 {
                    return Err(format!("--sessions must be at least 1\n{USAGE}"));
                }
            }
            "--out" if command == "replay" => out_dir = PathBuf::from(value(&mut rest, flag)?),
            "--bench-out" if command == "replay" => {
                bench_out = Some(PathBuf::from(value(&mut rest, flag)?))
            }
            "--stats" if command == "replay" => stats = true,
            "--shutdown" if command == "replay" => shutdown = true,
            other => return Err(format!("unknown flag {other:?} for {command}\n{USAGE}")),
        }
    }
    let scenario_path = scenario_path.ok_or_else(|| format!("--scenario is required\n{USAGE}"))?;
    let addr = addr.ok_or_else(|| format!("--addr is required\n{USAGE}"))?;
    let scenario = Scenario::load(&scenario_path).map_err(|e| e.to_string())?;

    match command.as_str() {
        "serve" => cmd_serve(&addr, scenario, telemetry).map_err(|e| e.to_string()),
        "replay" => cmd_replay(
            &addr,
            scenario,
            &scenario_path,
            &out_dir,
            wire,
            sessions,
            bench_out.as_deref(),
            stats,
            shutdown,
        )
        .map_err(|e| e.to_string()),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn value(
    rest: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> std::result::Result<String, String> {
    rest.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn cmd_serve(addr: &str, scenario: Scenario, telemetry: bool) -> Result<()> {
    let cells = scenario.cells_for(RunTarget::Node)?;
    let listener = TcpListener::bind(addr).map_err(|e| mosaic_types::Error::Io {
        path: addr.to_string(),
        message: e.to_string(),
    })?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    println!(
        "mosaic-node: serving '{}' ({} cells) on {local} (telemetry {})",
        scenario.name,
        cells.len(),
        if telemetry { "on" } else { "off" },
    );
    serve_with_telemetry(listener, scenario, telemetry)
}

#[allow(clippy::too_many_arguments)]
fn cmd_replay(
    addr: &str,
    scenario: Scenario,
    scenario_path: &std::path::Path,
    out_dir: &std::path::Path,
    wire: Wire,
    sessions: usize,
    bench_out: Option<&std::path::Path>,
    stats: bool,
    shutdown: bool,
) -> Result<()> {
    let report = replay_sessions(addr, &scenario, wire, sessions)?;
    std::fs::create_dir_all(out_dir).map_err(|e| io_error(out_dir, &e))?;
    for cell in &report.cells {
        let path = out_dir.join(format!("{}.csv", cell.stem));
        std::fs::write(&path, &cell.csv).map_err(|e| io_error(&path, &e))?;
    }
    let node_tx_s = report.txs as f64 / report.seconds.max(1e-9);
    println!(
        "mosaic-node: replayed {} txs across {} cells ({} wire, {} session{}) in {:.2}s \
         ({:.0} tx/s) -> {}",
        report.txs,
        report.cells.len(),
        report.wire,
        report.sessions,
        if report.sessions == 1 { "" } else { "s" },
        report.seconds,
        node_tx_s,
        out_dir.display()
    );

    if stats {
        println!("mosaic-node: STATS after replay (session 0 + server-wide):");
        for line in &report.stats {
            println!("  {line}");
        }
    }

    if let Some(bench_path) = bench_out {
        let offline_seconds = offline_baseline_seconds(&scenario)?;
        // Per-session throughput against a single offline pass keeps the
        // ratio comparable across session counts.
        let session_txs = report.txs / report.sessions as u64;
        let offline_tx_s = session_txs as f64 / offline_seconds.max(1e-9);
        let speedup = node_tx_s / offline_tx_s.max(1e-9);
        // Sized by accounts for generated traces (epochs otherwise) so
        // `mosaic-bench bench-check` can pair entries with the committed
        // baseline.
        let size_field = match scenario.workload() {
            Some(w) => format!("\"accounts\": {}", w.initial_accounts),
            None => format!("\"epochs\": {}", scenario.eval_epochs),
        };
        let json = format!(
            "{{\n  \"bench\": \"node_replay\",\n  \"unit\": \"tx/s over TCP replay; \
             speedup = node_tx_s / offline_tx_s\",\n  \"cpus\": 0,\n  \"scenario\": {:?},\n  \
             \"results\": [\n    {{{size_field}, \"wire\": \"{}\", \"sessions\": {}, \
             \"txs\": {}, \"node_seconds\": {:.3}, \"offline_seconds\": {:.3}, \
             \"node_tx_s\": {:.0}, \"offline_tx_s\": {:.0}, \"speedup\": {:.3}}}\n  ]\n}}\n",
            scenario_path.display().to_string(),
            report.wire,
            report.sessions,
            report.txs,
            report.seconds,
            offline_seconds,
            node_tx_s,
            offline_tx_s,
            speedup,
        );
        std::fs::write(bench_path, json).map_err(|e| io_error(bench_path, &e))?;
        println!(
            "mosaic-node: node {node_tx_s:.0} tx/s vs offline {offline_tx_s:.0} tx/s \
             (speedup {speedup:.3}) -> {}",
            bench_path.display()
        );
    }

    if shutdown {
        let mut client = MosaicClient::connect(addr, wire)?;
        client.shutdown()?;
        println!("mosaic-node: shutdown sent");
    }
    Ok(())
}

fn io_error(path: &std::path::Path, e: &std::io::Error) -> mosaic_types::Error {
    mosaic_types::Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}
