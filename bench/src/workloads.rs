//! The four workloads and their set-up step.
//!
//! A workload is a checked-in scenario (`bench/workloads/<name>.scenario`,
//! canonical form, compiled in so the binary runs from any directory)
//! plus the two things a scenario cannot say: which wire codec the
//! client speaks, and whether the trace is first written to a CSV file
//! so the run reads it back through the streaming CSV parser.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mosaic::node::Wire;
use mosaic::sim::{ObserverSpec, Scenario};
use mosaic::types::Transaction;
use mosaic::workload::{EpochWindowStream, TraceSource};

use crate::Res;

/// One benchmark workload.
#[derive(Debug, PartialEq)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why this workload exists: the layers it stresses and the ones it
    /// bypasses (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// The codec the wire pass speaks.
    pub wire: Wire,
    /// `true` if set-up writes the generated trace to a CSV file and the
    /// run streams it back (`streamed-csv` source).
    pub csv_trace: bool,
    scenario: &'static str,
}

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pilot-epochs",
        why: "Pilot at 50k accounts: core (observe, propose) carries the run and the allocators \
              run once; shows an O(clients)-per-epoch or depth-growing cost and the scoring stall",
        wire: Wire::Binary,
        csv_trace: false,
        scenario: include_str!("../workloads/pilot-epochs.scenario"),
    },
    Workload {
        name: "miner-recompute",
        why: "G-TxAllo and Metis recomputed every epoch with 2 pool lanes: txallo + partition + \
              graph merge carry the run, core idles; the Table IV baseline",
        wire: Wire::Binary,
        csv_trace: false,
        scenario: include_str!("../workloads/miner-recompute.scenario"),
    },
    Workload {
        name: "wide-csv",
        why: "Random at 1M accounts from a CSV file: the allocator costs nothing, so CSV parse, \
              Ledger::process_epoch and binary decode carry the run; the scale point",
        wire: Wire::Binary,
        csv_trace: true,
        scenario: include_str!("../workloads/wide-csv.scenario"),
    },
    Workload {
        name: "line-query-mix",
        why: "A-TxAllo at 2k accounts over the line wire, one LOOKUP per 10 TX: the per-reply \
              path, line codec, generator and incremental update; bypasses binary/bulk/global",
        wire: Wire::Line,
        csv_trace: false,
        scenario: include_str!("../workloads/line-query-mix.scenario"),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Res<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let valid: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; valid: {}", valid.join(", ")).into()
    })
}

/// A scratch directory that is removed when dropped. It lives next to
/// the running executable — inside the build directory, so inside the
/// checkout and already git-ignored.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<exe dir>/bench-tmp/<pid>-<label>`; concurrent users (the
    /// unit tests) pass distinct labels.
    pub fn create(label: &str) -> Res<Scratch> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().ok_or("executable has no parent directory")?;
        let dir = base
            .join("bench-tmp")
            .join(format!("{}-{label}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// What set-up produced.
#[derive(Debug)]
pub struct Prepared {
    /// The runnable scenario: seed applied, rows streamed to
    /// [`Prepared::csv_dir`], trace redirected to the CSV file if any.
    pub scenario: Scenario,
    /// Where the offline pass writes its per-cell CSVs.
    pub csv_dir: PathBuf,
    /// Time and transaction count of the trace generation, for workloads
    /// that write one.
    pub generated: Option<(Duration, u64)>,
}

/// Set-up: builds the scenario of `workload` with `workload.seed = seed`
/// (the only field the seed touches) and writes the trace CSV if the
/// workload reads one. Everything lands under `dir`.
pub fn prepare(workload: &Workload, seed: u64, dir: &Path) -> Res<Prepared> {
    prepare_scenario(
        Scenario::parse(workload.scenario)?,
        workload.csv_trace,
        seed,
        dir,
    )
}

/// [`prepare`] for any scenario with a generated trace source.
pub fn prepare_scenario(
    mut scenario: Scenario,
    csv_trace: bool,
    seed: u64,
    dir: &Path,
) -> Res<Prepared> {
    let csv_dir = dir.join("offline");
    scenario.observers = vec![ObserverSpec::StreamCsv(csv_dir.clone())];
    let (TraceSource::Generated(config) | TraceSource::StreamedGenerated(config)) =
        &mut scenario.trace
    else {
        return Err(format!("{}: the trace source must be generated", scenario.name).into());
    };
    config.seed = seed;
    let mut generated = None;
    if csv_trace {
        let path = dir.join("trace.csv");
        let start = Instant::now();
        let txs = write_trace_csv(
            &mut EpochWindowStream::generated(config),
            u64::from(scenario.base.tau()),
            &path,
        )?;
        generated = Some((start.elapsed(), txs));
        scenario.trace = TraceSource::streamed_csv(path);
    }
    Ok(Prepared {
        scenario,
        csv_dir,
        generated,
    })
}

/// Streams `stream` to `path` in the `block,from,to,kind` dialect
/// `mosaic_workload::csv` reads, `step` blocks at a time so memory stays
/// O(window). Returns the transaction count.
fn write_trace_csv(stream: &mut EpochWindowStream, step: u64, path: &Path) -> Res<u64> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(out, "# block,from,to,kind")?;
    let mut window: Vec<Transaction> = Vec::new();
    let mut txs = 0u64;
    while stream.position() < stream.blocks() {
        window.clear();
        stream.read_to(stream.position() + step, &mut window)?;
        for tx in &window {
            writeln!(
                out,
                "{},{},{},{}",
                tx.block.as_u64(),
                tx.from.as_u64(),
                tx.to.as_u64(),
                tx.kind
            )?;
        }
        txs += window.len() as u64;
    }
    out.flush()?;
    Ok(txs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_scenarios_are_canonical() {
        for workload in &WORKLOADS {
            let scenario = Scenario::parse(workload.scenario).expect(workload.name);
            scenario.validate().expect(workload.name);
            assert_eq!(scenario.to_text(), workload.scenario, "{}", workload.name);
            assert_eq!(scenario.name, workload.name);
            // The sizes the benchmark's definitions rest on.
            assert_eq!(scenario.train_fraction, 0.5, "{}", workload.name);
            assert_eq!(scenario.base.shards(), 16, "{}", workload.name);
            let blocks = scenario.workload().expect("generated source").blocks;
            assert_eq!(
                scenario.eval_epochs as u64 * u64::from(scenario.base.tau()) * 2,
                blocks,
                "{}: eval_epochs × τ must be the evaluation half",
                workload.name
            );
        }
    }

    #[test]
    fn seed_overrides_only_the_workload_seed() {
        let dir = Scratch::create("seed-override").unwrap();
        let workload = find("pilot-epochs").unwrap();
        let a = prepare(workload, 1, dir.path()).unwrap().scenario;
        let mut b = prepare(workload, 2, dir.path()).unwrap().scenario;
        assert_ne!(a, b);
        let TraceSource::StreamedGenerated(config) = &mut b.trace else {
            panic!("streamed source expected");
        };
        config.seed = 1;
        assert_eq!(a, b);
        assert!(find("no-such").is_err());
    }
}
