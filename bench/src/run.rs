//! One workload, end to end: set-up, the untraced run that yields the
//! end-to-end metrics, and the report every run prints.

use std::time::{Duration, Instant};

use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::passes::{self, Live, OfflinePass, WirePass};
use crate::stats::{fastest, percentile};
use crate::workloads::{self, Prepared, Scratch, Workload};
use crate::Res;

/// Set-up repeats at least this often, then while the repetitions so
/// far took under a second; `setup_s` is the fastest, like every other
/// time the run reports.
const SETUP_REPS: usize = 5;

/// Each phase of the untraced run repeats its pass at least this often,
/// then for as long as another pass still fits the phase's time budget:
/// `stats::fastest` needs reps to choose from.
const MIN_REPS: usize = 3;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Value {
    /// The metric's name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The sample or rep count behind it, where there is one.
    pub samples: Option<usize>,
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric of the run's kind (end-to-end or per-layer).
    pub values: Vec<Value>,
    /// Reply-bearing requests sent plus cell CSVs compared.
    pub attempted: u64,
    /// Bad replies plus CSV mismatches.
    pub failed: u64,
    /// Ledger checks that failed (traced run): the run is not correct.
    pub violations: Vec<String>,
}

impl Outcome {
    /// `true` if every output was right and every ledger check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Times set-up: the fastest of at least [`SETUP_REPS`] repetitions, and
/// how many there were.
///
/// One set-up is everything before a client's first query can be
/// answered: the scenario built from its file, the trace written if the
/// workload reads one, a node bound, booted and connected to, and that
/// node's own set-up (`passes::train`: the training half streamed in and
/// the initial allocation computed). The node is stopped again outside
/// the timed stretch; the wire passes boot their own.
fn time_set_up(workload: &Workload, seed: u64, scratch: &Scratch) -> Res<(f64, usize)> {
    let mut took: Vec<f64> = Vec::new();
    loop {
        let start = Instant::now();
        let prepared = workloads::prepare(workload, seed, scratch.path())?;
        let mut live = Live::boot(&prepared.scenario, workload.wire, true)?;
        passes::train(&prepared.scenario, &mut live.client)?;
        took.push(start.elapsed().as_secs_f64());
        live.stop()?;
        if took.len() >= SETUP_REPS && took.iter().sum::<f64>() >= 1.0 {
            let fastest = took.iter().copied().fold(f64::INFINITY, f64::min);
            return Ok((fastest, took.len()));
        }
    }
}

/// Repeats `pass` at least `min_reps` times, then while the mean pass
/// so far still fits what is left of `budget`.
pub fn repeat<T>(
    budget: Duration,
    min_reps: usize,
    mut pass: impl FnMut() -> Res<T>,
) -> Res<Vec<T>> {
    let start = Instant::now();
    let mut done = Vec::new();
    loop {
        done.push(pass()?);
        let spent = start.elapsed();
        let mean = spent / done.len() as u32;
        if done.len() >= min_reps && spent + mean > budget {
            return Ok(done);
        }
    }
}

/// Runs `workload` once — untraced for the end-to-end metrics, traced
/// for the per-layer ledger — and checks its outputs.
pub fn run_workload(workload: &Workload, seed: u64, seconds: u64, traced: bool) -> Res<Outcome> {
    let scratch = Scratch::create("run")?;
    let prepared = workloads::prepare(workload, seed, scratch.path())?;
    let budget = Duration::from_secs(seconds);
    if traced {
        layers::traced(workload, &prepared, budget)
    } else {
        untraced(workload, seed, &prepared, &scratch, budget)
    }
}

fn untraced(
    workload: &Workload,
    seed: u64,
    prepared: &Prepared,
    scratch: &Scratch,
    budget: Duration,
) -> Res<Outcome> {
    let Prepared {
        scenario, csv_dir, ..
    } = prepared;
    // All offline reps come first, so that the peak resident set read
    // after them is the pipeline's and not the client's or the node's;
    // set-up boots a node, so it is timed after them.
    let offline: Vec<OfflinePass> = repeat(budget / 2, MIN_REPS, || {
        passes::offline(scenario, csv_dir, false)
    })?;
    let peak_rss_mb = passes::peak_rss_mb()?;
    let (setup_s, setup_reps) = time_set_up(workload, seed, scratch)?;
    let wire: Vec<WirePass> = repeat(budget / 2, MIN_REPS, || {
        passes::wire(scenario, workload.wire, true)
    })?;

    // Every metric that is a time comes from each step's fastest time
    // over the reps (see `stats::fastest`).
    let txs = wire[0].txs as f64;
    let offline_steps = fastest(offline.iter().map(OfflinePass::steps));
    let gaps_ms: Vec<f64> = offline[0]
        .epoch_gaps()
        .map(|step| offline_steps[step] * 1e3)
        .collect();
    let wire_steps = fastest(wire.iter().map(|p| &p.steps));
    let lookups_us = fastest(wire.iter().map(|p| &p.lookups_us));
    let stalls_us: Vec<f64> = wire[0].stalled.iter().map(|&i| lookups_us[i]).collect();

    let value = |name, value, samples| Value {
        name,
        value,
        samples: Some(samples),
    };
    let values = vec![
        value(
            "offline_tx_s",
            txs / offline_steps.iter().sum::<f64>(),
            offline.len(),
        ),
        value(
            "offline_epoch_p50_ms",
            percentile(&gaps_ms, 50.0)?,
            gaps_ms.len(),
        ),
        value(
            "offline_epoch_p75_ms",
            percentile(&gaps_ms, 75.0)?,
            gaps_ms.len(),
        ),
        value(
            "node_tx_s",
            txs / wire_steps.iter().sum::<f64>(),
            wire.len(),
        ),
        value(
            "node_epoch_stall_p50_us",
            percentile(&stalls_us, 50.0)?,
            stalls_us.len(),
        ),
        value("peak_rss_mb", peak_rss_mb, 1),
        value("setup_s", setup_s, setup_reps),
    ];
    assert!(
        values
            .iter()
            .map(|v| v.name)
            .eq(END_TO_END.iter().map(|m| m.name)),
        "the run reports exactly the end-to-end table"
    );

    let others: Vec<&[Vec<u8>]> = offline[1..]
        .iter()
        .map(|p| p.csvs.as_slice())
        .chain(wire.iter().map(|p| p.csvs.as_slice()))
        .collect();
    let (compared, mismatched) =
        passes::check_csvs(&offline[0].csvs, &others, scenario.eval_epochs);
    Ok(Outcome {
        values,
        attempted: compared + wire.iter().map(|p| p.requests).sum::<u64>(),
        failed: mismatched + wire.iter().map(|p| p.failed).sum::<u64>(),
        violations: Vec::new(),
    })
}

/// Prints the run: one `metric <name> <value> <unit> [n=<samples>]` line
/// per metric, any violated check, then — as the last line — the JSON
/// object the benchmark contract asks for.
pub fn report(workload: &Workload, seed: u64, traced: bool, outcome: &Outcome) {
    println!(
        "workload {} seed {seed} trace {} nproc {}",
        workload.name,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let unit_of = |name: &str| -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find_map(|(n, unit)| (n == name).then_some(unit))
            .expect("every reported metric is in the tables")
    };
    // `+ 0.0` prints an empty sum (−0.0) as 0.
    for v in &outcome.values {
        let samples = v.samples.map_or(String::new(), |n| format!(" n={n}"));
        println!(
            "metric {} {} {}{samples}",
            v.name,
            v.value + 0.0,
            unit_of(v.name)
        );
    }
    println!(
        "check failed_share {} ({} of {})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for violation in &outcome.violations {
        println!("violation {violation}");
    }
    let metrics: Vec<String> = outcome
        .values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                v.value + 0.0,
                unit_of(v.name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
