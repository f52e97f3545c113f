//! `agree`: does the benchmark agree with itself?
//!
//! Two sets of ten untraced runs per workload of the same code, every
//! run a child process, the ten of a workload each with another seed.
//! A metric holds when, in both sets, the distance between the first
//! and third quartile of its values is within the metric's bound (as a
//! share of the median), and the second set's median is not worse than
//! the first's by more than the bound. Until every row holds, a later
//! change's "regression" or "gain" on that row is noise. Both sets are
//! written to `bench/baseline.json` as the baseline of the commit they
//! ran on.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::{Workload, WORKLOADS};
use crate::{Flags, Res};

/// Where the baseline lands: beside this crate's manifest.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");

/// Runs per workload per set: the ten the benchmark contract and the
/// choosing-metrics guide fix.
const RUNS: u64 = 10;

/// One child run: every end-to-end value and the sample count behind it.
type Run = Vec<(f64, usize)>;

/// Runs `workload` once in a child process and parses its `metric`
/// lines, in [`END_TO_END`] order.
fn child_run(flags: &Flags, workload: &Workload, seed: u64) -> Res<Run> {
    let output = Command::new(std::env::current_exe()?)
        .args(flags.child_args(workload, seed))
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: the run failed ({})",
            workload.name, output.status
        )
        .into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    END_TO_END
        .iter()
        .map(|metric| {
            let mut fields = stdout
                .lines()
                .filter_map(|line| line.strip_prefix("metric "))
                .map(str::split_whitespace)
                .find_map(|mut fields| (fields.next() == Some(metric.name)).then_some(fields))
                .ok_or_else(|| format!("{}: no {} line", workload.name, metric.name))?;
            let value: f64 = fields
                .next()
                .ok_or("metric line without a value")?
                .parse()?;
            let samples = fields
                .find_map(|field| field.strip_prefix("n="))
                .map_or(Ok(1), str::parse)?;
            Ok((value, samples))
        })
        .collect()
}

/// One set's values of one metric.
struct Column {
    values: Vec<f64>,
    samples: Vec<usize>,
    median: f64,
    /// (q3 − q1) ÷ median.
    spread: f64,
}

impl Column {
    fn of(runs: &[Run], metric: usize) -> Column {
        let values: Vec<f64> = runs.iter().map(|run| run[metric].0).collect();
        let [q1, median, q3] = quartiles(&values);
        Column {
            samples: runs.iter().map(|run| run[metric].1).collect(),
            spread: (q3 - q1) / median,
            median,
            values,
        }
    }
}

/// `true` if `metric` held between sets `a` and `b`.
fn holds(metric: &EndToEnd, a: &Column, b: &Column) -> bool {
    a.spread.max(b.spread) <= metric.bound
        && metric.better.worsening(a.median, b.median) <= metric.bound
}

/// Runs both sets, prints the table, writes the baseline. `Ok(false)`
/// if any row failed.
pub fn agree(flags: &Flags) -> Res<bool> {
    let workloads: Vec<&Workload> = match flags.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };
    // sets[set][workload] = that workload's runs, seeds never reused.
    // Within a set the workloads take turns, seed by seed: a busy spell
    // on the host lasts minutes, and this way it falls on a run or two
    // of every workload — which a median of ten shrugs off — and not on
    // all ten runs of one.
    let mut sets: Vec<Vec<Vec<Run>>> = Vec::new();
    for set in 0..2u64 {
        let mut per_workload: Vec<Vec<Run>> = vec![Vec::new(); workloads.len()];
        let first = flags.seed + set * RUNS;
        for seed in first..first + RUNS {
            for (runs, workload) in per_workload.iter_mut().zip(&workloads) {
                runs.push(child_run(flags, workload, seed)?);
            }
        }
        sets.push(per_workload);
    }

    println!(
        "{:<16} {:<21} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "A", "B", "gap", "spreadA", "spreadB", "bound"
    );
    let mut all_hold = true;
    let mut rows = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let a = Column::of(&sets[0][w], m);
            let b = Column::of(&sets[1][w], m);
            let ok = holds(metric, &a, &b);
            all_hold &= ok;
            println!(
                "{:<16} {:<21} {:>14.4} {:>14.4} {:>+8.4} {:>8.4} {:>8.4} {:>6} {}",
                workload.name,
                metric.name,
                a.median,
                b.median,
                metric.better.worsening(a.median, b.median),
                a.spread,
                b.spread,
                metric.bound,
                if ok { "PASS" } else { "FAIL" }
            );
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"bound\": {}, \
                 \"a\": {:?}, \"b\": {:?}, \"samples_a\": {:?}, \"samples_b\": {:?}}}",
                workload.name,
                metric.name,
                metric.unit,
                metric.bound,
                a.values,
                b.values,
                a.samples,
                b.samples
            ));
        }
    }

    let rustc = Command::new("rustc").arg("--version").output()?;
    let mut baseline = String::from("{\n");
    writeln!(
        baseline,
        "  \"nproc\": {},\n  \"rustc\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": {},",
        std::thread::available_parallelism().map_or(0, usize::from),
        String::from_utf8_lossy(&rustc.stdout).trim(),
        flags.seed,
        flags.seconds,
        RUNS
    )?;
    writeln!(baseline, "  \"results\": [\n{}\n  ]\n}}", rows.join(",\n"))?;
    std::fs::write(BASELINE, baseline)?;
    println!("baseline written to {BASELINE}");
    Ok(all_hold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(values: &[f64]) -> Column {
        let runs: Vec<Run> = values.iter().map(|&v| vec![(v, 1)]).collect();
        Column::of(&runs, 0)
    }

    #[test]
    fn a_row_holds_only_when_steady_and_not_worse() {
        let find = |name| END_TO_END.iter().find(|m| m.name == name).unwrap();
        let higher = find("offline_tx_s");
        let steady = column(&[100.0, 100.5, 99.5, 100.2, 99.8]);
        assert!(steady.spread < 0.01);
        assert!(holds(higher, &steady, &steady));
        // Better in B is never a failure; worse by more than the bound is.
        let faster = column(&[150.0, 150.5, 149.5, 150.2, 149.8]);
        assert!(holds(higher, &steady, &faster));
        assert!(!holds(higher, &faster, &steady));
        // A wide set fails even with equal medians, whatever the metric.
        let wide = column(&[60.0, 80.0, 100.0, 120.0, 140.0]);
        assert!(!holds(higher, &wide, &wide));
        assert!(!holds(find("setup_s"), &wide, &wide));
    }
}
