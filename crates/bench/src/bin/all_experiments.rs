//! Runs the effectiveness grid once and regenerates every table and
//! figure of the paper from it (the efficient path — the per-table
//! binaries re-run the grid each time). The β sweep of Table V is
//! derived from the same scenario (k = 4 base, β axis, Mosaic only) and
//! runs over the *same* materialised trace, so a single `--scenario`
//! file drives the whole report with one trace generation.

use mosaic_bench::scenario_from_args;
use mosaic_sim::{experiments, GridAxis, Scenario, Simulation, Strategy};

fn main() {
    let scenario = scenario_from_args(
        "All experiments (Tables I-VI, Figure 1)",
        "effectiveness-default",
    );
    let session = Simulation::from_scenario(scenario.clone()).unwrap_or_else(|e| {
        eprintln!("failed to materialise scenario: {e}");
        std::process::exit(2);
    });
    let cells = session
        .run()
        .unwrap_or_else(|e| {
            eprintln!("scenario run failed: {e}");
            std::process::exit(1);
        })
        .cells;
    let sweep = Scenario {
        name: format!("{}-beta-sweep", scenario.name),
        base: scenario
            .base
            .with_shards(4)
            .expect("4 shards is always valid"),
        grid: vec![GridAxis::Beta(vec![0.0, 0.25, 0.5, 0.75, 1.0])],
        strategies: vec![Strategy::Mosaic],
        ..scenario.clone()
    };
    let beta_cells = Simulation::with_trace(sweep, session.trace())
        .expect("the derived beta sweep stays valid")
        .run()
        .unwrap_or_else(|e| {
            eprintln!("beta sweep failed: {e}");
            std::process::exit(1);
        })
        .cells;

    println!("--- Table I: cross-shard transaction ratio ---");
    println!("{}", experiments::table1(&cells));
    println!("--- Table II: normalized throughput (Lambda/lambda) ---");
    println!("{}", experiments::table2(&cells));
    println!("--- Table III: workload deviation ---");
    println!("{}", experiments::table3(&cells));
    println!("--- Table IV: running time (s) and input data size ---");
    println!("{}", experiments::table4(&cells));
    println!("--- Table V: future knowledge (beta sweep, k = 4) ---");
    println!("{}", experiments::table5_from(&beta_cells));
    println!("--- Table VI: framework comparison (measured) ---");
    println!("{}", experiments::table6(&cells, &scenario));
    println!("--- Figure 1: radar series (normalised 1..5) ---");
    println!("{}", experiments::fig1(&cells, &scenario));
}
