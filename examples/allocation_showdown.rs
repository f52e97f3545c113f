//! Head-to-head comparison of all five allocation strategies on the same
//! synthetic trace — a miniature of the paper's Tables I–IV, expressed
//! as one declarative [`Scenario`] run by a [`Simulation`] session.
//!
//! ```text
//! cargo run --release --example allocation_showdown
//! cargo run --release --example allocation_showdown -- scenarios/default.scenario
//! ```

use mosaic::prelude::*;
use mosaic::sim::{ObserverSpec, Scenario, Simulation};

fn main() -> Result<(), mosaic::types::Error> {
    // The experiment as data: either a .scenario file from the command
    // line, or an 8-shard single-point spec on the quick workload.
    let scenario = match std::env::args().nth(1) {
        Some(path) => Scenario::load(path)?.with_observers([ObserverSpec::Collect]),
        None => {
            let quick = Scenario::load(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/scenarios/quick.scenario"
            ))?;
            Scenario::new("allocation-showdown", quick.trace, quick.eval_epochs)
                .with_base(quick.base.with_shards(8)?)
        }
    };
    let workload = scenario.workload().cloned();
    let session = Simulation::from_scenario(scenario)?;
    if let Some(w) = &workload {
        println!("workload: {} txs over {} blocks", w.total_txs(), w.blocks);
    }
    let cells = session.run()?;

    let mut table = TextTable::new([
        "strategy",
        "cross-ratio",
        "throughput",
        "deviation",
        "alloc time/epoch",
        "input bytes",
        "migrations",
    ]);
    let label = GridCell::labels(&cells)
        .into_iter()
        .next()
        .expect("one point");
    let find = |strategy| GridCell::find(&cells, &label, strategy).map(|cell| &cell.summary);
    for strategy in Strategy::ALL {
        let Some(r) = find(strategy) else {
            continue;
        };
        table.push_row([
            strategy.name().to_string(),
            format!("{:.2}%", r.aggregate.cross_ratio * 100.0),
            format!("{:.2}", r.aggregate.normalized_throughput),
            format!("{:.2}", r.aggregate.workload_deviation),
            format!("{:.2e} s", r.mean_alloc_seconds),
            mosaic::metrics::data_size::human_bytes(r.mean_input_bytes),
            format!("{}", r.total_migrations),
        ]);
    }
    println!("{table}");

    // The same speed story as Table IV, phrased as a ratio.
    if let (Some(pilot), Some(gtxallo)) = (find(Strategy::Mosaic), find(Strategy::GTxAllo)) {
        if pilot.mean_alloc_seconds > 0.0 {
            println!(
                "Pilot is {:.0}x faster per decision than G-TxAllo per epoch \
                 ({:.2e} s vs {:.2e} s), using {:.0}x less input",
                gtxallo.mean_alloc_seconds / pilot.mean_alloc_seconds,
                pilot.mean_alloc_seconds,
                gtxallo.mean_alloc_seconds,
                gtxallo.mean_input_bytes / pilot.mean_input_bytes.max(1.0),
            );
        }
    }
    Ok(())
}
