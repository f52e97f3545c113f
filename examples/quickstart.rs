//! Quickstart: run the Mosaic framework end to end on a synthetic
//! workload and watch clients drive the allocation — first by hand
//! (every moving part visible), then as one declarative [`Scenario`].
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mosaic::prelude::*;
use mosaic::sim::{Scenario, Simulation};

fn main() -> Result<(), mosaic::types::Error> {
    // A 4-shard system with the paper's default difficulty η = 2 and
    // short epochs so the demo finishes in seconds.
    let params = SystemParams::builder().shards(4).eta(2.0).tau(50).build()?;

    // Synthetic Ethereum-like trace: heavy-tailed activity, latent
    // communities, hub contracts, account churn.
    let workload = generate(&WorkloadConfig::small_test(42));
    let trace = workload.trace();
    println!(
        "workload: {} transactions, {} accounts, {} blocks",
        trace.len(),
        trace.account_count(),
        trace.max_block().map_or(0, |b| b.as_u64() + 1),
    );

    // 90% of the blocks bootstrap the system (initial allocation via
    // G-TxAllo, as in the paper); the rest is live evaluation.
    let (train, _eval) = trace.split_at_fraction(0.9);
    let cut = BlockHeight::new((trace.max_block().unwrap().as_u64() + 1) * 9 / 10);

    let mut builder = GraphBuilder::new();
    builder.add_transactions(train);
    let initial_phi = GTxAllo::default().allocate(&builder.build(), params.shards());

    let mut ledger = Ledger::new(params, initial_phi, 16)?;
    let mut mosaic = MosaicFramework::new(params);
    mosaic.observe_epoch(train);

    // Live epochs: clients run Pilot, propose migrations, the beacon
    // commits the best ones, and the ledger processes the traffic.
    let mut table = TextTable::new([
        "epoch",
        "txs",
        "cross-ratio",
        "throughput",
        "deviation",
        "proposed",
        "committed",
    ]);
    for (i, window) in trace.epoch_windows(cut, params.tau()).take(4).enumerate() {
        let (outcome, report) = mosaic.run_epoch(&mut ledger, window);
        table.push_row([
            format!("{i}"),
            format!("{}", outcome.load.total_txs()),
            format!("{:.1}%", outcome.load.cross_ratio() * 100.0),
            format!("{:.2}", outcome.load.normalized_throughput()),
            format!("{:.2}", outcome.load.workload_deviation()),
            format!("{}", report.proposed),
            format!("{}", outcome.committed.len()),
        ]);
    }
    println!("{table}");

    println!(
        "clients: {}   beacon blocks: {}   committed migrations: {}",
        mosaic.client_count(),
        ledger.beacon().len(),
        ledger.beacon().committed_len(),
    );
    println!(
        "chains verify, ϕ and the meter agree: {:?}",
        ledger.check_invariants()
    );

    // The same protocol, declaratively: one serializable spec drives
    // trace generation, the 90/10 split, initial allocation, the epoch
    // loop, and metric collection. Save it with `scenario.save(path)`
    // and replay it from any binary with `--scenario <path>`.
    let quick = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/quick.scenario"
    ))?;
    let scenario = Scenario::new("quickstart", quick.trace, quick.eval_epochs)
        .with_base(quick.base.with_shards(4)?)
        .with_strategies([Strategy::Mosaic]);
    let report = Simulation::from_scenario(scenario)?.run()?;
    let r = &report.cells[0].result;
    println!(
        "\nthe same experiment as data ({} eval epochs via Scenario/Simulation):\n\
         cross-ratio {:.2}%, throughput {:.2}, deviation {:.2}, {} migrations",
        quick.eval_epochs,
        r.aggregate.cross_ratio * 100.0,
        r.aggregate.normalized_throughput,
        r.aggregate.workload_deviation,
        r.total_migrations,
    );
    Ok(())
}
