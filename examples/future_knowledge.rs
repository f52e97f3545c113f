//! The Table V experiment as a demo: how much does knowing a fraction β
//! of your future transactions improve your allocation? One scenario
//! with a β grid axis (`scenarios/beta-sweep-quick.scenario`) — the
//! trace is generated once and shared across all five cells by the
//! [`Simulation`] session.
//!
//! ```text
//! cargo run --release --example future_knowledge
//! ```

use mosaic::prelude::*;
use mosaic::sim::{Scenario, Simulation};

fn main() -> Result<(), mosaic::types::Error> {
    let scenario = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/beta-sweep-quick.scenario"
    ))?;

    let cells = Simulation::from_scenario(scenario)?.run()?;

    let mut table = TextTable::new(["beta", "cross-ratio", "throughput", "deviation"]);
    for cell in &cells {
        let a = &cell.summary.aggregate;
        table.push_row([
            cell.param_label.clone(),
            format!("{:.2}%", a.cross_ratio * 100.0),
            format!("{:.2}", a.normalized_throughput),
            format!("{:.2}", a.workload_deviation),
        ]);
    }
    println!("{table}");
    println!(
        "Future knowledge is exploitable but not mandatory: β = 0 (the worst\n\
         case, no knowledge at all) is the configuration every headline\n\
         result of the paper is reported under."
    );
    Ok(())
}
