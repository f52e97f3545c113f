//! Policy ablation (beyond the paper): Pilot versus its single-signal
//! components (interaction-only, workload-only) and a never-migrate
//! baseline, plus the beacon-capacity and churn ablations — all derived
//! from one base scenario, the first two sharing one materialised
//! trace (churn needs fresh traces per arrival rate).

use mosaic_bench::scenario_from_args;
use mosaic_sim::{experiments, Simulation};

fn main() {
    let scenario = scenario_from_args("Ablations (k = 16)", "ablation-default");
    let session = Simulation::from_scenario(scenario.clone()).unwrap_or_else(|e| {
        eprintln!("failed to materialise scenario: {e}");
        std::process::exit(2);
    });
    println!("--- Client policy components ---");
    println!("{}", experiments::policy_ablation(&session));
    println!("--- Beacon migration-capacity bound ---");
    println!("{}", experiments::capacity_ablation(&session));
    println!("--- Churn sensitivity (new-account arrival rate) ---");
    println!("{}", experiments::churn_ablation(&scenario));
}
