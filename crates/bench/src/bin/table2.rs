//! Regenerates Table II: average throughput improvement Λ/λ.

use mosaic_bench::scenario_from_args;
use mosaic_sim::experiments;

fn main() {
    let scenario = scenario_from_args("Table II: normalized throughput", "effectiveness-default");
    let cells = experiments::run_scenario(&scenario);
    println!("{}", experiments::table2(&cells));
}
