//! Regenerates Table III: average workload deviation.

use mosaic_bench::scenario_from_args;
use mosaic_sim::experiments;

fn main() {
    let scenario = scenario_from_args("Table III: workload deviation", "effectiveness-default");
    let cells = experiments::run_scenario(&scenario);
    println!("{}", experiments::table3(&cells));
}
