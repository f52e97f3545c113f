//! Regenerates Table IV: average running time (seconds) and input size.

use mosaic_bench::scenario_from_args;
use mosaic_sim::experiments;

fn main() {
    let scenario = scenario_from_args(
        "Table IV: running time and input data size",
        "effectiveness-default",
    );
    let cells = experiments::run_scenario(&scenario);
    println!("{}", experiments::table4(&cells));
}
