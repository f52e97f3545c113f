//! Regenerates Table VI: the framework comparison, with measured values.

use mosaic_bench::scenario_from_args;
use mosaic_sim::experiments;

fn main() {
    let scenario = scenario_from_args("Table VI: framework comparison", "effectiveness-default");
    let cells = experiments::run_scenario(&scenario);
    println!("{}", experiments::table6(&cells, &scenario));
}
