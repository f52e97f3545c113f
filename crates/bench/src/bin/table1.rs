//! Regenerates Table I: average cross-shard transaction ratios.

use mosaic_bench::scenario_from_args;
use mosaic_sim::experiments;

fn main() {
    let scenario = scenario_from_args(
        "Table I: cross-shard transaction ratio",
        "effectiveness-default",
    );
    let cells = experiments::run_scenario(&scenario);
    println!("{}", experiments::table1(&cells));
}
