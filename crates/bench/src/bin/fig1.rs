//! Regenerates Figure 1: the six-axis radar comparison (normalised
//! [1, 5] series for TxAllo vs Mosaic vs hash-based).

use mosaic_bench::scenario_from_args;
use mosaic_sim::experiments;

fn main() {
    let scenario = scenario_from_args(
        "Figure 1: efficiency/effectiveness radar",
        "effectiveness-default",
    );
    let cells = experiments::run_scenario(&scenario);
    println!("{}", experiments::fig1(&cells, &scenario));
}
