//! Regenerates Table V: impact of the future-knowledge ratio β.

use mosaic_bench::scenario_from_args;
use mosaic_sim::experiments;

fn main() {
    let scenario = scenario_from_args(
        "Table V: future knowledge (beta sweep, k = 4)",
        "beta-sweep-default",
    );
    println!("{}", experiments::table5(&scenario));
}
