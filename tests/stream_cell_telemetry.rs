//! `Simulation::stream_cell` runs a cell the way `Simulation::run` does,
//! telemetry included: the strategy's gauges land under the cell's
//! scope. This file holds one test because the recorder it installs is
//! process-wide, shared by every test in a binary.

use mosaic::prelude::*;
use mosaic::telemetry::{self, Recorder};

#[test]
fn stream_cell_scopes_the_strategy_telemetry_to_the_cell() {
    let scenario = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/quick.scenario"
    ))
    .unwrap();
    let sim = Simulation::from_scenario(scenario).unwrap();
    let cell = sim
        .cells()
        .iter()
        .find(|cell| cell.config.strategy == Strategy::ATxAllo)
        .unwrap();
    let recorder = Recorder::enabled();
    telemetry::install_global(recorder.clone());
    let streamed = sim.stream_cell(cell, &mut std::io::sink());
    telemetry::install_global(Recorder::disabled());
    streamed.unwrap();

    let gauges: Vec<String> = recorder
        .snapshot()
        .gauges
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert!(
        !gauges.iter().any(|name| name == "txallo.improving_moves"),
        "unscoped gauge: {gauges:?}"
    );
    // Debug builds certify every epoch's sweep and set the gauge.
    if cfg!(debug_assertions) {
        assert!(
            gauges
                .iter()
                .any(|name| name == "a-txallo.txallo.improving_moves"),
            "{gauges:?}"
        );
    }
}
