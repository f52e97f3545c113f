//! Property test: arbitrary valid scenario specs round-trip exactly
//! through the text format (struct → text → struct), and the
//! serialisation is canonical (a second trip is byte-stable).

use std::path::PathBuf;

use mosaic::sim::scenario::{Capacity, GridAxis, ObserverSpec, Scenario};
use mosaic::sim::{Parallelism, Strategy};
use mosaic::types::{LambdaPolicy, SystemParams};
use mosaic::workload::{TraceSource, WorkloadConfig};
use proptest::prelude::*;

fn parallelism(kind: u8, workers: usize) -> Parallelism {
    match kind % 3 {
        0 => Parallelism::Sequential,
        1 => Parallelism::Auto,
        _ => Parallelism::Threads(workers),
    }
}

/// Order-preserving dedup: duplicate values on one axis expand to
/// duplicate grid points, which `Scenario::validate` rejects.
fn dedup<T: PartialEq>(values: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn axis(kind: u8, raw: &[u16]) -> GridAxis {
    match kind % 6 {
        0 => GridAxis::Shards(dedup(raw.iter().copied())),
        1 => GridAxis::Eta(dedup(raw.iter().map(|&v| f64::from(v)))),
        2 => GridAxis::Tau(dedup(raw.iter().map(|&v| u32::from(v)))),
        3 => GridAxis::Beta(dedup(raw.iter().map(|&v| f64::from(v) / 64.0))),
        4 => GridAxis::Lambda(dedup(raw.iter().map(|&v| f64::from(v) + 0.5))),
        _ => GridAxis::MigrationCapacity(dedup(raw.iter().map(|&v| match v % 3 {
            0 => Capacity::Lambda,
            1 => Capacity::Unbounded,
            _ => Capacity::Fixed(usize::from(v)),
        }))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_scenarios_roundtrip_through_text(
        seed in 0u64..1_000_000,
        shards in 1u16..64,
        eta in 1.0f64..10.0,
        tau in 1u32..500,
        beta in 0.0f64..1.0,
        lambda_fixed in 0u8..2,
        lambda in 0.5f64..1000.0,
        train in 0.05f64..0.95,
        eval_epochs in 1usize..300,
        capacity_kind in 0u8..3,
        capacity_n in 1usize..10_000,
        strategy_mask in 1u8..32,
        axes in proptest::collection::vec(
            (0u8..6, proptest::collection::vec(1u16..64, 1..4)),
            0..5,
        ),
        observer_kind in 0u8..3,
        grid_par in 0u8..3,
        cell_par in 0u8..3,
        workers in 1usize..16,
        trace_kind in 0u8..4,
    ) {
        let trace = match trace_kind {
            0 => TraceSource::Generated(WorkloadConfig::small_test(seed)),
            1 => TraceSource::csv(format!("data/trace-{seed}.csv")),
            2 => TraceSource::StreamedGenerated(WorkloadConfig::small_test(seed)),
            _ => TraceSource::streamed_csv(format!("data/trace-{seed}.csv")),
        };
        let base = SystemParams::builder()
            .shards(shards)
            .eta(eta)
            .tau(tau)
            .beta(beta)
            .lambda_policy(if lambda_fixed == 1 {
                LambdaPolicy::Fixed(lambda)
            } else {
                LambdaPolicy::EpochAverage
            })
            .build()
            .unwrap();
        let strategies: Vec<Strategy> = Strategy::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| strategy_mask & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        let stream_dir = PathBuf::from(format!("out/run-{seed}"));
        // Streamed sources reject the collect observer (validate()), so
        // those specs always observe through stream-csv only.
        let observers = if trace.is_streamed() {
            vec![ObserverSpec::StreamCsv(stream_dir)]
        } else {
            match observer_kind {
                0 => vec![ObserverSpec::Collect],
                1 => vec![ObserverSpec::StreamCsv(stream_dir)],
                _ => vec![ObserverSpec::Collect, ObserverSpec::StreamCsv(stream_dir)],
            }
        };

        let scenario = Scenario {
            name: format!("prop-{seed}"),
            trace,
            base,
            capacity: match capacity_kind {
                0 => Capacity::Lambda,
                1 => Capacity::Unbounded,
                _ => Capacity::Fixed(capacity_n),
            },
            train_fraction: train,
            eval_epochs,
            // One axis per kind: two k axes (say) could expand to the
            // same grid point, which validate() rejects as a spec error.
            grid: {
                let mut seen_kinds = [false; 6];
                axes.iter()
                    .filter_map(|(kind, raw)| {
                        let k = usize::from(kind % 6);
                        if std::mem::replace(&mut seen_kinds[k], true) {
                            return None;
                        }
                        Some(axis(*kind, raw))
                    })
                    .collect()
            },
            strategies,
            grid_parallelism: parallelism(grid_par, workers),
            cell_parallelism: parallelism(cell_par, workers),
            observers,
        };
        prop_assert!(scenario.validate().is_ok(), "generated scenario invalid");

        let text = scenario.to_text();
        let back = Scenario::parse(&text).unwrap();
        prop_assert_eq!(&back, &scenario, "round-trip diverged for:\n{}", text);
        // Canonical: serialising the parse result is byte-stable.
        prop_assert_eq!(back.to_text(), text);
    }
}
