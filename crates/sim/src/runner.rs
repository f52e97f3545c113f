//! The experiment cell and its measured outcome (§V-A).
//!
//! "The first 90% of the dataset is used for the initial allocation,
//! while the remaining 10% is reserved for evaluation. … Evaluation
//! metrics are calculated using the data from the current epoch based on
//! the allocation results computed at the end of the preceding epoch."
//!
//! [`ExperimentConfig`] describes one cell of that protocol (one
//! strategy × one parameter set); [`ExperimentResult`] is what running
//! it measured. The protocol itself lives in
//! [`crate::AllocationCore`]; cells are run by
//! [`crate::Simulation`] (or directly by [`crate::engine::run_cell`]).

use mosaic_metrics::{Aggregate, EpochMetrics};
use mosaic_types::SystemParams;

use crate::engine::RunSummary;
use crate::strategy::Strategy;

/// Configuration of one experiment cell (one strategy × one parameter
/// set × one trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// System parameters (k, η, τ, λ policy, β).
    pub params: SystemParams,
    /// The allocation strategy under test.
    pub strategy: Strategy,
    /// Fraction of trace *blocks* used for initial allocation (paper:
    /// 0.9).
    pub train_fraction: f64,
    /// Maximum evaluation epochs to run (paper: 200).
    pub eval_epochs: usize,
    /// Migration-commit cap override (`None` = the paper's `λ` bound).
    /// Only meaningful for the client-driven strategy.
    pub migration_capacity: Option<usize>,
}

impl ExperimentConfig {
    /// Builds a config with the paper's protocol defaults (90/10 split).
    pub fn new(params: SystemParams, strategy: Strategy, eval_epochs: usize) -> Self {
        ExperimentConfig {
            params,
            strategy,
            train_fraction: 0.9,
            eval_epochs,
            migration_capacity: None,
        }
    }
}

/// The measured outcome of one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The strategy that produced this result.
    pub strategy: Strategy,
    /// The parameters it ran under.
    pub params: SystemParams,
    /// Per-epoch effectiveness metrics.
    pub per_epoch: Vec<EpochMetrics>,
    /// Averages over the evaluation epochs.
    pub aggregate: Aggregate,
    /// Wall-clock seconds of the initial (training-prefix) allocation.
    pub init_seconds: f64,
    /// Mean per-epoch allocation runtime in seconds. For miner-driven
    /// strategies this is the full recomputation; for Mosaic it is the
    /// mean *per-client* Pilot execution time — the quantity Table IV
    /// compares.
    pub mean_alloc_seconds: f64,
    /// Mean bytes of input per allocation run (per client for Mosaic).
    pub mean_input_bytes: f64,
    /// Total account moves over the evaluation (committed migration
    /// requests for Mosaic; allocation-diff moves for miner-driven).
    pub total_migrations: usize,
}

impl ExperimentResult {
    /// Assembles a cell's result from the rows its observers collected
    /// (empty without a `collect` observer) and the run's summary.
    pub fn new(
        config: &ExperimentConfig,
        per_epoch: Vec<EpochMetrics>,
        summary: &RunSummary,
    ) -> Self {
        ExperimentResult {
            strategy: config.strategy,
            params: config.params,
            per_epoch,
            aggregate: summary.aggregate,
            init_seconds: summary.init_seconds,
            mean_alloc_seconds: summary.mean_alloc_seconds,
            mean_input_bytes: summary.mean_input_bytes,
            total_migrations: summary.total_migrations,
        }
    }

    /// Serialises the per-epoch series as CSV
    /// ([`mosaic_metrics::report::EPOCH_CSV_HEADER`] + one row per
    /// epoch), ready for external plotting of the paper's time series.
    ///
    /// Byte-identical to what the `stream-csv` observer and
    /// [`crate::Simulation::stream_cell`] write for the same cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(mosaic_metrics::report::EPOCH_CSV_HEADER);
        out.push('\n');
        for (i, m) in self.per_epoch.iter().enumerate() {
            out.push_str(&m.csv_row(i));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::specs::quick;
    use mosaic_workload::{generate, EpochWindowStream, TransactionTrace};
    use std::sync::Arc;

    fn quick_trace() -> Arc<TransactionTrace> {
        Arc::new(generate(quick().workload().unwrap()).into_trace())
    }

    /// One registry cell over a resident trace, rows collected.
    fn run(config: &ExperimentConfig, trace: &Arc<TransactionTrace>) -> ExperimentResult {
        let mut stream = EpochWindowStream::resident(Arc::clone(trace));
        let mut strategy = config.strategy.build(config.params);
        let mut per_epoch = Vec::new();
        let summary = engine::run_cell(config, &mut stream, strategy.as_mut(), &mut |_, row| {
            per_epoch.push(*row);
            true
        })
        .unwrap();
        ExperimentResult::new(config, per_epoch, &summary)
    }

    fn quick_config(strategy: Strategy, k: u16) -> ExperimentConfig {
        let quick = quick();
        let params = quick.base.with_shards(k).unwrap();
        ExperimentConfig::new(params, strategy, quick.eval_epochs)
    }

    #[test]
    fn all_strategies_complete_on_quick_scale() {
        let trace = quick_trace();
        for strategy in Strategy::ALL {
            let result = run(&quick_config(strategy, 4), &trace);
            assert_eq!(result.per_epoch.len(), quick().eval_epochs);
            assert!(result.aggregate.cross_ratio >= 0.0);
            assert!(result.aggregate.cross_ratio <= 1.0);
            assert!(
                result.aggregate.normalized_throughput > 0.0,
                "{strategy} throughput zero"
            );
        }
    }

    #[test]
    fn pattern_aware_strategies_beat_random_on_cross_ratio() {
        let trace = quick_trace();
        let random = run(&quick_config(Strategy::Random, 4), &trace);
        for strategy in [Strategy::Mosaic, Strategy::GTxAllo, Strategy::Metis] {
            let result = run(&quick_config(strategy, 4), &trace);
            assert!(
                result.aggregate.cross_ratio < random.aggregate.cross_ratio,
                "{strategy}: {} !< {}",
                result.aggregate.cross_ratio,
                random.aggregate.cross_ratio
            );
        }
    }

    #[test]
    fn mosaic_is_orders_of_magnitude_faster_per_decision() {
        let trace = quick_trace();
        let mosaic = run(&quick_config(Strategy::Mosaic, 4), &trace);
        let gtxallo = run(&quick_config(Strategy::GTxAllo, 4), &trace);
        assert!(
            mosaic.mean_alloc_seconds * 100.0 < gtxallo.mean_alloc_seconds,
            "pilot {} vs g-txallo {}",
            mosaic.mean_alloc_seconds,
            gtxallo.mean_alloc_seconds
        );
        assert!(mosaic.mean_input_bytes * 10.0 < gtxallo.mean_input_bytes);
    }

    #[test]
    fn random_never_migrates() {
        let trace = quick_trace();
        let result = run(&quick_config(Strategy::Random, 4), &trace);
        assert_eq!(result.total_migrations, 0);
        assert_eq!(result.mean_alloc_seconds, 0.0);
    }

    #[test]
    fn mosaic_migrations_bounded_by_lambda_per_epoch() {
        let trace = quick_trace();
        let result = run(&quick_config(Strategy::Mosaic, 4), &trace);
        let quick = quick();
        // λ = |T_epoch|/k; epochs have tau × txs_per_block transactions.
        let epoch_txs = quick.base.tau() as usize * quick.workload().unwrap().txs_per_block;
        let lambda = epoch_txs as f64 / 4.0;
        for epoch in &result.per_epoch {
            assert!(
                (epoch.migrations as f64) <= lambda + 1.0,
                "epoch committed {} > lambda {lambda}",
                epoch.migrations
            );
        }
    }

    #[test]
    fn csv_export_has_one_row_per_epoch() {
        let trace = quick_trace();
        let result = run(&quick_config(Strategy::Random, 4), &trace);
        let csv = result.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), result.per_epoch.len() + 1);
        assert!(lines[0].starts_with("epoch,cross_ratio"));
        // Every data row parses back.
        for line in &lines[1..] {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 6);
            assert!(fields[1].parse::<f64>().is_ok());
            assert!(fields[4].parse::<usize>().is_ok());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = quick_trace();
        let a = run(&quick_config(Strategy::Mosaic, 4), &trace);
        let b = run(&quick_config(Strategy::Mosaic, 4), &trace);
        assert_eq!(a.per_epoch, b.per_epoch);
        assert_eq!(a.total_migrations, b.total_migrations);
    }

    #[test]
    fn streaming_run_aborts_on_sink_failure() {
        // A sink with room for the header and roughly one row: the
        // cell stops at the failing epoch with the sink's error.
        let sim = crate::Simulation::from_scenario(quick()).unwrap();
        let mut room = [0u8; mosaic_metrics::report::EPOCH_CSV_HEADER.len() + 40];
        let mut sink = &mut room[..];
        let err = sim.stream_cell(&sim.cells()[0], &mut sink).unwrap_err();
        assert!(
            matches!(&err, mosaic_types::Error::Io { path, .. } if path == "<stream sink>"),
            "{err}"
        );
    }
}
