//! One function per paper table/figure, and the report that prints
//! them all.
//!
//! Every table function returns a [`TextTable`] shaped like the
//! paper's original; [`report`] renders Tables I–VI and Figure 1 from
//! one run of a grid, and [`ablations`] the studies beyond the paper.
//! `mosaic-bench report` and `mosaic-bench ablation` print them.
//!
//! Every grid here is *data*: the effectiveness grid is
//! `scenarios/effectiveness-*.scenario`, and Table V's [`beta_sweep`]
//! and the ablations are studies derived from the session's scenario
//! (`scenarios/ablation-*.scenario` for the latter). The grid runs
//! through [`Simulation::run`] and its observer stack; a derived study
//! runs aggregate-only through the same cell driver with no sink, on
//! the scenario's `grid_parallelism` lanes, over the session's resident
//! trace or a re-opened streamed source. Results are order-stable and
//! — the engine being deterministic — byte-identical to a sequential
//! run on the same seed.

use mosaic_core::policy::{InteractionOnlyPolicy, PilotPolicy, StickyPolicy, WorkloadOnlyPolicy};
use mosaic_core::ClientPolicy;
use mosaic_metrics::data_size::{
    human_bytes, ADDRESS_BYTES, MIGRATION_REQUEST_BYTES, TX_RECORD_BYTES,
};
use mosaic_metrics::{Aggregate, TextTable};
use mosaic_types::{hash_shard, AccountId, Error, Result};
use mosaic_workload::TraceSource;

use crate::engine::{EpochStrategy, MosaicStrategy};
use crate::parallel::ordered_map;
use crate::radar::{efficiency, normalise};
use crate::scenario::{Capacity, CellSpec, GridAxis, Scenario};
pub use crate::session::GridCell;
use crate::session::Simulation;
use crate::strategy::Strategy;

/// The grid point the single-point comparisons (Table VI, Figure 1, the
/// Table IV input row) report on: the paper's default `k = 16` when the
/// grid contains it, otherwise the first grid point.
fn default_label(cells: &[GridCell]) -> String {
    let labels = GridCell::labels(cells);
    labels
        .iter()
        .find(|l| l.as_str() == "k = 16")
        .unwrap_or(&labels[0])
        .clone()
}

/// The metric of one effectiveness table (Tables I–III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effectiveness {
    /// **Table I** — average cross-shard transaction ratio; best is the
    /// lower of TxAllo and Metis.
    CrossRatio,
    /// **Table II** — average normalised throughput improvement `Λ/λ`;
    /// best is the higher of TxAllo and Metis.
    Throughput,
    /// **Table III** — average workload deviation; best is the lowest
    /// of Random, TxAllo and Metis.
    WorkloadDeviation,
}

/// **Tables I–III** — one effectiveness metric per parameter point and
/// strategy. Pilot carries a parenthetical loss relative to the best
/// baseline, as in the paper.
pub fn effectiveness(cells: &[GridCell], table: Effectiveness) -> TextTable {
    type Read = fn(&Aggregate) -> f64;
    type Best = fn([f64; 3]) -> f64;
    type Show = fn(f64) -> String;
    let (read, best, show): (Read, Best, Show) = match table {
        Effectiveness::CrossRatio => (
            |a| a.cross_ratio,
            |[txallo, metis, _]| txallo.min(metis),
            |v| format!("{:.2}%", v * 100.0),
        ),
        Effectiveness::Throughput => (
            |a| a.normalized_throughput,
            |[txallo, metis, _]| txallo.max(metis),
            |v| format!("{v:.2}"),
        ),
        Effectiveness::WorkloadDeviation => (
            |a| a.workload_deviation,
            |[txallo, metis, random]| random.min(txallo).min(metis),
            |v| format!("{v:.2}"),
        ),
    };
    let mut t = TextTable::new(["Parameters", "Pilot", "TxAllo", "Metis", "Random"]);
    for label in GridCell::labels(cells) {
        let value = |strategy| {
            let cell = GridCell::find(cells, &label, strategy).expect("a cell per strategy");
            read(&cell.summary.aggregate)
        };
        let pilot = value(Strategy::Mosaic);
        let baselines = [Strategy::GTxAllo, Strategy::Metis, Strategy::Random].map(value);
        let best = best(baselines);
        let loss = if best > 0.0 {
            (pilot - best) / best * 100.0
        } else {
            0.0
        };
        let [txallo, metis, random] = baselines.map(show);
        t.push_row([
            label,
            format!("{} ({loss:+.2}%)", show(pilot)),
            txallo,
            metis,
            random,
        ]);
    }
    t
}

/// **Table IV** — average per-epoch allocation runtime (seconds) and
/// input data size. The TxAllo column is reported `A \ G` as in the
/// paper.
pub fn table4(cells: &[GridCell]) -> TextTable {
    let summaries = |label: &str| {
        [
            Strategy::Mosaic,
            Strategy::ATxAllo,
            Strategy::GTxAllo,
            Strategy::Metis,
        ]
        .map(|s| {
            &GridCell::find(cells, label, s)
                .expect("a cell per strategy")
                .summary
        })
    };
    let mut t = TextTable::new(["Parameters", "Pilot", "TxAllo (A \\ G)", "Metis"]);
    for label in GridCell::labels(cells) {
        let [pilot, a, g, metis] = summaries(&label).map(|s| s.mean_alloc_seconds);
        t.push_row([
            label,
            format!("{pilot:.2e}"),
            format!("{a:.2e} \\ {g:.2e}"),
            format!("{metis:.2e}"),
        ]);
    }
    // Input data row (any parameter set; the paper reports one line).
    let [pilot, a, g, metis] = summaries(&default_label(cells)).map(|s| s.mean_input_bytes);
    t.push_row([
        "Input Data".to_string(),
        human_bytes(pilot),
        format!("{} \\ {}", human_bytes(a), human_bytes(g)),
        human_bytes(metis),
    ]);
    t
}

/// **Table V** — impact of future knowledge: the Mosaic cells of a β
/// sweep ([`beta_sweep`]).
pub fn table5(cells: &[GridCell]) -> TextTable {
    let mut t = TextTable::new(["Metrics", "Ratio", "Throughput", "Workload"]);
    for cell in cells
        .iter()
        .filter(|c| c.config.strategy == Strategy::Mosaic)
    {
        let a = &cell.summary.aggregate;
        t.push_row([
            cell.param_label.clone(),
            format!("{:.2}%", a.cross_ratio * 100.0),
            format!("{:.2}", a.normalized_throughput),
            format!("{:.2}", a.workload_deviation),
        ]);
    }
    t
}

/// **Table VI** — the framework comparison on the paper's default
/// parameter set (`k = 16`) when the grid contains it, otherwise the
/// grid's first point. The replication rows are the paper's closed
/// forms priced by [`mosaic_metrics::data_size`]'s byte model, with
/// `|T|`, `k`, τ and Mosaic's migration count taken from the run.
///
/// # Panics
///
/// Panics if `scenario` does not use a generated trace source (the
/// replication columns need the workload's structural description) or
/// if the grid lacks a Mosaic cell at the reported point.
pub fn table6(cells: &[GridCell], scenario: &Scenario) -> TextTable {
    let workload = scenario
        .workload()
        .expect("table6 needs a generated workload description");
    let tau = scenario.base.tau();
    let label = default_label(cells);
    let mosaic = GridCell::find(cells, &label, Strategy::Mosaic).expect("a Mosaic cell");
    let k = u64::from(mosaic.config.params.shards());
    let total_txs = workload.total_txs() as u64;
    let accounts = workload.initial_accounts as u64;
    let window_txs = u64::from(tau) * workload.txs_per_block as u64;
    let mr_total = mosaic.summary.total_migrations as u64;

    let tx_bytes = TX_RECORD_BYTES as u64;
    let mr_bytes = MIGRATION_REQUEST_BYTES as u64;
    let t_per_account = 2 * total_txs / accounts.max(1);

    let mut t = TextTable::new(["Property", "Graph-based", "Mosaic", "Hash-based"]);
    t.push_row(["Participants", "Miners", "Clients", "Miners"]);
    t.push_row([
        "Optimization type",
        "Global optimization",
        "Local optimization",
        "Global optimization",
    ]);
    t.push_row(["Computation results", "ϕ(A)", "ϕ(ν)", "ϕ(A)"]);
    t.push_row([
        "Computation input".to_string(),
        format!("O(|T|) = {} txs", total_txs),
        format!("O(|T^ν|) ≈ {} txs", t_per_account),
        format!("O(|T_win|) = {} txs", window_txs),
    ]);
    t.push_row([
        "Replication storage".to_string(),
        human_bytes((total_txs * tx_bytes) as f64),
        format!(
            "{} + {} (MR)",
            human_bytes((total_txs / k * tx_bytes) as f64),
            human_bytes((mr_total * mr_bytes) as f64)
        ),
        human_bytes((total_txs / k * tx_bytes) as f64),
    ]);
    t.push_row([
        "Replication communication / epoch".to_string(),
        human_bytes((window_txs * tx_bytes) as f64),
        format!(
            "{} + {} (MR)",
            human_bytes((window_txs / k * tx_bytes) as f64),
            // aggregate.epochs, not per_epoch.len(): collect-free
            // observer stacks leave per_epoch empty.
            human_bytes(
                (mr_total / (mosaic.summary.aggregate.epochs.max(1) as u64) * mr_bytes) as f64
            )
        ),
        human_bytes((window_txs / k * tx_bytes) as f64),
    ]);
    t.push_row(["Computation incentives", "no", "yes (client benefit)", "no"]);
    t.push_row(["Allocation controllability", "no", "yes", "no"]);
    t.push_row(["Allocation of new accounts", "no", "yes", "yes"]);
    t.push_row(["Future expected transactions", "no", "yes", "no"]);
    t
}

/// **Figure 1** — the six-axis radar comparison of TxAllo vs Mosaic vs
/// hash-based, on the default parameter set. Returns the normalised
/// `[1, 5]` series (one row per axis). Efficiency is the reciprocal of
/// overhead and the workload balance index the reciprocal of deviation
/// (the paper's footnote 3).
///
/// # Panics
///
/// Panics if `scenario` does not use a generated trace source, or if
/// the grid lacks Mosaic/G-TxAllo/Random cells at the reported point
/// (`k = 16` when present, else the first grid point).
pub fn fig1(cells: &[GridCell], scenario: &Scenario) -> TextTable {
    let workload = scenario
        .workload()
        .expect("fig1 needs a generated workload description");
    let label = default_label(cells);
    let cell = |s| GridCell::find(cells, &label, s).expect("a cell per strategy");
    let shards = cell(Strategy::Mosaic).config.params.shards();
    let [txallo, mosaic, random] =
        [Strategy::GTxAllo, Strategy::Mosaic, Strategy::Random].map(|s| &cell(s).summary);
    let k = f64::from(shards);
    let window_txs = (u64::from(scenario.base.tau()) * workload.txs_per_block as u64) as f64;
    // aggregate.epochs, not per_epoch.len(): collect-free observer
    // stacks leave per_epoch empty.
    let epochs = mosaic.aggregate.epochs.max(1) as f64;
    let mr_per_epoch = mosaic.total_migrations as f64 / epochs;

    // Hash-based per-account work, measured directly: the rule the Random
    // cell runs — SHA-256 of the 20-byte address, reduced mod k.
    let (_, hash_time) = mosaic_metrics::timing::time_it(|| {
        let mut acc = 0u16;
        for i in 0..1000u64 {
            acc ^= hash_shard(AccountId::new(i), shards).as_u16();
        }
        acc
    });
    let hash_seconds = (hash_time.as_secs_f64() / 1000.0).max(1e-12);

    // Overheads (lower is better), inverted into efficiencies.
    let (tx_bytes, mr_bytes) = (TX_RECORD_BYTES as f64, MIGRATION_REQUEST_BYTES as f64);
    let axes = [
        (
            "Computation Efficiency",
            efficiency([
                txallo.mean_alloc_seconds.max(1e-12),
                mosaic.mean_alloc_seconds.max(1e-12),
                hash_seconds,
            ]),
        ),
        (
            "Storage Efficiency",
            efficiency([
                txallo.mean_input_bytes.max(1.0),
                mosaic.mean_input_bytes.max(1.0),
                ADDRESS_BYTES as f64,
            ]),
        ),
        (
            "Communication Efficiency",
            efficiency([
                window_txs * tx_bytes,
                window_txs / k * tx_bytes + mr_per_epoch * mr_bytes,
                window_txs / k * tx_bytes,
            ]),
        ),
        (
            "Throughput",
            [txallo, mosaic, random].map(|s| s.aggregate.normalized_throughput),
        ),
        (
            "Intra-shard Ratio",
            [txallo, mosaic, random].map(|s| 1.0 - s.aggregate.cross_ratio),
        ),
        (
            "Workload Balance Index (1/dev)",
            efficiency([txallo, mosaic, random].map(|s| s.aggregate.workload_deviation.max(1e-9))),
        ),
    ];

    let mut t = TextTable::new(["Axis", "TxAllo", "Mosaic", "Hash-based"]);
    for (label, values) in axes {
        let [a, b, c] = normalise(values).map(|v| format!("{v:.2}"));
        t.push_row([label.to_string(), a, b, c]);
    }
    t
}

/// Renders each table under a `--- title ---` line.
fn sections<const N: usize>(sections: [(&str, TextTable); N]) -> String {
    sections
        .iter()
        .map(|(title, table)| format!("--- {title} ---\n{table}\n"))
        .collect()
}

/// Builds the strategy a derived-study cell runs.
type Build = fn(&CellSpec) -> Box<dyn EpochStrategy>;

/// The registry strategy of the cell ([`Strategy::build`]).
fn registry(cell: &CellSpec) -> Box<dyn EpochStrategy> {
    cell.config.strategy.build(cell.config.params)
}

/// Every client of the cell running policy `P`.
fn mosaic<P: ClientPolicy + Default + 'static>(cell: &CellSpec) -> Box<dyn EpochStrategy> {
    Box::new(MosaicStrategy::new(cell.config.params, P::default()))
}

/// Runs `study`, a scenario derived from `session`'s, aggregate-only:
/// every cell × every `build`, in that order, on the study's
/// `grid_parallelism` lanes, each through the session's cell driver
/// with no sink, no collected rows and no observer, so the study writes
/// none of the scenario's CSVs. The study shares the session's resident
/// trace when it runs the same source, and otherwise opens its own (a
/// streamed source is re-opened per cell).
fn derived(session: &Simulation, study: Scenario, builds: &[Build]) -> Result<Vec<GridCell>> {
    let study = match session.trace() {
        Some(trace) if study.trace == session.scenario().trace => {
            Simulation::with_trace(study, trace)?
        }
        _ => Simulation::from_scenario(study)?,
    };
    let runs: Vec<(&CellSpec, Build)> = study
        .cells()
        .iter()
        .flat_map(|cell| builds.iter().map(move |&build| (cell, build)))
        .collect();
    ordered_map(
        &runs,
        study.scenario().grid_parallelism,
        |&(cell, build)| study.drive(cell, build(cell), Vec::new(), false, &[]),
    )
    .into_iter()
    .collect()
}

/// **Table V's β sweep**, derived from `scenario`: its base point at
/// `k = 4`, `β ∈ {0, 0.25, 0.5, 0.75, 1}`, Mosaic only. Renamed, the
/// sweep of `scenarios/effectiveness-*.scenario` is
/// `scenarios/beta-sweep-*.scenario`.
///
/// # Errors
///
/// The base point's validation error at `k = 4`.
pub fn beta_sweep(scenario: &Scenario) -> Result<Scenario> {
    Ok(Scenario {
        name: format!("{}-beta-sweep", scenario.name),
        base: scenario.base.with_shards(4)?,
        grid: vec![GridAxis::Beta(vec![0.0, 0.25, 0.5, 0.75, 1.0])],
        strategies: vec![Strategy::Mosaic],
        ..scenario.clone()
    })
}

/// **The report** — Tables I–VI and Figure 1 from one run of the
/// `session`'s grid, plus Table V's [`beta_sweep`] of the same
/// scenario, run aggregate-only.
///
/// # Errors
///
/// The first cell failure of either run, or the sweep's validation
/// error.
///
/// # Panics
///
/// As [`table6`] and [`fig1`].
pub fn report(session: &Simulation) -> Result<String> {
    let scenario = session.scenario();
    let cells = session.run()?;
    let beta_cells = derived(session, beta_sweep(scenario)?, &[registry])?;
    Ok(sections([
        (
            "Table I: cross-shard transaction ratio",
            effectiveness(&cells, Effectiveness::CrossRatio),
        ),
        (
            "Table II: normalized throughput (Lambda/lambda)",
            effectiveness(&cells, Effectiveness::Throughput),
        ),
        (
            "Table III: workload deviation",
            effectiveness(&cells, Effectiveness::WorkloadDeviation),
        ),
        (
            "Table IV: running time (s) and input data size",
            table4(&cells),
        ),
        (
            "Table V: future knowledge (beta sweep, k = 4)",
            table5(&beta_cells),
        ),
        (
            "Table VI: framework comparison (model)",
            table6(&cells, scenario),
        ),
        (
            "Figure 1: radar series (normalised 1..5)",
            fig1(&cells, scenario),
        ),
    ]))
}

/// **The ablations (beyond the paper)** — [`policy_ablation`] and
/// [`capacity_ablation`] over the `session`'s trace, then
/// [`churn_ablation`] on churned variants of its workload.
///
/// # Errors
///
/// The first error of any of the three studies.
pub fn ablations(session: &Simulation) -> Result<String> {
    Ok(sections([
        ("Client policy components", policy_ablation(session)?),
        (
            "Beacon migration-capacity bound",
            capacity_ablation(session)?,
        ),
        (
            "Churn sensitivity (new-account arrival rate)",
            churn_ablation(session)?,
        ),
    ]))
}

/// One ablation row: a name and the cell's ratio, throughput, workload
/// deviation and migration count.
fn ablation_row(name: &str, cell: &GridCell) -> [String; 5] {
    let summary = &cell.summary;
    [
        name.to_string(),
        format!("{:.2}%", summary.aggregate.cross_ratio * 100.0),
        format!("{:.2}", summary.aggregate.normalized_throughput),
        format!("{:.2}", summary.aggregate.workload_deviation),
        format!("{}", summary.total_migrations),
    ]
}

/// **Ablation (beyond the paper)** — Pilot versus policies that use only
/// one of its two signals (interactions / workload) or none (sticky),
/// on the base point of the `session`'s scenario.
///
/// # Errors
///
/// A cell's trace-read error.
pub fn policy_ablation(session: &Simulation) -> Result<TextTable> {
    const POLICIES: [(&str, Build); 4] = [
        ("Pilot", mosaic::<PilotPolicy>),
        ("InteractionOnly", mosaic::<InteractionOnlyPolicy>),
        ("WorkloadOnly", mosaic::<WorkloadOnlyPolicy>),
        ("Sticky", mosaic::<StickyPolicy>),
    ];
    let base = Scenario {
        grid: Vec::new(),
        strategies: vec![Strategy::Mosaic],
        ..session.scenario().clone()
    };
    let cells = derived(session, base, &POLICIES.map(|(_, build)| build))?;
    let mut t = TextTable::new(["Policy", "Ratio", "Throughput", "Workload", "Migrations"]);
    for ((name, _), cell) in POLICIES.iter().zip(&cells) {
        t.push_row(ablation_row(name, cell));
    }
    Ok(t)
}

/// **Ablation (beyond the paper)** — the beacon-chain capacity bound:
/// the paper commits at most `λ` migration requests per epoch; this
/// compares that against an unbounded beacon on the base point of the
/// `session`'s scenario, as a capacity grid axis over its trace.
///
/// # Errors
///
/// A cell's trace-read error.
pub fn capacity_ablation(session: &Simulation) -> Result<TextTable> {
    let study = Scenario {
        grid: vec![GridAxis::MigrationCapacity(vec![
            Capacity::Lambda,
            Capacity::Unbounded,
        ])],
        strategies: vec![Strategy::Mosaic],
        ..session.scenario().clone()
    };
    let cells = derived(session, study, &[registry])?;
    let mut t = TextTable::new([
        "Beacon capacity",
        "Ratio",
        "Throughput",
        "Workload",
        "Migrations",
    ]);
    for (name, cell) in ["λ-bounded (paper)", "unbounded"].iter().zip(&cells) {
        t.push_row(ablation_row(name, cell));
    }
    Ok(t)
}

/// **Ablation (beyond the paper)** — churn sensitivity: how allocation
/// quality degrades as brand-new accounts arrive faster.
///
/// Accounts seen for the first time are invisible to *everyone* until
/// their first epoch commits (a per-epoch G-TxAllo recompute adapts one
/// epoch late, exactly like a history-only Pilot client). The genuine
/// Mosaic new-account benefit (§VI) is that a newcomer with *plans* —
/// expected future transactions, β > 0 — self-places at debut, before
/// any history exists. The table therefore compares G-TxAllo against
/// Pilot with and without future knowledge as churn grows.
///
/// Each churn rate is one workload variant, resident or streamed as the
/// session's source is; the Pilot β sweep and the G-TxAllo baseline
/// run over the same variant.
///
/// # Errors
///
/// [`Error::ParseScenario`] if the session's trace is not generated
/// (churn is a generator knob), and a cell's trace-read error.
pub fn churn_ablation(session: &Simulation) -> Result<TextTable> {
    let scenario = session.scenario();
    let Some(workload) = scenario.workload() else {
        return Err(Error::ParseScenario {
            line: 0,
            message: format!(
                "the churn ablation needs a generated or streamed trace source; \
                 scenario '{}' reads a file",
                scenario.name
            ),
        });
    };
    let mut t = TextTable::new([
        "New accounts/block",
        "Pilot β=0",
        "Pilot β=0.5",
        "G-TxAllo",
        "Informed-Pilot advantage",
    ]);
    for rate in [0.0, 1.0, 4.0] {
        let churned = workload.clone().with_churn(rate);
        let trace = if scenario.trace.is_streamed() {
            TraceSource::StreamedGenerated(churned)
        } else {
            TraceSource::Generated(churned)
        };
        let variant = Simulation::from_scenario(Scenario {
            trace,
            ..scenario.clone()
        })?;
        let study = |grid, strategy| Scenario {
            grid,
            strategies: vec![strategy],
            ..variant.scenario().clone()
        };
        let pilots = derived(
            &variant,
            study(vec![GridAxis::Beta(vec![0.0, 0.5])], Strategy::Mosaic),
            &[registry],
        )?;
        let baseline = derived(&variant, study(Vec::new(), Strategy::GTxAllo), &[registry])?;
        let [pilot, informed, gtxallo] =
            [&pilots[0], &pilots[1], &baseline[0]].map(|cell| cell.summary.aggregate.cross_ratio);
        t.push_row([
            format!("{rate}"),
            format!("{:.2}%", pilot * 100.0),
            format!("{:.2}%", informed * 100.0),
            format!("{:.2}%", gtxallo * 100.0),
            format!("{:+.2} pp", (gtxallo - informed) * 100.0),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ObserverSpec;
    use crate::specs::{ablation_quick, beta_quick, effectiveness_quick};

    fn run(scenario: Scenario) -> Vec<GridCell> {
        Simulation::from_scenario(scenario).unwrap().run().unwrap()
    }

    /// `scenario` with its generated source flipped to the streamed
    /// generator, its rows streamed into `dir`.
    fn streamed(scenario: Scenario, dir: &std::path::Path) -> Scenario {
        Scenario {
            trace: TraceSource::StreamedGenerated(scenario.workload().unwrap().clone()),
            ..scenario.with_observers([ObserverSpec::StreamCsv(dir.to_path_buf())])
        }
    }

    #[test]
    fn grid_covers_all_params_and_strategies() {
        let cells = run(effectiveness_quick());
        assert_eq!(cells.len(), 5 * Strategy::ALL.len());
        assert_eq!(GridCell::labels(&cells).len(), 5);
        // Tables render without panicking and have the right row counts.
        let scenario = effectiveness_quick();
        for table in [
            Effectiveness::CrossRatio,
            Effectiveness::Throughput,
            Effectiveness::WorkloadDeviation,
        ] {
            assert_eq!(effectiveness(&cells, table).row_count(), 5, "{table:?}");
        }
        assert_eq!(table4(&cells).row_count(), 6); // 5 params + input row
        assert!(fig1(&cells, &scenario).row_count() == 6);
        assert!(table6(&cells, &scenario).row_count() >= 8);
    }

    /// Table VI prices replication with `data_size`'s constants, so a
    /// changed constant moves the table and this test together.
    #[test]
    fn table6_prices_replication_with_the_byte_model() {
        let cells = run(effectiveness_quick());
        let scenario = effectiveness_quick();
        let markdown = table6(&cells, &scenario).to_markdown();
        // ["", "Replication storage", graph-based, Mosaic, hash-based, ""]
        let storage: Vec<&str> = markdown
            .lines()
            .find(|line| line.starts_with("| Replication storage |"))
            .expect("a replication storage row")
            .split('|')
            .map(str::trim)
            .collect();
        let mosaic = GridCell::find(&cells, &default_label(&cells), Strategy::Mosaic).unwrap();
        let k = u64::from(mosaic.config.params.shards());
        let total_txs = scenario.workload().unwrap().total_txs() as u64;
        let sharded = human_bytes((total_txs / k * TX_RECORD_BYTES as u64) as f64);
        assert_eq!(storage[4], sharded, "hash-based: |T|/k");
        let migrations = mosaic.summary.total_migrations;
        assert!(migrations > 0);
        let mr = human_bytes((migrations * MIGRATION_REQUEST_BYTES) as f64);
        assert_eq!(
            storage[3],
            format!("{sharded} + {mr} (MR)"),
            "Mosaic: |T|/k + |MR|"
        );
    }

    #[test]
    fn random_has_worst_cross_ratio_in_grid() {
        let cells = run(effectiveness_quick());
        let ratio = |label: &str, s| {
            let cell = GridCell::find(&cells, label, s).unwrap();
            cell.summary.aggregate.cross_ratio
        };
        for label in GridCell::labels(&cells) {
            let random = ratio(&label, Strategy::Random);
            for s in [Strategy::Mosaic, Strategy::GTxAllo, Strategy::Metis] {
                let other = ratio(&label, s);
                assert!(other < random, "{label}/{s}: {other} !< random {random}");
            }
        }
    }

    /// A report on a `stream-csv` spec, over a resident and over a
    /// streamed trace, leaves exactly the grid's CSVs in the directory.
    #[test]
    fn report_writes_only_the_grid_csvs() {
        for name in ["resident", "streamed"] {
            let dir = std::env::temp_dir().join(format!("mosaic-report-observers-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            let scenario = match name {
                "resident" => {
                    effectiveness_quick().with_observers([ObserverSpec::StreamCsv(dir.clone())])
                }
                _ => streamed(effectiveness_quick(), &dir),
            };
            let session = Simulation::from_scenario(scenario).unwrap();
            let text = report(&session).unwrap();
            assert!(text.contains("Table V"), "{name}");
            let single_point = session.scenario().is_single_point();
            let mut expected: Vec<String> = session
                .cells()
                .iter()
                .map(|cell| format!("{}.csv", cell.file_stem(single_point)))
                .collect();
            let mut written: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            expected.sort();
            written.sort();
            assert_eq!(written, expected, "{name}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The ablations run on a streamed spec too, print the same text as
    /// on its resident twin and write no file; a file trace has no churn
    /// knob, which is an error, not a panic.
    #[test]
    fn ablations_of_a_streamed_spec_match_its_resident_twin() {
        let dir = std::env::temp_dir().join("mosaic-ablation-streamed");
        let _ = std::fs::remove_dir_all(&dir);
        let resident = Simulation::from_scenario(ablation_quick()).unwrap();
        let twin = Simulation::from_scenario(streamed(ablation_quick(), &dir)).unwrap();
        assert!(twin.trace().is_none());
        let text = ablations(&resident).unwrap();
        assert_eq!(ablations(&twin).unwrap(), text);
        assert!(!dir.exists(), "a derived study wrote rows");

        let csv = Scenario {
            trace: TraceSource::csv("unread.csv"),
            ..ablation_quick()
        };
        let session = Simulation::with_trace(csv, resident.trace().unwrap()).unwrap();
        let err = churn_ablation(&session).unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("churn"), "{err}");
    }

    /// Table V's sweep has one owner: derived from an effectiveness spec
    /// and renamed, it prints as the checked-in β-sweep spec.
    #[test]
    fn beta_sweep_of_the_effectiveness_specs_is_the_checked_in_sweep() {
        for (grid, sweep) in [
            (
                include_str!("../../../scenarios/effectiveness-quick.scenario"),
                include_str!("../../../scenarios/beta-sweep-quick.scenario"),
            ),
            (
                include_str!("../../../scenarios/effectiveness-default.scenario"),
                include_str!("../../../scenarios/beta-sweep-default.scenario"),
            ),
        ] {
            let derived = beta_sweep(&Scenario::parse(grid).unwrap()).unwrap();
            let name = Scenario::parse(sweep).unwrap().name;
            assert_eq!(Scenario { name, ..derived }.to_text(), sweep);
        }
    }

    #[test]
    fn table5_is_monotonic_in_shape() {
        // Smoke test: the sweep runs and produces 5 rows; monotonicity is
        // asserted loosely (β=1 may regress slightly, as in the paper).
        let t = table5(&run(beta_quick()));
        assert_eq!(t.row_count(), 5);
    }
}
