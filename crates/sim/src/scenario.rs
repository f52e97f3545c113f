//! Declarative experiment scenarios: one serializable spec per study.
//!
//! A [`Scenario`] is the *data* form of an experiment: it names a trace
//! source (synthetic [`WorkloadConfig`] or CSV file), a base parameter
//! point, a one-at-a-time parameter grid ([`GridAxis`] over `k`, `η`,
//! `τ`, `β`, `λ`, migration capacity), the strategy set, how many cells
//! run at once, and an observer stack. A
//! [`Simulation`](crate::session::Simulation) session materialises the
//! trace once and runs every cell of the grid.
//!
//! Scenarios round-trip through a line-oriented `key = value` text
//! format (see [`Scenario::to_text`] / [`Scenario::parse`]), so studies
//! can be checked in as `.scenario` files and driven from the command
//! line:
//!
//! ```text
//! # mosaic scenario v1
//! name = effectiveness-quick
//! trace = generated
//! workload.blocks = 2000
//! ...
//! params.shards = 16
//! params.eta = 2
//! axis.k = 4, 16, 32
//! axis.eta = 5, 10
//! strategies = Pilot, G-TxAllo, A-TxAllo, Metis, Random
//! ```
//!
//! Each top-level key is declared once, in a private table holding its
//! name, how to print it (or omit it) and how to apply one `key = value`
//! line: [`Scenario::to_text`] walks the table, [`Scenario::parse`] looks
//! keys up in it, and an unknown key is refused with the valid ones. The
//! grid axes have a table of their own (key and row-label symbol). The
//! experiment presets are the files under `scenarios/` at the
//! repository root.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mosaic_types::{Error, LambdaPolicy, Result, SystemParams};
use mosaic_workload::{TraceSource, WorkloadConfig};

use crate::engine::ExperimentConfig;
use crate::strategy::Strategy;
use crate::Parallelism;

/// The beacon-chain migration-commit bound of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// The paper's `λ` bound (the default).
    Lambda,
    /// No bound at all (the capacity ablation's comparison point).
    Unbounded,
    /// A fixed number of commits per epoch.
    Fixed(usize),
}

impl Capacity {
    fn to_token(self) -> String {
        match self {
            Capacity::Lambda => "lambda".to_string(),
            Capacity::Unbounded => "unbounded".to_string(),
            Capacity::Fixed(n) => n.to_string(),
        }
    }

    fn parse_token(token: &str, line: usize) -> Result<Self> {
        match token {
            "lambda" => Ok(Capacity::Lambda),
            "unbounded" => Ok(Capacity::Unbounded),
            n => Ok(Capacity::Fixed(parse_num(n, "migration capacity", line)?)),
        }
    }

    /// The value as a row label shows it (`"capacity = ∞"`).
    fn label_value(self) -> String {
        match self {
            Capacity::Lambda => "λ".to_string(),
            Capacity::Unbounded => "∞".to_string(),
            Capacity::Fixed(n) => n.to_string(),
        }
    }
}

/// One swept parameter: the grid varies it across its values while every
/// other parameter stays at the scenario's base point (the paper's
/// one-at-a-time protocol — Tables I–IV vary `k` at `η = 2`, then `η` at
/// `k = 16`).
#[derive(Debug, Clone, PartialEq)]
pub enum GridAxis {
    /// Shard counts `k` (row labels `"k = 4"`, …).
    Shards(Vec<u16>),
    /// Cross-shard difficulties `η` (`"η = 5"`, …).
    Eta(Vec<f64>),
    /// Epoch lengths `τ` in blocks (`"τ = 100"`, …).
    Tau(Vec<u32>),
    /// Future-knowledge ratios `β` (`"β = 0.5"`, …).
    Beta(Vec<f64>),
    /// Fixed per-shard capacities `λ` (`"λ = 250"`, …); the base point
    /// uses the paper's `|T_epoch|/k` policy.
    Lambda(Vec<f64>),
    /// Beacon migration-commit bounds (`"capacity = ∞"`, …).
    MigrationCapacity(Vec<Capacity>),
}

/// The prefix of every grid-axis key (`axis.k = 4, 16, 32`).
const AXIS_PREFIX: &str = "axis.";

/// One grid axis of the text format.
struct AxisSpec {
    /// The key after [`AXIS_PREFIX`].
    key: &'static str,
    /// The parameter's symbol in row labels; [`slug`] maps it back to
    /// `key` in file names.
    symbol: &'static str,
    parse: fn(&Field<'_>) -> Result<GridAxis>,
}

/// Every grid axis, in [`GridAxis`] variant order ([`GridAxis::expand`]
/// indexes it).
#[rustfmt::skip]
const AXES: [AxisSpec; 6] = [
    AxisSpec { key: "k", symbol: "k", parse: |f| f.nums().map(GridAxis::Shards) },
    AxisSpec { key: "eta", symbol: "η", parse: |f| f.nums().map(GridAxis::Eta) },
    AxisSpec { key: "tau", symbol: "τ", parse: |f| f.nums().map(GridAxis::Tau) },
    AxisSpec { key: "beta", symbol: "β", parse: |f| f.nums().map(GridAxis::Beta) },
    AxisSpec { key: "lambda", symbol: "λ", parse: |f| f.nums().map(GridAxis::Lambda) },
    AxisSpec { key: "capacity", symbol: "capacity",
               parse: |f| f.list(|t| Capacity::parse_token(t, f.line)).map(GridAxis::MigrationCapacity) },
];

/// One value of a grid axis, as the text format and a row label print
/// it and as it moves the base point.
struct AxisValue {
    token: String,
    label: String,
    params: Result<SystemParams>,
    capacity: Capacity,
}

impl GridAxis {
    /// The axis's [`AXES`] entry and its values around `base` — the one
    /// place the variants are matched.
    fn expand(
        &self,
        base: SystemParams,
        capacity: Capacity,
    ) -> (&'static AxisSpec, Vec<AxisValue>) {
        let num = |v: &dyn ToString, params| AxisValue {
            token: v.to_string(),
            label: v.to_string(),
            params,
            capacity,
        };
        let fixed = |lambda| base.with_lambda_policy(LambdaPolicy::Fixed(lambda));
        let (index, values) = match self {
            GridAxis::Shards(v) => (0, v.iter().map(|&x| num(&x, base.with_shards(x))).collect()),
            GridAxis::Eta(v) => (1, v.iter().map(|&x| num(&x, base.with_eta(x))).collect()),
            GridAxis::Tau(v) => (2, v.iter().map(|&x| num(&x, base.with_tau(x))).collect()),
            GridAxis::Beta(v) => (3, v.iter().map(|&x| num(&x, base.with_beta(x))).collect()),
            GridAxis::Lambda(v) => (4, v.iter().map(|&x| num(&x, fixed(x))).collect()),
            GridAxis::MigrationCapacity(v) => {
                let value = |c: Capacity| AxisValue {
                    token: c.to_token(),
                    label: c.label_value(),
                    params: Ok(base),
                    capacity: c,
                };
                (5, v.iter().map(|&c| value(c)).collect())
            }
        };
        (&AXES[index], values)
    }

    fn parse(field: &Field<'_>) -> Result<Self> {
        let key = &field.key[AXIS_PREFIX.len()..];
        let Some(spec) = AXES.iter().find(|axis| axis.key == key) else {
            let valid = join(&AXES, |axis| axis.key.to_string());
            return Err(field.error(format!("unknown grid axis {key:?}; valid: {valid}")));
        };
        if field.value.split(',').all(|t| t.trim().is_empty()) {
            return Err(field.error(format!("{} has no values", field.key)));
        }
        (spec.parse)(field)
    }
}

/// What to do with the per-epoch metric rows of every cell.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserverSpec {
    /// Keep the rows in memory
    /// ([`GridCell::per_epoch`](crate::GridCell::per_epoch)).
    Collect,
    /// Stream each cell's rows to `<dir>/<cell>.csv` the moment they are
    /// computed (bounded memory — byte-identical to
    /// [`crate::Simulation::stream_cell`]).
    StreamCsv(PathBuf),
    /// Install a process-wide telemetry recorder whose JSONL event
    /// stream (phase spans, per-epoch events, the final metric
    /// snapshot) is appended to `<path>`. Telemetry never perturbs the
    /// result CSVs — they stay byte-identical to a run without this
    /// observer.
    Telemetry(PathBuf),
}

/// The observer forms a scenario's `observers = ...` line accepts,
/// enumerated in every parse error.
const OBSERVER_FORMS: &str = "collect, stream-csv:<dir>, telemetry=jsonl:<path>";

impl ObserverSpec {
    fn to_token(&self) -> String {
        match self {
            ObserverSpec::Collect => "collect".to_string(),
            ObserverSpec::StreamCsv(dir) => format!("stream-csv:{}", dir.display()),
            ObserverSpec::Telemetry(path) => format!("telemetry=jsonl:{}", path.display()),
        }
    }

    fn parse_token(token: &str, line: usize) -> Result<Self> {
        let invalid = |problem: &str| {
            parse_error(
                line,
                format!("{problem}; valid observers: {OBSERVER_FORMS}"),
            )
        };
        if token == "collect" {
            return Ok(ObserverSpec::Collect);
        }
        if let Some(dir) = token.strip_prefix("stream-csv:") {
            if dir.is_empty() {
                return Err(invalid("stream-csv observer needs a directory"));
            }
            return Ok(ObserverSpec::StreamCsv(PathBuf::from(dir)));
        }
        if let Some(rest) = token.strip_prefix("telemetry") {
            let Some(spec) = rest.trim_start().strip_prefix('=') else {
                return Err(invalid(
                    "telemetry observer must be written telemetry=jsonl:<path>",
                ));
            };
            let Some(path) = spec.trim_start().strip_prefix("jsonl:") else {
                return Err(invalid(
                    "telemetry observer only supports the jsonl:<path> sink",
                ));
            };
            if path.is_empty() {
                return Err(invalid("telemetry=jsonl observer needs a file path"));
            }
            return Ok(ObserverSpec::Telemetry(PathBuf::from(path)));
        }
        Err(invalid(&format!("unknown observer {token:?}")))
    }
}

/// One labelled parameter point of an expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPoint {
    /// The row label of the paper's tables (`"k = 4"`, `"η = 5"`, …).
    pub label: String,
    /// The full parameter set of this point.
    pub params: SystemParams,
    /// The migration-commit bound of this point.
    pub capacity: Capacity,
}

/// One experiment cell of an expanded scenario: a labelled parameter
/// point × one strategy, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The parameter-point label (shared by every strategy at the point).
    pub label: String,
    /// The fully-resolved experiment configuration.
    pub config: ExperimentConfig,
}

impl CellSpec {
    /// A stable file-system-safe name for this cell:
    /// `<label-slug>-<strategy>` (`"k-4-pilot"`), or just the lowercased
    /// strategy name when `single_point` (so a one-point scenario writes
    /// the classic `pilot.csv`, `g-txallo.csv`, …).
    pub fn file_stem(&self, single_point: bool) -> String {
        let strategy = self.config.strategy.name().to_lowercase();
        if single_point {
            return strategy;
        }
        format!("{}-{strategy}", slug(&self.label))
    }
}

/// Lowercases and maps the label's parameter symbols back to their axis
/// keys, collapsing everything else to single dashes: `"k = 4"` →
/// `"k-4"`, `"η = 5"` → `"eta-5"`, `"capacity = ∞"` →
/// `"capacity-unbounded"`.
fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        let mut utf8 = [0; 4];
        match c {
            '∞' => out.push_str(&Capacity::Unbounded.to_token()),
            '.' => out.push('.'),
            c if c.is_ascii_alphanumeric() => out.push(c.to_ascii_lowercase()),
            c => match AXES
                .iter()
                .find(|axis| axis.symbol == c.encode_utf8(&mut utf8))
            {
                Some(axis) => out.push_str(axis.key),
                None => {
                    if !out.ends_with('-') && !out.is_empty() {
                        out.push('-');
                    }
                }
            },
        }
    }
    out.trim_end_matches('-').to_string()
}

/// What kind of driver a scenario's cells are expanded for
/// ([`Scenario::cells_for`]).
///
/// [`RunTarget::Offline`] is the batch simulator
/// ([`Simulation`](crate::session::Simulation)). [`RunTarget::Node`] is
/// a live `mosaic-node` service (serve or replay): per-epoch rows then
/// live on the node, so observers that accumulate results in the
/// driving process (`collect`) are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunTarget {
    /// Batch simulator runs.
    Offline,
    /// A live `mosaic-node` service (serve / replay).
    Node,
}

impl RunTarget {
    /// Checks the target-specific spec invariants — the single home for
    /// every "this spec cannot drive that kind of driver" rule, called
    /// by [`Scenario::cells_for`]. [`RunTarget::Offline`] accepts any
    /// otherwise-valid spec; [`RunTarget::Node`] rejects observers that
    /// would accumulate rows in the driving process, because a node
    /// run's per-epoch rows live on the service.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] (line 0) naming the violated
    /// target rule.
    pub fn validate(self, scenario: &Scenario) -> Result<()> {
        match self {
            RunTarget::Offline => Ok(()),
            RunTarget::Node => {
                if scenario.observers.contains(&ObserverSpec::Collect) {
                    return Err(parse_error(
                        0,
                        "a node/replay target cannot be combined with the 'collect' observer \
                         (per-epoch rows live on the mosaic-node service, not in the driving \
                         process); use stream-csv:<dir> instead",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A complete, serializable experiment specification.
///
/// Load a preset from `scenarios/` with [`Scenario::load`], parse one
/// with [`Scenario::parse`], or build one with [`Scenario::new`] and the
/// `with_*` helpers. Run it with
/// [`Simulation::from_scenario`](crate::session::Simulation::from_scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable study name (reports, file stems).
    pub name: String,
    /// Where the transactions come from.
    pub trace: TraceSource,
    /// The base parameter point every grid axis varies around.
    pub base: SystemParams,
    /// The migration-commit bound at the base point.
    pub capacity: Capacity,
    /// Fraction of trace *blocks* used for initial allocation (paper: 0.9).
    pub train_fraction: f64,
    /// Maximum evaluation epochs per cell (paper: 200).
    pub eval_epochs: usize,
    /// The one-at-a-time parameter grid; empty = run the base point only.
    pub grid: Vec<GridAxis>,
    /// The strategies to run at every parameter point, in report order.
    pub strategies: Vec<Strategy>,
    /// How many grid cells run at once.
    pub grid_parallelism: Parallelism,
    /// Has no effect: one thread drives a cell, and the only lanes
    /// inside it — Pilot's scoring lanes — size themselves from the
    /// cores available. The `cell_parallelism` key is still parsed,
    /// validated and written back byte for byte, so existing
    /// `.scenario` files keep their canonical text.
    pub cell_parallelism: Parallelism,
    /// The observer stack applied to every cell.
    pub observers: Vec<ObserverSpec>,
}

/// One `key = value` line of the text being parsed, trimmed.
struct Field<'a> {
    key: &'a str,
    value: &'a str,
    /// 1-based.
    line: usize,
}

impl Field<'_> {
    fn error(&self, message: impl Into<String>) -> Error {
        parse_error(self.line, message)
    }

    fn num<T: std::str::FromStr>(&self) -> Result<T> {
        parse_num(self.value, self.key, self.line)
    }

    /// Parses each non-empty token of a comma-separated value.
    fn list<T>(&self, parse: impl FnMut(&str) -> Result<T>) -> Result<Vec<T>> {
        self.value
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(parse)
            .collect()
    }

    fn nums<T: std::str::FromStr>(&self) -> Result<Vec<T>> {
        self.list(|t| parse_num(t, self.key, self.line))
    }
}

/// A scenario under construction by [`Scenario::parse`].
struct Draft {
    /// [`Scenario::new`]'s defaults, overwritten key by key; its `trace`
    /// is a placeholder until [`Draft::finish`].
    scenario: Scenario,
    /// The `trace` value and its line, resolved after the last line
    /// because `workload.*` keys may come before it.
    trace: (String, usize),
    workload: WorkloadConfig,
    /// The first `workload.*` key and its line.
    first_workload_key: Option<(String, usize)>,
}

impl Draft {
    fn workload(&mut self, field: &Field<'_>) -> &mut WorkloadConfig {
        self.first_workload_key
            .get_or_insert_with(|| (field.key.to_string(), field.line));
        &mut self.workload
    }

    /// Resolves the trace source (the inverse of [`trace_token`]).
    fn finish(mut self) -> Result<Scenario> {
        let (kind, line) = (self.trace.0.as_str(), self.trace.1);
        self.scenario.trace = match kind.split_once(':') {
            None if kind == "generated" => TraceSource::Generated(self.workload),
            None if kind == "streamed" => TraceSource::StreamedGenerated(self.workload),
            Some(("csv", path)) if !path.is_empty() => TraceSource::csv(path),
            Some(("streamed-csv", path)) if !path.is_empty() => TraceSource::streamed_csv(path),
            Some((form @ ("csv" | "streamed-csv"), _)) => {
                return Err(parse_error(line, format!("{form} trace needs a path")))
            }
            _ => {
                return Err(parse_error(
                    line,
                    format!(
                        "unknown trace source {kind:?}; valid: generated, streamed, \
                         csv:<path>, streamed-csv:<path>"
                    ),
                ))
            }
        };
        // A file trace has no generator to configure: refuse the keys
        // rather than drop them.
        if let (None, Some((key, key_line))) = (self.scenario.workload(), self.first_workload_key) {
            return Err(parse_error(
                key_line,
                format!("{key} configures a generated or streamed trace, not {kind:?}"),
            ));
        }
        Ok(self.scenario)
    }
}

fn trace_token(trace: &TraceSource) -> String {
    match trace {
        TraceSource::Generated(_) => "generated".to_string(),
        TraceSource::StreamedGenerated(_) => "streamed".to_string(),
        TraceSource::Csv(path) => format!("csv:{}", path.display()),
        TraceSource::StreamedCsv(path) => format!("streamed-csv:{}", path.display()),
    }
}

/// How a key prints its value from a scenario (`None`: omit the line).
type Print = fn(&Scenario) -> Option<String>;

/// How a key applies its line to a draft.
type Apply = fn(&mut Draft, &Field<'_>) -> Result<()>;

/// One top-level key of the text format.
struct Key {
    name: &'static str,
    /// [`Scenario::new`] has no default for it.
    required: bool,
    print: Print,
    apply: Apply,
}

/// One entry of [`LINES`].
enum Line {
    Key(Key),
    /// The `axis.<key>` lines, one per grid axis, in grid order.
    Axes,
}

const fn required(name: &'static str, print: Print, apply: Apply) -> Line {
    Line::Key(Key {
        name,
        required: true,
        print,
        apply,
    })
}

const fn optional(name: &'static str, print: Print, apply: Apply) -> Line {
    Line::Key(Key {
        name,
        required: false,
        print,
        apply,
    })
}

/// Every line of the text format, in the order [`Scenario::to_text`]
/// writes them (one entry per two lines, kept as a table).
#[rustfmt::skip]
const LINES: &[Line] = &[
    required("name", |s| Some(s.name.clone()),
             |d, f| { d.scenario.name = f.value.to_string(); Ok(()) }),
    required("trace", |s| Some(trace_token(&s.trace)),
             |d, f| { d.trace = (f.value.to_string(), f.line); Ok(()) }),
    optional("workload.initial_accounts", |s| s.workload().map(|w| w.initial_accounts.to_string()),
             |d, f| f.num().map(|v| d.workload(f).initial_accounts = v)),
    optional("workload.blocks", |s| s.workload().map(|w| w.blocks.to_string()),
             |d, f| f.num().map(|v| d.workload(f).blocks = v)),
    optional("workload.txs_per_block", |s| s.workload().map(|w| w.txs_per_block.to_string()),
             |d, f| f.num().map(|v| d.workload(f).txs_per_block = v)),
    optional("workload.activity_exponent", |s| s.workload().map(|w| w.activity_exponent.to_string()),
             |d, f| f.num().map(|v| d.workload(f).activity_exponent = v)),
    optional("workload.communities", |s| s.workload().map(|w| w.communities.to_string()),
             |d, f| f.num().map(|v| d.workload(f).communities = v)),
    optional("workload.intra_community_bias", |s| s.workload().map(|w| w.intra_community_bias.to_string()),
             |d, f| f.num().map(|v| d.workload(f).intra_community_bias = v)),
    optional("workload.hub_fraction", |s| s.workload().map(|w| w.hub_fraction.to_string()),
             |d, f| f.num().map(|v| d.workload(f).hub_fraction = v)),
    optional("workload.hub_traffic_share", |s| s.workload().map(|w| w.hub_traffic_share.to_string()),
             |d, f| f.num().map(|v| d.workload(f).hub_traffic_share = v)),
    optional("workload.new_accounts_per_block", |s| s.workload().map(|w| w.new_accounts_per_block.to_string()),
             |d, f| f.num().map(|v| d.workload(f).new_accounts_per_block = v)),
    optional("workload.drift_per_block", |s| s.workload().map(|w| w.drift_per_block.to_string()),
             |d, f| f.num().map(|v| d.workload(f).drift_per_block = v)),
    optional("workload.seed", |s| s.workload().map(|w| w.seed.to_string()),
             |d, f| f.num().map(|v| d.workload(f).seed = v)),
    optional("params.shards", |s| Some(s.base.shards().to_string()),
             |d, f| d.scenario.base.with_shards(f.num()?).map(|v| d.scenario.base = v)),
    optional("params.eta", |s| Some(s.base.eta().to_string()),
             |d, f| d.scenario.base.with_eta(f.num()?).map(|v| d.scenario.base = v)),
    optional("params.tau", |s| Some(s.base.tau().to_string()),
             |d, f| d.scenario.base.with_tau(f.num()?).map(|v| d.scenario.base = v)),
    optional("params.beta", |s| Some(s.base.beta().to_string()),
             |d, f| d.scenario.base.with_beta(f.num()?).map(|v| d.scenario.base = v)),
    optional("params.lambda", |s| Some(lambda_token(s.base.lambda_policy())),
             |d, f| d.scenario.base.with_lambda_policy(parse_lambda(f)?).map(|v| d.scenario.base = v)),
    optional("train_fraction", |s| Some(s.train_fraction.to_string()),
             |d, f| f.num().map(|v| d.scenario.train_fraction = v)),
    required("eval_epochs", |s| Some(s.eval_epochs.to_string()),
             |d, f| f.num().map(|v| d.scenario.eval_epochs = v)),
    // The ledger models no miner population. The line stays, always
    // `auto`, so existing files keep their canonical text.
    optional("miner_count", |_| Some("auto".to_string()),
             |_, f| match f.value {
                 "auto" => Ok(()),
                 other => Err(f.error(format!("miner_count {other:?}: the only value is auto"))),
             }),
    optional("migration_capacity", |s| Some(s.capacity.to_token()),
             |d, f| Capacity::parse_token(f.value, f.line).map(|v| d.scenario.capacity = v)),
    optional("strategies", |s| Some(join(&s.strategies, |s| s.name().to_string())),
             |d, f| f.list(|t| parse_strategy(t, f.line)).map(|v| d.scenario.strategies = v)),
    Line::Axes,
    optional("grid_parallelism", |s| Some(parallelism_to_token(s.grid_parallelism)),
             |d, f| parse_parallelism(f.value, f.line).map(|v| d.scenario.grid_parallelism = v)),
    optional("cell_parallelism", |s| Some(parallelism_to_token(s.cell_parallelism)),
             |d, f| parse_parallelism(f.value, f.line).map(|v| d.scenario.cell_parallelism = v)),
    optional("observers", |s| Some(join(&s.observers, ObserverSpec::to_token)),
             |d, f| f.list(|t| ObserverSpec::parse_token(t, f.line)).map(|v| d.scenario.observers = v)),
];

fn keys() -> impl Iterator<Item = &'static Key> {
    LINES.iter().filter_map(|line| match line {
        Line::Key(key) => Some(key),
        Line::Axes => None,
    })
}

/// Every key the text format accepts.
fn valid_keys() -> String {
    let axes = AXES.iter().map(|axis| format!("{AXIS_PREFIX}{}", axis.key));
    let names: Vec<String> = keys().map(|key| key.name.to_string()).chain(axes).collect();
    names.join(", ")
}

fn lambda_token(policy: LambdaPolicy) -> String {
    match policy {
        LambdaPolicy::EpochAverage => "epoch-average".to_string(),
        LambdaPolicy::Fixed(l) => l.to_string(),
    }
}

fn parse_lambda(field: &Field<'_>) -> Result<LambdaPolicy> {
    match field.value {
        "epoch-average" => Ok(LambdaPolicy::EpochAverage),
        _ => field.num().map(LambdaPolicy::Fixed),
    }
}

fn parse_strategy(token: &str, line: usize) -> Result<Strategy> {
    token.parse().map_err(|e| match e {
        Error::ParseScenario { message, .. } => parse_error(line, message),
        other => other,
    })
}

/// The first item equal to an earlier one.
fn first_duplicate<T: PartialEq>(items: &[T]) -> Option<&T> {
    (0..items.len()).find_map(|i| items[..i].contains(&items[i]).then_some(&items[i]))
}

fn join<T>(items: &[T], token: impl Fn(&T) -> String) -> String {
    items.iter().map(token).collect::<Vec<_>>().join(", ")
}

impl Scenario {
    /// Starts a scenario from a trace source with the paper's defaults:
    /// base `k = 16`, `η = 2`, `τ = 300`, `β = 0`, λ-bounded capacity,
    /// 90/10 split, every strategy, collect-only observers, parallel
    /// grid, sequential cells.
    pub fn new(name: impl Into<String>, trace: TraceSource, eval_epochs: usize) -> Self {
        Scenario {
            name: name.into(),
            trace,
            base: SystemParams::default(),
            capacity: Capacity::Lambda,
            train_fraction: 0.9,
            eval_epochs,
            grid: Vec::new(),
            strategies: Strategy::ALL.to_vec(),
            grid_parallelism: Parallelism::Auto,
            cell_parallelism: Parallelism::Sequential,
            observers: vec![ObserverSpec::Collect],
        }
    }

    /// Sets the base parameter point.
    pub fn with_base(mut self, base: SystemParams) -> Self {
        self.base = base;
        self
    }

    /// Appends a grid axis.
    pub fn with_axis(mut self, axis: GridAxis) -> Self {
        self.grid.push(axis);
        self
    }

    /// Replaces the strategy set.
    pub fn with_strategies(mut self, strategies: impl Into<Vec<Strategy>>) -> Self {
        self.strategies = strategies.into();
        self
    }

    /// Sets how many grid cells run at once.
    pub fn with_grid_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.grid_parallelism = parallelism;
        self
    }

    /// Replaces the observer stack.
    pub fn with_observers(mut self, observers: impl Into<Vec<ObserverSpec>>) -> Self {
        self.observers = observers.into();
        self
    }

    /// The workload config behind a generated trace source, if any.
    pub fn workload(&self) -> Option<&WorkloadConfig> {
        self.trace.workload()
    }

    /// `true` if the grid collapses to a single parameter point.
    pub fn is_single_point(&self) -> bool {
        self.grid.is_empty()
    }

    /// Expands the grid into labelled parameter points, in axis order.
    /// An empty grid yields the base point labelled by its shard count.
    ///
    /// # Errors
    ///
    /// Returns the parameter-validation error of the first invalid axis
    /// value ([`Error::InvalidShardCount`], [`Error::InvalidEta`], …),
    /// and [`Error::ParseScenario`] (line 0) for an axis with no values.
    pub fn points(&self) -> Result<Vec<CellPoint>> {
        if self.is_single_point() {
            return Ok(vec![CellPoint {
                label: format!("k = {}", self.base.shards()),
                params: self.base,
                capacity: self.capacity,
            }]);
        }
        let mut points = Vec::new();
        for axis in &self.grid {
            let (spec, values) = axis.expand(self.base, self.capacity);
            if values.is_empty() {
                let key = spec.key;
                return Err(parse_error(0, format!("{AXIS_PREFIX}{key} has no values")));
            }
            for value in values {
                points.push(CellPoint {
                    label: format!("{} = {}", spec.symbol, value.label),
                    params: value.params?,
                    capacity: value.capacity,
                });
            }
        }
        Ok(points)
    }

    /// Expands the scenario into runnable cells: every parameter point ×
    /// every strategy, in the paper's report order (points outermost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] on an empty strategy set or
    /// invalid protocol fields, and parameter-validation errors from
    /// [`Scenario::points`].
    pub fn cells(&self) -> Result<Vec<CellSpec>> {
        self.validate()?;
        let mut cells = Vec::new();
        for point in self.points()? {
            let migration_capacity = match point.capacity {
                Capacity::Lambda => None,
                Capacity::Unbounded => Some(usize::MAX),
                Capacity::Fixed(n) => Some(n),
            };
            for &strategy in &self.strategies {
                cells.push(CellSpec {
                    label: point.label.clone(),
                    config: ExperimentConfig {
                        params: point.params,
                        strategy,
                        train_fraction: self.train_fraction,
                        eval_epochs: self.eval_epochs,
                        migration_capacity,
                    },
                });
            }
        }
        Ok(cells)
    }

    /// [`Scenario::cells`] for a `target` driver: applies
    /// [`RunTarget::validate`], then expands. A `mosaic-node` service
    /// expands with `scenario.cells_for(RunTarget::Node)`, so
    /// node-incompatible specs (e.g. a `collect` observer) are rejected
    /// up front.
    ///
    /// # Errors
    ///
    /// The target rules of [`RunTarget::validate`], then as
    /// [`Scenario::cells`].
    pub fn cells_for(&self, target: RunTarget) -> Result<Vec<CellSpec>> {
        target.validate(self)?;
        self.cells()
    }

    /// Checks scenario-level invariants (strategy set, protocol fields,
    /// axis values) and a generated source's workload ranges
    /// ([`WorkloadConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] (line 0) describing the first
    /// violated invariant, or [`Error::InvalidWorkload`] naming the
    /// first workload field out of range.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(parse_error(0, "scenario needs a name"));
        }
        if self.strategies.is_empty() {
            return Err(parse_error(0, "scenario needs at least one strategy"));
        }
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(parse_error(
                0,
                format!(
                    "train_fraction must be in (0, 1), got {}",
                    self.train_fraction
                ),
            ));
        }
        if self.eval_epochs == 0 {
            return Err(parse_error(0, "eval_epochs must be at least 1"));
        }
        if let Some(workload) = self.workload() {
            workload.validate()?;
        }
        if self.observers.is_empty() {
            return Err(parse_error(0, "scenario needs at least one observer"));
        }
        // The whole point of a streamed source is that nothing scales
        // with run length; collecting every per-epoch row in memory (and
        // forcing a materialised engine pass) would silently undo that.
        if self.trace.is_streamed() && self.observers.contains(&ObserverSpec::Collect) {
            return Err(parse_error(
                0,
                "a streamed trace source cannot be combined with the 'collect' observer \
                 (results would accumulate in memory against an unbounded run); \
                 use stream-csv:<dir> instead",
            ));
        }
        // Two identical stream-csv observers would open every cell's CSV
        // file twice; a duplicate collect is a plain spec error.
        if let Some(dup) = first_duplicate(&self.observers) {
            let token = dup.to_token();
            return Err(parse_error(0, format!("duplicate observer {token:?}")));
        }
        if let Some(dup) = first_duplicate(&self.strategies) {
            return Err(parse_error(0, format!("duplicate strategy {}", dup.name())));
        }
        // Surface invalid axis values now rather than at run time — and
        // reject duplicate parameter points: cells are deterministic, so
        // a repeated point adds cost without information, and under a
        // stream-csv observer two identical cells would race on one CSV
        // path ([`CellSpec::file_stem`] is derived from label+strategy).
        let points = self.points()?;
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        if let Some(dup) = first_duplicate(&labels) {
            return Err(parse_error(0, format!("duplicate grid point {dup:?}")));
        }
        Ok(())
    }

    /// Serialises to the canonical text format. Guaranteed to
    /// [`Scenario::parse`] back to an equal scenario.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# mosaic scenario v1\n");
        for line in LINES {
            match line {
                Line::Key(key) => {
                    if let Some(value) = (key.print)(self) {
                        let _ = writeln!(out, "{} = {value}", key.name);
                    }
                }
                Line::Axes => {
                    for axis in &self.grid {
                        let (spec, values) = axis.expand(self.base, self.capacity);
                        let values = join(&values, |value| value.token.clone());
                        let _ = writeln!(out, "{AXIS_PREFIX}{} = {values}", spec.key);
                    }
                }
            }
        }
        out
    }

    /// Parses the text format: `key = value` lines, `#` comments and
    /// blank lines ignored, later keys overriding earlier ones (except
    /// `axis.*`, which append in order). Unspecified keys take the
    /// [`Scenario::new`] defaults; the three values it takes as
    /// arguments are required.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseScenario`] with a 1-based line number on
    /// malformed input (an unknown key's error lists the valid ones),
    /// and scenario-level validation errors ([`Scenario::validate`]) on
    /// a well-formed but inconsistent spec.
    pub fn parse(text: &str) -> Result<Self> {
        let mut draft = Draft {
            scenario: Scenario::new(String::new(), TraceSource::csv(""), 0),
            trace: (String::new(), 0),
            workload: WorkloadConfig::paper_scaled(0),
            first_workload_key: None,
        };
        let mut seen = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let Some((key, value)) = trimmed.split_once('=') else {
                return Err(parse_error(
                    line,
                    format!("expected 'key = value', got {trimmed:?}"),
                ));
            };
            let field = Field {
                key: key.trim(),
                value: value.trim(),
                line,
            };
            if field.key.starts_with(AXIS_PREFIX) {
                draft.scenario.grid.push(GridAxis::parse(&field)?);
                continue;
            }
            let Some(key) = keys().find(|k| k.name == field.key) else {
                let valid = valid_keys();
                return Err(field.error(format!("unknown key {:?}; valid: {valid}", field.key)));
            };
            (key.apply)(&mut draft, &field)?;
            seen.push(key.name);
        }
        if let Some(missing) = keys().find(|k| k.required && !seen.contains(&k.name)) {
            return Err(parse_error(
                0,
                format!("missing required key '{}'", missing.name),
            ));
        }
        let scenario = draft.finish()?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Reads and parses a `.scenario` file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be read and
    /// [`Scenario::parse`] errors on malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Scenario::parse(&text)
    }
}

fn parallelism_to_token(p: Parallelism) -> String {
    match p {
        Parallelism::Sequential => "sequential".to_string(),
        Parallelism::Auto => "auto".to_string(),
        Parallelism::Threads(n) => n.to_string(),
    }
}

fn parse_parallelism(value: &str, line: usize) -> Result<Parallelism> {
    match value {
        "sequential" => Ok(Parallelism::Sequential),
        "auto" => Ok(Parallelism::Auto),
        n => match n.parse::<usize>() {
            Ok(threads) if threads >= 1 => Ok(Parallelism::Threads(threads)),
            _ => Err(parse_error(
                line,
                format!(
                    "invalid parallelism {n:?}: expected sequential, auto or a thread count ≥ 1"
                ),
            )),
        },
    }
}

fn parse_error(line: usize, message: impl Into<String>) -> Error {
    Error::ParseScenario {
        line,
        message: message.into(),
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, what: &str, line: usize) -> Result<T> {
    raw.parse::<T>()
        .map_err(|_| parse_error(line, format!("invalid {what} {raw:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{beta_quick, effectiveness_quick, quick};

    #[test]
    fn effectiveness_points_match_the_paper_grid() {
        let points = effectiveness_quick().points().unwrap();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["k = 4", "k = 16", "k = 32", "η = 5", "η = 10"]);
        assert_eq!(points[0].params.shards(), 4);
        assert_eq!(points[0].params.eta(), 2.0);
        assert_eq!(points[3].params.shards(), 16);
        assert_eq!(points[3].params.eta(), 5.0);
        for p in &points {
            assert_eq!(p.params.tau(), 50);
            assert_eq!(p.capacity, Capacity::Lambda);
        }
    }

    #[test]
    fn cells_nest_strategies_inside_points() {
        let cells = effectiveness_quick().cells().unwrap();
        assert_eq!(cells.len(), 5 * Strategy::ALL.len());
        assert_eq!(cells[0].label, "k = 4");
        assert_eq!(cells[0].config.strategy, Strategy::Mosaic);
        assert_eq!(cells[4].config.strategy, Strategy::Random);
        assert_eq!(cells[5].label, "k = 16");
        assert_eq!(cells[5].config.params.shards(), 16);
    }

    #[test]
    fn single_point_scenario_labels_by_base_shards() {
        let scenario = quick();
        assert!(scenario.is_single_point());
        let points = scenario.points().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].label, "k = 16");
    }

    /// Every axis kind, observer kind and non-default protocol field.
    fn kitchen_sink() -> Scenario {
        let scenario = Scenario::new("kitchen-sink", TraceSource::csv("data/eth.csv"), 7)
            .with_base(
                SystemParams::builder()
                    .shards(8)
                    .eta(3.5)
                    .tau(120)
                    .beta(0.25)
                    .lambda_policy(LambdaPolicy::Fixed(450.5))
                    .build()
                    .unwrap(),
            )
            .with_axis(GridAxis::Shards(vec![2, 4]))
            .with_axis(GridAxis::Eta(vec![1.5, 2.25]))
            .with_axis(GridAxis::Tau(vec![60, 600]))
            .with_axis(GridAxis::Beta(vec![0.0, 1.0]))
            .with_axis(GridAxis::Lambda(vec![100.0, 250.75]))
            .with_axis(GridAxis::MigrationCapacity(vec![
                Capacity::Lambda,
                Capacity::Unbounded,
                Capacity::Fixed(500),
            ]))
            .with_strategies([Strategy::Mosaic, Strategy::Random])
            .with_grid_parallelism(Parallelism::Threads(3))
            .with_observers([
                ObserverSpec::Collect,
                ObserverSpec::StreamCsv(PathBuf::from("out/csv")),
                ObserverSpec::Telemetry(PathBuf::from("telemetry/run.jsonl")),
            ]);
        Scenario {
            capacity: Capacity::Fixed(12),
            cell_parallelism: Parallelism::Auto,
            ..scenario
        }
    }

    #[test]
    fn roundtrip_covers_every_axis_and_observer_kind() {
        let scenario = kitchen_sink();
        let back = Scenario::parse(&scenario.to_text()).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn the_key_table_drives_print_parse_and_the_valid_key_list() {
        let names: Vec<&str> = keys().map(|key| key.name).collect();
        assert_eq!(names.len(), 26);
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "key {name} declared twice");
        }
        // Each axis entry parses to the variant that indexes it back.
        for axis in &AXES {
            let key = format!("{AXIS_PREFIX}{}", axis.key);
            let field = Field {
                key: &key,
                value: "1",
                line: 1,
            };
            let parsed = (axis.parse)(&field).unwrap();
            let (spec, _) = parsed.expand(SystemParams::default(), Capacity::Lambda);
            assert_eq!(spec.key, axis.key);
        }

        // to_text writes the keys in table order, the axis lines where
        // the table puts them; the csv trace omits the workload keys.
        let scenario = kitchen_sink();
        let mut expected = Vec::new();
        for line in LINES {
            match line {
                Line::Key(key) => expected.push(key.name.to_string()),
                Line::Axes => expected.extend(scenario.grid.iter().map(|axis| {
                    let (spec, _) = axis.expand(scenario.base, scenario.capacity);
                    format!("{AXIS_PREFIX}{}", spec.key)
                })),
            }
        }
        let omitted: Vec<String> = expected
            .iter()
            .filter(|k| k.starts_with("workload."))
            .cloned()
            .collect();
        assert_eq!(omitted.len(), 11, "{omitted:?}");
        expected.retain(|k| !omitted.contains(k));
        let text = scenario.to_text();
        let written: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| l.split_once(" = ").unwrap().0)
            .collect();
        assert_eq!(written, expected);

        // An unknown key is refused with every key the table holds.
        let err = Scenario::parse("name = x\nbogus = 1\n").unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 2, .. }), "{err}");
        let message = err.to_string();
        let listed: Vec<&str> = message
            .split_once("valid: ")
            .unwrap()
            .1
            .split(", ")
            .collect();
        for name in &names {
            assert!(listed.contains(name), "{name} missing from {message}");
        }
        for axis in &AXES {
            let key = format!("{AXIS_PREFIX}{}", axis.key);
            assert!(
                listed.contains(&key.as_str()),
                "{key} missing from {message}"
            );
        }
    }

    #[test]
    fn observer_parse_errors_enumerate_the_valid_forms() {
        let base = "name = x\ntrace = generated\neval_epochs = 1\n";
        for (value, expect) in [
            ("dump", "unknown observer"),
            ("stream-csv:", "stream-csv observer needs a directory"),
            ("telemetry", "telemetry=jsonl:<path>"),
            ("telemetry = csv:out", "jsonl:<path> sink"),
            ("telemetry=jsonl:", "needs a file path"),
        ] {
            let err = Scenario::parse(&format!("{base}observers = {value}\n")).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(expect), "{value}: {msg}");
            // Every observer error teaches the full set of valid forms.
            assert!(msg.contains(OBSERVER_FORMS), "{value}: {msg}");
            assert!(msg.contains("line 4"), "{value}: {msg}");
        }
        // The telemetry token survives spaces around its '=' (the same
        // tolerance the top-level keys get).
        let ok =
            Scenario::parse(&format!("{base}observers = telemetry = jsonl:t.jsonl\n")).unwrap();
        assert_eq!(
            ok.observers,
            vec![ObserverSpec::Telemetry(PathBuf::from("t.jsonl"))]
        );
    }

    #[test]
    fn roundtrip_covers_streamed_sources() {
        // streamed-csv: a path token, like csv: but bounded-memory.
        let from_file = Scenario::new("etl", TraceSource::streamed_csv("data/eth.csv"), 3)
            .with_observers([ObserverSpec::StreamCsv(PathBuf::from("out"))]);
        let text = from_file.to_text();
        assert!(text.contains("trace = streamed-csv:data/eth.csv"), "{text}");
        assert_eq!(Scenario::parse(&text).unwrap(), from_file);

        // streamed generator: the full WorkloadConfig rides along as
        // workload.* keys so the spec stays self-contained.
        let workload = quick().workload().unwrap().clone();
        let generated = Scenario::new("big", TraceSource::StreamedGenerated(workload.clone()), 3)
            .with_observers([ObserverSpec::StreamCsv(PathBuf::from("out"))]);
        let text = generated.to_text();
        assert!(text.contains("trace = streamed"), "{text}");
        assert!(
            text.contains(&format!(
                "workload.initial_accounts = {}",
                workload.initial_accounts
            )),
            "{text}"
        );
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, generated);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn validate_rejects_streamed_source_with_collect_observer() {
        let workload = quick().workload().unwrap().clone();
        let streamed = Scenario::new("s", TraceSource::StreamedGenerated(workload), 3);
        // Default observers are [collect]: incompatible with a source
        // that promises bounded memory.
        let err = streamed.validate().unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("streamed trace source"), "{err}");
        assert!(err.to_string().contains("collect"), "{err}");
        // Swapping to a streaming observer fixes it.
        let fixed = Scenario::new("s", TraceSource::streamed_csv("data/eth.csv"), 3)
            .with_observers([ObserverSpec::StreamCsv(PathBuf::from("out"))]);
        assert!(fixed.validate().is_ok());
    }

    #[test]
    fn node_target_roundtrips_and_rejects_collect() {
        // No key names a target: the text round-trips without one, and
        // `target` is refused like any unknown key.
        let text = quick().to_text();
        assert!(!text.contains("target"), "{text}");
        assert_eq!(Scenario::parse(&text).unwrap(), quick());
        let err = Scenario::parse("name = x\ntrace = generated\neval_epochs = 1\ntarget = node\n")
            .unwrap_err();
        assert!(err.to_string().contains("unknown key \"target\""), "{err}");
        // Node target + collect observer: rows live on the service.
        assert!(effectiveness_quick().cells_for(RunTarget::Node).is_err());
    }

    #[test]
    fn run_target_check_accepts_offline_specs_unconditionally() {
        // The offline arm imposes no target rules.
        assert!(RunTarget::Offline.validate(&effectiveness_quick()).is_ok());
        assert!(RunTarget::Offline.validate(&quick()).is_ok());
    }

    #[test]
    fn run_target_check_rejects_collect_observer_for_node() {
        let err = RunTarget::Node
            .validate(&effectiveness_quick())
            .unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 0, .. }), "{err}");
        assert!(err.to_string().contains("node/replay target"), "{err}");
        assert!(err.to_string().contains("collect"), "{err}");
    }

    #[test]
    fn run_target_check_accepts_streaming_observers_for_node() {
        // Every checked-in node scenario streams its rows.
        assert!(RunTarget::Node.validate(&quick()).is_ok());
    }

    #[test]
    fn cells_for_retags_without_mutating_the_spec() {
        let (collect, streaming) = (effectiveness_quick(), quick());
        for spec in [&collect, &streaming] {
            assert_eq!(spec.cells_for(RunTarget::Offline), spec.cells());
        }
        assert_eq!(
            streaming.cells_for(RunTarget::Node).unwrap(),
            streaming.cells().unwrap()
        );
        assert_eq!(streaming, quick());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = effectiveness_quick().to_text();
        let broken = text.replace("axis.k = 4, 16, 32", "axis.k = 4, banana");
        let err = Scenario::parse(&broken).unwrap_err();
        assert!(
            matches!(err, Error::ParseScenario { line, .. } if line > 0),
            "{err}"
        );
        assert!(err.to_string().contains("banana"));

        let err = Scenario::parse("nonsense line\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));

        let err = Scenario::parse("name = x\ntrace = generated\n").unwrap_err();
        assert!(err.to_string().contains("eval_epochs"));

        let err = Scenario::parse("name = x\ntrace = floppy:disk\neval_epochs = 1\n").unwrap_err();
        assert!(err.to_string().contains("unknown trace source"));

        let err =
            Scenario::parse("name = x\ntrace = streamed-csv:\neval_epochs = 1\n").unwrap_err();
        assert!(err.to_string().contains("streamed-csv trace needs a path"));

        // Workload keys under a file trace are refused, not dropped: the
        // error carries the line of the first one.
        let err = Scenario::parse(
            "name = x\nworkload.seed = 1\ntrace = csv:t.csv\nworkload.blocks = 9\neval_epochs = 1\n",
        )
        .unwrap_err();
        assert!(matches!(err, Error::ParseScenario { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("workload.seed"), "{err}");

        let err = Scenario::parse(&text.replace("strategies = Pilot,", "strategies = Pilot2,"))
            .unwrap_err();
        assert!(err.to_string().contains("unknown strategy"));

        // Zero lanes is not a lane count: refused, not run as one lane.
        let zero = text.replace("grid_parallelism = auto", "grid_parallelism = 0");
        let line = 1 + zero
            .lines()
            .position(|l| l == "grid_parallelism = 0")
            .unwrap();
        let err = Scenario::parse(&zero).unwrap_err();
        assert!(
            matches!(err, Error::ParseScenario { line: l, .. } if l == line),
            "{err}"
        );
        for word in ["\"0\"", "sequential", "auto", "≥ 1"] {
            assert!(err.to_string().contains(word), "{err}");
        }

        // `miner_count` takes only `auto`: any other value is refused
        // with its key and line, not dropped.
        let miners = text.replace("miner_count = auto", "miner_count = 64");
        let line = 1 + miners
            .lines()
            .position(|l| l == "miner_count = 64")
            .unwrap();
        let err = Scenario::parse(&miners).unwrap_err();
        assert!(
            matches!(err, Error::ParseScenario { line: l, .. } if l == line),
            "{err}"
        );
        for word in ["miner_count", "\"64\"", "auto"] {
            assert!(err.to_string().contains(word), "{err}");
        }
    }

    #[test]
    fn validate_rejects_inconsistent_scenarios() {
        let base = effectiveness_quick();
        let mut s = base.clone();
        s.strategies.clear();
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.train_fraction = 1.0;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.eval_epochs = 0;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.observers.clear();
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.grid.push(GridAxis::Shards(vec![0]));
        assert!(s.validate().is_err());
        // An empty axis would be saved as a file that does not load.
        let mut s = base.clone();
        s.grid.push(GridAxis::Tau(vec![]));
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("axis.tau has no values"));
        // Duplicate strategies and duplicate grid points would race on
        // one stream-csv path; both are spec mistakes.
        let mut s = base.clone();
        s.strategies.push(Strategy::Mosaic);
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate strategy"));
        let mut s = base.clone();
        s.grid.push(GridAxis::Shards(vec![4])); // "k = 4" already on the k axis
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate grid point"));
        let mut s = base.clone();
        s.observers = vec![
            ObserverSpec::StreamCsv(PathBuf::from("out")),
            ObserverSpec::StreamCsv(PathBuf::from("out")),
        ];
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate observer"));
        assert!(base.validate().is_ok());
    }

    #[test]
    fn out_of_range_workload_values_are_typed_errors() {
        // One value per range rule; a later key overrides an earlier
        // one, so appending the line replaces the file's value.
        let cases = [
            ("initial_accounts", "1"),
            ("blocks", "0"),
            ("txs_per_block", "0"),
            ("activity_exponent", "-0.5"),
            ("activity_exponent", "inf"),
            ("communities", "0"),
            ("intra_community_bias", "1.5"),
            ("hub_fraction", "0.6"),
            ("hub_traffic_share", "-0.1"),
            ("new_accounts_per_block", "-1"),
            ("new_accounts_per_block", "inf"),
            ("drift_per_block", "2"),
            // Account ids past u32::MAX: the population alone, then churn.
            ("initial_accounts", "4294967296"),
            ("new_accounts_per_block", "1e9"),
        ];
        for trace in ["generated", "streamed"] {
            for (key, bad) in cases {
                let text = format!(
                    "{}trace = {trace}\nworkload.{key} = {bad}\n",
                    quick().to_text()
                );
                let err = Scenario::parse(&text).unwrap_err();
                assert!(
                    matches!(err, Error::InvalidWorkload { field, .. } if field == key),
                    "{trace} {key} = {bad}: {err}"
                );
                assert!(
                    err.to_string().contains(&format!("workload.{key} = ")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn file_stems_are_filesystem_safe() {
        let cells = effectiveness_quick().cells().unwrap();
        assert_eq!(cells[0].file_stem(false), "k-4-pilot");
        assert_eq!(cells[0].file_stem(true), "pilot");
        let greek = CellPoint {
            label: "η = 5".to_string(),
            params: SystemParams::default(),
            capacity: Capacity::Unbounded,
        };
        assert_eq!(slug(&greek.label), "eta-5");
        let unbounded = Scenario {
            grid: vec![GridAxis::MigrationCapacity(vec![Capacity::Unbounded])],
            ..effectiveness_quick()
        }
        .points()
        .unwrap();
        assert_eq!(unbounded[0].label, "capacity = ∞");
        assert_eq!(slug(&unbounded[0].label), "capacity-unbounded");
        assert_eq!(slug("β = 0.25"), "beta-0.25");
    }

    #[test]
    fn save_and_load_roundtrip_through_disk() {
        let scenario = beta_quick();
        let dir = std::env::temp_dir().join("mosaic-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("beta.scenario");
        std::fs::write(&path, scenario.to_text()).unwrap();
        assert_eq!(Scenario::load(&path).unwrap(), scenario);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            Scenario::load(dir.join("missing.scenario")).unwrap_err(),
            Error::Io { .. }
        ));
    }
}
