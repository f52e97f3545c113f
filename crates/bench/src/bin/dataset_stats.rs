//! Prints descriptive statistics of the scenario's workload — the
//! analogue of the paper's dataset description (§V-A) used to validate
//! the Ethereum-likeness of the synthetic substitute.

use mosaic_bench::scenario_from_args;
use mosaic_metrics::TextTable;
use mosaic_workload::{generate, TraceStats};

fn main() {
    let scenario = scenario_from_args(
        "Dataset statistics (synthetic Ethereum analogue)",
        "default",
    );
    let Some(config) = scenario.workload() else {
        eprintln!("dataset_stats needs a generated trace source (CSV traces carry no generator description)");
        std::process::exit(2);
    };
    let workload = generate(config);
    let stats = TraceStats::compute(workload.trace());

    let mut t = TextTable::new(["Statistic", "Value"]);
    t.push_row([
        "Transactions |T|".to_string(),
        format!("{}", stats.transactions),
    ]);
    t.push_row(["Accounts |A|".to_string(), format!("{}", stats.accounts)]);
    t.push_row(["Blocks".to_string(), format!("{}", stats.blocks)]);
    t.push_row([
        "Mean txs per account (2|T|/|A|)".to_string(),
        format!("{:.2}", stats.mean_txs_per_account),
    ]);
    t.push_row(["Max degree".to_string(), format!("{}", stats.max_degree)]);
    t.push_row([
        "Median degree".to_string(),
        format!("{}", stats.median_degree),
    ]);
    t.push_row([
        "Top-1% endpoint share".to_string(),
        format!("{:.2}%", stats.top1pct_endpoint_share * 100.0),
    ]);
    t.push_row([
        "Degree Gini".to_string(),
        format!("{:.3}", stats.degree_gini),
    ]);
    t.push_row([
        "Hub accounts".to_string(),
        format!("{}", workload.hubs().len()),
    ]);
    t.push_row([
        "Total accounts incl. churned".to_string(),
        format!("{}", workload.total_accounts()),
    ]);
    println!("{t}");
}
