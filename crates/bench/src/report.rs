//! The commands that print the paper's tables and the trace's
//! statistics; the text itself comes from `mosaic_sim::experiments`.

use mosaic_metrics::TextTable;
use mosaic_sim::{experiments, Simulation};
use mosaic_workload::{generate, TraceStats};

use crate::{load_scenario, print_header, Args, Failure};

/// Loads the scenario, prints the header and materialises the session.
fn session(args: &Args, experiment: &str, default: &str) -> Result<Simulation, Failure> {
    let scenario = load_scenario(args, default)?;
    print_header(experiment, &scenario);
    Simulation::from_scenario(scenario)
        .map_err(|e| Failure::Usage(format!("failed to materialise scenario: {e}")))
}

/// `report`: Tables I–VI and Figure 1 from one run of the grid.
pub(crate) fn report(args: &Args) -> Result<(), Failure> {
    let session = session(
        args,
        "All experiments (Tables I-VI, Figure 1)",
        "effectiveness-default",
    )?;
    let report = experiments::report(&session)
        .map_err(|e| Failure::Failed(format!("scenario run failed: {e}")))?;
    print!("{report}");
    Ok(())
}

/// `ablation`: the policy, beacon-capacity and churn ablations.
pub(crate) fn ablation(args: &Args) -> Result<(), Failure> {
    let session = session(args, "Ablations (k = 16)", "ablation-default")?;
    let ablations = experiments::ablations(&session)
        .map_err(|e| Failure::Failed(format!("ablation run failed: {e}")))?;
    print!("{ablations}");
    Ok(())
}

/// `dataset-stats`: descriptive statistics of the scenario's workload,
/// the analogue of the paper's dataset description (§V-A) used to
/// validate the Ethereum-likeness of the synthetic substitute.
pub(crate) fn dataset_stats(args: &Args) -> Result<(), Failure> {
    let scenario = load_scenario(args, "default")?;
    print_header(
        "Dataset statistics (synthetic Ethereum analogue)",
        &scenario,
    );
    let Some(config) = scenario.workload() else {
        return Err(Failure::Usage(
            "needs a generated trace source (CSV traces carry no generator description)".into(),
        ));
    };
    let workload = generate(config);
    let stats = TraceStats::compute(workload.trace());

    let mut t = TextTable::new(["Statistic", "Value"]);
    for (statistic, value) in [
        ("Transactions |T|", format!("{}", stats.transactions)),
        ("Accounts |A|", format!("{}", stats.accounts)),
        ("Blocks", format!("{}", stats.blocks)),
        (
            "Mean txs per account (2|T|/|A|)",
            format!("{:.2}", stats.mean_txs_per_account),
        ),
        ("Max degree", format!("{}", stats.max_degree)),
        ("Median degree", format!("{}", stats.median_degree)),
        (
            "Top-1% endpoint share",
            format!("{:.2}%", stats.top1pct_endpoint_share * 100.0),
        ),
        ("Degree Gini", format!("{:.3}", stats.degree_gini)),
        ("Hub accounts", format!("{}", workload.hubs().len())),
        (
            "Total accounts incl. churned",
            format!("{}", workload.total_accounts()),
        ),
    ] {
        t.push_row([statistic.to_string(), value]);
    }
    println!("{t}");
    Ok(())
}
