//! The "allocation of new accounts" side benefit (§VI): a brand-new
//! account — invisible to every graph-based miner-driven method — places
//! itself sensibly using only public information and its own plans.
//!
//! ```text
//! cargo run --release --example new_account_onboarding
//! ```

use mosaic::prelude::*;
use mosaic::sim::{GridAxis, Scenario, Simulation};
use mosaic::workload::TraceSource;

fn main() -> Result<(), mosaic::types::Error> {
    let params = SystemParams::builder().shards(4).eta(2.0).build()?;
    let k = params.shards();
    let phi = {
        // A populated system: accounts 0..99 spread by hash.
        let mut phi = AccountShardMap::new(k);
        for a in 0..100u64 {
            let shard = phi.shard_of(AccountId::new(a)); // hash rule
            phi.assign(AccountId::new(a), shard)?;
        }
        phi
    };
    // The public workload vector: shard S2 is quiet today.
    let omega = vec![900.0, 700.0, 300.0, 800.0];

    // Case 1: a genuinely fresh account with no plans. Graph-based
    // methods cannot place it (it is not in any historical graph);
    // under Mosaic it self-allocates to the least-loaded shard.
    let newcomer = Client::new(AccountId::new(5000));
    let d = newcomer.decide(&phi, &omega, &params);
    println!(
        "fresh account with no history: {} -> {} (workload-driven)",
        d.current, d.target
    );
    assert_eq!(d.target, ShardId::new(2));

    // Case 2: a new account that *knows its future*: it is a shop about
    // to onboard with a payment processor living in shard S4.
    let processor = AccountId::new(7);
    let mut shop = Client::new(AccountId::new(5001));
    shop.expect_interaction(processor, 20);
    let params_with_knowledge = params.with_beta(1.0)?;
    let d = shop.decide(&phi, &omega, &params_with_knowledge);
    println!(
        "new shop expecting 20 txs with {} (in {}): {} -> {}",
        processor,
        phi.shard_of(processor),
        d.current,
        d.target
    );
    assert_eq!(d.target, phi.shard_of(processor));

    // Either way the request is a single beacon-chain transaction.
    if let Some(mr) =
        shop.migration_request(&phi, &omega, &params_with_knowledge, EpochId::new(0))?
    {
        println!("beacon submission: {mr}");
    }
    println!(
        "input used: {} bytes (vs the full historical graph for Metis/TxAllo)",
        shop.input_size_bytes(k)
    );

    // At scale: crank up account churn (4 brand-new accounts per block)
    // and compare uninformed newcomers (β = 0) against newcomers that
    // self-place from their plans (β = 1) — one scenario, one shared
    // trace, two cells.
    let quick = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/quick.scenario"
    ))?;
    let churned = quick
        .workload()
        .expect("quick.scenario generates its trace");
    let scenario = Scenario::new(
        "onboarding-under-churn",
        TraceSource::Generated(churned.clone().with_churn(4.0)),
        quick.eval_epochs,
    )
    .with_base(quick.base.with_shards(4)?)
    .with_axis(GridAxis::Beta(vec![0.0, 1.0]))
    .with_strategies([Strategy::Mosaic]);
    let cells = Simulation::from_scenario(scenario)?.run()?;
    let (blind, informed) = (&cells[0].summary, &cells[1].summary);
    println!(
        "under heavy churn, informed self-placement moves the network-wide \
         cross-ratio from {:.2}% (β = 0) to {:.2}% (β = 1)",
        blind.aggregate.cross_ratio * 100.0,
        informed.aggregate.cross_ratio * 100.0,
    );
    Ok(())
}
