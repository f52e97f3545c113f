//! A single client's view of Mosaic: the wallet-local state, the fused
//! interaction distribution Ψ, the downloaded workload vector Ω, the
//! Pilot decision, and the input-size accounting that makes the whole
//! computation hundreds of bytes instead of gigabytes.
//!
//! ```text
//! cargo run --release --example client_wallet
//! ```

use mosaic::prelude::*;
use mosaic::sim::{Scenario, Simulation};

fn main() -> Result<(), mosaic::types::Error> {
    let params = SystemParams::builder().shards(4).eta(2.0).build()?;
    let k = params.shards();

    // The public allocation ϕ (every miner and client can resolve it).
    let mut phi = AccountShardMap::new(k);
    let me = AccountId::new(1000);
    phi.assign(me, ShardId::new(3))?;
    // A few well-known counterparties.
    let dex = AccountId::new(1);
    let friend = AccountId::new(2);
    let employer = AccountId::new(3);
    phi.assign(dex, ShardId::new(0))?;
    phi.assign(friend, ShardId::new(0))?;
    phi.assign(employer, ShardId::new(1))?;

    // The wallet records only the client's own committed transactions.
    let mut wallet = Client::new(me);
    let mut block = 0u64;
    let mut tx_id = 0u64;
    let mut record = |wallet: &mut Client, from: AccountId, to: AccountId| {
        let tx = Transaction::new(TxId::new(tx_id), from, to, BlockHeight::new(block));
        wallet.observe(&tx);
        tx_id += 1;
        block += 1;
    };
    for _ in 0..6 {
        record(&mut wallet, me, dex); // trades on a shard-0 DEX
    }
    for _ in 0..3 {
        record(&mut wallet, friend, me); // friend also lives in shard 0
    }
    record(&mut wallet, employer, me); // salary from shard 1

    // The client also *knows* some future activity: a planned purchase
    // from a shard-1 merchant.
    let merchant = AccountId::new(4);
    phi.assign(merchant, ShardId::new(1))?;
    wallet.expect_interaction(merchant, 2);

    // Ω comes from a public mempool-analysis platform (Etherscan-like).
    let omega = vec![120.0, 80.0, 100.0, 140.0];

    println!(
        "wallet history: {} interactions with {} counterparties",
        wallet.history().total(),
        wallet.history().distinct()
    );
    println!("Ψ (β = 0, history only)   = {:?}", wallet.psi(&phi, 0.0));
    println!("Ψ (β = 0.5, fused)        = {:?}", wallet.psi(&phi, 0.5));
    println!("Ω (downloaded, {} bytes)  = {omega:?}", omega.len() * 8);

    let decision = wallet.decide(&phi, &omega, &params);
    println!(
        "Pilot: currently in {}, best shard {} (potential {:.2} vs {:.2}, gain {:.2})",
        decision.current,
        decision.target,
        decision.target_potential,
        decision.current_potential,
        decision.gain,
    );

    if let Some(mr) = wallet.migration_request(&phi, &omega, &params, EpochId::new(7))? {
        println!("submitting to beacon chain: {mr}");
    }

    println!(
        "total Pilot input: {} bytes (vs a {}-GB ledger for miner-driven methods)",
        wallet.input_size_bytes(k),
        1.44,
    );

    // Zoom out: every client on a synthetic network running this exact
    // wallet logic — one single-point scenario, Mosaic only.
    let quick = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/quick.scenario"
    ))?;
    let scenario = Scenario::new("client-wallet-network", quick.trace, quick.eval_epochs)
        .with_base(quick.base.with_shards(4)?)
        .with_strategies([Strategy::Mosaic]);
    let cells = Simulation::from_scenario(scenario)?.run()?;
    let r = &cells[0].summary;
    println!(
        "network-wide, every wallet deciding like this one: cross-ratio {:.2}%, \
         mean Pilot input {} per client",
        r.aggregate.cross_ratio * 100.0,
        mosaic::metrics::data_size::human_bytes(r.mean_input_bytes),
    );
    Ok(())
}
