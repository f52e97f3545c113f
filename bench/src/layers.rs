//! The traced run: the per-layer ledger.
//!
//! The traced offline pass is the *same* `Simulation` path as the
//! untraced one with an enabled telemetry recorder installed and every
//! strategy wrapped in a [`Timed`](crate::probe::Timed) decorator.
//! Layers are the crates; strategy time is booked to the crate that
//! implements the cell's strategy. What the pass cannot split —
//! reading the trace, encoding rows, the wire codec, the node's event
//! API — is measured by standalone sweeps over the same public
//! functions. The ledger must close: the attributed parts have to
//! explain the traced wall to within [`CLOSURE_WINDOW`].

use std::io::Cursor;
use std::time::{Duration, Instant};

use mosaic::metrics::EpochCsvWriter;
use mosaic::node::{Incoming, NodeSession, Request, Response, Wire};
use mosaic::sim::engine::RunSummary;
use mosaic::sim::Scenario;
use mosaic::telemetry::Snapshot;
use mosaic::types::Transaction;

use crate::metrics::PER_LAYER;
use crate::passes::{self, Live, OfflinePass, Step, WirePass};
use crate::probe::{Call, Layer, Span};
use crate::run::{repeat, Outcome, Value};
use crate::stats::{closes, fastest, median, percentile, unattributed_share, CLOSURE_WINDOW};
use crate::workloads::{Prepared, Workload};
use crate::Res;

/// Offline reps of a traced run, each an untraced pass, a traced pass
/// and a standalone read of the trace. `before_epoch` spans pool over
/// the traced passes, and the smallest workload has 34 per layer per
/// pass, so five give the 100 a p90 needs with room to spare.
const OFFLINE_REPS: usize = 5;

/// Wire reps per telemetry setting. With three, the same code read a
/// node telemetry overhead anywhere from −0.055 to +0.078, too close to
/// [`TELEMETRY_LIMIT`] for a run that fails beyond it.
const WIRE_REPS: usize = 5;

/// Telemetry may cost this share of a pass before the run warns
/// (ROADMAP aim 4: ≤ 5 %) …
const TELEMETRY_TARGET: f64 = 0.05;

/// … and this share before the run fails: one traced run carries the
/// box's noise, so the target alone convicts nothing.
const TELEMETRY_LIMIT: f64 = 0.10;

/// The big-frame probe sends frames of this many transactions — the
/// 800-tx block `wide-csv` was first sized with, 26 KB on the binary
/// wire — …
const BIG_FRAME_TXS: usize = 800;

/// … each followed by a `lookup`, this many times: what a p50 needs.
const BIG_FRAME_LOOKUPS: usize = 21;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A pass's wall with every step at its fastest over `reps` (see
/// `stats::fastest`).
fn fastest_wall<R: AsRef<[f64]>>(reps: impl IntoIterator<Item = R>) -> f64 {
    fastest(reps).iter().sum()
}

fn histogram_total(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| h.total_ns as f64 / 1e9)
}

fn counter(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Total seconds of the spans of `layer` (or of every layer) that cover
/// one of `calls`.
fn span_total(spans: &[Span], layer: Option<Layer>, calls: &[Call]) -> f64 {
    spans
        .iter()
        .filter(|s| layer.is_none_or(|l| s.layer == l) && calls.contains(&s.call))
        .map(|s| secs(s.took))
        .sum()
}

/// One standalone read of the scenario's trace source, in τ-block steps
/// like the epoch pipeline reads it.
struct ReadSweep {
    open: f64,
    read: f64,
    txs: u64,
    training_txs: u64,
}

fn read_sweep(scenario: &Scenario) -> Res<ReadSweep> {
    let tau = u64::from(scenario.base.tau());
    let start = Instant::now();
    let mut stream = scenario.trace.window_stream()?;
    let open = secs(start.elapsed());
    let cut = passes::training_cut(scenario, stream.blocks());
    let (mut txs, mut training_txs) = (0u64, 0u64);
    let mut window: Vec<Transaction> = Vec::new();
    let start = Instant::now();
    while stream.position() < stream.blocks() {
        window.clear();
        stream.read_to(stream.position() + tau, &mut window)?;
        txs += window.len() as u64;
        training_txs += window.iter().filter(|tx| tx.block.as_u64() < cut).count() as u64;
    }
    Ok(ReadSweep {
        open,
        read: secs(start.elapsed()),
        txs,
        training_txs,
    })
}

/// The codec and the event API without a socket or a thread: the
/// client script encoded into a buffer, decoded back, and applied to a
/// `NodeSession`.
struct NodeSweep {
    encode: f64,
    decode: f64,
    bytes: usize,
    requests: usize,
    replies: usize,
    apply: f64,
    lookups_ns: Vec<f64>,
    csvs: Vec<Vec<u8>>,
    failed: u64,
}

fn node_sweep(scenario: &Scenario, wire: Wire) -> Res<NodeSweep> {
    let mut script: Vec<Request> = Vec::new();
    passes::script(scenario, |step| {
        script.push(match step {
            Step::Begin { cell, blocks } => Request::Begin { cell, blocks },
            Step::Block(block) => Request::TxBatch(block.to_vec()),
            Step::Lookup(account) => Request::Lookup(account),
            Step::Load => Request::Load,
            Step::End => Request::End,
            Step::Csv => Request::Csv,
        });
        Ok(())
    })?;

    let mut bytes: Vec<u8> = Vec::new();
    let start = Instant::now();
    for request in &script {
        wire.write_request(&mut bytes, request)?;
    }
    let encode = secs(start.elapsed());
    drop(script);

    let mut decoded: Vec<Request> = Vec::new();
    let mut input = Cursor::new(bytes.as_slice());
    let start = Instant::now();
    while let Some(incoming) = wire.read_request(&mut input)? {
        match incoming {
            Incoming::Request(request) => decoded.push(request),
            Incoming::Malformed { message, .. } => {
                return Err(format!(
                    "the {} codec rejected its own bytes: {message}",
                    wire.token()
                )
                .into())
            }
        }
    }
    let decode = secs(start.elapsed());

    let shards = scenario.base.shards();
    let mut sweep = NodeSweep {
        encode,
        decode,
        bytes: bytes.len(),
        requests: decoded.len(),
        replies: decoded.iter().filter(|r| r.expects_reply()).count(),
        apply: 0.0,
        lookups_ns: Vec::new(),
        csvs: Vec::new(),
        failed: 0,
    };
    let start = Instant::now();
    let mut session = NodeSession::new(scenario.clone())?;
    for request in decoded {
        let is_lookup = matches!(request, Request::Lookup(_));
        let asked = Instant::now();
        let reply = session.apply(request);
        if is_lookup {
            sweep.lookups_ns.push(secs(asked.elapsed()) * 1e9);
        }
        match reply {
            None | Some(Response::Ok(_) | Response::Load(_)) => {}
            Some(Response::Shard(shard)) if shard < shards => {}
            Some(Response::Csv(lines)) => {
                let mut csv = lines.join("\n");
                csv.push('\n');
                sweep.csvs.push(csv.into_bytes());
            }
            Some(_) => sweep.failed += 1,
        }
    }
    sweep.apply = secs(start.elapsed());
    Ok(sweep)
}

/// The cliff no workload can afford to sit on: `MosaicClient` writes
/// through an 8 KiB `BufWriter` with Nagle's algorithm on, so a frame
/// larger than the buffer followed by a query leaves as several small
/// writes and the query waits out the node's delayed ACK (≈ 44 ms where
/// a round trip is ≈ 55 µs). Replays cell 0 into a live node in frames
/// of [`BIG_FRAME_TXS`] and, once the stream is past the training cut
/// (so `LOOKUP` has an allocation to answer from), times the `lookup`
/// after each frame. Returns the round trips in microseconds; a reply
/// that is no shard is an error.
fn big_frame_sweep(scenario: &Scenario, wire: Wire) -> Res<Vec<f64>> {
    let mut stream = scenario.trace.window_stream()?;
    let blocks = stream.blocks();
    let cut = passes::training_cut(scenario, blocks);
    let mut live = Live::boot(scenario, wire, true)?;
    live.client.begin(0, blocks)?;
    let mut frame: Vec<Transaction> = Vec::new();
    let mut lookups_us = Vec::new();
    while lookups_us.len() < BIG_FRAME_LOOKUPS && stream.position() < blocks {
        stream.read_to(stream.position() + 1, &mut frame)?;
        if frame.len() < BIG_FRAME_TXS {
            continue;
        }
        live.client.ingest_block(&frame)?;
        if stream.position() > cut {
            let account = frame[frame.len() - 1].from;
            let asked = Instant::now();
            live.client.lookup(account)?;
            lookups_us.push(secs(asked.elapsed()) * 1e6);
        }
        frame.clear();
    }
    live.stop()?;
    Ok(lookups_us)
}

/// Per cell: the seconds from the cell's start to its first epoch row
/// (training + initial allocation), summed over the cells of one pass.
fn train_seconds(pass: &OfflinePass) -> f64 {
    let mut cell_start = pass.start;
    let mut cells = pass.observed.cells.iter();
    let mut total = 0.0;
    for stamp in pass.observed.stamps.iter().filter(|s| s.epoch == 0) {
        total += secs(stamp.at - cell_start);
        if let Some((finished, _)) = cells.next() {
            cell_start = *finished;
        }
    }
    total
}

/// Median epoch gap of the last quarter of each cell ÷ that of the
/// first quarter, pooled over cells: > 1 when epochs get slower as the
/// run deepens. `steps` are the fastest steps of the passes like `pass`.
fn epoch_depth_ratio(pass: &OfflinePass, steps: &[f64]) -> f64 {
    let (mut first, mut last) = (Vec::new(), Vec::new());
    let mut cell: Vec<f64> = Vec::new();
    let mut close = |cell: &mut Vec<f64>| {
        let quarter = (cell.len() / 4).max(1).min(cell.len());
        first.extend_from_slice(&cell[..quarter]);
        last.extend_from_slice(&cell[cell.len() - quarter..]);
        cell.clear();
    };
    for (step, stamp) in pass.observed.stamps.iter().enumerate() {
        if stamp.epoch == 0 {
            close(&mut cell);
        } else {
            cell.push(steps[step]);
        }
    }
    close(&mut cell);
    median(&last) / median(&first)
}

/// The traced run of `workload`: every per-layer metric, the output
/// check (traced CSV == untraced CSV == node CSV == event-API CSV), and
/// the ledger's own checks.
pub fn traced(workload: &Workload, prepared: &Prepared, budget: Duration) -> Res<Outcome> {
    let scenario = &prepared.scenario;
    let csv_dir = &prepared.csv_dir;
    let specs = scenario.cells()?;
    let cells = specs.len() as f64;

    // Alternating — an untraced pass, a traced pass, a standalone read of
    // the trace — so that drift (a cold start, a busy neighbour) falls
    // on all three alike.
    let mut plain: Vec<OfflinePass> = Vec::new();
    let mut probed: Vec<OfflinePass> = Vec::new();
    let sweeps: Vec<ReadSweep> = repeat(budget / 2, OFFLINE_REPS, || {
        plain.push(passes::offline(scenario, csv_dir, false)?);
        probed.push(passes::offline(scenario, csv_dir, true)?);
        read_sweep(scenario)
    })?;
    let reps = probed.len() as f64;
    let plain_wall = fastest_wall(plain.iter().map(OfflinePass::steps));
    let probed_steps = fastest(probed.iter().map(OfflinePass::steps));
    let probed_total: f64 = probed.iter().map(|p| secs(p.wall)).sum();

    // Everything the traced passes recorded, summed over the reps.
    let mut snapshot = Snapshot::default();
    let mut spans: Vec<Span> = Vec::new();
    for pass in &probed {
        let (pass_spans, pass_snapshot) = pass.trace.as_ref().expect("traced pass");
        spans.extend_from_slice(pass_spans);
        snapshot.merge(pass_snapshot);
    }

    let read = sweeps.iter().map(|s| s.read).sum::<f64>() / reps;
    let open = sweeps.iter().map(|s| s.open).sum::<f64>() / reps;
    let txs = sweeps[0].txs as f64;
    let training_txs = sweeps[0].training_txs as f64;
    let eval_txs = txs - training_txs;

    let rows: Vec<_> = probed[0]
        .observed
        .stamps
        .iter()
        .map(|s| s.metrics)
        .collect();
    let start = Instant::now();
    let mut writer = EpochCsvWriter::new(Vec::new())?;
    for row in &rows {
        writer.write_epoch(row)?;
    }
    std::hint::black_box(writer.finish()?);
    let csv_encode = secs(start.elapsed());

    let node = node_sweep(scenario, workload.wire)?;
    let mut on: Vec<WirePass> = Vec::new();
    let mut off: Vec<WirePass> = Vec::new();
    for _ in 0..WIRE_REPS {
        on.push(passes::wire(scenario, workload.wire, true)?);
        off.push(passes::wire(scenario, workload.wire, false)?);
    }
    let on_wall = fastest_wall(on.iter().map(|p| &p.steps));
    let off_wall = fastest_wall(off.iter().map(|p| &p.steps));
    let sent = on[0].txs as f64;
    let big_frame_lookups_us = big_frame_sweep(scenario, workload.wire)?;

    // The ledger: per-pass times are means over the traced reps, like
    // the wall they must add up to (interference falls on both alike).
    let train = histogram_total(&snapshot, "epoch.train") / reps;
    let score = histogram_total(&snapshot, "epoch.score") / reps;
    let migrate = histogram_total(&snapshot, "epoch.migrate") / reps;
    let commit = histogram_total(&snapshot, "epoch.commit") / reps;
    let observe_training = span_total(&spans, None, &[Call::ObserveTraining]) / reps;
    let initial_allocation = span_total(&spans, None, &[Call::InitialAllocation]) / reps;
    let after_epoch = span_total(&spans, None, &[Call::AfterEpoch]) / reps;
    let unattributed = unattributed_share(
        &[
            cells * (open + read),
            train,
            score,
            migrate,
            commit,
            after_epoch,
            csv_encode,
        ],
        probed_total / reps,
    );
    let offline_overhead = probed_steps.iter().sum::<f64>() / plain_wall - 1.0;
    let node_overhead = 1.0 - off_wall / on_wall;
    let apply_ns_per_tx = node.apply * 1e9 / sent;

    let mut ledger: Vec<(String, f64, Option<usize>)> = Vec::new();
    let mut put = |name: &str, value: f64, samples: Option<usize>| {
        ledger.push((name.to_string(), value, samples));
    };
    put(
        "workload.read_ns_per_tx",
        read * 1e9 / txs,
        Some(sweeps.len()),
    );
    put("workload.open_ms", open * 1e3, Some(sweeps.len()));
    put("workload.txs", txs, None);
    put(
        "workload.generate_ns_per_tx",
        prepared
            .generated
            .map_or(0.0, |(took, written)| secs(took) * 1e9 / written as f64),
        None,
    );
    put(
        "txgraph.train_merge_ns_per_tx",
        (train - observe_training - initial_allocation) * 1e9 / (cells * training_txs),
        None,
    );
    put(
        "txgraph.edges_merged",
        counter(&snapshot, "core.edges_merged") / reps,
        None,
    );
    for layer in Layer::ALL {
        // A layer's transactions are those of the cells it runs.
        let layer_cells = specs
            .iter()
            .filter(|cell| Layer::of(cell.config.strategy) == layer)
            .count() as f64;
        let observed = span_total(
            &spans,
            Some(layer),
            &[Call::ObserveTraining, Call::AfterEpoch],
        );
        let before: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == layer && s.call == Call::BeforeEpoch)
            .map(|s| secs(s.took) * 1e3)
            .collect();
        let name = |metric: &str| format!("{}.{metric}", layer.name());
        put(
            &name("observe_ns_per_tx"),
            if layer_cells > 0.0 {
                observed * 1e9 / (reps * layer_cells * txs)
            } else {
                0.0
            },
            None,
        );
        put(
            &name("init_alloc_ms"),
            span_total(&spans, Some(layer), &[Call::InitialAllocation]) * 1e3 / reps,
            None,
        );
        let (p50, p90) = if before.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&before, 50.0)?, percentile(&before, 90.0)?)
        };
        put(&name("before_epoch_p50_ms"), p50, Some(before.len()));
        put(&name("before_epoch_p90_ms"), p90, Some(before.len()));
        put(
            &name("before_epoch_share"),
            before.iter().sum::<f64>() / 1e3 / probed_total,
            None,
        );
    }
    // The paper's per-client decision time and input size (Table IV),
    // as the Pilot cells' own summaries report them.
    let pilot: Vec<&RunSummary> = probed[0]
        .observed
        .cells
        .iter()
        .zip(&specs)
        .filter(|(_, cell)| Layer::of(cell.config.strategy) == Layer::Core)
        .map(|((_, summary), _)| summary)
        .collect();
    let pilot_mean = |of: fn(&RunSummary) -> f64| {
        pilot.iter().map(|s| of(s)).sum::<f64>() / pilot.len().max(1) as f64
    };
    put(
        "core.decision_ns_mean",
        pilot_mean(|s| s.mean_alloc_seconds * 1e9),
        None,
    );
    put(
        "core.input_bytes_mean",
        pilot_mean(|s| s.mean_input_bytes),
        None,
    );
    put(
        "chain.process_epoch_ns_per_tx",
        commit * 1e9 / (cells * eval_txs),
        None,
    );
    put("chain.set_allocation_ms", migrate * 1e3, None);
    put(
        "chain.migrations_committed",
        counter(&snapshot, "core.migrations_committed") / reps,
        None,
    );
    put(
        "chain.migrations_stale",
        counter(&snapshot, "core.migrations_aborted") / reps,
        None,
    );
    put(
        "metrics.csv_encode_ns_per_row",
        csv_encode * 1e9 / rows.len() as f64,
        Some(rows.len()),
    );
    put(
        "metrics.csv_bytes",
        probed[0].csvs.iter().map(Vec::len).sum::<usize>() as f64,
        None,
    );
    put(
        "sim.train_s",
        median(&probed.iter().map(train_seconds).collect::<Vec<_>>()),
        Some(probed.len()),
    );
    put(
        "sim.epoch_depth_ratio",
        epoch_depth_ratio(&probed[0], &probed_steps),
        Some(probed.len()),
    );
    put("sim.unattributed_share", unattributed, None);
    put(
        "node.boot_ms",
        median(&on.iter().map(|p| secs(p.boot) * 1e3).collect::<Vec<_>>()),
        Some(on.len()),
    );
    put("node.encode_ns_per_tx", node.encode * 1e9 / sent, None);
    put("node.decode_ns_per_tx", node.decode * 1e9 / sent, None);
    put("node.bytes_per_tx", node.bytes as f64 / sent, None);
    put("node.requests", node.requests as f64, None);
    put("node.replies", node.replies as f64, None);
    put("node.session_apply_ns_per_tx", apply_ns_per_tx, None);
    put(
        "node.lookup_apply_ns_p50",
        percentile(&node.lookups_ns, 50.0)?,
        Some(node.lookups_ns.len()),
    );
    // The client-side round trip: two thread wake-ups and a few hundred
    // nanoseconds of node. Here and not among the end-to-end metrics
    // because the host decides it (17 µs or 90 µs, by the hour).
    let round_trips = fastest(on.iter().map(|p| &p.lookups_us));
    put(
        "node.lookup_rtt_p50_us",
        percentile(&round_trips, 50.0)?,
        Some(round_trips.len()),
    );
    put(
        "node.big_frame_lookup_p50_us",
        percentile(&big_frame_lookups_us, 50.0)?,
        Some(big_frame_lookups_us.len()),
    );
    put(
        "node.event_api_overhead_ns_per_tx",
        apply_ns_per_tx - plain_wall * 1e9 / sent,
        None,
    );
    put(
        "node.wire_overhead_ns_per_tx",
        on_wall * 1e9 / sent - apply_ns_per_tx,
        None,
    );
    put(
        "telemetry.offline_overhead_share",
        offline_overhead,
        Some(probed.len()),
    );
    put(
        "telemetry.node_overhead_share",
        node_overhead,
        Some(on.len()),
    );

    let values = PER_LAYER
        .iter()
        .map(|(name, ..)| {
            ledger
                .iter()
                .find(|(n, ..)| n == name)
                .map(|&(_, value, samples)| Value {
                    name,
                    value,
                    samples,
                })
                .ok_or_else(|| format!("the ledger has no value for {name}"))
        })
        .collect::<Result<Vec<Value>, String>>()?;

    let mut violations = Vec::new();
    if !closes(unattributed) {
        violations.push(format!(
            "sim.unattributed_share {unattributed:.4} outside [{}, {}]: a layer is missing or double-counted",
            CLOSURE_WINDOW.0, CLOSURE_WINDOW.1
        ));
    }
    for (name, share) in [
        ("telemetry.offline_overhead_share", offline_overhead),
        ("telemetry.node_overhead_share", node_overhead),
    ] {
        if share > TELEMETRY_LIMIT {
            violations.push(format!(
                "{name} {share:.4} above {TELEMETRY_LIMIT}: telemetry is not free here"
            ));
        } else if share > TELEMETRY_TARGET {
            println!("warning {name} {share:.4} above the {TELEMETRY_TARGET} target");
        }
    }

    let others: Vec<&[Vec<u8>]> = plain[1..]
        .iter()
        .chain(&probed)
        .map(|p| p.csvs.as_slice())
        .chain(on.iter().chain(&off).map(|p| p.csvs.as_slice()))
        .chain(std::iter::once(node.csvs.as_slice()))
        .collect();
    let (compared, mismatched) = passes::check_csvs(&plain[0].csvs, &others, scenario.eval_epochs);
    let wire_passes = || on.iter().chain(&off);
    Ok(Outcome {
        values,
        attempted: compared + node.replies as u64 + wire_passes().map(|p| p.requests).sum::<u64>(),
        failed: mismatched + node.failed + wire_passes().map(|p| p.failed).sum::<u64>(),
        violations,
    })
}
