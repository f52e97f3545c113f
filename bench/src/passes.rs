//! The two measured passes — offline (`Simulation`) and wire (a live
//! node driven by one `MosaicClient`) — and the output check that ties
//! them together.

use std::fs;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mosaic::node::{serve_with_telemetry, MosaicClient, Wire};
use mosaic::sim::{RunTarget, Scenario, Simulation};
use mosaic::telemetry::{self, Recorder, Snapshot};
use mosaic::types::{AccountId, Transaction};

use crate::placement::{Cpus, Placement};
use crate::probe::{Layer, Observed, Span, SpanLog, Stamper, Timed};
use crate::Res;

/// One offline pass: the scenario through `Simulation`, rows streamed
/// to per-cell CSV files.
#[derive(Debug)]
pub struct OfflinePass {
    /// Trace source → last CSV byte.
    pub wall: Duration,
    /// When the pass started (the first cell's start).
    pub start: Instant,
    /// The stamped epoch rows and cell summaries.
    pub observed: Observed,
    /// Each cell's CSV bytes, in cell order.
    pub csvs: Vec<Vec<u8>>,
    /// Strategy spans and the telemetry snapshot (traced pass only).
    pub trace: Option<(Vec<Span>, Snapshot)>,
}

impl OfflinePass {
    /// The pass as consecutive steps that add up to its wall, in
    /// seconds: start → first epoch row → … → last epoch row → end.
    /// Step `i` ends at epoch row `i`; the last is the tail.
    pub fn steps(&self) -> Vec<f64> {
        let stamps = self.observed.stamps.iter().map(|stamp| stamp.at);
        let checkpoints: Vec<Instant> = std::iter::once(self.start)
            .chain(stamps)
            .chain(std::iter::once(self.start + self.wall))
            .collect();
        checkpoints
            .windows(2)
            .map(|pair| (pair[1] - pair[0]).as_secs_f64())
            .collect()
    }

    /// The indices of the [`OfflinePass::steps`] that are epoch gaps:
    /// from one epoch row to the next of the same cell. (A cell's first
    /// row ends a step that also holds its training, so it is none.)
    pub fn epoch_gaps(&self) -> impl Iterator<Item = usize> + '_ {
        let stamps = &self.observed.stamps;
        (0..stamps.len()).filter(|&i| stamps[i].epoch > 0)
    }
}

/// Runs one offline pass. Untraced, telemetry stays at its default
/// (disabled) and cells run their registry strategies. Traced, an
/// enabled recorder is installed for the pass and every strategy is
/// wrapped in a [`Timed`] decorator; the CSV bytes must not change.
pub fn offline(scenario: &Scenario, csv_dir: &Path, traced: bool) -> Res<OfflinePass> {
    let stamper = Stamper::default();
    let log: SpanLog = Arc::new(Mutex::new(Vec::new()));
    let recorder = traced.then(Recorder::enabled);
    if let Some(recorder) = &recorder {
        telemetry::install_global(recorder.clone());
    }
    let start = Instant::now();
    let run = Simulation::from_scenario(scenario.clone()).and_then(|sim| {
        let sim = sim.with_observer(Box::new(stamper.clone()));
        if traced {
            sim.run_with_factory(|cell| {
                let strategy = cell.config.strategy;
                Box::new(Timed::new(
                    strategy.build(cell.config.params),
                    Layer::of(strategy),
                    Arc::clone(&log),
                ))
            })
        } else {
            sim.run()
        }
        .map(|_| sim)
    });
    let wall = start.elapsed();
    if recorder.is_some() {
        telemetry::install_global(Recorder::disabled());
    }
    let sim = run?;
    let single_point = sim.scenario().is_single_point();
    let mut csvs = Vec::new();
    for cell in sim.cells() {
        csvs.push(fs::read(
            csv_dir.join(format!("{}.csv", cell.file_stem(single_point))),
        )?);
    }
    let spans = std::mem::take(&mut *log.lock().expect("span log poisoned"));
    Ok(OfflinePass {
        wall,
        start,
        observed: stamper.take(),
        csvs,
        trace: recorder.map(|r| (spans, r.snapshot())),
    })
}

/// A node serving one scenario on a loopback port, stopped (via
/// `SHUTDOWN`) and joined when dropped.
struct Node {
    addr: String,
    server: Option<JoinHandle<mosaic::types::Result<()>>>,
}

impl Node {
    /// Binds a loopback port and serves `scenario` on a new thread that
    /// first pins itself — and so every thread the node spawns — to
    /// `cpus`, if any.
    fn boot(scenario: Scenario, telemetry: bool, cpus: Option<Cpus>) -> Res<Node> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let server = thread::Builder::new()
            .name("bench-node".to_string())
            .spawn(move || {
                if let Some(cpus) = cpus {
                    cpus.pin_this_thread()
                        .map_err(|e| mosaic::types::Error::Io {
                            path: "<sched_setaffinity>".to_string(),
                            message: e.to_string(),
                        })?;
                }
                serve_with_telemetry(listener, scenario, telemetry)
            })?;
        Ok(Node {
            addr,
            server: Some(server),
        })
    }

    /// Sends `SHUTDOWN` on a fresh connection and joins the server
    /// thread, returning its result. A second call is a no-op.
    fn stop(&mut self) -> Res<()> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        // If the server already died the connect fails and the join
        // below returns at once with its error.
        let asked = MosaicClient::connect(&self.addr, Wire::Binary).and_then(|mut c| c.shutdown());
        if asked.is_err() && !server.is_finished() {
            return Err(format!("node at {} ignored SHUTDOWN: {asked:?}", self.addr).into());
        }
        let served = server.join();
        // The server installed its recorder process-wide; passes that
        // follow must start from the default (disabled) again.
        telemetry::install_global(Recorder::disabled());
        match served {
            Ok(served) => Ok(served?),
            Err(_) => Err("the node's accept thread panicked".into()),
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A booted node with one client connected to it, placed as
/// [`crate::placement`] says. Dropping it closes the connection, stops
/// and joins the node, and frees the calling thread again — in that
/// order, also when a check failed half-way.
pub struct Live {
    /// The one connection of the closed loop.
    pub client: MosaicClient,
    node: Node,
    _placement: Placement,
}

impl Live {
    /// Bind, server boot, connect and the codec's hello: what a client
    /// pays before its first request.
    pub fn boot(scenario: &Scenario, wire: Wire, telemetry: bool) -> Res<Live> {
        let placement = Placement::take()?;
        let node = Node::boot(scenario.clone(), telemetry, placement.node())?;
        let client = MosaicClient::connect(&node.addr, wire)?;
        Ok(Live {
            client,
            node,
            _placement: placement,
        })
    }

    /// Closes the connection and stops the node, returning what its
    /// accept loop returned.
    pub fn stop(self) -> Res<()> {
        let Live {
            client, mut node, ..
        } = self;
        drop(client);
        node.stop()
    }
}

/// One step of the traffic a client sends: the single definition of
/// the request mix, shared by the wire pass and the codec sweep.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// `BEGIN <cell> <blocks>`.
    Begin {
        /// The cell's index in the scenario's cell list.
        cell: usize,
        /// The block span about to be replayed.
        blocks: u64,
    },
    /// One block of transactions, fire-and-forget.
    Block(&'a [Transaction]),
    /// `LOOKUP` of the block's last sender.
    Lookup(AccountId),
    /// `LOAD`.
    Load,
    /// `END`.
    End,
    /// `CSV`.
    Csv,
}

/// The height of the first evaluation block of a `blocks`-block stream:
/// the cut `AllocationCore::begin` derives from the same inputs.
pub fn training_cut(scenario: &Scenario, blocks: u64) -> u64 {
    (blocks as f64 * scenario.train_fraction).floor() as u64
}

/// Feeds `each` the whole client script of `scenario`, cell by cell:
/// `BEGIN`, then every block; after every *evaluation* block (height ≥
/// the training cut) one `LOOKUP` of the block's last sender; at the
/// first block of every later evaluation epoch one `LOAD` (the epoch
/// before it has just closed); then `END` and `CSV`. Blocks are read
/// from the scenario's trace source as they are sent.
pub fn script(scenario: &Scenario, mut each: impl FnMut(Step<'_>) -> Res<()>) -> Res<()> {
    let cells = scenario.cells_for(RunTarget::Node)?.len();
    let tau = u64::from(scenario.base.tau());
    let mut block: Vec<Transaction> = Vec::new();
    for cell in 0..cells {
        let mut stream = scenario.trace.window_stream()?;
        let blocks = stream.blocks();
        let cut = training_cut(scenario, blocks);
        each(Step::Begin { cell, blocks })?;
        for height in 0..blocks {
            block.clear();
            stream.read_to(height + 1, &mut block)?;
            each(Step::Block(&block))?;
            if height < cut {
                continue;
            }
            if let Some(tx) = block.last() {
                each(Step::Lookup(tx.from))?;
            }
            if height > cut && (height - cut).is_multiple_of(tau) {
                each(Step::Load)?;
            }
        }
        each(Step::End)?;
        each(Step::Csv)?;
    }
    Ok(())
}

/// The node's own set-up, as a client sees it: `BEGIN` cell 0, the
/// training half streamed in, the first evaluation block — which makes
/// the node compute its initial allocation — and the first `LOOKUP`
/// answered from it.
pub fn train(scenario: &Scenario, client: &mut MosaicClient) -> Res<()> {
    let mut stream = scenario.trace.window_stream()?;
    let blocks = stream.blocks();
    let cut = training_cut(scenario, blocks);
    client.begin(0, blocks)?;
    let mut block: Vec<Transaction> = Vec::new();
    for height in 0..=cut {
        block.clear();
        stream.read_to(height + 1, &mut block)?;
        client.ingest_block(&block)?;
    }
    let asked = block.last().ok_or("the first evaluation block is empty")?;
    let shard = client.lookup(asked.from)?;
    if shard >= scenario.base.shards() {
        return Err(format!(
            "LOOKUP answered shard {shard} of {}",
            scenario.base.shards()
        )
        .into());
    }
    Ok(())
}

/// One wire pass: every cell replayed into a live node by one client.
#[derive(Debug, Default)]
pub struct WirePass {
    /// Bind + server boot + connect: outside the measured wall.
    pub boot: Duration,
    /// First `BEGIN` → last `CSV` reply.
    pub wall: Duration,
    /// Transactions sent (all cells).
    pub txs: u64,
    /// Client-side `LOOKUP` round trips, in microseconds.
    pub lookups_us: Vec<f64>,
    /// The indices into `lookups_us` of the lookups that followed an
    /// epoch boundary — the block before them closed an epoch, so they
    /// waited for it — one per epoch but each cell's last.
    pub stalled: Vec<usize>,
    /// The pass as consecutive steps that add up to its wall, in
    /// seconds: start → first `LOOKUP` reply → … → last → end.
    pub steps: Vec<f64>,
    /// Each cell's node-side CSV, in cell order.
    pub csvs: Vec<Vec<u8>>,
    /// Requests that were owed a reply.
    pub requests: u64,
    /// Replies that were `ERR`, failed on the socket or were ill-shaped.
    pub failed: u64,
}

/// Runs one wire pass: a closed loop with one client sending
/// [`script`]. Ingest is fire-and-forget behind the node's bounded
/// queue; every query waits for its reply before the next step.
pub fn wire(scenario: &Scenario, wire: Wire, telemetry: bool) -> Res<WirePass> {
    let shards = scenario.base.shards();
    let mut pass = WirePass::default();

    let boot = Instant::now();
    let mut live = Live::boot(scenario, wire, telemetry)?;
    pass.boot = boot.elapsed();
    let client = &mut live.client;

    let start = Instant::now();
    let mut checkpoint = start;
    script(scenario, |step| {
        let ok = match step {
            Step::Block(block) => {
                pass.txs += block.len() as u64;
                return Ok(client.ingest_block(block)?);
            }
            Step::Begin { cell, blocks } => client.begin(cell, blocks).is_ok(),
            Step::Lookup(account) => {
                let asked = Instant::now();
                let reply = client.lookup(account);
                let replied = Instant::now();
                pass.lookups_us.push((replied - asked).as_secs_f64() * 1e6);
                pass.steps.push((replied - checkpoint).as_secs_f64());
                checkpoint = replied;
                matches!(reply, Ok(shard) if shard < shards)
            }
            Step::Load => {
                // `script` sends `LOAD` right after the lookup that
                // followed an epoch's first block.
                pass.stalled.push(pass.lookups_us.len() - 1);
                matches!(
                    client.load(),
                    Ok(lines) if lines.first().is_some_and(|l| l.starts_with("epoch "))
                )
            }
            Step::End => client.end().is_ok(),
            Step::Csv => {
                let csv = client.csv();
                let ok = csv.is_ok();
                pass.csvs.push(csv.unwrap_or_default().into_bytes());
                ok
            }
        };
        pass.requests += 1;
        pass.failed += u64::from(!ok);
        Ok(())
    })?;
    let end = Instant::now();
    pass.steps.push((end - checkpoint).as_secs_f64());
    pass.wall = end - start;
    live.stop()?;
    Ok(pass)
}

/// The cross-pass output check: every pass must have produced, cell for
/// cell, the bytes of `reference`, and each CSV must hold one row per
/// evaluation epoch. Returns `(compared, mismatched)`.
pub fn check_csvs(reference: &[Vec<u8>], others: &[&[Vec<u8>]], eval_epochs: usize) -> (u64, u64) {
    let mut compared = 0;
    let mut mismatched = 0;
    for csv in reference {
        compared += 1;
        // Header line + one line per evaluation epoch.
        if csv.iter().filter(|&&b| b == b'\n').count() != eval_epochs + 1 {
            mismatched += 1;
        }
    }
    for other in others {
        for (cell, csv) in reference.iter().enumerate() {
            compared += 1;
            if other.get(cell) != Some(csv) {
                mismatched += 1;
            }
        }
    }
    (compared, mismatched)
}

/// The peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::workloads::{self, Scratch};

    /// Passes install and reset the process-wide recorder, so the tests
    /// that run them take turns.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    const QUICK: &str = include_str!("../../scenarios/quick.scenario");

    fn quick(seed: u64, scratch: &Scratch) -> workloads::Prepared {
        let scenario = Scenario::parse(QUICK).unwrap();
        workloads::prepare_scenario(scenario, false, seed, scratch.path()).unwrap()
    }

    #[test]
    fn probes_are_transparent_for_all_five_strategies() {
        let _turn = ONE_AT_A_TIME.lock().unwrap();
        let scratch = Scratch::create("transparent").unwrap();
        let prepared = quick(44224, &scratch);
        assert_eq!(prepared.scenario.strategies.len(), 5);
        let plain = offline(&prepared.scenario, &prepared.csv_dir, false).unwrap();
        let probed = offline(&prepared.scenario, &prepared.csv_dir, true).unwrap();
        assert_eq!(plain.csvs.len(), 5);
        assert_eq!(plain.csvs, probed.csvs, "a probe changed a result byte");
        // The stamper saw every row of every cell, the decorator every call.
        let rows = 5 * prepared.scenario.eval_epochs;
        assert_eq!(plain.observed.stamps.len(), rows);
        assert_eq!(plain.observed.cells.len(), 5);
        assert!(plain.trace.is_none());
        let (spans, snapshot) = probed.trace.unwrap();
        let calls = |call| spans.iter().filter(|s| s.call == call).count();
        assert_eq!(calls(crate::probe::Call::BeforeEpoch), rows);
        assert_eq!(calls(crate::probe::Call::InitialAllocation), 5);
        assert!(!snapshot.is_empty());
    }

    #[test]
    fn seeds_change_the_bytes_and_the_node_agrees_with_both() {
        let _turn = ONE_AT_A_TIME.lock().unwrap();
        let scratch = Scratch::create("seeds").unwrap();
        let mut csvs = Vec::new();
        for seed in [1, 2] {
            let prepared = quick(seed, &scratch);
            let pass = offline(&prepared.scenario, &prepared.csv_dir, false).unwrap();
            for wire_kind in [Wire::Binary, Wire::Line] {
                let node = wire(&prepared.scenario, wire_kind, true).unwrap();
                assert_eq!(node.failed, 0);
                // One stalled lookup per epoch but each cell's last.
                assert_eq!(node.stalled.len(), 5 * (prepared.scenario.eval_epochs - 1));
                assert!(node.stalled.windows(2).all(|pair| pair[0] < pair[1]));
                assert!(node.stalled.iter().all(|&i| i < node.lookups_us.len()));
                assert_eq!(
                    check_csvs(&pass.csvs, &[&node.csvs[..]], prepared.scenario.eval_epochs),
                    (10, 0),
                    "seed {seed} over {wire_kind:?}"
                );
            }
            // Set-up's last step: a fresh node trained until it answers.
            let mut live = Live::boot(&prepared.scenario, Wire::Binary, true).unwrap();
            train(&prepared.scenario, &mut live.client).unwrap();
            live.stop().unwrap();
            csvs.push(pass.csvs);
        }
        assert_ne!(csvs[0], csvs[1], "two seeds gave the same CSV bytes");
    }

    #[test]
    fn the_csv_check_counts_every_mismatch() {
        let csv = |rows: usize| -> Vec<u8> { "line\n".repeat(rows + 1).into_bytes() };
        let reference = vec![csv(4), csv(4)];
        assert_eq!(check_csvs(&reference, &[&reference[..]], 4), (4, 0));
        // A wrong row count, a differing cell and a missing cell.
        assert_eq!(check_csvs(&reference, &[], 3), (2, 2));
        let other = [csv(4), csv(5)];
        assert_eq!(
            check_csvs(&reference, &[&other[..], &other[..1]], 4),
            (6, 2)
        );
    }
}
