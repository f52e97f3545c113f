//! Multi-session concurrency: N connections replay
//! `scenarios/quick.scenario` against one node **simultaneously**, and
//! every session's CSV comes back byte-identical to the offline
//! [`Simulation`] run — sessions are fully isolated, so concurrent
//! streams never bleed into each other's cores. Also pins the
//! isolation semantics at the protocol level: one connection's active
//! run is invisible to another connection.

use std::net::TcpListener;
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use mosaic_node::replay::{replay, replay_sessions};
use mosaic_node::{serve, MosaicClient, Wire};
use mosaic_sim::{Scenario, Simulation};

fn quick_scenario() -> Scenario {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/quick.scenario"
    );
    Scenario::load(path).expect("checked-in scenario parses")
}

/// The offline oracle for `quick_scenario`, built once and before any
/// server in this test binary boots ([`boot`] waits on it). A
/// telemetry-on server installs its recorder process-wide, so an
/// offline `Simulation` running beside it in a sibling test thread
/// would count into that server's `STATS` aggregate.
fn offline_csvs() -> &'static [(String, String)] {
    static OFFLINE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    OFFLINE.get_or_init(|| {
        let scenario = quick_scenario();
        let single_point = scenario.is_single_point();
        let simulation = Simulation::from_scenario(scenario).unwrap();
        simulation
            .cells()
            .iter()
            .map(|cell| {
                let mut bytes = Vec::new();
                simulation.stream_cell(cell, &mut bytes).unwrap();
                (
                    cell.file_stem(single_point),
                    String::from_utf8(bytes).unwrap(),
                )
            })
            .collect()
    })
}

fn boot(scenario: &Scenario) -> (String, thread::JoinHandle<mosaic_types::Result<()>>) {
    offline_csvs();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let serve_scenario = scenario.clone();
    (addr, thread::spawn(move || serve(listener, serve_scenario)))
}

fn stop(addr: &str, server: thread::JoinHandle<mosaic_types::Result<()>>) {
    let mut client = MosaicClient::connect(addr, Wire::Binary).unwrap();
    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap().unwrap();
}

fn tx(id: u64, block: u64) -> mosaic_types::Transaction {
    mosaic_types::Transaction::new(
        mosaic_types::TxId::new(id),
        mosaic_types::AccountId::new(id % 800),
        mosaic_types::AccountId::new((id + 1) % 800),
        mosaic_types::BlockHeight::new(block),
    )
}

#[test]
fn concurrent_replays_are_byte_identical_to_the_offline_run() {
    let scenario = quick_scenario();
    let offline = offline_csvs();
    let (addr, server) = boot(&scenario);

    // Three sessions at once; replay_sessions cross-checks the sessions
    // against each other, and we check the survivor against offline.
    let report = replay_sessions(&addr, &scenario, Wire::Binary, 3).unwrap();
    assert_eq!(report.sessions, 3);
    let per_session = report.txs / 3;
    assert_eq!(report.txs, per_session * 3, "sessions sent unequal counts");

    // Session 0's STATS (fetched on its own connection, concurrent with
    // the other two) count exactly the transactions it streamed.
    assert_eq!(report.stats[0], "telemetry on", "{:?}", report.stats);
    assert!(
        report
            .stats
            .contains(&format!("counter core.txs_ingested {per_session}")),
        "session counters diverged from the stream: {:?}",
        report.stats
    );
    assert!(
        report
            .stats
            .iter()
            .any(|l| l.starts_with("server counter core.txs_ingested ")),
        "server aggregate missing: {:?}",
        report.stats
    );
    assert_eq!(report.cells.len(), offline.len());
    for (replayed, (stem, csv)) in report.cells.iter().zip(offline) {
        assert_eq!(&replayed.stem, stem);
        assert_eq!(
            replayed.csv, *csv,
            "concurrent node-side CSV for cell {stem} diverged from the offline run"
        );
    }

    // Mixed codecs concurrently: a line session and a binary session
    // sharing the node still both match offline.
    let reports: Vec<_> = thread::scope(|scope| {
        let (addr, scenario) = (&addr, &scenario);
        [Wire::Line, Wire::Binary]
            .map(|wire| scope.spawn(move || replay(addr, scenario, wire)))
            .map(|handle| handle.join().unwrap().unwrap())
            .into_iter()
            .collect()
    });
    for report in reports {
        for (replayed, (stem, csv)) in report.cells.iter().zip(offline) {
            assert_eq!(&replayed.stem, stem);
            assert_eq!(
                replayed.csv, *csv,
                "mixed-wire CSV for cell {stem} diverged ({} wire)",
                report.wire
            );
        }
    }

    stop(&addr, server);
}

#[test]
fn stats_are_per_session_and_answered_on_both_codecs() {
    let scenario = quick_scenario();
    let (addr, server) = boot(&scenario);

    let mut a = MosaicClient::connect(&addr, Wire::Binary).unwrap();
    let mut b = MosaicClient::connect(&addr, Wire::Line).unwrap();
    let tx = |i: u64| tx(i, i / 4);

    a.begin(0, 2000).unwrap();
    a.ingest_block(&(0..10).map(tx).collect::<Vec<_>>())
        .unwrap();
    b.begin(0, 2000).unwrap();
    b.ingest_block(&(0..7).map(tx).collect::<Vec<_>>()).unwrap();

    // Each connection sees its own count — 10 vs 7 — on its own codec.
    // A STATS round-trip flushes and drains that connection's stream,
    // so the server-wide merge grows deterministically: b's 7 are still
    // buffered client-side when a asks, and folded in by the time b asks.
    let a_stats = a.stats().unwrap();
    assert!(
        a_stats.contains(&"counter core.txs_ingested 10".to_string()),
        "{a_stats:?}"
    );
    assert!(
        a_stats.contains(&"server counter core.txs_ingested 10".to_string()),
        "{a_stats:?}"
    );
    let b_stats = b.stats().unwrap();
    assert!(
        b_stats.contains(&"counter core.txs_ingested 7".to_string()),
        "{b_stats:?}"
    );
    assert!(
        b_stats.contains(&"server counter core.txs_ingested 17".to_string()),
        "{b_stats:?}"
    );
    for stats in [&a_stats, &b_stats] {
        assert!(
            stats.contains(&"server sessions_active 2".to_string()),
            "{stats:?}"
        );
    }

    drop(b);
    drop(a);
    stop(&addr, server);
}

#[test]
fn sessions_are_isolated_per_connection() {
    let scenario = quick_scenario();
    let (addr, server) = boot(&scenario);

    let mut a = MosaicClient::connect(&addr, Wire::Binary).unwrap();
    let mut b = MosaicClient::connect(&addr, Wire::Line).unwrap();

    // A starts a run; B's session must not see it.
    a.begin(0, 2000).unwrap();
    let err = b.csv().unwrap_err().to_string();
    assert!(err.contains("no active run"), "{err}");
    // B starts its own run on a different cell; A's stays untouched.
    b.begin(1, 2000).unwrap();
    let a_csv = a.csv().unwrap();
    let b_csv = b.csv().unwrap();
    assert_eq!(a_csv, b_csv, "both runs are header-only at this point");
    // No transactions have flowed on A, so its session has no
    // allocation to look up — proving B's activity never reached it.
    let shard_err = a.lookup(mosaic_types::AccountId::new(0)).unwrap_err();
    assert!(
        shard_err.to_string().contains("no allocation yet"),
        "{shard_err}"
    );

    // B hanging up ends B's session only: the node reaps it (its
    // handler sees the close asynchronously, hence the poll) and A's
    // connection keeps answering.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = a.stats().unwrap();
        if stats.contains(&"server sessions_active 1".to_string()) {
            assert!(stats.contains(&"server sessions_started 2".to_string()));
            break;
        }
        assert!(Instant::now() < deadline, "B never reaped: {stats:?}");
        thread::sleep(Duration::from_millis(5));
    }

    drop(a);
    stop(&addr, server);
}

#[test]
fn a_query_behind_a_big_frame_is_not_held_for_a_delayed_ack() {
    let scenario = quick_scenario();
    let (addr, server) = boot(&scenario);
    let mut client = MosaicClient::connect(&addr, Wire::Binary).unwrap();
    client.begin(0, 2000).unwrap();

    // 400 transactions = a 13 KiB frame: more than the client's 8 KiB
    // write buffer, so frame and query leave as several writes. With
    // Nagle on, the last one waits out the peer's 40 ms delayed-ACK
    // timer on every round.
    let mut rounds: Vec<Duration> = (0..9u64)
        .map(|round| {
            let block: Vec<_> = (0..400).map(|i| tx(round * 400 + i, round)).collect();
            client.ingest_block(&block).unwrap();
            let asked = Instant::now();
            client.stats().unwrap();
            asked.elapsed()
        })
        .collect();
    rounds.sort();
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?}; all: {rounds:?}"
    );

    drop(client);
    stop(&addr, server);
}
