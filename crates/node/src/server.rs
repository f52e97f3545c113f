//! The TCP service: one thread per connection, and that thread *is*
//! the connection's session.
//!
//! Each accepted connection negotiates its codec ([`crate::wire`]) from
//! the first bytes — a `MOSB` hello selects the binary frame protocol,
//! anything else is a line-mode session — and then owns a private
//! [`NodeSession`], built on the handler thread when the connection's
//! first request arrives (for a replay client, its `BEGIN`; a probe
//! that connects and closes builds none). The handler decodes a
//! request, applies it, writes the reply if one is owed, and only then
//! decodes the next. N clients therefore replay N scenarios
//! concurrently with full per-session isolation: the only state two
//! handlers share is the read-only scenario and the [`ServerStats`]
//! registry.
//!
//! Backpressure is the socket's: a handler busy applying an epoch is
//! not reading, so the connection's receive window fills and the
//! client's writes block — nothing is buffered between decode and
//! apply. Transaction traffic gets no reply, so a replay stream is
//! never round-trip-bound. The session is built and dropped on the one
//! thread that uses it, so `Box<dyn EpochStrategy>` never crosses
//! threads and strategy implementations need no `Send` bound.
//!
//! A panic inside [`NodeSession::apply`] (a strategy blowing up
//! mid-epoch) is caught on the handler: it is logged, the client is
//! told `ERR session failed; see node log`, and that connection
//! closes. No other session shares state with it.
//!
//! Shutdown: a `SHUTDOWN` request flips a shared flag and pokes the
//! listener with a loopback connection so the accept loop observes the
//! flag; [`serve`] then joins every handler thread — each returns when
//! its client closes the connection — before returning.

use std::io::{self, BufRead, BufReader, BufWriter, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use mosaic_sim::{RunTarget, Scenario};
use mosaic_types::{Error, Result};

use crate::proto::{Request, Response};
use crate::session::NodeSession;
use crate::stats::ServerStats;
use crate::wire::{self, Incoming, Negotiated, Wire};

/// What every connection handler shares with the accept loop.
struct Server {
    scenario: Scenario,
    /// The telemetry root: per-session recorders plus the server-wide
    /// aggregate behind `STATS`. Also hands out session ids.
    stats: Arc<ServerStats>,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// Serves `scenario` on `listener` until a client sends `SHUTDOWN`,
/// with telemetry on. Every connection gets its own [`NodeSession`] and
/// may speak either codec (negotiated from its first bytes).
///
/// # Errors
///
/// Returns scenario validation errors up front (before any client can
/// connect) and [`Error::Io`] on listener failures.
pub fn serve(listener: TcpListener, scenario: Scenario) -> Result<()> {
    serve_with_telemetry(listener, scenario, true)
}

/// [`serve`] with an explicit telemetry switch (`mosaic-node serve
/// --telemetry off`). When on, the server-wide recorder is installed as
/// the process-wide default; when off, every recorder is a no-op and
/// `STATS` replies say so.
///
/// # Errors
///
/// Everything [`serve`] returns.
pub fn serve_with_telemetry(
    listener: TcpListener,
    scenario: Scenario,
    telemetry: bool,
) -> Result<()> {
    // Fail fast on an invalid spec — NodeSession::with_stats
    // re-validates, but only on a handler thread, where the error could
    // no longer be returned to the caller.
    scenario.cells_for(RunTarget::Node)?;
    let addr = listener
        .local_addr()
        .map_err(|e| io_error("<listener>", &e))?;
    let stats = ServerStats::new(telemetry);
    if telemetry {
        mosaic_telemetry::install_global(stats.recorder().clone());
    }
    let server = Arc::new(Server {
        scenario,
        stats,
        stop: AtomicBool::new(false),
        addr,
    });

    let mut handlers = Vec::new();
    for incoming in listener.incoming() {
        if server.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(e) => return Err(io_error(&addr.to_string(), &e)),
        };
        let server = Arc::clone(&server);
        handlers.push(thread::spawn(move || {
            // A connection dying mid-request only ends that connection
            // (and its private session).
            let _ = handle_connection(stream, &server);
        }));
    }

    for handler in handlers {
        let _ = handler.join();
    }
    Ok(())
}

fn handle_connection(stream: TcpStream, server: &Server) -> io::Result<()> {
    // A reply is one flush; never let Nagle hold it back for an ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let (wire, prefix) = match wire::accept_hello(&mut reader)? {
        Negotiated::Binary => {
            wire::write_server_hello(&mut writer, wire::VERSION)?;
            (Wire::Binary, Vec::new())
        }
        Negotiated::Unsupported(version) => {
            // Answer with "accepted version 0" (= rejection) and close;
            // the client reports the skew to its user.
            eprintln!(
                "mosaic-node: rejecting binary hello at unsupported version {version} \
                 (this build speaks {})",
                wire::VERSION
            );
            return wire::write_server_hello(&mut writer, 0);
        }
        Negotiated::Line(prefix) => (Wire::Line, prefix),
    };
    // Replay the sniff bytes a line session consumed ahead of the
    // stream. The chain of two BufReads is itself BufRead, so the
    // codec sees one seamless stream.
    run_session(Cursor::new(prefix).chain(reader), writer, wire, server)
}

/// One connection's read → apply → reply loop, on the caller's thread.
/// Returns when the peer closes (`Ok`), after `SHUTDOWN`, after a
/// contained session panic, or with the I/O error that broke the
/// stream; the session, if one was built, is dropped (and so folded
/// into the server aggregate) on every path.
fn run_session(
    mut reader: impl BufRead,
    mut writer: impl Write,
    wire: Wire,
    server: &Server,
) -> io::Result<()> {
    // Built lazily at the first request so probe connections (port
    // checks, monitoring dials) never cost a session.
    let mut session: Option<NodeSession> = None;
    let timed = server.stats.enabled();
    while let Some((incoming, decode)) = wire.read_timed(&mut reader, timed)? {
        let session = session.get_or_insert_with(|| {
            NodeSession::with_stats(server.scenario.clone(), &server.stats)
                .expect("scenario pre-validated by serve")
        });
        if let Some(elapsed) = decode {
            session.record_decode(elapsed);
        }
        let is_shutdown = matches!(incoming, Incoming::Request(Request::Shutdown));
        let reply = match incoming {
            Incoming::Request(request) => {
                match catch_unwind(AssertUnwindSafe(|| session.apply(request))) {
                    Ok(reply) => reply,
                    Err(_) => {
                        eprintln!(
                            "mosaic-node: session {} panicked; its connection is closed",
                            session.id()
                        );
                        let failed = Response::Error("session failed; see node log".to_string());
                        let _ = wire.write_response(&mut writer, &failed);
                        let _ = writer.flush();
                        return Ok(());
                    }
                }
            }
            Incoming::Malformed {
                message,
                fire_and_forget: true,
            } => {
                session.defer(message);
                None
            }
            Incoming::Malformed { message, .. } => Some(Response::Error(message)),
        };
        if let Some(response) = reply {
            wire.write_response(&mut writer, &response)?;
            writer.flush()?;
        }
        if is_shutdown {
            server.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(server.addr);
            break;
        }
    }
    Ok(())
}

fn io_error(path: &str, e: &io::Error) -> Error {
    Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_types::{AccountId, BlockHeight, Transaction, TxId};
    use Wire::{Binary, Line};

    /// A peer that has gone away: every write fails.
    struct Gone;

    impl Write for Gone {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    /// `BEGIN` cell 0, then one block of five transactions.
    fn begin_and_five_txs() -> [Request; 2] {
        let txs = (0..5)
            .map(|i| {
                Transaction::new(
                    TxId::new(i),
                    AccountId::new(1),
                    AccountId::new(2),
                    BlockHeight::new(0),
                )
            })
            .collect();
        let begin = Request::Begin {
            cell: 0,
            blocks: 2000,
        };
        [begin, Request::TxBatch(txs)]
    }

    fn server() -> Server {
        Server {
            scenario: crate::quick(),
            stats: ServerStats::new(true),
            stop: AtomicBool::new(false),
            addr: ([127, 0, 0, 1], 0).into(),
        }
    }

    fn encode(wire: Wire, requests: &[Request]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for request in requests {
            wire.write_request(&mut bytes, request).unwrap();
        }
        bytes
    }

    /// `run_session` over in-memory streams: however a connection ends,
    /// the loop returns (cleanly or with the typed I/O error), and the
    /// session it built — none for a probe — is deregistered with its
    /// counters folded into the server aggregate.
    #[test]
    fn a_connection_that_ends_anywhere_leaves_no_session_behind() {
        let stream = begin_and_five_txs();
        let (line, binary) = (encode(Line, &stream), encode(Binary, &stream));
        let cut = |bytes: &[u8], by: usize| bytes[..bytes.len() - by].to_vec();
        let eof = Err(io::ErrorKind::UnexpectedEof);
        let gone = Err(io::ErrorKind::BrokenPipe);

        // (case, wire, client bytes, peer still reading, outcome,
        //  sessions started, transactions ingested)
        #[rustfmt::skip]
        let table = [
            ("probe", Line, vec![], true, Ok(()), 0, 0),
            ("probe", Binary, vec![], true, Ok(()), 0, 0),
            ("mid-header, first frame", Binary, vec![9, 0], true, eof, 0, 0),
            ("mid-header", Binary, [&binary[..], &[9, 0]].concat(), true, eof, 1, 5),
            ("mid-body", Binary, cut(&binary, 7), true, eof, 1, 0),
            // A line cut short still parses or fails as a line: the
            // last TX loses its kind and is deferred, not ingested.
            ("mid-line", Line, cut(&line, 9), true, Ok(()), 1, 4),
            ("after TX, before END", Line, line.clone(), true, Ok(()), 1, 5),
            ("after TX, before END", Binary, binary.clone(), true, Ok(()), 1, 5),
            ("reply never read", Line, line, false, gone, 1, 0),
            ("reply never read", Binary, binary, false, gone, 1, 0),
        ];
        for (case, wire, bytes, peer_reads, outcome, started, ingested) in table {
            let server = server();
            let mut replies = Vec::new();
            let result = if peer_reads {
                run_session(&bytes[..], &mut replies, wire, &server)
            } else {
                run_session(&bytes[..], Gone, wire, &server)
            };
            let case = format!("{case} ({wire} wire)");
            assert_eq!(result.map_err(|e| e.kind()), outcome, "{case}");
            assert_eq!(server.stats.sessions_started(), started, "{case}");
            assert_eq!(server.stats.sessions_active(), 0, "{case}");
            if started == 0 {
                continue;
            }
            if peer_reads {
                let reply = wire.read_response(&mut &replies[..]).unwrap();
                assert!(matches!(reply, Response::Ok(_)), "{case}: {reply:?}");
            }
            let aggregate = server.stats.stats_lines(None);
            let counted = format!("server counter core.txs_ingested {ingested}");
            assert!(aggregate.contains(&counted), "{case}: {aggregate:?}");
        }
    }

    /// Every decoded request is one `node.wire` observation on the
    /// session's recorder, and `STATS` shows them: here a `BEGIN`, five
    /// `TX` lines read as one batch, and the `STATS` itself.
    #[test]
    fn stats_show_the_sessions_wire_decodes() {
        let server = server();
        let mut bytes = encode(Line, &begin_and_five_txs());
        bytes.extend_from_slice(b"STATS\n");
        let mut replies = Vec::new();
        run_session(&bytes[..], &mut replies, Line, &server).unwrap();
        let mut replies = &replies[..];
        let begun = Line.read_response(&mut replies).unwrap();
        assert!(matches!(begun, Response::Ok(_)), "{begun:?}");
        let Response::Stats(lines) = Line.read_response(&mut replies).unwrap() else {
            panic!("STATS must answer");
        };
        assert!(
            lines.iter().any(|l| l.starts_with("hist node.wire 3 ")),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"counter core.txs_ingested 5".to_string()),
            "{lines:?}"
        );
    }
}
