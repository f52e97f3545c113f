//! [`MosaicClient`] — the typed client library for a `mosaic-node`
//! service.
//!
//! One client owns one connection and therefore one server-side session
//! (the node gives every connection its own
//! [`NodeSession`](crate::session::NodeSession)); `LOOKUP`/`LOAD`/`CSV`
//! answer about *this* connection's run, so queries must travel on the
//! connection that streamed the transactions. The client is
//! codec-generic: pass [`Wire::Line`] or [`Wire::Binary`] to
//! [`MosaicClient::connect`] and every method speaks that encoding — a
//! binary client performs the version hello before the first request
//! and fails fast on a version-skewed node.
//!
//! Transaction traffic ([`MosaicClient::ingest_block`]) is buffered
//! fire-and-forget: nothing is flushed until the next reply-carrying
//! request, so a replay stream is never round-trip-bound. On the binary
//! wire a whole block travels as one `TX` batch frame.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use mosaic_types::{AccountId, Error, Result, Transaction};

use crate::proto::{Request, Response};
use crate::wire::{self, Wire};

/// A typed connection to a `mosaic-node` service, generic over the
/// [`Wire`] codec.
pub struct MosaicClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    wire: Wire,
}

impl MosaicClient {
    /// Connects to the node at `addr` (`host:port`) speaking `wire`.
    /// A [`Wire::Binary`] connect performs the `MOSB` version hello;
    /// [`Wire::Line`] connects silently (byte-compatible with `nc`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on connection failure or a rejected /
    /// mismatched binary hello.
    pub fn connect(addr: &str, wire: Wire) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| io_error(addr, &e))?;
        // The writer flushes exactly where a reply is awaited; a frame
        // larger than its buffer followed by a query leaves as several
        // writes, and Nagle would hold the last one for a delayed ACK.
        stream.set_nodelay(true).map_err(|e| io_error(addr, &e))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| io_error(addr, &e))?);
        let mut writer = BufWriter::new(stream);
        if wire == Wire::Binary {
            wire::client_hello(&mut writer, &mut reader).map_err(|e| io_error(addr, &e))?;
        }
        Ok(MosaicClient {
            reader,
            writer,
            wire,
        })
    }

    /// The codec this connection speaks.
    pub fn wire(&self) -> Wire {
        self.wire
    }

    /// Sends `request` and waits for its reply. Not for fire-and-forget
    /// traffic — use [`MosaicClient::ingest_block`] for transactions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure or a malformed reply.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        self.wire
            .write_request(&mut self.writer, request)
            .and_then(|()| self.writer.flush())
            .and_then(|()| self.wire.read_response(&mut self.reader))
            .map_err(|e| io_error("<node>", &e))
    }

    /// Sends `request` and unwraps an `OK` reply into its detail text,
    /// turning `ERR` replies (and any other reply shape) into
    /// [`Error::Io`].
    fn expect_ok(&mut self, request: &Request) -> Result<String> {
        match self.request(request)? {
            Response::Ok(detail) => Ok(detail),
            Response::Error(message) => Err(protocol_error(message)),
            other => Err(protocol_error(format!("unexpected reply {other:?}"))),
        }
    }

    /// Starts (or restarts) a stream for cell `cell` spanning `blocks`
    /// blocks. Returns the node's confirmation detail (cell + strategy).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure or a node-side `ERR`
    /// (out-of-range cell, invalid span).
    pub fn begin(&mut self, cell: usize, blocks: u64) -> Result<String> {
        self.expect_ok(&Request::Begin { cell, blocks })
    }

    /// Queues a block's worth of transactions — one batch frame on the
    /// binary wire, plain `TX` lines on the line wire (fire-and-forget;
    /// buffered, not flushed — the next reply-carrying request flushes
    /// before it waits).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure.
    pub fn ingest_block(&mut self, txs: &[Transaction]) -> Result<()> {
        self.wire
            .write_tx_batch(&mut self.writer, txs)
            .map_err(|e| io_error("<node>", &e))
    }

    /// Ends the stream: remaining epochs are processed and the node's
    /// epoch-count detail returned (or the first deferred `TX` error).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure or a node-side `ERR`.
    pub fn end(&mut self) -> Result<String> {
        self.expect_ok(&Request::End)
    }

    /// Asks which shard currently holds `account` in this session's run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure or when no allocation
    /// exists yet (the node's `ERR` message explains).
    pub fn lookup(&mut self, account: AccountId) -> Result<u16> {
        match self.request(&Request::Lookup(account))? {
            Response::Shard(shard) => Ok(shard),
            Response::Error(message) => Err(protocol_error(message)),
            other => Err(protocol_error(format!("unexpected LOOKUP reply {other:?}"))),
        }
    }

    /// Fetches the per-shard load report after the last processed epoch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure or when no epoch has been
    /// processed yet.
    pub fn load(&mut self) -> Result<Vec<String>> {
        match self.request(&Request::Load)? {
            Response::Load(lines) => Ok(lines),
            Response::Error(message) => Err(protocol_error(message)),
            other => Err(protocol_error(format!("unexpected LOAD reply {other:?}"))),
        }
    }

    /// Fetches this session's per-epoch CSV (header included, trailing
    /// newline), byte-identical to the offline runner's file for the
    /// same cell.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure or when no run is active.
    pub fn csv(&mut self) -> Result<String> {
        match self.request(&Request::Csv)? {
            Response::Csv(lines) => {
                let mut csv = lines.join("\n");
                csv.push('\n');
                Ok(csv)
            }
            Response::Error(message) => Err(protocol_error(message)),
            other => Err(protocol_error(format!("unexpected CSV reply {other:?}"))),
        }
    }

    /// Fetches the telemetry snapshot: this connection's session
    /// counters plus the server-wide aggregate. Answers even before
    /// `BEGIN`; with telemetry off the first line says `telemetry off`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure or an unexpected reply.
    pub fn stats(&mut self) -> Result<Vec<String>> {
        match self.request(&Request::Stats)? {
            Response::Stats(lines) => Ok(lines),
            Response::Error(message) => Err(protocol_error(message)),
            other => Err(protocol_error(format!("unexpected STATS reply {other:?}"))),
        }
    }

    /// Asks the node to stop accepting connections (acknowledged before
    /// the node begins draining).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failure.
    pub fn shutdown(&mut self) -> Result<()> {
        self.expect_ok(&Request::Shutdown).map(|_| ())
    }
}

fn io_error(path: &str, e: &std::io::Error) -> Error {
    Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

pub(crate) fn protocol_error(message: String) -> Error {
    Error::Io {
        path: "<node>".to_string(),
        message,
    }
}
