//! The codec layer: one typed protocol ([`Request`] / [`Response`]),
//! two interchangeable wire encodings.
//!
//! [`Wire::Line`] is the original human-speakable form — one ASCII line
//! per message, byte-compatible with the first node protocol, still
//! right for `nc` debugging. Its hot lines cost no allocation either
//! way: a `TX` line is rendered on the stack (`TxLine`), and the
//! reader parses canonical `TX` and `LOOKUP` lines where they lie in
//! its buffer, handing a buffered run of `TX` lines to the session as
//! one [`Request::TxBatch`] (one core call per run, not per line). A
//! canonical line that a buffer refill splits is read whole and decoded
//! the same way, a `TX` line as the start of the next batch. Any other
//! line — a near miss, a blank, an unknown verb — goes through
//! [`Request::parse`], so what the wire accepts, and every error it
//! reports, is defined there alone.
//!
//! [`Wire::Binary`] is a length-prefixed frame format for ingest-rate
//! traffic: every message is
//!
//! ```text
//! [u32 LE frame length] [u8 tag] [payload …]
//! ```
//!
//! where the length covers tag + payload. Integers are little-endian;
//! strings are `u32` length + UTF-8 bytes; a transaction is a fixed
//! 33-byte record (`id`, `block`, `from`, `to` as `u64`, kind byte).
//! The [`Request::TxBatch`] frame carries a whole block of transactions
//! behind a single length check.
//!
//! # Version negotiation
//!
//! A binary client opens the connection with a 5-byte hello —
//! [`MAGIC`] (`"MOSB"`) + version byte — and the server answers with
//! the same magic + the accepted version ([`VERSION`]), or magic + `0`
//! if it cannot speak the client's version. A connection that starts
//! with anything else is a line-mode session: no request verb begins
//! with `M`, so the first bytes disambiguate and the already-consumed
//! prefix is replayed into the line reader. Line mode therefore needs
//! no hello and stays byte-compatible for existing clients.

use std::io::{self, BufRead, Read, Write};
use std::str::FromStr;
use std::time::{Duration, Instant};

use mosaic_types::{AccountId, BlockHeight, Transaction, TxId, TxKind};

use crate::proto::{parse_canonical, Request, Response, TxLine};

/// The binary hello's magic bytes (`"MOSB"`).
pub const MAGIC: [u8; 4] = *b"MOSB";
/// The one binary protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Upper bound on one frame's length — a corrupt or hostile length
/// prefix must not translate into an unbounded allocation.
const MAX_FRAME: usize = 64 << 20;

/// What a frame's buffer may reserve on the strength of its length
/// prefix alone; beyond this it grows only as payload bytes arrive.
const FRAME_RESERVE: usize = 64 << 10;

/// Upper bound on one line-mode message, newline included. The longest
/// well-formed request (a `TX` line of four 20-digit fields and a kind)
/// is under 128 bytes.
const MAX_LINE: usize = 4 << 10;

/// Bytes of one fixed-width transaction record.
const TX_BYTES: usize = 33;

// Request tags (client → node).
const TAG_BEGIN: u8 = 1;
const TAG_TX: u8 = 2;
const TAG_TX_BATCH: u8 = 3;
const TAG_END: u8 = 4;
const TAG_LOOKUP: u8 = 5;
const TAG_LOAD: u8 = 6;
const TAG_CSV: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_STATS: u8 = 9;

// Response tags (node → client).
const TAG_OK: u8 = 1;
const TAG_ERROR: u8 = 2;
const TAG_SHARD: u8 = 3;
const TAG_RESP_LOAD: u8 = 4;
const TAG_RESP_CSV: u8 = 5;
const TAG_RESP_STATS: u8 = 6;

/// Which encoding a connection speaks. Copyable so both endpoints can
/// thread it through their read/write paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wire {
    /// One ASCII line per message ([`Request::encode`] /
    /// [`Response::write_to`]) — `nc`-friendly, byte-compatible with
    /// the original protocol.
    Line,
    /// Length-prefixed binary frames with batched `TX` blocks (the
    /// default for programmatic clients).
    #[default]
    Binary,
}

impl Wire {
    /// The token used on CLI flags and in `BENCH_node.json` entries.
    pub fn token(self) -> &'static str {
        match self {
            Wire::Line => "line",
            Wire::Binary => "binary",
        }
    }
}

impl std::fmt::Display for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for Wire {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "line" => Ok(Wire::Line),
            "binary" => Ok(Wire::Binary),
            other => Err(format!("unknown wire {other:?}; valid: line, binary")),
        }
    }
}

/// One decoded unit of client input, as the server's read loop sees it.
///
/// Malformed input is data, not an I/O failure: the framing survives it
/// (a line ends at its newline, a binary frame at its length prefix),
/// so the connection keeps going. The server answers `Malformed` with
/// an immediate `ERR` — unless the input was fire-and-forget transaction
/// traffic, whose errors defer to `END` like any ingestion error.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A well-formed request.
    Request(Request),
    /// Input that did not decode into a request.
    Malformed {
        /// Human-readable description of what was wrong.
        message: String,
        /// `true` when the input was transaction traffic (a `TX` line
        /// or a `TX`/`TX_BATCH` frame), which never gets a direct
        /// reply: the error is deferred to the `END` reply instead.
        fire_and_forget: bool,
    },
}

impl Wire {
    /// Writes one request in this encoding. Buffered but not flushed —
    /// the caller decides where the round-trip boundaries are.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn write_request(self, out: &mut impl Write, request: &Request) -> io::Result<()> {
        if let Request::TxBatch(txs) = request {
            return self.write_tx_batch(out, txs);
        }
        match self {
            Wire::Line => match request {
                Request::Tx(tx) => out.write_all(TxLine::new(tx).as_bytes()),
                _ => writeln!(out, "{}", request.encode()),
            },
            Wire::Binary => {
                let mut frame = Vec::with_capacity(64);
                match request {
                    Request::Begin { cell, blocks } => {
                        frame.push(TAG_BEGIN);
                        put_u64(&mut frame, *cell as u64);
                        put_u64(&mut frame, *blocks);
                    }
                    Request::Tx(tx) => {
                        frame.push(TAG_TX);
                        put_tx(&mut frame, tx);
                    }
                    Request::TxBatch(_) => unreachable!("handled above"),
                    Request::End => frame.push(TAG_END),
                    Request::Lookup(account) => {
                        frame.push(TAG_LOOKUP);
                        put_u64(&mut frame, account.as_u64());
                    }
                    Request::Load => frame.push(TAG_LOAD),
                    Request::Csv => frame.push(TAG_CSV),
                    Request::Stats => frame.push(TAG_STATS),
                    Request::Shutdown => frame.push(TAG_SHUTDOWN),
                }
                write_frame(out, &frame)
            }
        }
    }

    /// Writes a block of transactions without materialising a
    /// [`Request::TxBatch`]: one frame on the binary wire, one `TX`
    /// line each on the line wire. Fire-and-forget either way.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn write_tx_batch(self, out: &mut impl Write, txs: &[Transaction]) -> io::Result<()> {
        match self {
            Wire::Line => {
                for tx in txs {
                    out.write_all(TxLine::new(tx).as_bytes())?;
                }
                Ok(())
            }
            Wire::Binary => {
                let mut frame = Vec::with_capacity(5 + txs.len() * TX_BYTES);
                frame.push(TAG_TX_BATCH);
                put_u32(&mut frame, txs.len() as u32);
                for tx in txs {
                    put_tx(&mut frame, tx);
                }
                write_frame(out, &frame)
            }
        }
    }

    /// Reads the next unit of client input. `Ok(None)` is a clean end
    /// of stream (the peer closed between messages). On the line wire,
    /// the canonical `TX` lines already buffered behind a first one come
    /// back together as one [`Request::TxBatch`]; waiting on the peer
    /// happens only when the buffer is empty, or inside a line that has
    /// not fully arrived.
    ///
    /// # Errors
    ///
    /// I/O errors, a stream ending mid-frame, an oversized or empty
    /// binary frame, an over-long line, or an unknown frame tag
    /// (version skew) — the framing can no longer be trusted, so these
    /// are fatal rather than a recoverable [`Incoming::Malformed`].
    pub fn read_request(self, input: &mut impl BufRead) -> io::Result<Option<Incoming>> {
        Ok(self.read_timed(input, false)?.map(|(incoming, _)| incoming))
    }

    /// [`Wire::read_request`], also returning — when `timed` — how long
    /// decoding took: from the last moment the reader held the bytes it
    /// decoded (after the last read that could wait on the peer) to the
    /// request. The server records it as the session's `node.wire` span.
    pub(crate) fn read_timed(
        self,
        input: &mut impl BufRead,
        timed: bool,
    ) -> io::Result<Option<(Incoming, Option<Duration>)>> {
        match self {
            Wire::Line => read_line_request(input, timed),
            Wire::Binary => {
                let Some(frame) = read_frame(input)? else {
                    return Ok(None);
                };
                let clock = timed.then(Instant::now);
                let incoming = decode_request(&frame)?;
                Ok(Some((incoming, clock.map(|c| c.elapsed()))))
            }
        }
    }

    /// Writes one response in this encoding and leaves flushing to the
    /// caller.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn write_response(self, out: &mut impl Write, response: &Response) -> io::Result<()> {
        match self {
            Wire::Line => response.write_to(out),
            Wire::Binary => {
                let mut frame = Vec::with_capacity(64);
                match response {
                    Response::Ok(detail) => {
                        frame.push(TAG_OK);
                        put_str(&mut frame, detail);
                    }
                    Response::Error(message) => {
                        frame.push(TAG_ERROR);
                        put_str(&mut frame, message);
                    }
                    Response::Shard(shard) => {
                        frame.push(TAG_SHARD);
                        frame.extend_from_slice(&shard.to_le_bytes());
                    }
                    Response::Load(lines) => {
                        frame.push(TAG_RESP_LOAD);
                        put_lines(&mut frame, lines);
                    }
                    Response::Csv(lines) => {
                        frame.push(TAG_RESP_CSV);
                        put_lines(&mut frame, lines);
                    }
                    Response::Stats(lines) => {
                        frame.push(TAG_RESP_STATS);
                        put_lines(&mut frame, lines);
                    }
                }
                write_frame(out, &frame)
            }
        }
    }

    /// Reads one response off the wire. A response is always owed when
    /// this is called, so end-of-stream is an error, not `None`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] if the stream ends first and
    /// [`io::ErrorKind::InvalidData`] on a malformed response.
    pub fn read_response(self, input: &mut impl BufRead) -> io::Result<Response> {
        match self {
            Wire::Line => Response::read_from(input),
            Wire::Binary => {
                let frame = read_frame(input)?.ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed while a response was owed",
                    )
                })?;
                decode_response(&frame)
            }
        }
    }
}

/// The line wire's reader. Canonical lines ([`parse_canonical`]) are
/// decoded where they lie in `input`'s buffer, after one `fill_buf`
/// (which waits on the peer only when the buffer is empty): a `LOOKUP`
/// line comes back alone, a `TX` line with every canonical `TX` line
/// after it in the buffer as one [`Request::TxBatch`], so the session
/// ingests the run in one call. The run stops before the first line it
/// does not take, complete or not, and consumes no part of it.
///
/// Any other line is read whole, across refills, as `read_line` would
/// (at most [`MAX_LINE`] bytes): a canonical `TX` line that the buffer's
/// end split goes on as the start of a batch, which takes the canonical
/// `TX` lines the refill brought along, and a canonical `LOOKUP` comes
/// back as itself. Every other line goes to [`Request::parse`]; a blank
/// one is skipped.
fn read_line_request(
    input: &mut impl BufRead,
    timed: bool,
) -> io::Result<Option<(Incoming, Option<Duration>)>> {
    loop {
        let buffered = input.fill_buf()?;
        let clock = timed.then(Instant::now);
        if let Some((first, len)) = parse_canonical(buffered) {
            let (request, used) = match first {
                Request::Tx(tx) => {
                    let mut txs = vec![tx];
                    let used = len + extend_run(&buffered[len..], &mut txs);
                    (Request::TxBatch(txs), used)
                }
                lookup => (lookup, len),
            };
            input.consume(used);
            return Ok(Some((
                Incoming::Request(request),
                clock.map(|c| c.elapsed()),
            )));
        }
        let (line, rest) = read_whole_line(input)?;
        if line.is_empty() {
            return Ok(None);
        }
        let clock = timed.then(Instant::now);
        let incoming = match parse_canonical(&line) {
            Some((Request::Tx(tx), len)) if len == line.len() => {
                let mut txs = vec![tx];
                if rest > 0 {
                    // Still buffered, so this reads nothing.
                    let used = extend_run(input.fill_buf()?, &mut txs);
                    input.consume(used);
                }
                Incoming::Request(Request::TxBatch(txs))
            }
            Some((lookup, len)) if len == line.len() => Incoming::Request(lookup),
            _ => match parse_line(line)? {
                Some(incoming) => incoming,
                None => continue,
            },
        };
        return Ok(Some((incoming, clock.map(|c| c.elapsed()))));
    }
}

/// Appends the canonical `TX` lines at the start of `bytes` to `txs` and
/// returns their length.
fn extend_run(bytes: &[u8], txs: &mut Vec<Transaction>) -> usize {
    let mut used = 0;
    while let Some((Request::Tx(tx), len)) = parse_canonical(&bytes[used..]) {
        txs.push(tx);
        used += len;
    }
    used
}

/// Reads the next line through its newline, the end of the stream or
/// [`MAX_LINE`] bytes, whichever comes first, and returns it with the
/// bytes still buffered after it (0 unless it ended in a newline).
fn read_whole_line(input: &mut impl BufRead) -> io::Result<(Vec<u8>, usize)> {
    let mut line = Vec::new();
    loop {
        let buffered = input.fill_buf()?;
        let room = &buffered[..buffered.len().min(MAX_LINE - line.len())];
        match room.iter().position(|&b| b == b'\n') {
            Some(at) => {
                line.extend_from_slice(&room[..=at]);
                let rest = buffered.len() - at - 1;
                input.consume(at + 1);
                return Ok((line, rest));
            }
            None => {
                let taken = room.len();
                line.extend_from_slice(room);
                input.consume(taken);
                if taken == 0 || line.len() == MAX_LINE {
                    return Ok((line, 0));
                }
            }
        }
    }
}

/// Decodes one line the general way: it must be UTF-8 and end within
/// [`MAX_LINE`] bytes, and its trimmed text goes to [`Request::parse`].
/// `None` for a blank line.
fn parse_line(line: Vec<u8>) -> io::Result<Option<Incoming>> {
    let line = String::from_utf8(line)
        .map_err(|_| invalid("stream did not contain valid UTF-8".to_string()))?;
    if line.len() == MAX_LINE && !line.ends_with('\n') {
        return Err(invalid(format!(
            "request line exceeds the {MAX_LINE}-byte cap"
        )));
    }
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    Ok(Some(match Request::parse(line) {
        Ok(request) => Incoming::Request(request),
        Err(message) => Incoming::Malformed {
            message,
            fire_and_forget: !Request::line_expects_reply(line),
        },
    }))
}

/// What the server learned from a connection's first bytes.
pub(crate) enum Negotiated {
    /// A line-mode session; the consumed prefix bytes must be replayed
    /// ahead of the stream (empty for an immediate end of stream).
    Line(Vec<u8>),
    /// A binary session at [`VERSION`]; the hello has been consumed and
    /// the server still owes its hello reply.
    Binary,
    /// A binary hello carrying a version this build cannot speak.
    Unsupported(u8),
}

/// Classifies a fresh connection by its opening bytes (see the module
/// docs): a binary hello, an unsupported binary version, or line mode
/// with the consumed prefix to replay.
pub(crate) fn accept_hello(reader: &mut impl Read) -> io::Result<Negotiated> {
    let mut first = [0u8; 1];
    if reader.read(&mut first)? == 0 {
        return Ok(Negotiated::Line(Vec::new()));
    }
    if first[0] != MAGIC[0] {
        return Ok(Negotiated::Line(first.to_vec()));
    }
    // 'M' can only start a binary hello (no request verb uses it), so
    // blocking for the remaining 4 bytes cannot starve a line client.
    let mut rest = [0u8; 4];
    reader.read_exact(&mut rest)?;
    if rest[..3] == MAGIC[1..] {
        if rest[3] == VERSION {
            Ok(Negotiated::Binary)
        } else {
            Ok(Negotiated::Unsupported(rest[3]))
        }
    } else {
        let mut prefix = first.to_vec();
        prefix.extend_from_slice(&rest);
        Ok(Negotiated::Line(prefix))
    }
}

/// The server's half of the hello: magic + the version it accepts
/// (`0` = rejection, after which the server closes the connection).
pub(crate) fn write_server_hello(writer: &mut impl Write, version: u8) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&[version])?;
    writer.flush()
}

/// Performs the client's half of the binary hello and checks the
/// server's answer.
pub(crate) fn client_hello(writer: &mut impl Write, reader: &mut impl Read) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&[VERSION])?;
    writer.flush()?;
    let mut hello = [0u8; 5];
    reader.read_exact(&mut hello)?;
    if hello[..4] != MAGIC {
        return Err(invalid(
            "node did not answer the binary hello (line-mode-only peer?)".to_string(),
        ));
    }
    match hello[4] {
        VERSION => Ok(()),
        0 => Err(invalid(format!(
            "node rejected binary protocol version {VERSION}"
        ))),
        other => Err(invalid(format!(
            "node negotiated unsupported binary protocol version {other}"
        ))),
    }
}

fn write_frame(out: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    out.write_all(&(frame.len() as u32).to_le_bytes())?;
    out.write_all(frame)
}

/// Reads one length-prefixed frame; `None` on a clean end of stream at
/// a frame boundary.
fn read_frame(input: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match input.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 {
        return Err(invalid("empty binary frame".to_string()));
    }
    if len > MAX_FRAME {
        return Err(invalid(format!(
            "binary frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut frame = Vec::with_capacity(len.min(FRAME_RESERVE));
    if input.take(len as u64).read_to_end(&mut frame)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Ok(Some(frame))
}

fn decode_request(frame: &[u8]) -> io::Result<Incoming> {
    let (tag, payload) = (frame[0], &frame[1..]);
    let fire_and_forget = tag == TAG_TX || tag == TAG_TX_BATCH;
    let mut r = Reader::new(payload);
    let decoded = (|| -> Result<Request, String> {
        let request = match tag {
            TAG_BEGIN => Request::Begin {
                cell: r.u64("cell index")? as usize,
                blocks: r.u64("block count")?,
            },
            TAG_TX => Request::Tx(r.tx()?),
            TAG_TX_BATCH => {
                let count = r.u32("batch count")? as usize;
                if count.saturating_mul(TX_BYTES) != r.remaining() {
                    return Err(format!(
                        "TX batch claims {count} transactions but carries {} payload bytes",
                        r.remaining()
                    ));
                }
                let mut txs = Vec::with_capacity(count);
                for _ in 0..count {
                    txs.push(r.tx()?);
                }
                Request::TxBatch(txs)
            }
            TAG_END => Request::End,
            TAG_LOOKUP => Request::Lookup(AccountId::new(r.u64("account id")?)),
            TAG_LOAD => Request::Load,
            TAG_CSV => Request::Csv,
            TAG_STATS => Request::Stats,
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(format!("unknown request frame tag {other}")),
        };
        if r.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after request frame tag {tag}",
                r.remaining()
            ));
        }
        Ok(request)
    })();
    match decoded {
        Ok(request) => Ok(Incoming::Request(request)),
        // An unknown tag means version skew: the payload layout (and so
        // the reply discipline) is unknowable, so fail the connection.
        Err(message) if !known_request_tag(tag) => Err(invalid(message)),
        Err(message) => Ok(Incoming::Malformed {
            message,
            fire_and_forget,
        }),
    }
}

fn known_request_tag(tag: u8) -> bool {
    (TAG_BEGIN..=TAG_STATS).contains(&tag)
}

fn decode_response(frame: &[u8]) -> io::Result<Response> {
    let (tag, payload) = (frame[0], &frame[1..]);
    let mut r = Reader::new(payload);
    let response = match tag {
        TAG_OK => Response::Ok(r.str("OK detail").map_err(invalid)?),
        TAG_ERROR => Response::Error(r.str("ERR message").map_err(invalid)?),
        TAG_SHARD => Response::Shard(r.u16("shard index").map_err(invalid)?),
        TAG_RESP_LOAD => Response::Load(r.lines("LOAD").map_err(invalid)?),
        TAG_RESP_CSV => Response::Csv(r.lines("CSV").map_err(invalid)?),
        TAG_RESP_STATS => Response::Stats(r.lines("STATS").map_err(invalid)?),
        other => return Err(invalid(format!("unknown response frame tag {other}"))),
    };
    if r.remaining() != 0 {
        return Err(invalid(format!(
            "{} trailing bytes after response frame tag {tag}",
            r.remaining()
        )));
    }
    Ok(response)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_lines(buf: &mut Vec<u8>, lines: &[String]) {
    put_u32(buf, lines.len() as u32);
    for line in lines {
        put_str(buf, line);
    }
}

fn put_tx(buf: &mut Vec<u8>, tx: &Transaction) {
    put_u64(buf, tx.id.as_u64());
    put_u64(buf, tx.block.as_u64());
    put_u64(buf, tx.from.as_u64());
    put_u64(buf, tx.to.as_u64());
    buf.push(match tx.kind {
        TxKind::Transfer => 0,
        TxKind::ContractCall => 1,
    });
}

/// A bounds-checked cursor over one frame's payload. Errors are plain
/// strings; the caller decides whether they are fatal or deferrable.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.bytes.len() < n {
            return Err(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.bytes.len()
            ));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not valid UTF-8"))
    }

    fn lines(&mut self, what: &str) -> Result<Vec<String>, String> {
        let count = self.u32(what)? as usize;
        // A hostile count cannot reserve more than the frame can hold:
        // every line costs at least its 4-byte length prefix.
        let mut lines = Vec::with_capacity(count.min(self.remaining() / 4 + 1));
        for _ in 0..count {
            lines.push(self.str(what)?);
        }
        Ok(lines)
    }

    fn tx(&mut self) -> Result<Transaction, String> {
        let id = self.u64("tx id")?;
        let block = self.u64("block height")?;
        let from = self.u64("sender account")?;
        let to = self.u64("receiver account")?;
        let kind = match self.take(1, "tx kind")?[0] {
            0 => TxKind::Transfer,
            1 => TxKind::ContractCall,
            other => return Err(format!("unknown tx kind byte {other}; valid: 0, 1")),
        };
        Ok(Transaction::with_kind(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(block),
            kind,
        ))
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tx(id: u64) -> Transaction {
        Transaction::with_kind(
            TxId::new(id),
            AccountId::new(id + 1),
            AccountId::new(id + 2),
            BlockHeight::new(id / 2),
            if id.is_multiple_of(2) {
                TxKind::Transfer
            } else {
                TxKind::ContractCall
            },
        )
    }

    #[test]
    fn binary_requests_roundtrip() {
        for request in [
            Request::Begin {
                cell: 7,
                blocks: 9000,
            },
            Request::Tx(tx(4)),
            Request::TxBatch(vec![tx(1), tx(2), tx(3)]),
            Request::TxBatch(Vec::new()),
            Request::End,
            Request::Lookup(AccountId::new(u64::MAX)),
            Request::Load,
            Request::Csv,
            Request::Stats,
            Request::Shutdown,
        ] {
            let mut bytes = Vec::new();
            Wire::Binary.write_request(&mut bytes, &request).unwrap();
            let back = Wire::Binary
                .read_request(&mut Cursor::new(&bytes[..]))
                .unwrap()
                .unwrap();
            assert_eq!(back, Incoming::Request(request));
        }
    }

    #[test]
    fn binary_responses_roundtrip() {
        for response in [
            Response::Ok(String::new()),
            Response::Ok("cell 3 (Pilot)".to_string()),
            Response::Error("no active run".to_string()),
            Response::Shard(u16::MAX),
            Response::Load(vec!["epoch 4".to_string(), "shard 0 10 2".to_string()]),
            Response::Csv(Vec::new()),
            Response::Stats(vec![
                "telemetry off".to_string(),
                "server sessions_active 0".to_string(),
            ]),
        ] {
            let mut bytes = Vec::new();
            Wire::Binary.write_response(&mut bytes, &response).unwrap();
            let back = Wire::Binary
                .read_response(&mut Cursor::new(&bytes[..]))
                .unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn binary_responses_keep_embedded_newlines() {
        // Unlike the line wire, framing is by length: payload bytes are
        // opaque, so newlines survive the trip untouched.
        let response = Response::Error("two\nlines".to_string());
        let mut bytes = Vec::new();
        Wire::Binary.write_response(&mut bytes, &response).unwrap();
        assert_eq!(
            Wire::Binary
                .read_response(&mut Cursor::new(&bytes[..]))
                .unwrap(),
            response
        );
    }

    #[test]
    fn line_reader_classifies_malformed_input() {
        let mut input = Cursor::new(b"FLY me\nTX broken\n".to_vec());
        let Some(Incoming::Malformed {
            fire_and_forget, ..
        }) = Wire::Line.read_request(&mut input).unwrap()
        else {
            panic!("unknown verb must be malformed");
        };
        assert!(!fire_and_forget);
        let Some(Incoming::Malformed {
            fire_and_forget, ..
        }) = Wire::Line.read_request(&mut input).unwrap()
        else {
            panic!("bad TX line must be malformed");
        };
        assert!(fire_and_forget);
        assert_eq!(Wire::Line.read_request(&mut input).unwrap(), None);
    }

    #[test]
    fn binary_reader_defers_bad_tx_payloads_and_rejects_unknown_tags() {
        // A TX frame with a bad kind byte: recoverable, fire-and-forget.
        let mut frame = vec![TAG_TX];
        for _ in 0..4 {
            put_u64(&mut frame, 1);
        }
        frame.push(9); // not a kind
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        let Some(Incoming::Malformed {
            fire_and_forget, ..
        }) = Wire::Binary
            .read_request(&mut Cursor::new(&bytes[..]))
            .unwrap()
        else {
            panic!("bad kind byte must be malformed");
        };
        assert!(fire_and_forget);

        // A bad LOOKUP payload: recoverable, expects the ERR reply.
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &[TAG_LOOKUP, 1, 2]).unwrap();
        let Some(Incoming::Malformed {
            fire_and_forget, ..
        }) = Wire::Binary
            .read_request(&mut Cursor::new(&bytes[..]))
            .unwrap()
        else {
            panic!("short LOOKUP must be malformed");
        };
        assert!(!fire_and_forget);

        // An unknown tag: fatal (version skew).
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &[99]).unwrap();
        let err = Wire::Binary
            .read_request(&mut Cursor::new(&bytes[..]))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_length_is_guarded() {
        // Empty frame.
        let err = Wire::Binary
            .read_request(&mut Cursor::new(0u32.to_le_bytes().to_vec()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Oversized claim.
        let err = Wire::Binary
            .read_request(&mut Cursor::new(u32::MAX.to_le_bytes().to_vec()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated mid-header and mid-payload.
        let err = Wire::Binary
            .read_request(&mut Cursor::new(vec![5u8, 0]))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut bytes = 8u32.to_le_bytes().to_vec();
        bytes.push(TAG_END);
        let err = Wire::Binary
            .read_request(&mut Cursor::new(bytes))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Serves `bytes` then EOF, recording the largest buffer a reader
    /// ever offered it — a lower bound on what that reader allocated.
    struct Offered {
        bytes: Cursor<Vec<u8>>,
        largest: usize,
    }

    impl Read for Offered {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    impl BufRead for Offered {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.bytes.fill_buf()
        }
        fn consume(&mut self, amt: usize) {
            self.bytes.consume(amt);
        }
    }

    #[test]
    fn a_frame_header_alone_reserves_a_bounded_buffer() {
        // The largest length the cap admits, then the peer goes away.
        let mut input = Offered {
            bytes: Cursor::new((MAX_FRAME as u32).to_le_bytes().to_vec()),
            largest: 0,
        };
        let err = Wire::Binary.read_request(&mut input).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(input.largest <= FRAME_RESERVE, "{}", input.largest);

        // A frame larger than the reserve still arrives whole.
        let txs: Vec<_> = (0..(2 * FRAME_RESERVE / TX_BYTES) as u64).map(tx).collect();
        let mut bytes = Vec::new();
        Wire::Binary.write_tx_batch(&mut bytes, &txs).unwrap();
        assert!(bytes.len() > FRAME_RESERVE);
        assert_eq!(
            Wire::Binary.read_request(&mut &bytes[..]).unwrap(),
            Some(Incoming::Request(Request::TxBatch(txs)))
        );
    }

    #[test]
    fn line_length_is_capped() {
        // An endless newline-free stream is refused once the cap is
        // reached, not buffered until memory runs out.
        let mut endless = io::BufReader::new(io::repeat(b'x'));
        let err = Wire::Line.read_request(&mut endless).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");

        // The longest admitted line (cap includes the newline) is
        // still just a line, and the stream stays in frame after it.
        let mut input = "x".repeat(MAX_LINE - 1).into_bytes();
        input.extend_from_slice(b"\nEND\n");
        let mut input = &input[..];
        assert!(matches!(
            Wire::Line.read_request(&mut input).unwrap(),
            Some(Incoming::Malformed { .. })
        ));
        assert_eq!(
            Wire::Line.read_request(&mut input).unwrap(),
            Some(Incoming::Request(Request::End))
        );

        // Leading zeros cannot carry a TX line past the cap by way of
        // the in-place parser: it takes at most 20 digits a field.
        let input = format!("TX {}1 0 1 2 transfer\n", "0".repeat(MAX_LINE)).into_bytes();
        let err = Wire::Line.read_request(&mut &input[..]).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn batch_count_must_match_payload() {
        let mut frame = vec![TAG_TX_BATCH];
        put_u32(&mut frame, 5); // claims 5 txs, carries 1
        put_tx(&mut frame, &tx(0));
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        let Some(Incoming::Malformed {
            message,
            fire_and_forget,
        }) = Wire::Binary
            .read_request(&mut Cursor::new(&bytes[..]))
            .unwrap()
        else {
            panic!("count mismatch must be malformed");
        };
        assert!(fire_and_forget);
        assert!(message.contains("claims 5"), "{message}");
    }

    #[test]
    fn hello_negotiation_disambiguates_first_bytes() {
        // Binary hello at the supported version.
        let mut input = Cursor::new(b"MOSB\x01rest".to_vec());
        assert!(matches!(
            accept_hello(&mut input).unwrap(),
            Negotiated::Binary
        ));
        // Unsupported version.
        let mut input = Cursor::new(b"MOSB\x07".to_vec());
        assert!(matches!(
            accept_hello(&mut input).unwrap(),
            Negotiated::Unsupported(7)
        ));
        // A line request: consumed prefix comes back for replay.
        let mut input = Cursor::new(b"BEGIN 0 2000\n".to_vec());
        let Negotiated::Line(prefix) = accept_hello(&mut input).unwrap() else {
            panic!("line mode expected");
        };
        assert_eq!(prefix, b"B");
        // 'M'-prefixed garbage that is not the magic.
        let mut input = Cursor::new(b"MOON landing\n".to_vec());
        let Negotiated::Line(prefix) = accept_hello(&mut input).unwrap() else {
            panic!("line mode expected");
        };
        assert_eq!(prefix, b"MOON ");
        // Immediate close.
        let mut input = Cursor::new(Vec::new());
        let Negotiated::Line(prefix) = accept_hello(&mut input).unwrap() else {
            panic!("line mode expected");
        };
        assert!(prefix.is_empty());
    }

    #[test]
    fn client_hello_checks_the_servers_answer() {
        let mut out = Vec::new();
        client_hello(&mut out, &mut Cursor::new(b"MOSB\x01".to_vec())).unwrap();
        assert_eq!(out, b"MOSB\x01");
        let err = client_hello(&mut Vec::new(), &mut Cursor::new(b"MOSB\x00".to_vec()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("rejected"), "{err}");
        let err = client_hello(&mut Vec::new(), &mut Cursor::new(b"NOPE!".to_vec()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("hello"), "{err}");
    }
}
