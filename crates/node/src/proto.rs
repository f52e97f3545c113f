//! The typed protocol core between a `mosaic-node` service and its
//! clients: [`Request`] / [`Response`], plus their *line* rendering.
//!
//! The enums are the protocol; how they travel is a codec concern
//! ([`Wire`](crate::wire::Wire)) — either the human-speakable line form
//! defined here (byte-compatible with the original `nc`-friendly
//! protocol) or the length-prefixed binary frames in [`crate::wire`].
//!
//! In the line form every request is one ASCII line; every response is
//! one line, except the block responses ([`Response::Load`],
//! [`Response::Csv`]) whose first line carries the number of payload
//! lines that follow — so a client never needs to guess where a reply
//! ends. `TX` lines are fire-and-forget: the node sends no
//! per-transaction acknowledgement (the stream would otherwise be
//! round-trip-bound), and ingestion errors surface in the `END` reply
//! instead.
//!
//! ```text
//! client → node                       node → client
//! BEGIN <cell> <blocks>               OK cell <cell> (<strategy>)
//! TX <id> <block> <from> <to> <kind>  (nothing)
//! END                                 OK <epochs> epochs
//! LOOKUP <account>                    SHARD <n>
//! LOAD                                LOAD <n> ⏎ <n lines>
//! CSV                                 CSV <n> ⏎ <n lines>
//! STATS                               STATS <n> ⏎ <n lines>
//! SHUTDOWN                            OK shutdown
//! ```

use std::io::{self, BufRead, Write};

use mosaic_types::{AccountId, BlockHeight, Transaction, TxId, TxKind};

/// One client request. See the [module docs](self) for the line forms.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `BEGIN <cell> <blocks>` — (re)start an event stream for cell
    /// `cell` of the node's scenario, spanning `blocks` blocks.
    Begin {
        /// Index into the scenario's expanded cell list.
        cell: usize,
        /// Total block span of the stream about to be replayed.
        blocks: u64,
    },
    /// `TX <id> <block> <from> <to> <transfer|call>` — one transaction,
    /// fire-and-forget (no reply; errors surface at `END`).
    Tx(Transaction),
    /// A block's worth of transactions as one message — fire-and-forget
    /// like [`Request::Tx`]. On the binary wire this is a single frame
    /// (one length check per block); on the line wire it renders as one
    /// `TX` line per transaction, so the bytes are indistinguishable
    /// from sending them individually. [`Request::parse`] never yields
    /// it; the line wire's reader does, for a run of canonical `TX`
    /// lines it finds already buffered.
    TxBatch(Vec<Transaction>),
    /// `END` — close the stream: remaining epochs are processed and the
    /// reply reports the epoch count (or the first deferred `TX` error).
    End,
    /// `LOOKUP <account>` — which shard currently holds the account.
    Lookup(AccountId),
    /// `LOAD` — the migration-protocol state after the last processed
    /// epoch (`epoch`, `epochs_processed`, `lambda`,
    /// `committed_migrations`, `migrations_stale`, `total_migrations`),
    /// then its per-shard load.
    Load,
    /// `CSV` — the per-epoch metric rows produced so far, as CSV lines
    /// (header included), byte-identical to the offline runner's files.
    Csv,
    /// `STATS` — this session's telemetry snapshot plus the server-wide
    /// aggregate (all sessions, started and finished). Answered even
    /// before `BEGIN`; with telemetry off the reply says so.
    Stats,
    /// `SHUTDOWN` — acknowledge, then stop accepting connections.
    Shutdown,
}

impl Request {
    /// The canonical line form (no trailing newline). Single-line for
    /// every variant except [`Request::TxBatch`], which renders as one
    /// `TX` line per transaction joined by newlines.
    pub fn encode(&self) -> String {
        match self {
            Request::Begin { cell, blocks } => format!("BEGIN {cell} {blocks}"),
            Request::Tx(tx) => tx_lines(std::slice::from_ref(tx)),
            Request::TxBatch(txs) => tx_lines(txs),
            Request::End => "END".to_string(),
            Request::Lookup(account) => format!("LOOKUP {}", account.as_u64()),
            Request::Load => "LOAD".to_string(),
            Request::Csv => "CSV".to_string(),
            Request::Stats => "STATS".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// `true` if this request is answered at all. Transaction ingestion
    /// ([`Request::Tx`], [`Request::TxBatch`]) is the only
    /// fire-and-forget traffic; everything else gets exactly one
    /// [`Response`].
    pub fn expects_reply(&self) -> bool {
        !matches!(self, Request::Tx(_) | Request::TxBatch(_))
    }

    /// Parses one wire line, the inverse of [`Request::encode`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown verb, a missing or
    /// malformed field, or trailing tokens.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut tokens = line.split_whitespace();
        let verb = tokens
            .next()
            .ok_or_else(|| "empty request line".to_string())?;
        let request = match verb {
            "BEGIN" => Request::Begin {
                cell: field(&mut tokens, "cell index")?,
                blocks: field(&mut tokens, "block count")?,
            },
            "TX" => {
                let id: u64 = field(&mut tokens, "tx id")?;
                let block: u64 = field(&mut tokens, "block height")?;
                let from: u64 = field(&mut tokens, "sender account")?;
                let to: u64 = field(&mut tokens, "receiver account")?;
                let kind = match tokens.next() {
                    Some("transfer") => TxKind::Transfer,
                    Some("call") => TxKind::ContractCall,
                    Some(other) => {
                        return Err(format!("unknown tx kind {other:?}; valid: transfer, call"))
                    }
                    None => return Err("TX line is missing its kind field".to_string()),
                };
                Request::Tx(Transaction::with_kind(
                    TxId::new(id),
                    AccountId::new(from),
                    AccountId::new(to),
                    BlockHeight::new(block),
                    kind,
                ))
            }
            "END" => Request::End,
            "LOOKUP" => Request::Lookup(AccountId::new(field(&mut tokens, "account id")?)),
            "LOAD" => Request::Load,
            "CSV" => Request::Csv,
            "STATS" => Request::Stats,
            "SHUTDOWN" => Request::Shutdown,
            other => {
                return Err(format!(
                    "unknown request verb {other:?}; valid: BEGIN, TX, END, LOOKUP, LOAD, CSV, \
                     STATS, SHUTDOWN"
                ))
            }
        };
        if let Some(extra) = tokens.next() {
            return Err(format!("trailing token {extra:?} after {verb}"));
        }
        Ok(request)
    }

    /// [`Request::expects_reply`] for a raw line that may not parse:
    /// `TX` lines are fire-and-forget *even when malformed* (their
    /// parse error is deferred to `END`), and both sides must agree on
    /// that by inspecting the raw line, hence the verb-prefix rule
    /// rather than a parse.
    pub fn line_expects_reply(line: &str) -> bool {
        line.split_whitespace().next() != Some("TX")
    }
}

/// `txs` as `TX` lines joined by newlines, without the last one.
fn tx_lines(txs: &[Transaction]) -> String {
    let mut bytes = Vec::with_capacity(txs.len() * TxLine::MAX);
    for tx in txs {
        bytes.extend_from_slice(TxLine::new(tx).as_bytes());
    }
    bytes.pop();
    String::from_utf8(bytes).expect("TX lines are ASCII")
}

/// One `TX <id> <block> <from> <to> <kind>\n` line, rendered on the
/// stack: the line wire's only `TX` encoder.
pub(crate) struct TxLine {
    bytes: [u8; TxLine::MAX],
    len: usize,
}

impl TxLine {
    /// The longest line: `TX `, four 20-digit fields each followed by a
    /// space, `transfer` and the newline.
    const MAX: usize = 3 + 4 * 21 + 8 + 1;

    pub(crate) fn new(tx: &Transaction) -> Self {
        let mut line = TxLine {
            bytes: [0; TxLine::MAX],
            len: 0,
        };
        line.put(b"TX ");
        for field in [
            tx.id.as_u64(),
            tx.block.as_u64(),
            tx.from.as_u64(),
            tx.to.as_u64(),
        ] {
            line.put_decimal(field);
            line.put(b" ");
        }
        line.put(match tx.kind {
            TxKind::Transfer => b"transfer\n",
            TxKind::ContractCall => b"call\n",
        });
        line
    }

    /// The line, newline included.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    fn put(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Two digits per division, written from the right.
    fn put_decimal(&mut self, mut value: u64) {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while value >= 10 {
            let pair = (value % 100) as usize * 2;
            value /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if value > 0 || at == digits.len() {
            at -= 1;
            digits[at] = b'0' + value as u8;
        }
        self.put(&digits[at..]);
    }
}

/// Parses the one canonical request line at the head of `bytes` in
/// place: `TX <id> <block> <from> <to> <transfer|call>` or
/// `LOOKUP <account>`, single spaces, fields of 1–20 ASCII digits that
/// fit a `u64`, ending in `\n`. Returns the request with the line's
/// length, newline included. `None` for every other line and for a
/// line not yet complete; those take [`Request::parse`], which accepts
/// every canonical line too, with the same result.
pub(crate) fn parse_canonical(bytes: &[u8]) -> Option<(Request, usize)> {
    if let Some(rest) = bytes.strip_prefix(b"TX ") {
        let (id, at) = decimal(rest, 0, b' ')?;
        let (block, at) = decimal(rest, at, b' ')?;
        let (from, at) = decimal(rest, at, b' ')?;
        let (to, at) = decimal(rest, at, b' ')?;
        let tail = &rest[at..];
        let (kind, end) = if tail.starts_with(b"transfer\n") {
            (TxKind::Transfer, 9)
        } else if tail.starts_with(b"call\n") {
            (TxKind::ContractCall, 5)
        } else {
            return None;
        };
        let tx = Transaction::with_kind(
            TxId::new(id),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(block),
            kind,
        );
        Some((Request::Tx(tx), 3 + at + end))
    } else if let Some(rest) = bytes.strip_prefix(b"LOOKUP ") {
        let (account, at) = decimal(rest, 0, b'\n')?;
        Some((Request::Lookup(AccountId::new(account)), 7 + at))
    } else {
        None
    }
}

/// The 1–20 ASCII digits at `bytes[at..]` and the `end` byte after
/// them: the value and the index past `end`. `None` if there are no
/// digits, more than 20, no `end` after them, or the value overflows.
fn decimal(bytes: &[u8], at: usize, end: u8) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut i = at;
    while i - at < 20 {
        let digit = bytes.get(i)?.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        i += 1;
    }
    (i > at && *bytes.get(i)? == end).then_some((value, i + 1))
}

/// One node reply. Single-line except [`Response::Load`] /
/// [`Response::Csv`], which frame their payload by line count.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK [detail]` — success, with an optional informational detail.
    Ok(String),
    /// `ERR <message>` — the request failed; the message is one line.
    Error(String),
    /// `SHARD <n>` — the zero-based shard index answering a `LOOKUP`.
    Shard(u16),
    /// `LOAD <n>` followed by `n` report lines (`key value…` pairs and
    /// one `shard <i> <intra> <cross>` line per shard).
    Load(Vec<String>),
    /// `CSV <n>` followed by `n` CSV lines (header first).
    Csv(Vec<String>),
    /// `STATS <n>` followed by `n` telemetry lines (`telemetry on|off`,
    /// then `session <id>` with its `counter`/`gauge`/`hist` lines,
    /// then the `server …` aggregate).
    Stats(Vec<String>),
}

impl Response {
    /// Writes the wire form, newline-terminated. Embedded newlines in
    /// messages or payload lines are flattened to spaces so the framing
    /// can never be broken by content.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        match self {
            Response::Ok(detail) if detail.is_empty() => writeln!(out, "OK"),
            Response::Ok(detail) => writeln!(out, "OK {}", sanitize(detail)),
            Response::Error(message) => writeln!(out, "ERR {}", sanitize(message)),
            Response::Shard(shard) => writeln!(out, "SHARD {shard}"),
            Response::Load(lines) => write_block(out, "LOAD", lines),
            Response::Csv(lines) => write_block(out, "CSV", lines),
            Response::Stats(lines) => write_block(out, "STATS", lines),
        }
    }

    /// Reads one response off the wire, the inverse of
    /// [`Response::write_to`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] if the stream ends mid-response
    /// and [`io::ErrorKind::InvalidData`] on a malformed header line.
    pub fn read_from(input: &mut impl BufRead) -> io::Result<Self> {
        // A `LOOKUP` reply is the one a client waits on per query: read
        // a canonical `SHARD <n>` line where it lies, without a `String`.
        if let Some(rest) = input.fill_buf()?.strip_prefix(b"SHARD ") {
            if let Some((shard, at)) = decimal(rest, 0, b'\n') {
                if let Ok(shard) = u16::try_from(shard) {
                    input.consume(6 + at);
                    return Ok(Response::Shard(shard));
                }
            }
        }
        let line = read_line(input)?;
        if line == "OK" {
            return Ok(Response::Ok(String::new()));
        }
        if let Some(detail) = line.strip_prefix("OK ") {
            return Ok(Response::Ok(detail.to_string()));
        }
        if let Some(message) = line.strip_prefix("ERR ") {
            return Ok(Response::Error(message.to_string()));
        }
        if let Some(raw) = line.strip_prefix("SHARD ") {
            let shard = raw
                .parse::<u16>()
                .map_err(|_| invalid(format!("malformed SHARD response {raw:?}")))?;
            return Ok(Response::Shard(shard));
        }
        if let Some(raw) = line.strip_prefix("LOAD ") {
            return Ok(Response::Load(read_block(input, raw)?));
        }
        if let Some(raw) = line.strip_prefix("CSV ") {
            return Ok(Response::Csv(read_block(input, raw)?));
        }
        if let Some(raw) = line.strip_prefix("STATS ") {
            return Ok(Response::Stats(read_block(input, raw)?));
        }
        Err(invalid(format!("unrecognised response line {line:?}")))
    }
}

fn field<'a, T: std::str::FromStr>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    let raw = tokens.next().ok_or_else(|| format!("missing {what}"))?;
    raw.parse::<T>()
        .map_err(|_| format!("invalid {what} {raw:?}"))
}

fn sanitize(text: &str) -> String {
    text.replace(['\n', '\r'], " ")
}

fn write_block(out: &mut impl Write, kind: &str, lines: &[String]) -> io::Result<()> {
    writeln!(out, "{kind} {}", lines.len())?;
    for line in lines {
        writeln!(out, "{}", sanitize(line))?;
    }
    Ok(())
}

fn read_block(input: &mut impl BufRead, raw_count: &str) -> io::Result<Vec<String>> {
    let count: usize = raw_count
        .parse()
        .map_err(|_| invalid(format!("malformed block line count {raw_count:?}")))?;
    let mut lines = Vec::with_capacity(count);
    for _ in 0..count {
        lines.push(read_line(input)?);
    }
    Ok(lines)
}

fn read_line(input: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if input.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn requests_encode_to_documented_lines() {
        assert_eq!(
            Request::Begin {
                cell: 3,
                blocks: 2000
            }
            .encode(),
            "BEGIN 3 2000"
        );
        let tx = Transaction::with_kind(
            TxId::new(7),
            AccountId::new(1),
            AccountId::new(2),
            BlockHeight::new(40),
            TxKind::ContractCall,
        );
        assert_eq!(Request::Tx(tx).encode(), "TX 7 40 1 2 call");
        assert_eq!(Request::End.encode(), "END");
        assert_eq!(Request::Lookup(AccountId::new(9)).encode(), "LOOKUP 9");
        assert_eq!(Request::Shutdown.encode(), "SHUTDOWN");
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        assert!(Request::parse("").unwrap_err().contains("empty"));
        assert!(Request::parse("FLY me")
            .unwrap_err()
            .contains("unknown request verb"));
        assert!(Request::parse("BEGIN 1")
            .unwrap_err()
            .contains("block count"));
        assert!(Request::parse("TX 1 2 3 4 teleport")
            .unwrap_err()
            .contains("unknown tx kind"));
        assert!(Request::parse("END trailing")
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn only_tx_lines_are_fire_and_forget() {
        assert!(!Request::line_expects_reply("TX 1 2 3 4 transfer"));
        assert!(!Request::line_expects_reply("  TX garbage"));
        assert!(Request::line_expects_reply("END"));
        assert!(Request::line_expects_reply("LOOKUP 5"));
        assert!(Request::line_expects_reply(""));
        // The typed classification agrees with the raw-line rule.
        assert!(!Request::Tx(Transaction::new(
            TxId::new(1),
            AccountId::new(2),
            AccountId::new(3),
            BlockHeight::new(4),
        ))
        .expects_reply());
        assert!(!Request::TxBatch(Vec::new()).expects_reply());
        assert!(Request::End.expects_reply());
        assert!(Request::Load.expects_reply());
    }

    #[test]
    fn tx_batches_render_as_plain_tx_lines() {
        let txs = vec![
            Transaction::new(
                TxId::new(1),
                AccountId::new(2),
                AccountId::new(3),
                BlockHeight::new(4),
            ),
            Transaction::with_kind(
                TxId::new(5),
                AccountId::new(6),
                AccountId::new(7),
                BlockHeight::new(8),
                TxKind::ContractCall,
            ),
        ];
        let batch = Request::TxBatch(txs.clone()).encode();
        let singles: Vec<String> = txs.iter().map(|tx| Request::Tx(*tx).encode()).collect();
        assert_eq!(batch, singles.join("\n"));
    }

    #[test]
    fn responses_roundtrip_through_a_buffer() {
        for response in [
            Response::Ok(String::new()),
            Response::Ok("cell 2 (Pilot)".to_string()),
            Response::Error("no active run".to_string()),
            Response::Shard(11),
            Response::Load(vec!["epoch 4".to_string(), "shard 0 10 2".to_string()]),
            Response::Csv(vec!["a,b".to_string(), "1,2".to_string()]),
            Response::Stats(vec![
                "telemetry on".to_string(),
                "session 3".to_string(),
                "counter core.txs_ingested 12000".to_string(),
            ]),
        ] {
            let mut bytes = Vec::new();
            response.write_to(&mut bytes).unwrap();
            let back = Response::read_from(&mut Cursor::new(bytes)).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn embedded_newlines_cannot_break_framing() {
        let mut bytes = Vec::new();
        Response::Error("two\nlines".to_string())
            .write_to(&mut bytes)
            .unwrap();
        assert_eq!(
            Response::read_from(&mut Cursor::new(bytes)).unwrap(),
            Response::Error("two lines".to_string())
        );
    }

    /// A canonical `TX` or `LOOKUP` line with each of its parts
    /// (verb, separators, fields, kind, ending) swapped, one time in
    /// four, for a near miss: a sign, leading zeros, 21 digits, an
    /// overflow, a tab, `\r`, a trailing token.
    fn near_canonical(value: u64, knobs: u64) -> Vec<u8> {
        let mut knobs = knobs;
        let mut part = |canonical: String, misses: &[&str]| {
            let roll = knobs % 4;
            let pick = (knobs / 4) as usize % misses.len();
            knobs = knobs.rotate_right(5);
            if roll == 0 {
                misses[pick].to_string()
            } else {
                canonical
            }
        };
        let fields = ["+1", "007", "", "x", "00000000000000000000001"];
        let mut field = |shift: u64| {
            let canonical = (value >> (shift * 13 % 64)).to_string();
            part(canonical, &fields)
        };
        let lookup = value.is_multiple_of(5);
        let mut line = String::new();
        if lookup {
            line += &field(0);
        } else {
            for shift in 0..4 {
                line += &field(shift);
                line += " ";
            }
            line += if value.is_multiple_of(2) {
                "transfer"
            } else {
                "call"
            };
        }
        let verb = if lookup { "LOOKUP " } else { "TX " };
        let line = part(verb.to_string(), &["TX  ", "TX\t", "LOOKUP ", "TX "]) + &line;
        let line = part(line, &["TX 18446744073709551616 1 2 3 call", "LOOKUP 1 2"]);
        let ending = part("\n".to_string(), &["\r\n", " \n", "", " x\n", "\n\n"]);
        (line + &ending).into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Whatever the in-place parser accepts, `Request::parse` reads
        /// the same way, and no line is accepted before its newline.
        #[test]
        fn canonical_lines_parse_as_request_parse_does(value in any::<u64>(), knobs in any::<u64>()) {
            let bytes = near_canonical(value, knobs);
            if let Some((request, used)) = parse_canonical(&bytes) {
                let line = std::str::from_utf8(&bytes[..used]).unwrap();
                let line = line.strip_suffix('\n').expect("a whole line");
                prop_assert_eq!(Request::parse(line), Ok(request));
                for cut in 0..used {
                    prop_assert!(parse_canonical(&bytes[..cut]).is_none());
                }
            }
        }
    }

    #[test]
    fn the_near_canonical_lines_hit_both_sides() {
        let mix = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        let accepted = (0..1024u64)
            .filter(|&i| parse_canonical(&near_canonical(mix(i), mix(!i))).is_some())
            .count();
        assert!(
            (200..900).contains(&accepted),
            "{accepted} of 1024 accepted"
        );
    }

    /// A `SHARD` reply reads the same whether or not it is canonical,
    /// and leaves the reader at the next reply.
    #[test]
    fn shard_replies_read_alike_canonical_or_not() {
        for (line, shard) in [
            ("SHARD 3\n", Some(3)),
            ("SHARD 007\n", Some(7)),
            ("SHARD +5\n", Some(5)),
            ("SHARD 3\r\n", Some(3)),
            ("SHARD 65535\n", Some(u16::MAX)),
            ("SHARD 65536\n", None),
            ("SHARD 99999999999999999999999\n", None),
            ("SHARD \n", None),
        ] {
            let mut input = Cursor::new(format!("{line}OK\n").into_bytes());
            match (Response::read_from(&mut input), shard) {
                (Ok(Response::Shard(got)), Some(want)) => assert_eq!(got, want, "{line:?}"),
                (Err(e), None) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{line:?}"),
                (other, _) => panic!("{line:?}: {other:?}"),
            }
            let next = Response::read_from(&mut input).unwrap();
            assert_eq!(next, Response::Ok(String::new()), "{line:?}");
        }
    }

    #[test]
    fn truncated_blocks_are_an_error() {
        let err = Response::read_from(&mut Cursor::new(b"CSV 3\nonly one\n".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
