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
    /// from sending them individually and the line form never *parses*
    /// into this variant.
    TxBatch(Vec<Transaction>),
    /// `END` — close the stream: remaining epochs are processed and the
    /// reply reports the epoch count (or the first deferred `TX` error).
    End,
    /// `LOOKUP <account>` — which shard currently holds the account.
    Lookup(AccountId),
    /// `LOAD` — the migration-protocol state after the last processed
    /// epoch (`epoch`, `epochs_processed`, `lambda`,
    /// `committed_migrations`, `migrations_stale`, `total_migrations`,
    /// `beacon_blocks`), then its per-shard load.
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
            Request::Tx(tx) => tx_line(tx),
            Request::TxBatch(txs) => txs.iter().map(tx_line).collect::<Vec<_>>().join("\n"),
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

fn tx_line(tx: &Transaction) -> String {
    format!(
        "TX {} {} {} {} {}",
        tx.id.as_u64(),
        tx.block.as_u64(),
        tx.from.as_u64(),
        tx.to.as_u64(),
        tx.kind
    )
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

    #[test]
    fn truncated_blocks_are_an_error() {
        let err = Response::read_from(&mut Cursor::new(b"CSV 3\nonly one\n".to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
