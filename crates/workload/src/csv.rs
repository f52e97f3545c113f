//! Plain-text trace interchange.
//!
//! Reads and writes the minimal reduction of an Ethereum ETL export that
//! the allocation algorithms need: `block,from,to[,kind]` per line, with
//! `#`-prefixed comment lines. Numeric account ids are expected — a real
//! ETL pipeline would first dictionary-encode addresses, which is exactly
//! what the paper's simulation does too.
//!
//! # One row reader
//!
//! Every line loop over a CSV — [`read_trace`], the streaming reader's
//! opening block-order scan and its chunk refill — pulls rows from the
//! one private `RowReader`, and it reads a row **in place** first: it
//! looks at the head of the reader's own buffer (`fill_buf`) and, if a
//! whole line there is one it can answer for, parses it where it lies and
//! `consume`s it. A row read takes the canonical row [`write_trace`]
//! emits, `digits,digits,digits[,transfer|,call]` with fields of at most
//! 19 digits (which cannot overflow a `u64`) and a `\n` or `\r\n`
//! terminator, parsed byte by byte with no UTF-8 validation, no trimming
//! and no copy. The opening scan only needs the block column, so it takes
//! any line that is 1–19 digits, a `,` and an all-ASCII rest reaching
//! `\n` within the line bound, and finds that `\n` eight bytes at a time.
//!
//! **Every line the in-place head declines** — comments, blanks, padded
//! fields, `+7`, 20-digit numbers, malformed or non-ASCII rows, a line
//! that straddles the end of the buffer, a last line with no terminator —
//! is copied into a reused buffer and takes the copying path: the same
//! canonical grammar (one function serves both), then `from_utf8` and
//! `str::trim` to `parse_data_line`, so the dialect and every error
//! message have a single owner and the in-place head can only ever agree
//! with it.
//!
//! A line is at most 4096 bytes long (`MAX_LINE_BYTES`), terminator
//! included — a constant, not a setting. The reader never copies more
//! than that plus the one byte that tells, so a newline-free file is a
//! typed error on line 1 instead of an allocation the size of the file.

use std::io::{self, BufRead, Read, Write};

use mosaic_types::{AccountId, BlockHeight, Error, Result, Transaction, TxId, TxKind};

use crate::trace::TransactionTrace;

/// Longest accepted line in bytes, terminator included. A canonical row
/// is at most 71 bytes; the slack is for comments and padded exports.
pub(crate) const MAX_LINE_BYTES: usize = 4096;

/// One data row: `(block, from, to, kind)`.
type Row = (u64, u64, u64, TxKind);

/// The spellings of the kind column, read by both parsers.
const KINDS: [(&str, TxKind); 2] = [
    ("transfer", TxKind::Transfer),
    ("call", TxKind::ContractCall),
];

/// Parses a trace from `reader` in `block,from,to[,kind]` format.
///
/// * Empty lines and lines starting with `#` are skipped.
/// * `kind` is optional: `transfer` (default) or `call`.
///
/// # Errors
///
/// Returns [`Error::ParseTrace`] with a 1-based line number on malformed
/// input, a line longer than 4096 bytes or a `u64::MAX` block (the
/// trace's block span, highest block + 1, would not fit), and propagates
/// I/O failures as [`Error::ParseTrace`] as well.
///
/// # Example
///
/// ```
/// use mosaic_workload::csv::read_trace;
/// let data = "# header\n0,1,2\n1,2,3,call\n";
/// let trace = read_trace(data.as_bytes())?;
/// assert_eq!(trace.len(), 2);
/// # Ok::<(), mosaic_types::Error>(())
/// ```
pub fn read_trace<R: BufRead>(reader: R) -> Result<TransactionTrace> {
    let mut rows = RowReader::new(reader);
    let mut txs = Vec::new();
    while let Some((block, from, to, kind)) = rows.next_row()? {
        if block == u64::MAX {
            return Err(block_span_overflow(rows.line_no()));
        }
        txs.push(Transaction::with_kind(
            TxId::new(txs.len() as u64),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(block),
            kind,
        ));
    }
    // ETL exports are block-ordered, so the common case needs no sort at
    // all: one sortedness scan, then the zero-cost `from_sorted`
    // constructor. `TransactionTrace::new` sorts *stably*, so falling back
    // to it on unsorted input produces the identical trace.
    if txs.windows(2).all(|w| w[0].block <= w[1].block) {
        Ok(TransactionTrace::from_sorted(txs))
    } else {
        Ok(TransactionTrace::new(txs))
    }
}

/// Pulls data rows out of a `block,from,to[,kind]` byte stream: in place
/// first, the copying path for every line the in-place head declines (see
/// the module docs). Comments and blank lines are skipped.
pub(crate) struct RowReader<R> {
    reader: R,
    /// The copying path's reused line buffer; never grows past its
    /// initial capacity.
    line: Vec<u8>,
    /// 1-based number of the last line read (0 before the first).
    line_no: usize,
}

impl<R: BufRead> RowReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        RowReader {
            reader,
            line: Vec::with_capacity(MAX_LINE_BYTES + 1),
            line_no: 0,
        }
    }

    /// 1-based number of the line the last row (or error) came from.
    pub(crate) fn line_no(&self) -> usize {
        self.line_no
    }

    /// The next data row, or `None` at end of input.
    pub(crate) fn next_row(&mut self) -> Result<Option<Row>> {
        self.next_with(
            |head| canonical_row(head, false),
            |row| row,
            parse_data_line,
        )
    }

    /// The block column of the next data row, leaving the other columns
    /// unparsed — the opening scan's view, under which a bad sender is not
    /// an error yet.
    pub(crate) fn next_block(&mut self) -> Result<Option<u64>> {
        self.next_with(
            block_head,
            |(block, ..)| block,
            |trimmed, line_no| Ok(parse_block_column(trimmed, line_no)?.0),
        )
    }

    /// The next data row seen through `in_place` (a whole line at the
    /// head of the reader's buffer and its length, or `None` to decline),
    /// else through the copying path: `of_canonical` on a canonical line,
    /// `parse` on any other non-blank, non-comment one.
    fn next_with<T>(
        &mut self,
        in_place: impl Fn(&[u8]) -> Option<(T, usize)>,
        of_canonical: impl Fn(Row) -> T,
        parse: impl Fn(&str, usize) -> Result<T>,
    ) -> Result<Option<T>> {
        loop {
            // Exactly the errors `read_until` would give: it retries an
            // interrupted read and reports any other.
            let head = match self.reader.fill_buf() {
                Ok(buf) => in_place(buf),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => None,
                Err(e) => return Err(read_error(self.line_no + 1, &e)),
            };
            if let Some((value, len)) = head {
                self.reader.consume(len);
                self.line_no += 1;
                return Ok(Some(value));
            }
            if !self.fill_line()? {
                return Ok(None);
            }
            if let Some((row, _)) = canonical_row(&self.line, true) {
                return Ok(Some(of_canonical(row)));
            }
            let text = std::str::from_utf8(&self.line).map_err(|_| {
                // The error and text `std` gives a `String` reader for such a line.
                let e = io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                );
                read_error(self.line_no, &e)
            })?;
            let trimmed = text.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                return parse(trimmed, self.line_no).map(Some);
            }
        }
    }

    /// Reads the next line, terminator included, into `self.line`;
    /// `false` at end of input.
    fn fill_line(&mut self) -> Result<bool> {
        self.line.clear();
        let line_no = self.line_no + 1;
        // One byte past the bound is enough to tell a too-long line.
        let read = (&mut self.reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut self.line)
            .map_err(|e| read_error(line_no, &e))?;
        if read == 0 {
            return Ok(false);
        }
        self.line_no = line_no;
        if read > MAX_LINE_BYTES {
            return Err(Error::ParseTrace {
                line: line_no,
                message: format!("line longer than {MAX_LINE_BYTES} bytes"),
            });
        }
        Ok(true)
    }
}

/// The canonical grammar, spelled once: `digits,digits,digits[,transfer|,call]`
/// and a `\n` or `\r\n` at the head of `bytes`, nothing else; returns the
/// row and its length, terminator included. `bytes` is either the head of
/// a read buffer or, with `whole_line`, one copied line — whose end also
/// ends the row (the last line of a file may have no terminator). `None`
/// hands the line to `parse_data_line`.
fn canonical_row(bytes: &[u8], whole_line: bool) -> Option<(Row, usize)> {
    let (block, rest) = leading_u64(bytes)?;
    let (from, rest) = leading_u64(rest.strip_prefix(b",")?)?;
    let (to, rest) = leading_u64(rest.strip_prefix(b",")?)?;
    let (kind, rest) = match rest.strip_prefix(b",") {
        Some(field) => KINDS
            .iter()
            .find_map(|&(name, kind)| Some((kind, field.strip_prefix(name.as_bytes())?)))?,
        None => (TxKind::Transfer, rest),
    };
    // A copied line ends at its first `\n`, so on one this is exactly
    // "the rest is empty, `\n` or `\r\n`".
    let terminator = match rest {
        [b'\n', ..] => 1,
        [b'\r', b'\n', ..] => 2,
        [] if whole_line => 0,
        _ => return None,
    };
    Some((
        (block, from, to, kind),
        bytes.len() - rest.len() + terminator,
    ))
}

/// The opening scan's in-place head: 1 to 19 digits, a `,`, then an
/// all-ASCII rest that reaches `\n` within `MAX_LINE_BYTES`; returns the
/// digits' value and the line's length. The copying path returns the same
/// value on exactly such a line: it is valid UTF-8, does not start with
/// `#` or whitespace, and its first field is the digits, untrimmed.
fn block_head(bytes: &[u8]) -> Option<(u64, usize)> {
    let bytes = &bytes[..bytes.len().min(MAX_LINE_BYTES)];
    let (block, rest) = leading_u64(bytes)?;
    let rest = rest.strip_prefix(b",")?;
    let newline = ascii_line_end(rest)?;
    Some((block, bytes.len() - rest.len() + newline + 1))
}

/// Offset of the first `\n` in `bytes` when every byte before it is
/// ASCII; `None` when a non-ASCII byte comes first or there is no `\n`.
/// Eight bytes at a time: a word holds a `\n` iff `x ^ 0x0a…0a` has a
/// zero byte, and a non-ASCII byte iff `x & 0x80…80` is non-zero.
fn ascii_line_end(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let y = x ^ NEWLINES;
        // The zero-byte test's lowest set bit is exact (a false positive
        // needs a borrow from a true zero below it), so the lowest bit of
        // `stop` is the first `\n` or non-ASCII byte, whichever it is.
        let stop = (y.wrapping_sub(ONES) & !y | x) & HIGHS;
        if stop != 0 {
            let i = at + stop.trailing_zeros() as usize / 8;
            return (bytes[i] == b'\n').then_some(i);
        }
        at += 8;
    }
    let tail = words.remainder();
    let i = tail.iter().position(|&b| b == b'\n' || !b.is_ascii())?;
    (tail[i] == b'\n').then_some(at + i)
}

/// Splits a leading run of 1 to 19 ASCII digits — every such run fits a
/// `u64` and means what `str::parse` says it means — off `bytes`.
fn leading_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let mut value = 0u64;
    let mut digits = 0;
    while let Some(digit) = bytes.get(digits).filter(|b| b.is_ascii_digit()) {
        if digits == 19 {
            return None;
        }
        value = value * 10 + u64::from(digit - b'0');
        digits += 1;
    }
    (digits > 0).then_some((value, &bytes[digits..]))
}

/// Parses one non-comment, non-blank data line (`block,from,to[,kind]`,
/// already trimmed): the owner of the dialect and of every parse error
/// message.
fn parse_data_line(trimmed: &str, line_no: usize) -> Result<Row> {
    let (block, mut fields) = parse_block_column(trimmed, line_no)?;
    let from = parse_u64(fields.next(), "from", line_no)?;
    let to = parse_u64(fields.next(), "to", line_no)?;
    let kind = match fields.next() {
        None | Some("") => TxKind::Transfer,
        Some(field) => KINDS
            .iter()
            .find_map(|&(name, kind)| (name == field).then_some(kind))
            .ok_or_else(|| Error::ParseTrace {
                line: line_no,
                message: format!("unknown kind '{field}'"),
            })?,
    };
    if fields.next().is_some() {
        return Err(Error::ParseTrace {
            line: line_no,
            message: "too many fields".into(),
        });
    }
    Ok((block, from, to, kind))
}

/// The first step of [`parse_data_line`]: the block column and the
/// fields after it.
fn parse_block_column(trimmed: &str, line_no: usize) -> Result<(u64, impl Iterator<Item = &str>)> {
    let mut fields = trimmed.split(',').map(str::trim);
    let block = parse_u64(fields.next(), "block", line_no)?;
    Ok((block, fields))
}

/// Writes `trace` in the same format accepted by [`read_trace`].
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_trace<W: Write>(trace: &TransactionTrace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# block,from,to,kind")?;
    for tx in trace.iter() {
        writeln!(
            writer,
            "{},{},{},{}",
            tx.block.as_u64(),
            tx.from.as_u64(),
            tx.to.as_u64(),
            tx.kind
        )?;
    }
    Ok(())
}

fn read_error(line: usize, e: &io::Error) -> Error {
    Error::ParseTrace {
        line,
        message: format!("io error: {e}"),
    }
}

/// The error for a `u64::MAX` block at 1-based row `line`: a trace's block
/// span is its highest block + 1, which would not fit. Both CSV readers
/// refuse such a row with it, and so does `Simulation::with_trace` for a
/// trace built in memory. Out of line and cold: the per-row loops should
/// hold a compare, not a `format!`.
#[cold]
pub fn block_span_overflow(line: usize) -> Error {
    Error::ParseTrace {
        line,
        message: format!(
            "block {}: the trace's block span (highest block + 1) must fit in 64 bits",
            u64::MAX
        ),
    }
}

fn parse_u64(field: Option<&str>, name: &str, line: usize) -> Result<u64> {
    let raw = field.ok_or_else(|| Error::ParseTrace {
        line,
        message: format!("missing field '{name}'"),
    })?;
    raw.parse::<u64>().map_err(|_| Error::ParseTrace {
        line,
        message: format!("invalid {name} '{raw}'"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::generator::generate;

    #[test]
    fn roundtrip_preserves_trace() {
        let w = generate(&WorkloadConfig::small_test(2).with_blocks(50));
        let mut buf = Vec::new();
        write_trace(w.trace(), &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.len(), w.trace().len());
        for (a, b) in back.iter().zip(w.trace().iter()) {
            assert_eq!(a.block, b.block);
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let data = "# comment\n\n  \n0,1,2\n";
        let trace = read_trace(data.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn kind_parsing() {
        let trace = read_trace("0,1,2,call\n1,2,3,transfer\n2,3,4\n".as_bytes()).unwrap();
        assert_eq!(trace.transactions()[0].kind, TxKind::ContractCall);
        assert_eq!(trace.transactions()[1].kind, TxKind::Transfer);
        assert_eq!(trace.transactions()[2].kind, TxKind::Transfer);
    }

    #[test]
    fn unsorted_input_matches_stable_sort_of_sorted_fast_path() {
        // Same multiset of rows, one file block-ordered and one shuffled:
        // the shuffled read must equal the stable sort of its rows, i.e.
        // the fast path and the sorting path agree on ties (TxIds are
        // assigned by line index, so ties keep file order either way).
        let sorted = read_trace("0,1,2\n0,3,4\n1,5,6\n2,7,8\n".as_bytes()).unwrap();
        let shuffled = read_trace("2,7,8\n0,1,2\n0,3,4\n1,5,6\n".as_bytes()).unwrap();
        assert!(sorted
            .transactions()
            .windows(2)
            .all(|w| w[0].block <= w[1].block));
        assert!(shuffled
            .transactions()
            .windows(2)
            .all(|w| w[0].block <= w[1].block));
        // The shuffled file's tie (the two block-0 rows) keeps file order.
        let blocks: Vec<u64> = shuffled.iter().map(|t| t.block.as_u64()).collect();
        assert_eq!(blocks, [0, 0, 1, 2]);
        assert_eq!(shuffled.transactions()[0].from, AccountId::new(1));
        assert_eq!(shuffled.transactions()[1].from, AccountId::new(3));
    }

    fn too_long(line: usize) -> Error {
        Error::ParseTrace {
            line,
            message: "line longer than 4096 bytes".into(),
        }
    }

    #[test]
    fn newline_free_input_is_a_typed_error_in_bounded_memory() {
        let data = vec![b'7'; 1 << 20];
        assert_eq!(read_trace(data.as_slice()).unwrap_err(), too_long(1));
        let mut rows = RowReader::new(data.as_slice());
        assert_eq!(rows.next_row().unwrap_err(), too_long(1));
        assert!(rows.line.capacity() <= MAX_LINE_BYTES + 1);
        let mut rows = RowReader::new(data.as_slice());
        assert_eq!(rows.next_block().unwrap_err(), too_long(1));
        assert!(rows.line.capacity() <= MAX_LINE_BYTES + 1);
    }

    #[test]
    fn line_bound_counts_the_terminator() {
        let comment = |len: usize| {
            let mut line = vec![b'#'; len - 1];
            line.push(b'\n');
            line
        };
        let mut fits = comment(MAX_LINE_BYTES);
        fits.extend(b"0,1,2\n");
        assert_eq!(read_trace(fits.as_slice()).unwrap().len(), 1);
        let mut over = b"0,1,2\n".to_vec();
        over.extend(comment(MAX_LINE_BYTES + 1));
        assert_eq!(read_trace(over.as_slice()).unwrap_err(), too_long(2));
        // At end of file the bound is on the bytes alone.
        assert!(read_trace(&fits[..MAX_LINE_BYTES - 1]).unwrap().is_empty());
        assert_eq!(
            read_trace(&over[6..6 + MAX_LINE_BYTES + 1]).unwrap_err(),
            too_long(1)
        );
    }

    /// The opening scan's view of `bytes`, read to the end.
    fn all_blocks(reader: impl BufRead) -> Result<Vec<u64>> {
        let mut rows = RowReader::new(reader);
        let mut blocks = Vec::new();
        while let Some(block) = rows.next_block()? {
            blocks.push(block);
        }
        Ok(blocks)
    }

    /// Where the in-place head of `next_block` stops and the copying path
    /// takes over, at every buffer size: lines straddle a buffer of 1, 2,
    /// 7 or 64 bytes; 4097 and 8192 bytes (and the slice itself) hold a
    /// 4096-byte line whole. Dropping the ASCII check or the line bound
    /// from `block_head` fails this test.
    #[test]
    fn block_head_edges_match_the_copying_path_at_every_capacity() {
        let invalid_utf8 = |line| Error::ParseTrace {
            line,
            message: "io error: stream did not contain valid UTF-8".into(),
        };
        // A `len`-byte line (terminator included) with block 5, then one more row.
        let long = |len: usize| {
            let mut bytes = b"5,".to_vec();
            bytes.resize(len - 1, b'a');
            bytes.extend(b"\n6,1,2\n");
            bytes
        };
        let cases: Vec<(Vec<u8>, Result<Vec<u64>>)> = vec![
            // Non-ASCII after the comma: invalid UTF-8 in the tail and in
            // a whole word is an error; a valid NBSP is not.
            (b"5,\xff\n6,1,2\n".to_vec(), Err(invalid_utf8(1))),
            (b"5,abcdefgh\xff,1\n".to_vec(), Err(invalid_utf8(1))),
            (
                b"0,1,2\n5,1,2,abcdefgh\xc3\n".to_vec(),
                Err(invalid_utf8(2)),
            ),
            ("5,\u{a0}1,2\n6,1,2\n".into(), Ok(vec![5, 6])),
            ("5,1,2,abcdefgh\u{a0}\n".into(), Ok(vec![5])),
            // The line bound, terminator included.
            (long(MAX_LINE_BYTES), Ok(vec![5, 6])),
            (long(MAX_LINE_BYTES + 1), Err(too_long(1))),
            // 19 digits in place; 20 through `str::parse`, fitting or not.
            (
                b"9999999999999999999,1,2\n".to_vec(),
                Ok(vec![9_999_999_999_999_999_999]),
            ),
            (
                b"10000000000000000000,1,2\n".to_vec(),
                Ok(vec![10_000_000_000_000_000_000]),
            ),
            (
                b"99999999999999999999,1,2\n".to_vec(),
                Err(Error::ParseTrace {
                    line: 1,
                    message: "invalid block '99999999999999999999'".into(),
                }),
            ),
            // A bare `\r` does not end a line.
            (b"5,1,2\r6,1,2\n7,1\r\n".to_vec(), Ok(vec![5, 7])),
            (b"5\r,1,2\n".to_vec(), Ok(vec![5])),
            // No final newline.
            (b"5,1,2\n6,1,2".to_vec(), Ok(vec![5, 6])),
            (b"5,1,2\n6,".to_vec(), Ok(vec![5, 6])),
            (b"5,1,2\n6,\xff".to_vec(), Err(invalid_utf8(2))),
        ];
        for (bytes, expected) in &cases {
            let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(40)]);
            assert_eq!(&all_blocks(bytes.as_slice()), expected, "{shown:?}");
            for capacity in [1, 2, 7, 64, 4097, 8192] {
                let reader = io::BufReader::with_capacity(capacity, bytes.as_slice());
                assert_eq!(
                    &all_blocks(reader),
                    expected,
                    "{shown:?} at capacity {capacity}"
                );
            }
        }
    }

    /// The word-at-a-time scan against a byte loop, on every placement of
    /// a `\n` and a non-ASCII byte over fillers that sit one bit away from
    /// either.
    #[test]
    fn ascii_line_end_matches_a_byte_loop() {
        let byte_loop = |bytes: &[u8]| {
            let i = bytes.iter().position(|&b| b == b'\n' || !b.is_ascii())?;
            (bytes[i] == b'\n').then_some(i)
        };
        for filler in [b'a', 0x0b, 0x09, 0x00, 0x7f] {
            for stop in [0x80, 0x8a, 0xc2, 0xff] {
                for len in 0..26 {
                    for newline in (0..len).map(Some).chain([None]) {
                        for high in (0..len).map(Some).chain([None]) {
                            let mut bytes = vec![filler; len];
                            if let Some(i) = high {
                                bytes[i] = stop;
                            }
                            if let Some(i) = newline {
                                bytes[i] = b'\n';
                            }
                            assert_eq!(ascii_line_end(&bytes), byte_loop(&bytes), "{bytes:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = read_trace("0,1,2\nbad,1,2\n".as_bytes()).unwrap_err();
        assert_eq!(
            err,
            Error::ParseTrace {
                line: 2,
                message: "invalid block 'bad'".into()
            }
        );
        let err = read_trace("0,1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, Error::ParseTrace { line: 1, .. }));
        let err = read_trace("0,1,2,call,extra\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("too many fields"));
        let err = read_trace("0,1,2,unknown\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown kind"));
    }
}
