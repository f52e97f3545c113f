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
//! one private `RowReader`. It reads a line as bytes into a reused
//! buffer and tries the **canonical fast path** first: the row
//! [`write_trace`] emits, `digits,digits,digits[,transfer|,call]` with
//! fields of at most 19 digits (which cannot overflow a `u64`) and a
//! `\n`, `\r\n` or end-of-file terminator, parsed byte by byte with no
//! UTF-8 validation, no trimming and no `String`. **Every other line** —
//! comments, blanks, padded fields, `+7`, 20-digit numbers, malformed
//! rows — goes through `from_utf8` and `str::trim` to `parse_data_line`,
//! so the dialect and every error message have a single owner and the
//! fast path can only ever agree with it.
//!
//! A line is at most 4096 bytes long (`MAX_LINE_BYTES`), terminator
//! included — a constant, not a setting. The reader never buffers more
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
/// input or a line longer than 4096 bytes, and propagates I/O failures as
/// [`Error::ParseTrace`] as well.
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

/// Pulls data rows out of a `block,from,to[,kind]` byte stream: the
/// canonical fast path first, `parse_data_line` for every other line (see
/// the module docs). Comments and blank lines are skipped.
pub(crate) struct RowReader<R> {
    reader: R,
    /// Reused line buffer; never grows past its initial capacity.
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
        self.next_with(|row| row, parse_data_line)
    }

    /// The block column of the next data row, leaving the other columns
    /// of a non-canonical line unparsed — the opening scan's view, under
    /// which a bad sender is not an error yet.
    pub(crate) fn next_block(&mut self) -> Result<Option<u64>> {
        self.next_with(
            |(block, ..)| block,
            |trimmed, line_no| Ok(parse_block_column(trimmed, line_no)?.0),
        )
    }

    fn next_with<T>(
        &mut self,
        of_canonical: impl Fn(Row) -> T,
        parse: impl Fn(&str, usize) -> Result<T>,
    ) -> Result<Option<T>> {
        while self.fill_line()? {
            if let Some(row) = canonical_row(&self.line) {
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
        Ok(None)
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

/// The fast path: `digits,digits,digits[,transfer|,call]` and a line
/// terminator, nothing else. `None` hands the line to `parse_data_line`.
fn canonical_row(line: &[u8]) -> Option<Row> {
    let (block, rest) = leading_u64(line)?;
    let (from, rest) = leading_u64(rest.strip_prefix(b",")?)?;
    let (to, rest) = leading_u64(rest.strip_prefix(b",")?)?;
    let (kind, rest) = match rest.strip_prefix(b",") {
        Some(field) => KINDS
            .iter()
            .find_map(|&(name, kind)| Some((kind, field.strip_prefix(name.as_bytes())?)))?,
        None => (TxKind::Transfer, rest),
    };
    matches!(rest, b"" | b"\n" | b"\r\n").then_some((block, from, to, kind))
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
