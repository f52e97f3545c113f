//! The CSV row reader against its oracle.
//!
//! `mosaic_workload::csv`'s byte-level row reader replaced three
//! `String`-per-line loops. The [`oracle`] module below *is* those loops
//! (`BufRead::lines()`, `str::trim`, `split(',')`, `str::parse`), kept
//! word for word, and the properties hold the reader to them on generated
//! files: the same transactions with the same `TxId`s, or the same
//! `Error::ParseTrace { line, message }`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;

use mosaic_types::{AccountId, BlockHeight, Error, Result, Transaction, TxId, TxKind};
use mosaic_workload::csv::read_trace;
use mosaic_workload::{EpochWindowStream, TransactionTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The line loops as they were before the row reader.
mod oracle {
    use super::*;

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

    fn parse_data_line(trimmed: &str, line_no: usize) -> Result<(u64, u64, u64, TxKind)> {
        let mut fields = trimmed.split(',').map(str::trim);
        let block = parse_u64(fields.next(), "block", line_no)?;
        let from = parse_u64(fields.next(), "from", line_no)?;
        let to = parse_u64(fields.next(), "to", line_no)?;
        let kind = match fields.next() {
            None | Some("") | Some("transfer") => TxKind::Transfer,
            Some("call") => TxKind::ContractCall,
            Some(other) => {
                return Err(Error::ParseTrace {
                    line: line_no,
                    message: format!("unknown kind '{other}'"),
                })
            }
        };
        if fields.next().is_some() {
            return Err(Error::ParseTrace {
                line: line_no,
                message: "too many fields".into(),
            });
        }
        Ok((block, from, to, kind))
    }

    fn read_error(line: usize, e: &std::io::Error) -> Error {
        Error::ParseTrace {
            line,
            message: format!("io error: {e}"),
        }
    }

    fn out_of_order(line: usize, block: u64, last: u64) -> Error {
        Error::ParseTrace {
            line,
            message: format!(
                "block {block} after {last}: streamed CSV input must be block-ordered \
                 (the materialising reader sorts; the bounded-buffer reader cannot)"
            ),
        }
    }

    fn transaction(id: usize, (block, from, to, kind): (u64, u64, u64, TxKind)) -> Transaction {
        Transaction::with_kind(
            TxId::new(id as u64),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(block),
            kind,
        )
    }

    /// `read_trace` as it was: materialise, then sort stably if needed.
    pub fn read_trace(bytes: &[u8]) -> Result<TransactionTrace> {
        let mut txs = Vec::new();
        for (idx, line) in bytes.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.map_err(|e| read_error(line_no, &e))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            txs.push(transaction(txs.len(), parse_data_line(trimmed, line_no)?));
        }
        if txs.windows(2).all(|w| w[0].block <= w[1].block) {
            Ok(TransactionTrace::from_sorted(txs))
        } else {
            Ok(TransactionTrace::new(txs))
        }
    }

    /// The streaming reader as it was, opened and read to the end: the
    /// opening scan looks at the block column only (order, span), the
    /// streaming pass parses whole rows and re-checks the order.
    pub fn stream(bytes: &[u8]) -> Result<Vec<Transaction>> {
        let mut max_block: Option<u64> = None;
        for (idx, line) in bytes.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.map_err(|e| read_error(line_no, &e))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let field = trimmed.split(',').next().unwrap_or("").trim();
            let block = field.parse::<u64>().map_err(|_| Error::ParseTrace {
                line: line_no,
                message: format!("invalid block '{field}'"),
            })?;
            if let Some(last) = max_block {
                if block < last {
                    return Err(out_of_order(line_no, block, last));
                }
            }
            max_block = Some(block);
        }
        let mut txs = Vec::new();
        let mut last_block: Option<u64> = None;
        for (idx, line) in bytes.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.map_err(|e| read_error(line_no, &e))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let row = parse_data_line(trimmed, line_no)?;
            if let Some(last) = last_block {
                if row.0 < last {
                    return Err(out_of_order(line_no, row.0, last));
                }
            }
            last_block = Some(row.0);
            txs.push(transaction(txs.len(), row));
        }
        Ok(txs)
    }
}

/// Spellings of a number a field may hold: plain, `007`, `+7`, the 19-
/// and 20-digit edges of the fast path, `u64::MAX` and one past it, and
/// things that are not numbers at all.
fn number(rng: &mut StdRng, allow_u64_max: bool) -> String {
    match rng.gen_range(0..40u32) {
        0 => "007".into(),
        1 => "+7".into(),
        2 => "1234567890123456789".into(),  // 19 digits
        3 => "9999999999999999999".into(),  // the largest 19-digit run
        4 => "10000000000000000000".into(), // 20 digits, fits
        // `blocks = max_block + 1` overflowed on a `u64::MAX` block column
        // in the loops the oracle preserves (both readers now refuse it:
        // `u64_max_block_is_refused_with_its_line_number`,
        // `read_trace_refuses_a_u64_max_block_with_the_streaming_error`),
        // so only the account columns get this one.
        5 if allow_u64_max => u64::MAX.to_string(),
        6 => "18446744073709551616".into(),      // u64::MAX + 1
        7 => "0000000000000000000000007".into(), // 25 digits, value 7
        8 => String::new(),
        9 => ["-1", "1.5", "0x10", "bad", "１２", "1 2", "1_000"][rng.gen_range(0..7usize)].into(),
        _ => rng.gen_range(0..5000u64).to_string(),
    }
}

/// Mostly `s` itself; sometimes with spaces and tabs around it.
fn padded(rng: &mut StdRng, s: String) -> String {
    let pad = |rng: &mut StdRng| ["", " ", "\t", "  ", " \t "][rng.gen_range(0..5usize)];
    if rng.gen_range(0..10u32) < 8 {
        s
    } else {
        format!("{}{s}{}", pad(rng), pad(rng))
    }
}

/// One line without its terminator. `next_block` keeps most files
/// block-ordered so that whole files parse often enough.
fn line(rng: &mut StdRng, next_block: &mut u64) -> Vec<u8> {
    match rng.gen_range(0..100u32) {
        0..=5 => ["# comment", "#", "  # indented", "#0,1,2", "# caf\u{e9}"]
            [rng.gen_range(0..5usize)]
        .as_bytes()
        .to_vec(),
        6..=10 => ["", " ", "\t", "   \t ", "\u{a0}"][rng.gen_range(0..5usize)]
            .as_bytes()
            .to_vec(),
        11 => [&b"0,1,\xff"[..], b"# \xff\xfe", b"\xc3"][rng.gen_range(0..3usize)].to_vec(),
        12 => [",", ",,", ",,,", ",,,,", "5", "5,"][rng.gen_range(0..6usize)]
            .as_bytes()
            .to_vec(),
        _ => {
            let block = match rng.gen_range(0..20u32) {
                0 => number(rng, false),
                1 => next_block
                    .saturating_sub(rng.gen_range(0..3u64))
                    .to_string(),
                2 => format!("{:04}", *next_block),
                _ => {
                    *next_block += rng.gen_range(0..3u64);
                    next_block.to_string()
                }
            };
            let mut fields = vec![block, number(rng, true), number(rng, true)];
            match rng.gen_range(0..16u32) {
                0..=3 => fields.push("transfer".into()),
                4..=7 => fields.push("call".into()),
                8 => fields.push(String::new()),
                9 => {
                    let odd = [
                        "Call",
                        "call ",
                        " transfer",
                        "unknown",
                        "transferx",
                        "cal",
                        "c\u{e4}ll",
                    ];
                    fields.push(odd[rng.gen_range(0..7usize)].into());
                }
                10 => fields.extend(["call".into(), "extra".into()]),
                11 => fields.truncate(rng.gen_range(1..3usize)),
                _ => {}
            }
            let fields: Vec<String> = fields.into_iter().map(|f| padded(rng, f)).collect();
            padded(rng, fields.join(",")).into_bytes()
        }
    }
}

/// A file of up to 14 lines: `\n`, `\r\n`, now and then a bare `\r`
/// (which `lines()` does not split on), and often no terminator at the
/// end of the file.
fn file(rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut next_block = 0u64;
    let lines = rng.gen_range(0..15usize);
    for i in 0..lines {
        bytes.extend(line(rng, &mut next_block));
        let ending: &[u8] = match rng.gen_range(0..20u32) {
            0 => b"\r",
            1..=5 => b"\r\n",
            _ => b"\n",
        };
        if i + 1 < lines || rng.gen_range(0..3u32) > 0 {
            bytes.extend(ending);
        }
    }
    bytes
}

fn temp_csv(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic-row-reader-oracle");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Opens `path` as a stream and reads it to the end.
fn stream_all(path: &PathBuf, chunk_txs: usize) -> Result<Vec<Transaction>> {
    let mut stream = EpochWindowStream::csv_with_chunk_size(path, chunk_txs)?;
    let mut txs = Vec::new();
    stream.read_to(u64::MAX, &mut txs)?;
    Ok(txs)
}

#[test]
fn read_trace_returns_what_the_str_path_returned() {
    let (mut parsed, mut failed) = (0, 0);
    for seed in 0..1500u64 {
        let bytes = file(&mut StdRng::seed_from_u64(seed));
        let expected = oracle::read_trace(&bytes);
        let got = read_trace(bytes.as_slice());
        assert_eq!(
            got.as_ref().map(TransactionTrace::transactions),
            expected.as_ref().map(TransactionTrace::transactions),
            "seed {seed}: {:?}",
            String::from_utf8_lossy(&bytes)
        );
        match expected {
            Ok(_) => parsed += 1,
            Err(_) => failed += 1,
        }
    }
    // The generator must exercise both outcomes, not mostly one.
    assert!(
        parsed > 300 && failed > 300,
        "{parsed} parsed, {failed} failed"
    );
}

/// A `&[u8]` reader's buffer is the whole rest of the input, so above no
/// line ever straddles one. Through small `BufReader`s most lines do, and
/// the reader's in-place head must hand each of them to the copying path;
/// through large ones the whole file is in the buffer again.
#[test]
fn read_trace_returns_what_the_str_path_returned_at_every_buffer_capacity() {
    for seed in 0..1500u64 {
        let bytes = file(&mut StdRng::seed_from_u64(seed ^ 0xb0f));
        let expected = oracle::read_trace(&bytes);
        let expected = expected.as_ref().map(TransactionTrace::transactions);
        for capacity in [1usize, 2, 7, 64, 4097, 8192] {
            let got = read_trace(BufReader::with_capacity(capacity, bytes.as_slice()));
            assert_eq!(
                got.as_ref().map(TransactionTrace::transactions),
                expected,
                "seed {seed}, capacity {capacity}: {:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
    }
}

#[test]
fn csv_stream_returns_what_the_str_path_returned_at_every_chunk_size() {
    let (mut parsed, mut failed) = (0, 0);
    for seed in 0..600u64 {
        let bytes = file(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
        let path = temp_csv("property.csv", &bytes);
        let expected = oracle::stream(&bytes);
        for chunk_txs in [1usize, 2, 7, 8192] {
            assert_eq!(
                stream_all(&path, chunk_txs),
                expected,
                "seed {seed}, chunk {chunk_txs}: {:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
        match expected {
            Ok(_) => parsed += 1,
            Err(_) => failed += 1,
        }
    }
    assert!(
        parsed > 100 && failed > 100,
        "{parsed} parsed, {failed} failed"
    );
}

#[test]
fn invalid_utf8_is_an_io_error_with_its_line_number() {
    let expected = Error::ParseTrace {
        line: 3,
        message: "io error: stream did not contain valid UTF-8".into(),
    };
    for bytes in [
        &b"0,1,2\n# fine\n1,2,\xff\n2,3,4\n"[..],
        b"0,1,2\n\n# caf\xe9\n",
        b"0,1,2\r\n0,1,2\r\n\xff",
    ] {
        assert_eq!(oracle::read_trace(bytes).unwrap_err(), expected);
        assert_eq!(read_trace(bytes).unwrap_err(), expected);
        let path = temp_csv("invalid-utf8.csv", bytes);
        assert_eq!(stream_all(&path, 4).unwrap_err(), expected);
    }
}

/// `blocks = max_block + 1` has no value for a `u64::MAX` block column:
/// it used to panic in debug builds and wrap to an empty stream in
/// release builds. The opening scan refuses the row instead.
#[test]
fn u64_max_block_is_refused_with_its_line_number() {
    let max = u64::MAX;
    for (bytes, line) in [
        (format!("{max},1,2\n"), 1),
        (format!("0,1,2\n# note\n{max},3,4,call"), 3),
        (format!("0,1,2\n 0{max} ,3,4\n{max},5,6\n"), 2),
    ] {
        let path = temp_csv("u64-max-block.csv", bytes.as_bytes());
        let err = EpochWindowStream::csv_with_chunk_size(&path, 4).unwrap_err();
        match err {
            Error::ParseTrace { line: at, message } => {
                assert_eq!(at, line, "{bytes:?}");
                assert!(message.contains(&max.to_string()), "{message}");
            }
            other => panic!("expected ParseTrace, got {other:?}"),
        }
    }
    // One below is an ordinary (if distant) block.
    let path = temp_csv("u64-max-block.csv", format!("{},1,2\n", max - 1).as_bytes());
    let txs = stream_all(&path, 4).unwrap();
    assert_eq!(txs.len(), 1);
    assert_eq!(txs[0].block, BlockHeight::new(max - 1));
}

/// The materialising reader has the same `+ 1` downstream: a
/// `TraceSource::Csv` trace reaches `EpochWindowStream::resident`'s
/// `max_block + 1`. It refuses the row with the streaming reader's error.
#[test]
fn read_trace_refuses_a_u64_max_block_with_the_streaming_error() {
    let max = u64::MAX;
    for bytes in [
        format!("{max},1,2\n"),
        format!("0,1,2\n# note\n{max},3,4,call"),
        format!("0,1,2\n 0{max} ,3,4\n{max},5,6\n"),
    ] {
        let path = temp_csv("u64-max-block-read-trace.csv", bytes.as_bytes());
        let streamed = EpochWindowStream::csv_with_chunk_size(&path, 4).unwrap_err();
        assert_eq!(
            read_trace(bytes.as_bytes()).unwrap_err(),
            streamed,
            "{bytes:?}"
        );
    }
    let trace = read_trace(format!("{},1,2\n", max - 1).as_bytes()).unwrap();
    assert_eq!(trace.max_block(), Some(BlockHeight::new(max - 1)));
}
