//! Epoch window streaming: the one way a driver reads a trace.
//!
//! An [`EpochWindowStream`] is a forward-only cursor over a trace's
//! block order that hands out *windows* (`[position, to)` block ranges)
//! into a caller-owned buffer. Holding the whole [`TransactionTrace`]
//! behind an `Arc` caps the workload axis by RAM; reading it through a
//! stream means a session only ever holds the window it is working on.
//!
//! Three backends exist:
//!
//! * **Resident** — a window source over an already-materialised
//!   [`TransactionTrace`] shared behind an `Arc` (sessions that reuse
//!   one trace across many cells); `read_to` copies
//!   [`TransactionTrace::block_range`].
//! * **Generated** — the synthetic generator is a pure function of its
//!   [`WorkloadConfig`] (seed included), so [`GeneratedStream`] replays
//!   the exact materialised trace lazily; memory is O(accounts).
//! * **CSV** — [`read_trace`](crate::csv::read_trace)'s dialect, parsed
//!   through a bounded chunk buffer (at most [`DEFAULT_CSV_CHUNK_TXS`]
//!   transactions of lookahead); memory is O(chunk). Streaming cannot sort,
//!   so the file must be block-ordered — out-of-order input is a
//!   [`Error::ParseTrace`] with the offending line, where the
//!   materialising reader would have silently sorted. Both passes over
//!   the file (the opening block-order scan and the chunk refill) pull
//!   rows from [`crate::csv`]'s one row reader, which parses a line in
//!   place in the `BufReader`'s buffer when it can — the scan reads just
//!   the block column and finds the line end eight bytes at a time, the
//!   refill parses the canonical row — and copies only the lines it
//!   declines (comments, odd spellings, a line straddling the buffer end)
//!   to the same `parse_data_line` and 4096-byte line bound as
//!   `read_trace`.
//!
//! Every backend produces the transaction sequence of the materialised
//! trace, at any window or chunk size.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mosaic_telemetry::{Counter, Recorder};
use mosaic_types::{AccountId, BlockHeight, Error, Result, Transaction, TxId};

use crate::config::WorkloadConfig;
use crate::csv::{block_span_overflow, RowReader};
use crate::generator::GeneratedStream;
use crate::trace::TransactionTrace;

/// Default bounded-buffer size (transactions of lookahead) for the
/// streaming CSV reader.
pub const DEFAULT_CSV_CHUNK_TXS: usize = 8192;

/// A forward-only stream of epoch windows over a trace in block order.
///
/// The cursor starts at block 0; [`EpochWindowStream::read_to`] appends
/// all transactions of blocks `[position, to)` to a caller-owned buffer
/// and advances. Blocks absent from the underlying trace simply
/// contribute no transactions, so windows over sparse block ranges work
/// exactly like [`TransactionTrace::block_range`].
///
/// # Example
///
/// ```
/// use mosaic_types::BlockHeight;
/// use mosaic_workload::{generate, EpochWindowStream, WorkloadConfig};
/// let cfg = WorkloadConfig::small_test(3);
/// let trace = generate(&cfg).into_trace();
/// let mut stream = EpochWindowStream::generated(&cfg);
/// let mut window = Vec::new();
/// stream.read_to(4, &mut window)?; // blocks [0, 4)
/// assert_eq!(
///     window.as_slice(),
///     trace.block_range(BlockHeight::new(0), BlockHeight::new(4)),
/// );
/// # Ok::<(), mosaic_types::Error>(())
/// ```
pub struct EpochWindowStream {
    inner: Inner,
}

enum Inner {
    Resident {
        trace: Arc<TransactionTrace>,
        blocks: u64,
        position: u64,
    },
    Generated(GeneratedStream),
    Csv(CsvWindowStream),
}

impl EpochWindowStream {
    /// Streams an already-materialised trace. Its block span is
    /// `max_block + 1` (0 for an empty trace).
    pub fn resident(trace: Arc<TransactionTrace>) -> Self {
        let blocks = trace.max_block().map_or(0, |b| b.as_u64() + 1);
        EpochWindowStream {
            inner: Inner::Resident {
                trace,
                blocks,
                position: 0,
            },
        }
    }

    /// Streams the synthetic trace of `cfg` without materialising it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`WorkloadConfig::validate`]), exactly like
    /// [`generate`](crate::generate).
    pub fn generated(cfg: &WorkloadConfig) -> Self {
        EpochWindowStream {
            inner: Inner::Generated(GeneratedStream::new(cfg)),
        }
    }

    /// Streams a block-ordered `block,from,to[,kind]` CSV file through a
    /// bounded buffer of [`DEFAULT_CSV_CHUNK_TXS`] transactions.
    ///
    /// The stream takes [`mosaic_telemetry::global`] when it opens: each
    /// [`read_to`](EpochWindowStream::read_to) call that advances it
    /// records a `workload.csv_read` span, and each refill of the buffer
    /// adds its rows to the `workload.rows_parsed` counter (one branch
    /// each when telemetry is off).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the file cannot be opened; [`Error::ParseTrace`]
    /// if the block column is malformed, out of order (the opening
    /// scan verifies block order up front, so a mid-run surprise cannot
    /// waste hours of simulation) or `u64::MAX` (the block span would
    /// not fit), or a line is longer than 4096 bytes.
    pub fn csv(path: impl AsRef<Path>) -> Result<Self> {
        Self::csv_with_chunk_size(path, DEFAULT_CSV_CHUNK_TXS)
    }

    /// [`EpochWindowStream::csv`] with an explicit bounded-buffer size
    /// (transactions of lookahead; must be at least 1).
    pub fn csv_with_chunk_size(path: impl AsRef<Path>, chunk_txs: usize) -> Result<Self> {
        Ok(EpochWindowStream {
            inner: Inner::Csv(CsvWindowStream::open(
                path.as_ref(),
                chunk_txs.max(1),
                mosaic_telemetry::global(),
            )?),
        })
    }

    /// Total block span of the trace: every transaction lives in
    /// `[0, blocks)`. For generated sources this is `cfg.blocks`; for
    /// resident and CSV sources it is `max_block + 1` (0 with no
    /// transactions).
    pub fn blocks(&self) -> u64 {
        match &self.inner {
            Inner::Resident { blocks, .. } => *blocks,
            Inner::Generated(g) => g.blocks(),
            Inner::Csv(c) => c.blocks,
        }
    }

    /// The next unread block height (all blocks below it have been
    /// emitted).
    pub fn position(&self) -> u64 {
        match &self.inner {
            Inner::Resident { position, .. } => *position,
            Inner::Generated(g) => g.position(),
            Inner::Csv(c) => c.position,
        }
    }

    /// Appends every transaction of blocks `[position, min(to, blocks))`
    /// to `buf` and advances the cursor. A no-op once the stream is past
    /// `to` (the cursor never rewinds).
    ///
    /// # Errors
    ///
    /// CSV backends surface [`Error::ParseTrace`] on malformed rows and
    /// [`Error::ParseTrace`]-wrapped I/O failures mid-file; generated
    /// and resident backends are infallible.
    pub fn read_to(&mut self, to: u64, buf: &mut Vec<Transaction>) -> Result<()> {
        match &mut self.inner {
            Inner::Resident {
                trace,
                blocks,
                position,
            } => {
                let to = to.min(*blocks);
                if to > *position {
                    buf.extend_from_slice(
                        trace.block_range(BlockHeight::new(*position), BlockHeight::new(to)),
                    );
                    *position = to;
                }
                Ok(())
            }
            Inner::Generated(g) => {
                g.emit_through(to, buf);
                Ok(())
            }
            Inner::Csv(c) => c.read_to(to, buf),
        }
    }
}

impl std::fmt::Debug for EpochWindowStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.inner {
            Inner::Resident { .. } => "resident",
            Inner::Generated(_) => "generated",
            Inner::Csv(_) => "csv",
        };
        f.debug_struct("EpochWindowStream")
            .field("backend", &backend)
            .field("blocks", &self.blocks())
            .field("position", &self.position())
            .finish()
    }
}

/// Streaming CSV backend: two passes over the file. The opening pass
/// scans only the block column to learn the block span and enforce block
/// order; the streaming pass parses rows fully through the bounded chunk
/// buffer.
struct CsvWindowStream {
    path: PathBuf,
    /// The streaming pass's row reader (it counts the lines).
    rows: RowReader<BufReader<File>>,
    /// `max_block + 1` from the opening scan (0: no data rows).
    blocks: u64,
    /// All blocks below this height have been emitted.
    position: u64,
    /// Bounded lookahead: at most `chunk_txs` parsed transactions.
    chunk: Vec<Transaction>,
    chunk_pos: usize,
    chunk_txs: usize,
    /// Order re-check across refills (the file could change between the
    /// two passes; the invariant must hold on what we actually emit).
    last_block: Option<u64>,
    next_tx_id: u64,
    eof: bool,
    recorder: Recorder,
    rows_parsed: Counter,
}

impl CsvWindowStream {
    fn open(path: &Path, chunk_txs: usize, recorder: Recorder) -> Result<Self> {
        let scan = File::open(path).map_err(|e| io_error(path, &e))?;
        let mut scan = RowReader::new(BufReader::new(scan));
        let mut max_block: Option<u64> = None;
        while let Some(block) = scan.next_block()? {
            if let Some(last) = max_block {
                if block < last {
                    return Err(out_of_order(scan.line_no(), block, last));
                }
            }
            if block == u64::MAX {
                return Err(block_span_overflow(scan.line_no()));
            }
            max_block = Some(block);
        }
        let file = File::open(path).map_err(|e| io_error(path, &e))?;
        Ok(CsvWindowStream {
            path: path.to_path_buf(),
            rows: RowReader::new(BufReader::new(file)),
            blocks: max_block.map_or(0, |b| b + 1),
            position: 0,
            chunk: Vec::with_capacity(chunk_txs),
            chunk_pos: 0,
            chunk_txs,
            last_block: None,
            next_tx_id: 0,
            eof: false,
            rows_parsed: recorder.counter("workload.rows_parsed"),
            recorder,
        })
    }

    /// Refills the bounded chunk buffer with up to `chunk_txs` parsed
    /// rows, setting `eof` when the file ends first.
    fn refill(&mut self) -> Result<()> {
        self.chunk.clear();
        self.chunk_pos = 0;
        while self.chunk.len() < self.chunk_txs {
            let Some((block, from, to, kind)) = self.rows.next_row()? else {
                self.eof = true;
                break;
            };
            if let Some(last) = self.last_block {
                if block < last {
                    return Err(out_of_order(self.rows.line_no(), block, last));
                }
            }
            self.last_block = Some(block);
            self.chunk.push(Transaction::with_kind(
                TxId::new(self.next_tx_id),
                AccountId::new(from),
                AccountId::new(to),
                BlockHeight::new(block),
                kind,
            ));
            self.next_tx_id += 1;
        }
        self.rows_parsed.add(self.chunk.len() as u64);
        Ok(())
    }

    fn read_to(&mut self, to: u64, buf: &mut Vec<Transaction>) -> Result<()> {
        let to = to.min(self.blocks);
        if to <= self.position {
            return Ok(());
        }
        let _span = self.recorder.span("workload.csv_read");
        loop {
            // `refill` keeps the chunk block-ordered.
            let pending = &self.chunk[self.chunk_pos..];
            let below = pending.partition_point(|tx| tx.block.as_u64() < to);
            buf.extend_from_slice(&pending[..below]);
            self.chunk_pos += below;
            if below < pending.len() {
                self.position = to;
                return Ok(());
            }
            if self.eof {
                self.position = to;
                return Ok(());
            }
            self.refill()?;
        }
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

fn io_error(path: &Path, e: &std::io::Error) -> Error {
    Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

impl std::fmt::Debug for CsvWindowStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvWindowStream")
            .field("path", &self.path)
            .field("blocks", &self.blocks)
            .field("position", &self.position)
            .field("chunk_txs", &self.chunk_txs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{read_trace, write_trace};
    use crate::generator::generate;

    fn temp_csv(name: &str, bytes: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join("mosaic-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// The bounded-buffer CSV reader must agree with the materialising
    /// reader at every chunk size, including chunks far smaller than a
    /// window (windows spanning many chunk edges) and chunks spanning
    /// several windows.
    #[test]
    fn csv_windows_match_materialised_slices_across_chunk_boundaries() {
        let cfg = WorkloadConfig::small_test(41).with_blocks(30);
        let trace = generate(&cfg).into_trace();
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        let path = temp_csv("chunk-boundary.csv", &bytes);
        let materialised = read_trace(bytes.as_slice()).unwrap();
        for chunk_txs in [1usize, 2, 3, 7, 100, 100_000] {
            let mut stream = EpochWindowStream::csv_with_chunk_size(&path, chunk_txs).unwrap();
            assert_eq!(stream.blocks(), cfg.blocks);
            let mut start = 0u64;
            // τ = 4 does not divide 30, so the last window is ragged too.
            while start < stream.blocks() {
                let mut window = Vec::new();
                stream.read_to(start + 4, &mut window).unwrap();
                assert_eq!(
                    window.as_slice(),
                    materialised.block_range(BlockHeight::new(start), BlockHeight::new(start + 4)),
                    "window [{start}, {}) at chunk size {chunk_txs}",
                    start + 4
                );
                start += 4;
            }
            assert_eq!(stream.position(), stream.blocks());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_telemetry_counts_every_advancing_call() {
        let cfg = WorkloadConfig::small_test(29).with_blocks(50);
        let trace = generate(&cfg).into_trace();
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        let path = temp_csv("telemetry.csv", &bytes);
        let recorder = Recorder::enabled();
        let mut stream = EpochWindowStream {
            inner: Inner::Csv(CsvWindowStream::open(&path, 7, recorder.clone()).unwrap()),
        };
        let mut txs = Vec::new();
        let mut advancing_calls = 0;
        for to in [0, 7, 7, 3, 20, 21, 49, 50, 50, 90] {
            let before = stream.position();
            stream.read_to(to, &mut txs).unwrap();
            advancing_calls += u64::from(stream.position() > before);
        }
        assert_eq!(txs.as_slice(), trace.transactions());
        let snapshot = recorder.snapshot();
        assert_eq!(
            snapshot.counters,
            vec![("workload.rows_parsed".to_string(), txs.len() as u64)]
        );
        let spans: Vec<_> = snapshot
            .histograms
            .iter()
            .map(|(name, h)| (name.as_str(), h.count))
            .collect();
        assert_eq!(spans, [("workload.csv_read", advancing_calls)]);
        assert_eq!(advancing_calls, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sparse_blocks_yield_empty_windows() {
        let path = temp_csv("sparse.csv", b"# header\n0,1,2\n0,3,4,call\n5,6,7\n");
        let mut stream = EpochWindowStream::csv_with_chunk_size(&path, 2).unwrap();
        assert_eq!(stream.blocks(), 6);
        let mut buf = Vec::new();
        stream.read_to(1, &mut buf).unwrap();
        assert_eq!(buf.len(), 2);
        buf.clear();
        stream.read_to(5, &mut buf).unwrap(); // blocks [1, 5): the gap
        assert!(buf.is_empty());
        stream.read_to(99, &mut buf).unwrap(); // clamped to blocks()
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].block.as_u64(), 5);
        assert_eq!(stream.position(), 6);
        // Reading past the end stays a no-op.
        stream.read_to(200, &mut buf).unwrap();
        assert_eq!(buf.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_csv_is_rejected_at_open_with_line_number() {
        let path = temp_csv("unsorted.csv", b"1,1,2\n0,3,4\n");
        let err = EpochWindowStream::csv_with_chunk_size(&path, 4).unwrap_err();
        assert_eq!(
            err,
            out_of_order(2, 0, 1),
            "expected the block-order error, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_rows_carry_streaming_line_numbers() {
        let path = temp_csv("malformed.csv", b"0,1,2\n# fine\n1,bad,2\n");
        // The opening scan only checks the block column, so the bad
        // sender surfaces during streaming with the right line number.
        let mut stream = EpochWindowStream::csv_with_chunk_size(&path, 4).unwrap();
        let mut buf = Vec::new();
        let err = stream.read_to(2, &mut buf).unwrap_err();
        assert_eq!(
            err,
            Error::ParseTrace {
                line: 3,
                message: "invalid from 'bad'".into()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newline_free_csv_is_rejected_at_open() {
        let path = temp_csv("no-newline.csv", &vec![b'7'; 1 << 20]);
        let err = EpochWindowStream::csv_with_chunk_size(&path, 4).unwrap_err();
        assert_eq!(
            err,
            Error::ParseTrace {
                line: 1,
                message: "line longer than 4096 bytes".into()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_missing_files() {
        let path = temp_csv("empty.csv", b"# only a comment\n");
        let stream = EpochWindowStream::csv_with_chunk_size(&path, 4).unwrap();
        assert_eq!(stream.blocks(), 0);
        std::fs::remove_file(&path).ok();
        let err = EpochWindowStream::csv("/nonexistent/mosaic-stream.csv").unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err}");
    }

    /// Reads `stream` in ragged 7-block windows and compares each
    /// against the materialised slice.
    fn assert_matches_block_ranges(mut stream: EpochWindowStream, trace: &TransactionTrace) {
        let mut start = 0u64;
        while start < stream.blocks() {
            let mut window = Vec::new();
            stream.read_to(start + 7, &mut window).unwrap();
            assert_eq!(
                window.as_slice(),
                trace.block_range(BlockHeight::new(start), BlockHeight::new(start + 7)),
            );
            start += 7;
        }
        assert_eq!(stream.position(), stream.blocks());
    }

    #[test]
    fn generated_stream_matches_block_ranges() {
        let cfg = WorkloadConfig::small_test(8);
        let trace = generate(&cfg).into_trace();
        let stream = EpochWindowStream::generated(&cfg);
        assert_eq!(stream.blocks(), cfg.blocks);
        assert_matches_block_ranges(stream, &trace);
    }

    #[test]
    fn resident_stream_matches_block_ranges() {
        let cfg = WorkloadConfig::small_test(8);
        let trace = Arc::new(generate(&cfg).into_trace());
        let stream = EpochWindowStream::resident(Arc::clone(&trace));
        assert_eq!(stream.blocks(), cfg.blocks);
        assert_matches_block_ranges(stream, &trace);
        let empty = EpochWindowStream::resident(Arc::new(TransactionTrace::new(Vec::new())));
        assert_eq!(empty.blocks(), 0);
    }
}
