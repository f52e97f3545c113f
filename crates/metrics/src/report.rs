//! Experiment reporting: per-epoch metric rows, aggregates, streaming
//! CSV output, and plain-text tables shaped like the paper's.
//!
//! Long protocols (the paper's `full` scale runs 200 epochs; larger
//! traces run more) should not accumulate whole-run metric vectors:
//! [`EpochCsvWriter`] streams each row to any [`io::Write`] sink as it
//! is produced, and [`AggregateBuilder`] folds the running means with
//! the exact same floating-point operation order as [`Aggregate::over`]
//! — so a streamed run reports bit-identical aggregates in O(1) memory.

use std::fmt;
use std::io;

use crate::load::EpochLoad;

/// Header line of the per-epoch CSV series (no trailing newline).
pub const EPOCH_CSV_HEADER: &str =
    "epoch,cross_ratio,workload_deviation,normalized_throughput,txs,migrations";

/// The effectiveness metrics of a single evaluation epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Cross-shard transaction ratio in `[0, 1]`.
    pub cross_ratio: f64,
    /// Workload deviation (§V-A formula).
    pub workload_deviation: f64,
    /// Normalised throughput `Λ/λ`.
    pub normalized_throughput: f64,
    /// Transactions offered this epoch.
    pub total_txs: usize,
    /// Migration requests committed this epoch (0 for static baselines).
    pub migrations: usize,
}

impl EpochMetrics {
    /// Extracts the metric row from a computed [`EpochLoad`].
    pub fn from_load(load: &EpochLoad, migrations: usize) -> Self {
        EpochMetrics {
            cross_ratio: load.cross_ratio(),
            workload_deviation: load.workload_deviation(),
            normalized_throughput: load.normalized_throughput(),
            total_txs: load.total_txs(),
            migrations,
        }
    }

    /// One CSV data row (no trailing newline) under [`EPOCH_CSV_HEADER`].
    pub fn csv_row(&self, epoch: usize) -> String {
        format!(
            "{epoch},{:.6},{:.6},{:.6},{},{}",
            self.cross_ratio,
            self.workload_deviation,
            self.normalized_throughput,
            self.total_txs,
            self.migrations
        )
    }
}

/// Streams per-epoch metric rows to an [`io::Write`] sink as they are
/// produced, so a run of any length holds no per-epoch vector in memory.
///
/// The output is [`EPOCH_CSV_HEADER`] and one [`EpochMetrics::csv_row`]
/// per epoch: the per-epoch CSV every runner and the node write.
#[derive(Debug)]
pub struct EpochCsvWriter<W: io::Write> {
    out: W,
    rows: usize,
}

impl<W: io::Write> EpochCsvWriter<W> {
    /// Wraps `out` and writes the CSV header.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn new(mut out: W) -> io::Result<Self> {
        writeln!(out, "{EPOCH_CSV_HEADER}")?;
        Ok(EpochCsvWriter { out, rows: 0 })
    }

    /// Appends one epoch row; rows are numbered in call order.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn write_epoch(&mut self, metrics: &EpochMetrics) -> io::Result<()> {
        writeln!(self.out, "{}", metrics.csv_row(self.rows))?;
        self.rows += 1;
        Ok(())
    }

    /// Number of data rows written so far.
    pub fn rows_written(&self) -> usize {
        self.rows
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Running aggregation of epoch rows in O(1) memory.
///
/// Sums are accumulated in push order, so [`AggregateBuilder::finish`]
/// is bit-identical to [`Aggregate::over`] on the same rows in the same
/// order — streamed runs and collected runs report the same numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregateBuilder {
    cross_ratio_sum: f64,
    workload_deviation_sum: f64,
    normalized_throughput_sum: f64,
    total_txs: usize,
    migrations: usize,
    epochs: usize,
}

impl AggregateBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        AggregateBuilder::default()
    }

    /// Folds one epoch row into the running sums.
    pub fn push(&mut self, metrics: &EpochMetrics) {
        self.cross_ratio_sum += metrics.cross_ratio;
        self.workload_deviation_sum += metrics.workload_deviation;
        self.normalized_throughput_sum += metrics.normalized_throughput;
        self.total_txs += metrics.total_txs;
        self.migrations += metrics.migrations;
        self.epochs += 1;
    }

    /// Number of rows folded so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The aggregate over every pushed row; all-zero if none was pushed.
    pub fn finish(&self) -> Aggregate {
        if self.epochs == 0 {
            return Aggregate::default();
        }
        let nf = self.epochs as f64;
        Aggregate {
            cross_ratio: self.cross_ratio_sum / nf,
            workload_deviation: self.workload_deviation_sum / nf,
            normalized_throughput: self.normalized_throughput_sum / nf,
            total_txs: self.total_txs,
            migrations: self.migrations,
            epochs: self.epochs,
        }
    }
}

/// Mean metrics over a sequence of epochs (the paper reports per-epoch
/// averages over 200 evaluation epochs).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Mean cross-shard ratio.
    pub cross_ratio: f64,
    /// Mean workload deviation.
    pub workload_deviation: f64,
    /// Mean normalised throughput.
    pub normalized_throughput: f64,
    /// Total transactions across epochs.
    pub total_txs: usize,
    /// Total migrations across epochs.
    pub migrations: usize,
    /// Number of epochs aggregated.
    pub epochs: usize,
}

impl Aggregate {
    /// Averages a slice of epoch metrics; all-zero for an empty slice.
    pub fn over(epochs: &[EpochMetrics]) -> Self {
        let n = epochs.len();
        if n == 0 {
            return Aggregate::default();
        }
        let nf = n as f64;
        Aggregate {
            cross_ratio: epochs.iter().map(|e| e.cross_ratio).sum::<f64>() / nf,
            workload_deviation: epochs.iter().map(|e| e.workload_deviation).sum::<f64>() / nf,
            normalized_throughput: epochs.iter().map(|e| e.normalized_throughput).sum::<f64>() / nf,
            total_txs: epochs.iter().map(|e| e.total_txs).sum(),
            migrations: epochs.iter().map(|e| e.migrations).sum(),
            epochs: n,
        }
    }
}

/// A minimal aligned text/markdown table builder used by the report
/// binaries to print paper-style tables.
///
/// # Example
///
/// ```
/// use mosaic_metrics::TextTable;
/// let mut t = TextTable::new(["Parameters", "Pilot", "Random"]);
/// t.push_row(["k = 4", "24.07%", "74.95%"]);
/// let rendered = t.to_string();
/// assert!(rendered.contains("Pilot"));
/// assert!(rendered.contains("24.07%"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows
    /// extend the header width with empty headers.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        while self.headers.len() < row.len() {
            self.headers.push(String::new());
        }
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push('|');
        for h in &self.headers {
            out.push_str(&format!(" {h} |"));
        }
        out.push_str("\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for c in 0..self.headers.len() {
                let cell = row.get(c).map(String::as_str).unwrap_or("");
                out.push_str(&format!(" {cell} |"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TextTable {
    /// Renders as an aligned plain-text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                if c < cols {
                    widths[c] = widths[c].max(cell.len());
                }
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (c, width) in widths.iter().enumerate() {
                let cell = cells.get(c).map(String::as_str).unwrap_or("");
                write!(f, "{cell:<width$}")?;
                if c + 1 < cols {
                    write!(f, "  ")?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadParams;
    use mosaic_types::{AccountId, BlockHeight, ShardId, Transaction, TxId};

    #[test]
    fn epoch_metrics_from_load() {
        let txs = [Transaction::new(
            TxId::new(0),
            AccountId::new(0),
            AccountId::new(1),
            BlockHeight::new(0),
        )];
        let load = EpochLoad::compute(
            &txs,
            LoadParams {
                shards: 2,
                eta: 2.0,
                lambda: 5.0,
            },
            |a| ShardId::new((a.as_u64() % 2) as u16),
        );
        let m = EpochMetrics::from_load(&load, 3);
        assert_eq!(m.cross_ratio, 1.0);
        assert_eq!(m.total_txs, 1);
        assert_eq!(m.migrations, 3);
    }

    #[test]
    fn aggregate_means() {
        let rows = vec![
            EpochMetrics {
                cross_ratio: 0.2,
                workload_deviation: 0.5,
                normalized_throughput: 4.0,
                total_txs: 100,
                migrations: 5,
            },
            EpochMetrics {
                cross_ratio: 0.4,
                workload_deviation: 0.7,
                normalized_throughput: 6.0,
                total_txs: 200,
                migrations: 7,
            },
        ];
        let agg = Aggregate::over(&rows);
        assert!((agg.cross_ratio - 0.3).abs() < 1e-12);
        assert!((agg.workload_deviation - 0.6).abs() < 1e-12);
        assert!((agg.normalized_throughput - 5.0).abs() < 1e-12);
        assert_eq!(agg.total_txs, 300);
        assert_eq!(agg.migrations, 12);
        assert_eq!(agg.epochs, 2);
    }

    #[test]
    fn aggregate_of_empty_is_default() {
        assert_eq!(Aggregate::over(&[]), Aggregate::default());
    }

    fn sample_rows(n: usize) -> Vec<EpochMetrics> {
        (0..n)
            .map(|i| EpochMetrics {
                cross_ratio: (i as f64 * 0.137).fract(),
                workload_deviation: (i as f64 * 0.731).fract(),
                normalized_throughput: 1.0 + (i as f64 * 0.317).fract(),
                total_txs: 100 + i,
                migrations: i % 7,
            })
            .collect()
    }

    #[test]
    fn aggregate_builder_is_bit_identical_to_over() {
        let rows = sample_rows(153);
        let mut builder = AggregateBuilder::new();
        for row in &rows {
            builder.push(row);
        }
        assert_eq!(builder.epochs(), rows.len());
        // Bit-identical, not approximately equal: push order == sum order.
        assert_eq!(builder.finish(), Aggregate::over(&rows));
        assert_eq!(AggregateBuilder::new().finish(), Aggregate::default());
    }

    #[test]
    fn csv_writer_streams_header_and_rows() {
        let rows = sample_rows(5);
        let mut writer = EpochCsvWriter::new(Vec::new()).unwrap();
        for row in &rows {
            writer.write_epoch(row).unwrap();
        }
        assert_eq!(writer.rows_written(), 5);
        let bytes = writer.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let mut expected = format!("{EPOCH_CSV_HEADER}\n");
        for (i, row) in rows.iter().enumerate() {
            expected.push_str(&row.csv_row(i));
            expected.push('\n');
        }
        assert_eq!(text, expected);
    }

    #[test]
    fn table_alignment_and_markdown() {
        let mut t = TextTable::new(["A", "Bee"]);
        t.push_row(["longvalue", "x"]);
        t.push_row(["s"]);
        let text = t.to_string();
        assert!(text.contains("longvalue"));
        let md = t.to_markdown();
        assert!(md.starts_with("| A | Bee |"));
        assert!(md.contains("|---|---|"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn table_extends_headers_for_long_rows() {
        let mut t = TextTable::new(["only"]);
        t.push_row(["a", "b", "c"]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b | c |"));
    }
}
