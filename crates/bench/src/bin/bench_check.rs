//! CI gate over the recorded `BENCH_*.json` speedups — no dependencies,
//! no JSON crate, just the two shapes our benches write.
//!
//! ```text
//! bench_check <baseline.json> <current.json> [--min-ratio 0.9]
//!             [--wire line|binary] [--summary <file.md>]
//! ```
//!
//! The gate is the **regression ratio**: every baseline entry's speedup
//! must be matched positionally by a current entry with
//! `current / baseline >= min-ratio` (default 0.9×). Both files are
//! written by the same bench code, so positional matching is exact; the
//! labels are printed for every row. A file that records `"cpus"` only
//! compares against a baseline from the same cpu count.
//!
//! `--wire <token>` restricts both files to the `node_replay` entries
//! recorded for that wire codec before any gate runs — CI checks the
//! line and binary codecs at different floors, but the committed
//! baseline holds both in one file.
//!
//! `--summary <file.md>` additionally renders the seq-vs-par table as
//! GitHub-flavoured markdown (CI appends it to `$GITHUB_STEP_SUMMARY`).
//!
//! Exit status: 0 pass, 1 gate failed, 2 usage/parse error.

use std::process::ExitCode;

/// One `{...}` entry of a bench file's `"results"` array.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    /// `"allocator"` value when present (allocators_parallel shape).
    allocator: Option<String>,
    /// `"nodes"`, `"epochs"` or `"accounts"` — whatever sizes the entry.
    size: f64,
    /// Sequential-side milliseconds, when the shape records them.
    seq_ms: Option<f64>,
    /// Parallel-side milliseconds, when the shape records them.
    par_ms: Option<f64>,
    /// `"wire"` codec token when present (node_replay shape).
    wire: Option<String>,
    /// `"sessions"` count when present (node_replay shape).
    sessions: Option<f64>,
    speedup: f64,
}

/// The parsed skeleton of one bench JSON file.
#[derive(Debug, Clone, PartialEq)]
struct BenchFile {
    bench: String,
    workers: Option<f64>,
    cpus: Option<f64>,
    entries: Vec<Entry>,
}

/// Extracts the number following `"key":` in `text`, if any.
fn find_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string following `"key":` in `text`, if any.
fn find_string(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn parse(content: &str) -> Result<BenchFile, String> {
    let bench = find_string(content, "bench").ok_or("missing \"bench\" field")?;
    let results_at = content
        .find("\"results\"")
        .ok_or("missing \"results\" array")?;
    let body = &content[results_at..];
    let mut entries = Vec::new();
    // Entries are flat objects: split on '{' after the array opens.
    for chunk in body.split('{').skip(1) {
        let entry = &chunk[..chunk.find('}').ok_or("unterminated results entry")?];
        let speedup = find_number(entry, "speedup")
            .ok_or_else(|| format!("entry without a speedup: {entry:?}"))?;
        let size = find_number(entry, "nodes")
            .or_else(|| find_number(entry, "epochs"))
            .or_else(|| find_number(entry, "accounts"))
            .unwrap_or(0.0);
        entries.push(Entry {
            allocator: find_string(entry, "allocator"),
            size,
            seq_ms: find_number(entry, "seq_ms").or_else(|| find_number(entry, "full_rebuild_ms")),
            par_ms: find_number(entry, "par_ms").or_else(|| find_number(entry, "merge_delta_ms")),
            wire: find_string(entry, "wire"),
            sessions: find_number(entry, "sessions"),
            speedup,
        });
    }
    if entries.is_empty() {
        return Err("no results entries".into());
    }
    Ok(BenchFile {
        bench,
        workers: find_number(content, "workers"),
        cpus: find_number(content, "cpus"),
        entries,
    })
}

fn label(e: &Entry) -> String {
    let base = match &e.allocator {
        Some(a) => format!("{a}/{}", e.size),
        None => format!("@{}", e.size),
    };
    match (&e.wire, e.sessions) {
        (Some(wire), Some(sessions)) => format!("{base}[{wire}×{sessions}]"),
        (Some(wire), None) => format!("{base}[{wire}]"),
        _ => base,
    }
}

/// Runs the gate; returns human-readable failures (empty = pass).
fn check(baseline: &BenchFile, current: &BenchFile, min_ratio: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if baseline.bench != current.bench {
        failures.push(format!(
            "bench mismatch: baseline {:?} vs current {:?}",
            baseline.bench, current.bench
        ));
        return failures;
    }
    if baseline.entries.len() != current.entries.len() {
        failures.push(format!(
            "entry count changed: baseline {} vs current {} — re-commit the baseline",
            baseline.entries.len(),
            current.entries.len()
        ));
        return failures;
    }

    // Thread speedups only compare like-for-like: a baseline measured
    // on a different core count would make the ratio gate vacuous (1
    // baseline core vs 4 CI cores) or spuriously flaky (the reverse).
    // Files without a cpus field (algorithmic speedups, e.g.
    // graph_delta) compare across machines fine.
    let comparable = baseline.cpus == current.cpus;
    if !comparable {
        println!(
            "{}: baseline cpus {:?} != current cpus {:?} — ratio gate skipped \
             (re-commit a baseline from this runner class to arm it)",
            current.bench, baseline.cpus, current.cpus
        );
    }
    for (base, cur) in baseline.entries.iter().zip(&current.entries) {
        let ratio = cur.speedup / base.speedup.max(1e-9);
        let verdict = if !comparable {
            "(not comparable)"
        } else if ratio >= min_ratio {
            "ok"
        } else {
            "REGRESSED"
        };
        println!(
            "{}: {} speedup {:.2}x vs baseline {:.2}x (ratio {:.2}) {}",
            current.bench,
            label(cur),
            cur.speedup,
            base.speedup,
            ratio,
            verdict
        );
        if comparable && ratio < min_ratio {
            failures.push(format!(
                "{} speedup regressed to {:.2}x of baseline (floor {min_ratio}x)",
                label(cur),
                ratio
            ));
        }
    }

    failures
}

/// Renders the seq-vs-par table as GitHub-flavoured markdown — CI
/// appends this to `$GITHUB_STEP_SUMMARY` so the speedups are readable
/// without digging through the job log.
fn summary_markdown(baseline: &BenchFile, current: &BenchFile) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "### `{}` — sequential vs parallel", current.bench);
    if let (Some(w), Some(c)) = (current.workers, current.cpus) {
        let _ = writeln!(out, "\n{w} workers on {c} cpus");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| entry | seq ms | par ms | speedup | baseline | ratio |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
    let fmt_ms = |v: Option<f64>| v.map_or_else(|| "—".to_string(), |v| format!("{v:.1}"));
    for (base, cur) in baseline.entries.iter().zip(&current.entries) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2}× | {:.2}× | {:.2} |",
            label(cur),
            fmt_ms(cur.seq_ms),
            fmt_ms(cur.par_ms),
            cur.speedup,
            base.speedup,
            cur.speedup / base.speedup.max(1e-9),
        );
    }
    out
}

/// Restricts a parsed file to the entries recorded for one wire codec.
fn filter_wire(file: &mut BenchFile, wire: &str, path: &str) -> Result<(), String> {
    file.entries.retain(|e| e.wire.as_deref() == Some(wire));
    if file.entries.is_empty() {
        return Err(format!("{path}: no entries with \"wire\": \"{wire}\""));
    }
    Ok(())
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let mut paths = Vec::new();
    let mut min_ratio = 0.9f64;
    let mut summary_path: Option<String> = None;
    let mut wire_filter: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--min-ratio" => {
                min_ratio = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--min-ratio needs a number")?;
            }
            "--wire" => {
                wire_filter = Some(it.next().ok_or("--wire needs a codec token")?.clone());
            }
            "--summary" => {
                summary_path = Some(it.next().ok_or("--summary needs a file path")?.clone());
            }
            _ => paths.push(arg.clone()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return Err("usage: bench_check <baseline.json> <current.json> \
                    [--min-ratio 0.9] [--wire line|binary] \
                    [--summary <file.md>]"
            .into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let mut baseline = parse(&read(baseline_path)?).map_err(|e| format!("{baseline_path}: {e}"))?;
    let mut current = parse(&read(current_path)?).map_err(|e| format!("{current_path}: {e}"))?;
    if let Some(wire) = &wire_filter {
        filter_wire(&mut baseline, wire, baseline_path)?;
        filter_wire(&mut current, wire, current_path)?;
    }
    if let Some(path) = summary_path {
        std::fs::write(&path, summary_markdown(&baseline, &current))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(check(&baseline, &current, min_ratio))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(failures) if failures.is_empty() => {
            println!("bench_check: all gates passed");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("bench_check: FAIL: {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALLOC: &str = r#"{
  "bench": "allocators_parallel",
  "unit": "ms",
  "workers": 4,
  "cpus": 4,
  "shards": 16,
  "results": [
    {"allocator": "metis", "nodes": 2000, "edges": 9000, "seq_ms": 10.0, "par_ms": 6.0, "speedup": 1.67},
    {"allocator": "metis", "nodes": 24000, "edges": 90000, "seq_ms": 200.0, "par_ms": 80.0, "speedup": 2.50},
    {"allocator": "g_txallo", "nodes": 24000, "edges": 90000, "seq_ms": 300.0, "par_ms": 120.0, "speedup": 2.50}
  ]
}"#;

    const GRAPH: &str = r#"{
  "bench": "graph_delta",
  "unit": "ms",
  "trace": {"blocks": 2000, "txs_per_block": 8},
  "results": [
    {"epochs": 4, "txs": 16000, "full_rebuild_ms": 5.0, "merge_delta_ms": 4.0, "speedup": 1.24},
    {"epochs": 64, "txs": 16000, "full_rebuild_ms": 37.9, "merge_delta_ms": 8.0, "speedup": 4.72}
  ]
}"#;

    const SCALE: &str = r#"{
  "bench": "scale_streaming",
  "unit": "MB and epochs/sec; speedup = trace_mb / peak_rss_mb",
  "cpus": 0,
  "scenario": "scenarios/huge.scenario",
  "results": [
    {"accounts": 100000, "blocks": 500, "txs": 400000, "trace_mb": 15.3, "peak_rss_mb": 20.6, "seconds": 0.51, "epochs_per_sec": 9.871, "speedup": 0.74},
    {"accounts": 1000000, "blocks": 5000, "txs": 4000000, "trace_mb": 152.6, "peak_rss_mb": 198.5, "seconds": 10.51, "epochs_per_sec": 0.476, "speedup": 0.77}
  ]
}"#;

    const NODE: &str = r#"{
  "bench": "node_replay",
  "unit": "tx/s over TCP replay; speedup = node_tx_s / offline_tx_s",
  "cpus": 0,
  "scenario": "scenarios/quick.scenario",
  "results": [
    {"accounts": 800, "wire": "line", "sessions": 1, "txs": 80000, "node_tx_s": 365715, "offline_tx_s": 1447989, "speedup": 0.253},
    {"accounts": 800, "wire": "binary", "sessions": 1, "txs": 80000, "node_tx_s": 900000, "offline_tx_s": 1447989, "speedup": 0.622}
  ]
}"#;

    #[test]
    fn node_shape_parses_wire_and_sessions() {
        let f = parse(NODE).unwrap();
        assert_eq!(f.bench, "node_replay");
        assert_eq!(f.entries.len(), 2);
        assert_eq!(f.entries[0].wire.as_deref(), Some("line"));
        assert_eq!(f.entries[1].wire.as_deref(), Some("binary"));
        assert_eq!(f.entries[0].sessions, Some(1.0));
        assert_eq!(label(&f.entries[1]), "@800[binary×1]");
        assert!(check(&f, &f, 0.9).is_empty());
    }

    #[test]
    fn wire_filter_selects_matching_entries_and_rejects_unknown_codecs() {
        let mut f = parse(NODE).unwrap();
        filter_wire(&mut f, "binary", "NODE").unwrap();
        assert_eq!(f.entries.len(), 1);
        assert_eq!(f.entries[0].speedup, 0.622);
        // A single-codec current file compares against the same slice of
        // the two-codec baseline without tripping the entry-count gate.
        let mut baseline = parse(NODE).unwrap();
        filter_wire(&mut baseline, "binary", "NODE").unwrap();
        assert!(check(&baseline, &f, 0.9).is_empty());

        let err = filter_wire(&mut parse(NODE).unwrap(), "carrier-pigeon", "NODE").unwrap_err();
        assert!(err.contains("carrier-pigeon"), "{err}");
    }

    #[test]
    fn scale_shape_sizes_by_accounts_and_arms_the_ratio_gate() {
        let f = parse(SCALE).unwrap();
        assert_eq!(f.bench, "scale_streaming");
        // cpus is pinned to 0 by bench_scale (the memory ratio is
        // machine-independent), so baselines from any box compare.
        assert_eq!(f.cpus, Some(0.0));
        assert_eq!(f.entries[1].size, 1_000_000.0);
        assert!(check(&f, &f, 0.9).is_empty());
        // A shrinking trace/RSS ratio is a regression like any other.
        let mut cur = f.clone();
        cur.entries[1].speedup = 0.77 * 0.8;
        let failures = check(&f, &cur, 0.9);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("@1000000"), "{failures:?}");
    }

    #[test]
    fn parses_both_shapes() {
        let alloc = parse(ALLOC).unwrap();
        assert_eq!(alloc.bench, "allocators_parallel");
        assert_eq!(alloc.cpus, Some(4.0));
        assert_eq!(alloc.entries.len(), 3);
        assert_eq!(alloc.entries[1].allocator.as_deref(), Some("metis"));
        assert_eq!(alloc.entries[1].size, 24000.0);
        assert_eq!(alloc.entries[1].speedup, 2.5);

        let graph = parse(GRAPH).unwrap();
        assert_eq!(graph.bench, "graph_delta");
        assert_eq!(graph.workers, None);
        assert_eq!(graph.entries[1].size, 64.0);
        assert_eq!(graph.entries[1].speedup, 4.72);
    }

    #[test]
    fn identical_files_pass() {
        let f = parse(ALLOC).unwrap();
        assert!(check(&f, &f, 0.9).is_empty());
        let g = parse(GRAPH).unwrap();
        assert!(check(&g, &g, 0.9).is_empty());
    }

    #[test]
    fn regression_below_ratio_fails() {
        let base = parse(GRAPH).unwrap();
        let mut cur = base.clone();
        cur.entries[1].speedup = 4.72 * 0.8; // 0.8 < 0.9 floor
        let failures = check(&base, &cur, 0.9);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{failures:?}");
    }

    #[test]
    fn ratio_gate_skipped_across_different_cpu_counts() {
        // Baseline from a 1-core box, current from a 4-core runner:
        // the thread-speedup ratio is not comparable, so a "regression"
        // must not fire.
        let single = ALLOC.replace("\"cpus\": 4", "\"cpus\": 1");
        let base = parse(&single).unwrap();
        let mut cur = parse(ALLOC).unwrap();
        for e in &mut cur.entries {
            e.speedup = 0.5; // would trip the ratio gate if armed
        }
        assert!(check(&base, &cur, 0.9).is_empty());
    }

    #[test]
    fn summary_table_renders_all_rows() {
        let f = parse(ALLOC).unwrap();
        let md = summary_markdown(&f, &f);
        assert!(md.contains("### `allocators_parallel`"), "{md}");
        assert!(md.contains("4 workers on 4 cpus"), "{md}");
        // One row per entry, with measured times and a 1.00 ratio.
        assert_eq!(md.matches("| 1.00 |").count(), 3, "{md}");
        assert!(
            md.contains("| metis/24000 | 200.0 | 80.0 | 2.50× | 2.50× | 1.00 |"),
            "{md}"
        );
        // The graph shape maps rebuild/delta onto the same columns.
        let g = parse(GRAPH).unwrap();
        let gmd = summary_markdown(&g, &g);
        assert!(
            gmd.contains("| @64 | 37.9 | 8.0 | 4.72× | 4.72× | 1.00 |"),
            "{gmd}"
        );
    }

    #[test]
    fn shape_changes_are_loud() {
        let base = parse(ALLOC).unwrap();
        let mut cur = base.clone();
        cur.entries.pop();
        let failures = check(&base, &cur, 0.9);
        assert!(failures[0].contains("entry count changed"), "{failures:?}");
        let graph = parse(GRAPH).unwrap();
        let failures = check(&base, &graph, 0.9);
        assert!(failures[0].contains("bench mismatch"), "{failures:?}");
    }
}
