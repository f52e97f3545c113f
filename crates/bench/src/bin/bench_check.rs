//! CI gate over the node-replay speedups `mosaic-node replay
//! --bench-out` records (the `node_replay` shape of `BENCH_node.json`)
//! — no dependencies, no JSON crate.
//!
//! ```text
//! bench_check <baseline.json> <current.json> [--min-ratio 0.9]
//!             [--wire line|binary] [--summary <file.md>]
//! ```
//!
//! The gate is the **regression ratio**: every baseline entry's speedup
//! must be matched positionally by a current entry with
//! `current / baseline >= min-ratio` (default 0.9×). Both files are
//! written by the same replay code, so positional matching is exact;
//! the labels are printed for every row. A file that records `"cpus"`
//! only compares against a baseline from the same cpu count.
//!
//! `--wire <token>` restricts both files to the `node_replay` entries
//! recorded for that wire codec before any gate runs — CI checks the
//! line and binary codecs at different floors, but the committed
//! baseline holds both in one file.
//!
//! `--summary <file.md>` additionally renders the speedup table as
//! GitHub-flavoured markdown (CI appends it to `$GITHUB_STEP_SUMMARY`).
//!
//! Exit status: 0 pass, 1 gate failed, 2 usage/parse error.

use std::process::ExitCode;

/// One `{...}` entry of a bench file's `"results"` array.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    /// `"accounts"` the replayed scenario holds (0 when absent).
    accounts: f64,
    /// `"wire"` codec token, when present.
    wire: Option<String>,
    /// `"sessions"` count, when present.
    sessions: Option<f64>,
    speedup: f64,
}

/// The parsed skeleton of one bench JSON file.
#[derive(Debug, Clone, PartialEq)]
struct BenchFile {
    bench: String,
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
        entries.push(Entry {
            accounts: find_number(entry, "accounts").unwrap_or(0.0),
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
        cpus: find_number(content, "cpus"),
        entries,
    })
}

fn label(e: &Entry) -> String {
    let base = format!("@{}", e.accounts);
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

    // Speedups only compare like-for-like: a baseline measured on a
    // different core count would make the ratio gate vacuous (1
    // baseline core vs 4 CI cores) or spuriously flaky (the reverse).
    // `mosaic-node replay` pins `"cpus": 0`, so its files always
    // compare.
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

/// Renders the speedup table as GitHub-flavoured markdown — CI appends
/// this to `$GITHUB_STEP_SUMMARY` so the speedups are readable without
/// digging through the job log.
fn summary_markdown(baseline: &BenchFile, current: &BenchFile) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "### `{}`\n", current.bench);
    let _ = writeln!(out, "| entry | speedup | baseline | ratio |");
    let _ = writeln!(out, "|---|---:|---:|---:|");
    for (base, cur) in baseline.entries.iter().zip(&current.entries) {
        let _ = writeln!(
            out,
            "| {} | {:.2}× | {:.2}× | {:.2} |",
            label(cur),
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
        assert_eq!(f.cpus, Some(0.0));
        assert_eq!(f.entries.len(), 2);
        assert_eq!(f.entries[0].wire.as_deref(), Some("line"));
        assert_eq!(f.entries[1].wire.as_deref(), Some("binary"));
        assert_eq!(f.entries[0].sessions, Some(1.0));
        assert_eq!(f.entries[1].speedup, 0.622);
        assert_eq!(label(&f.entries[1]), "@800[binary×1]");
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
    fn identical_files_pass() {
        let f = parse(NODE).unwrap();
        assert!(check(&f, &f, 0.9).is_empty());
    }

    #[test]
    fn regression_below_ratio_fails() {
        let base = parse(NODE).unwrap();
        let mut cur = base.clone();
        cur.entries[1].speedup = 0.622 * 0.8; // 0.8 < 0.9 floor
        let failures = check(&base, &cur, 0.9);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{failures:?}");
        assert!(failures[0].contains("@800[binary×1]"), "{failures:?}");
        // The same drop clears a looser floor.
        assert!(check(&base, &cur, 0.5).is_empty());
    }

    #[test]
    fn ratio_gate_skipped_across_different_cpu_counts() {
        // Baseline from a 4-core box, current pinned to 0: the ratio is
        // not comparable, so a "regression" must not fire.
        let base = parse(&NODE.replace("\"cpus\": 0", "\"cpus\": 4")).unwrap();
        let mut cur = parse(NODE).unwrap();
        for e in &mut cur.entries {
            e.speedup = 0.01; // would trip the ratio gate if armed
        }
        assert!(check(&base, &cur, 0.9).is_empty());
    }

    #[test]
    fn summary_table_renders_all_rows() {
        let f = parse(NODE).unwrap();
        let md = summary_markdown(&f, &f);
        assert!(md.contains("### `node_replay`"), "{md}");
        // One row per entry, with a 1.00 ratio.
        assert_eq!(md.matches("| 1.00 |").count(), 2, "{md}");
        assert!(
            md.contains("| @800[line×1] | 0.25× | 0.25× | 1.00 |"),
            "{md}"
        );
        assert!(
            md.contains("| @800[binary×1] | 0.62× | 0.62× | 1.00 |"),
            "{md}"
        );
    }

    #[test]
    fn shape_changes_are_loud() {
        let base = parse(NODE).unwrap();
        let mut cur = base.clone();
        cur.entries.pop();
        let failures = check(&base, &cur, 0.9);
        assert!(failures[0].contains("entry count changed"), "{failures:?}");
        let other = parse(&NODE.replace("node_replay", "scale_streaming")).unwrap();
        let failures = check(&base, &other, 0.9);
        assert!(failures[0].contains("bench mismatch"), "{failures:?}");
    }
}
