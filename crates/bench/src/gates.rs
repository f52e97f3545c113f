//! The two CI gates over files other programs write.
//!
//! `bench-check <baseline.json> <current.json>` gates the node-replay
//! speedups `mosaic-node replay --bench-out` records (the
//! `node_replay` shape of `BENCH_node.json`). Every baseline entry's
//! speedup must be matched positionally by a current entry with
//! `current / baseline >= --min-ratio` (default 0.9, any finite value
//! above 0). Both files are written by the same replay code, so
//! positional matching is exact; the labels are printed for every row.
//! A file that records `"cpus"` only compares against a baseline from
//! the same cpu count. `--wire <token>` restricts both files to the
//! entries recorded for that wire codec before any gate runs — CI
//! checks the line and binary codecs at different floors, but the
//! committed baseline holds both in one file. `--summary <file.md>`
//! also renders the speedup table as GitHub-flavoured markdown (CI
//! appends it to `$GITHUB_STEP_SUMMARY`).
//!
//! `telemetry-check <file.jsonl>...` gates the telemetry event stream:
//! every line of every file must parse as a standalone JSON object, and
//! the run must have produced at least one event — an empty file would
//! mean the observer silently never engaged. `--require <kind>`
//! (repeatable) also fails unless an event with that `"kind"` appears
//! across the files: how the telemetry-smoke job asserts the epoch
//! pipeline emitted its phase spans, per-epoch records and counters,
//! not just *some* bytes.

use std::collections::BTreeMap;

use crate::json::{parse_json, Json};
use crate::{positive, Args, Failure};

/// One entry of a bench file's `"results"` array.
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

/// The parts of one bench JSON file the gate reads.
#[derive(Debug, Clone, PartialEq)]
struct BenchFile {
    bench: String,
    cpus: Option<f64>,
    entries: Vec<Entry>,
}

fn parse(content: &str) -> Result<BenchFile, String> {
    let json = parse_json(content)?;
    let bench = json
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing \"bench\" field")?;
    let Some(Json::Array(results)) = json.get("results") else {
        return Err("missing \"results\" array".into());
    };
    let entries = results
        .iter()
        .map(|entry| {
            let number = |key| entry.get(key).and_then(Json::as_f64);
            Ok(Entry {
                accounts: number("accounts").unwrap_or(0.0),
                wire: entry.get("wire").and_then(Json::as_str).map(String::from),
                sessions: number("sessions"),
                speedup: number("speedup")
                    .ok_or_else(|| format!("entry without a speedup: {entry:?}"))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if entries.is_empty() {
        return Err("no results entries".into());
    }
    Ok(BenchFile {
        bench: bench.to_string(),
        cpus: json.get("cpus").and_then(Json::as_f64),
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

/// Renders the speedup table as GitHub-flavoured markdown.
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

/// `--min-ratio`: a finite floor above 0, since 0 or a negative floor
/// would pass every ratio and so switch the gate off.
fn min_ratio(args: &Args) -> Result<f64, String> {
    let floor = args.number("--min-ratio", "a finite ratio above 0", positive)?;
    Ok(floor.unwrap_or(0.9))
}

pub(crate) fn bench_check(args: &Args) -> Result<(), Failure> {
    let [baseline_path, current_path] = args.positionals.as_slice() else {
        return Err(Failure::Usage(
            "needs a baseline and a current bench file".into(),
        ));
    };
    let min_ratio = min_ratio(args).map_err(Failure::Usage)?;
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .map_err(|e| Failure::Usage(format!("{path}: {e}")))
    };
    let mut baseline = read(baseline_path)?;
    let mut current = read(current_path)?;
    if let Some(wire) = args.value("--wire") {
        filter_wire(&mut baseline, wire, baseline_path).map_err(Failure::Usage)?;
        filter_wire(&mut current, wire, current_path).map_err(Failure::Usage)?;
    }
    if let Some(path) = args.value("--summary") {
        std::fs::write(path, summary_markdown(&baseline, &current))
            .map_err(|e| Failure::Usage(format!("{path}: {e}")))?;
    }
    let failures = check(&baseline, &current, min_ratio);
    if !failures.is_empty() {
        return Err(Failure::Failed(failures.join("; ")));
    }
    println!("bench-check: all gates passed");
    Ok(())
}

pub(crate) fn telemetry_check(args: &Args) -> Result<(), Failure> {
    let paths = &args.positionals;
    if paths.is_empty() {
        return Err(Failure::Usage("needs at least one .jsonl file".into()));
    }
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut total = 0usize;
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| Failure::Failed(format!("{path}: {e}")))?;
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = format!("{path}:{}", index + 1);
            let value = parse_json(line)
                .map_err(|e| Failure::Failed(format!("{at}: not valid JSON: {e}\n  {line}")))?;
            if !matches!(value, Json::Object(_)) {
                return Err(Failure::Failed(format!(
                    "{at}: line is not a JSON object\n  {line}"
                )));
            }
            total += 1;
            let kind = value
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("<no kind>");
            *kinds.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    if total == 0 {
        return Err(Failure::Failed(format!(
            "no events in {} — the telemetry observer never engaged",
            paths.join(", ")
        )));
    }
    for (kind, count) in &kinds {
        println!("telemetry-check: {count:>6} {kind}");
    }
    println!(
        "telemetry-check: {total} events OK across {} file(s)",
        paths.len()
    );
    for kind in args.values("--require") {
        if !kinds.contains_key(kind) {
            return Err(Failure::Failed(format!(
                "no {kind:?} events found (kinds present: {:?})",
                kinds.keys().collect::<Vec<_>>()
            )));
        }
    }
    Ok(())
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

    #[test]
    fn malformed_ratio_floors_are_refused_not_dropped() {
        let floor = |extra: &[&str]| {
            let args = [&["base.json", "cur.json"][..], extra].concat();
            crate::parse_as("bench-check", &args).and_then(|a| min_ratio(&a))
        };
        assert_eq!(floor(&["--min-ratio", "0.25"]), Ok(0.25));
        assert_eq!(floor(&[]), Ok(0.9));
        for bad in ["0", "-1", "nan", "inf", "x"] {
            let err = floor(&["--min-ratio", bad]).unwrap_err();
            assert!(err.contains("--min-ratio"), "{bad}: {err}");
        }
        assert!(floor(&["--min-ratio"]).is_err());
    }

    #[test]
    fn telemetry_usage_errors_name_the_argument() {
        // A typo'd option is refused, not opened as a file path.
        let typo = crate::parse_as("telemetry-check", &["--requir", "span", "t.jsonl"]);
        assert!(typo.unwrap_err().contains("--requir"));
        let bare = crate::parse_as("telemetry-check", &["t.jsonl", "--require"]);
        assert!(bare.unwrap_err().contains("--require"));
        // No file is a usage error (exit 2), not a failed gate (exit 1).
        let no_file = crate::parse_as("telemetry-check", &["--require", "span"]).unwrap();
        match telemetry_check(&no_file) {
            Err(Failure::Usage(message)) => assert!(message.contains(".jsonl"), "{message}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }
}
