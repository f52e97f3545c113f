//! The metric tables — the single owner of every name, unit, direction
//! and bound — and the `BENCHMARK.json` text generated from them.

use crate::workloads::WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    fn token(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug)]
pub struct EndToEnd {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// The share of the parent's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports (untraced run).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "offline_tx_s",
        unit: "tx/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "offline_epoch_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "offline_epoch_p75_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "node_tx_s",
        unit: "tx/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "node_epoch_stall_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics every workload reports (traced run): name,
/// unit, direction. Layers are the crates.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("workload.read_ns_per_tx", "ns/tx", Better::Lower),
    ("workload.open_ms", "ms", Better::Lower),
    ("workload.txs", "count", Better::Higher),
    ("workload.generate_ns_per_tx", "ns/tx", Better::Lower),
    ("txgraph.train_merge_ns_per_tx", "ns/tx", Better::Lower),
    ("txgraph.edges_merged", "count", Better::Lower),
    ("core.observe_ns_per_tx", "ns/tx", Better::Lower),
    ("core.init_alloc_ms", "ms", Better::Lower),
    ("core.before_epoch_p50_ms", "ms", Better::Lower),
    ("core.before_epoch_p90_ms", "ms", Better::Lower),
    ("core.before_epoch_share", "ratio", Better::Lower),
    ("core.decision_ns_mean", "ns", Better::Lower),
    ("core.input_bytes_mean", "B", Better::Lower),
    ("txallo.observe_ns_per_tx", "ns/tx", Better::Lower),
    ("txallo.init_alloc_ms", "ms", Better::Lower),
    ("txallo.before_epoch_p50_ms", "ms", Better::Lower),
    ("txallo.before_epoch_p90_ms", "ms", Better::Lower),
    ("txallo.before_epoch_share", "ratio", Better::Lower),
    ("partition.observe_ns_per_tx", "ns/tx", Better::Lower),
    ("partition.init_alloc_ms", "ms", Better::Lower),
    ("partition.before_epoch_p50_ms", "ms", Better::Lower),
    ("partition.before_epoch_p90_ms", "ms", Better::Lower),
    ("partition.before_epoch_share", "ratio", Better::Lower),
    ("chain.process_epoch_ns_per_tx", "ns/tx", Better::Lower),
    ("chain.set_allocation_ms", "ms", Better::Lower),
    ("chain.migrations_committed", "count", Better::Higher),
    ("chain.migrations_stale", "count", Better::Lower),
    ("metrics.csv_encode_ns_per_row", "ns/row", Better::Lower),
    ("metrics.csv_bytes", "B", Better::Lower),
    ("sim.train_s", "s", Better::Lower),
    ("sim.epoch_depth_ratio", "ratio", Better::Lower),
    ("sim.unattributed_share", "ratio", Better::Lower),
    ("node.boot_ms", "ms", Better::Lower),
    ("node.encode_ns_per_tx", "ns/tx", Better::Lower),
    ("node.decode_ns_per_tx", "ns/tx", Better::Lower),
    ("node.bytes_per_tx", "B/tx", Better::Lower),
    ("node.requests", "count", Better::Higher),
    ("node.replies", "count", Better::Higher),
    ("node.session_apply_ns_per_tx", "ns/tx", Better::Lower),
    ("node.lookup_apply_ns_p50", "ns", Better::Lower),
    ("node.lookup_rtt_p50_us", "us", Better::Lower),
    ("node.big_frame_lookup_p50_us", "us", Better::Lower),
    ("node.event_api_overhead_ns_per_tx", "ns/tx", Better::Lower),
    ("node.wire_overhead_ns_per_tx", "ns/tx", Better::Lower),
    ("telemetry.offline_overhead_share", "ratio", Better::Lower),
    ("telemetry.node_overhead_share", "ratio", Better::Lower),
];

/// How long one run measures; `BENCHMARK.json`'s `run_seconds` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The `BENCHMARK.json` text these tables define. The checked-in file
/// must equal it byte for byte (unit-tested), so the tables above stay
/// the only place a name or a bound is written.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"bench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.token(),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.token()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: cargo run --manifest-path bench/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (_, unit, _) in &PER_LAYER {
            assert!(unit_ok(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 110.0) < 0.0);
    }
}
