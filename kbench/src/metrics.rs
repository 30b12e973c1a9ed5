//! The benchmark's metric tables — the one place metric names, units,
//! directions and regression bounds are written down — and the result a run
//! produces. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`]'s output, byte for byte (a test keeps them equal), so
//! the file and the binary cannot drift.

use std::fmt::Write as _;

use crate::workload::WORKLOADS;

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 12;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name; later in-program instrumentation must keep it.
    pub name: &'static str,
    /// Unit as printed beside every value.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the system sees and this sandbox can resolve. Measured
/// with tracing off; every workload reports every one of them.
///
/// The client-side serving metrics of the issue (`serve_ops_per_s`, the
/// latency medians and tails per request class, the reopen time) are not
/// here but in [`PER_LAYER`]: over ten back-to-back runs they did not repeat
/// within any bound the contract allows, and a metric that does not repeat
/// is demoted, not kept with a wider bound (README, "Demoted").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("decompose_medges_per_s", "Medges/s", true, 0.25),
    e2e("decompose_read_ios", "count", false, 0.001),
    e2e("disk_bytes_per_edge", "B/edge", false, 0.05),
];

/// One layer each, from the traced run (`--trace 1`). No bounds: they
/// explain a movement of an end-to-end metric, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("builder.build_medges_per_s", "Medges/s", true),
    layer("vfs.seq_read_mb_per_s", "MB/s", true),
    layer("vfs.reads", "count", false),
    layer("vfs.read_s", "s", false),
    layer("vfs.read_bytes", "B", false),
    layer("vfs.fsync_us_p50", "us", false),
    layer("vfs.fsyncs", "count", false),
    layer("vfs.write_bytes", "B", false),
    layer("io.blocks_per_s", "1/s", true),
    layer("io.physical_reads", "count", false),
    layer("io.physical_reads_per_write", "count", false),
    layer("cache.hit_ratio", "ratio", true),
    layer("cache.misses", "count", false),
    layer("cache.evictions", "count", false),
    layer("pool.hit_ratio", "ratio", true),
    layer("pool.evictions", "count", false),
    layer("codec.v3_decode_mids_per_s", "Mids/s", true),
    layer("codec.v3_scalar_decode_mids_per_s", "Mids/s", true),
    layer("codec.v2_decode_mids_per_s", "Mids/s", true),
    layer("codec.memcpy_mids_per_s", "Mids/s", true),
    layer("codec.v3_bytes_per_id", "B", false),
    layer("graph.scan_mids_per_s", "Mids/s", true),
    layer("graph.scan_v1_mids_per_s", "Mids/s", true),
    layer("graph.readahead_speedup", "ratio", true),
    layer("graph.ids_delivered", "count", false),
    layer("graph.call_s", "s", false),
    layer("semicore_star.self_s", "s", false),
    layer("semicore_star.passes", "count", false),
    layer("semicore_star.node_computations", "count", false),
    layer("semicore_star.ids_per_s", "Mids/s", true),
    layer("semicore_star.decode_roofline_fraction", "ratio", true),
    layer("semicore_star.mem_model_bytes", "B", false),
    layer("executor.parallel2_speedup", "ratio", true),
    layer("maintain.insert_us_p50", "us", false),
    layer("maintain.insert_us_p99", "us", false),
    layer("maintain.delete_us_p50", "us", false),
    layer("maintain.mem_insert_us_p50", "us", false),
    layer("maintain.node_computations_per_insert", "count", false),
    layer("maintain.read_ios_per_insert", "count", false),
    layer("wal.commit_us_p50", "us", false),
    layer("wal.append_sync_us_p50", "us", false),
    layer("wal.group_wait_us_p50", "us", false),
    layer("wal.fsyncs_per_write", "count", false),
    layer("wal.bytes_per_write", "B", false),
    layer("wal.share", "ratio", false),
    layer("catalog.checkpoint_ms", "ms", false),
    layer("catalog.compact_ms", "ms", false),
    layer("catalog.compactions", "count", false),
    layer("catalog.reopen_ms", "ms", false),
    layer("catalog.reopen_read_ios", "count", false),
    layer("service.overhead_us_p50", "us", false),
    layer("service.read_solo_us_p50", "us", false),
    layer("service.lock_wait_us_p50", "us", false),
    layer("service.lock_wait_us_p99", "us", false),
    layer("service.lock_wait_share", "ratio", false),
    layer("server.dispatch_us_p50", "us", false),
    layer("server.socket_us_p50", "us", false),
    layer("server.stock_client_rtt_us_p50", "us", false),
    layer("serve_ops_per_s", "1/s", true),
    layer("insert_p50_us", "us", false),
    layer("insert_p99_us", "us", false),
    layer("delete_p50_us", "us", false),
    layer("delete_p99_us", "us", false),
    layer("read_p50_us", "us", false),
    layer("read_p99_us", "us", false),
    layer("trace.peel_sum_ratio", "ratio", false),
    layer("trace.overhead_ratio", "ratio", false),
];

/// A measured value under its metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind a timing (0 for counts and ratios), printed beside it.
    pub samples: usize,
    /// Free-form remark for the printed table (e.g. which percentile backs
    /// an under-sampled tail).
    pub note: String,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests and decompositions attempted.
    pub attempted: u64,
    /// Of those, failed (an `err` reply, a timeout, an error).
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Measured>,
    /// Failed output checks, human-readable.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Append a count or ratio.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_timing(name, value, 0, "");
    }

    /// Append a timing with the sample count behind it.
    pub fn put_timing(&mut self, name: &'static str, value: f64, samples: usize, note: &str) {
        self.metrics.push(Measured {
            name,
            value,
            samples,
            note: note.to_string(),
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed output check.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    /// What is wrong with this outcome as a report of `defs`: every name
    /// must have been measured exactly once, with a finite value.
    pub fn gaps(&self, defs: &[MetricDef]) -> Vec<String> {
        let mut wrong = Vec::new();
        for d in defs {
            let hits: Vec<_> = self.metrics.iter().filter(|m| m.name == d.name).collect();
            match hits.as_slice() {
                [one] if one.value.is_finite() => {}
                [one] => wrong.push(format!("{} is {}", d.name, one.value)),
                [] => wrong.push(format!("{} was not measured", d.name)),
                _ => wrong.push(format!("{} was measured {} times", d.name, hits.len())),
            }
        }
        wrong
    }

    /// The driver's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, the metrics being
    /// exactly `defs`, in their order. A metric that was not measured reads
    /// `null`, and the line then says `"correct": false`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.gaps(defs).is_empty(),
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit it has and always as a
            // JSON number (`1.0`, `1e-7`), never in a rounded form.
            let value = match self.get(d.name).filter(|v| v.is_finite()) {
                Some(v) => format!("{v:?}"),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the metrics (goes to stderr).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let unit = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|d| d.name == m.name)
                .map_or("(not in BENCHMARK.json)", |d| d.unit);
            let samples = if m.samples > 0 {
                format!("  n={}", m.samples)
            } else {
                String::new()
            };
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            let _ = writeln!(
                out,
                "  {:<42} {:>16.4} {:<9}{samples}{note}",
                m.name, m.value, unit
            );
        }
        out
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"kbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"kbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}}}{comma}",
            m.name,
            m.unit,
            better(m),
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn better(m: &MetricDef) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']));
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            on_disk == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `kbench --emit-benchmark-json`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_precision() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            ..Default::default()
        };
        o.put("decompose_read_ios", 1234.0);
        o.put("extra_not_in_the_table", 1.0);
        let defs = [END_TO_END[0], END_TO_END[2]];
        assert_eq!(defs[1].name, "decompose_read_ios");
        assert_eq!(
            o.result_line(&defs),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": null, \"unit\": \"s\"}, \
             \"decompose_read_ios\": {\"value\": 1234.0, \"unit\": \"count\"}}}"
        );
        o.put("setup_s", 0.1 + 0.2);
        assert_eq!(
            o.result_line(&defs),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"decompose_read_ios\": {\"value\": 1234.0, \"unit\": \"count\"}}}"
        );
    }
}
