//! Metric names and units, and the result line the benchmark prints last.
//!
//! The tables here must match `BENCHMARK.json`: a test checks that both
//! list the same names and units.

use serde::json::Value;
use serde::Serialize;

/// End-to-end metrics, printed by an untraced run. Host-clock metrics are
/// wall time and memory on the machine running the benchmark; `sim_`
/// metrics and `accuracy` come from the simulated accelerator and repeat
/// exactly for a given seed.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_us_per_req", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_throughput_rps", "1/s"),
    ("sim_p50_us", "us"),
    ("sim_p999_us", "us"),
    ("sim_mj_per_answer", "mJ"),
    ("sim_capacity_rps", "1/s"),
    ("accuracy", "ratio"),
];

/// Per-layer metrics, printed by a traced run. The prefix names the
/// layer; README.md maps each to the end-to-end metric and workload it
/// should move.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.dataset_ms", "ms"),
    ("model.train_ms", "ms"),
    ("ith.calibrate_ms", "ms"),
    ("model.eval_ms", "ms"),
    ("hw.story_digest_ms", "ms"),
    ("hw.write_story_us", "us"),
    ("hw.answer_query_us", "us"),
    ("hw.compose_uncached_us", "us"),
    ("hw.write_story_calls", "count"),
    ("hw.answer_query_calls", "count"),
    ("hw.numeric_ms", "ms"),
    ("hw.sim_cycles_per_req.control", "cycles"),
    ("hw.sim_cycles_per_req.write", "cycles"),
    ("hw.sim_cycles_per_req.addressing", "cycles"),
    ("hw.sim_cycles_per_req.read", "cycles"),
    ("hw.sim_cycles_per_req.controller", "cycles"),
    ("hw.sim_cycles_per_req.output", "cycles"),
    ("ith.comparisons_per_req", "count"),
    ("ith.speculated_frac", "ratio"),
    ("serve.serve_ms", "ms"),
    ("serve.loop_report_ms", "ms"),
    ("serve.report_json_ms", "ms"),
    ("serve.report_render_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.queue_wait_us", "us"),
    ("serve.max_queue_depth", "count"),
    ("serve.link_utilization", "ratio"),
    ("serve.occupancy", "ratio"),
    ("serve.batch_fused_groups", "count"),
    ("serve.batch_cycles_saved", "cycles"),
    ("cluster.serve_ms", "ms"),
    ("cluster.failovers", "count"),
    ("cluster.stories_moved", "count"),
    ("cluster.handoff_bytes", "B"),
    ("cluster.split_requests", "count"),
    ("cluster.moved_key_fraction", "ratio"),
    ("cluster.shard_skew", "ratio"),
    ("store.journal_ms", "ms"),
    ("store.recovery_ms", "ms"),
    ("store.records", "count"),
    ("store.fsyncs", "count"),
    ("store.snapshots", "count"),
    ("store.replayed_records", "count"),
    ("store.torn_tails", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Measured values, in the order they were set.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in the order of `specs`.
    ///
    /// # Panics
    ///
    /// Panics unless exactly the metrics of `specs` were set, each once
    /// and finite: a bug in this benchmark, not in the program measured.
    pub fn to_json(&self, specs: &[(&'static str, &'static str)]) -> Value {
        let mut names: Vec<&str> = self.0.iter().map(|(n, _)| *n).collect();
        let mut wanted: Vec<&str> = specs.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        wanted.sort_unstable();
        assert_eq!(
            names, wanted,
            "the measured metrics must be exactly the listed ones"
        );
        Value::Object(
            specs
                .iter()
                .map(|&(name, unit)| {
                    let v = self.get(name).expect("checked above");
                    assert!(v.is_finite(), "metric {name} is not finite: {v}");
                    let entry = Value::Object(vec![
                        ("value".into(), v.to_value()),
                        ("unit".into(), unit.to_value()),
                    ]);
                    (name.to_owned(), entry)
                })
                .collect(),
        )
    }
}

/// The last line of a run: correctness, operation counts and metrics.
pub fn result_line(attempted: usize, failed: usize, metrics: Value) -> String {
    Value::Object(vec![
        ("correct".into(), true.to_value()),
        ("attempted".into(), attempted.to_value()),
        ("failed".into(), failed.to_value()),
        ("metrics".into(), metrics),
    ])
    .print()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let Value::Array(items) = doc.field(key).expect("key present") else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| {
                        item.field(f)
                            .expect("field")
                            .as_str()
                            .expect("string")
                            .to_owned()
                    })
                    .collect()
            })
            .collect()
    }

    fn owned(specs: &[(&str, &str)]) -> Vec<Vec<String>> {
        specs
            .iter()
            .map(|(n, u)| vec![(*n).to_owned(), (*u).to_owned()])
            .collect()
    }

    #[test]
    fn metric_names_are_plain() {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "metric name {name:?} must match ^[A-Za-z0-9_.-]+$"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_emits() {
        let doc = benchmark_json();
        assert_eq!(
            listed(&doc, "end_to_end", &["name", "unit"]),
            owned(&END_TO_END)
        );
        assert_eq!(
            listed(&doc, "per_layer", &["name", "unit"]),
            owned(&PER_LAYER)
        );
        let workloads: Vec<String> = listed(&doc, "workloads", &["name"])
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(workloads, NAMES);
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let mut v = Values::default();
        v.set("sim_p50_us", 1.25);
        let line = result_line(3, 0, v.to_json(&[("sim_p50_us", "us")]));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"sim_p50_us":{"value":1.25,"unit":"us"}}}"#
        );
    }
}
