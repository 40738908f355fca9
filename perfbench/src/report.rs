//! Metric tables and the two result lines: a detailed record with sample
//! counts and settings, and the final one-line summary.

use std::collections::BTreeMap;

use mega_serve::http::json::Json;

use crate::stats::Stat;

/// End-to-end metrics, tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_predict", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("model_bytes_per_node", "B"),
    ("predict_rps", "1/s"),
    ("predict_p50_ms", "ms"),
    ("predict_p90_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("setup_wall_s", "s"),
];

/// End-to-end metrics printed in the detailed record but left out of the
/// summary line, which carries only metrics every workload measures with
/// a spread inside its bound. Wall-clock rates and latencies follow
/// hypervisor steal on a shared machine (median shifts of 35% between
/// calm and busy stretches were measured), so the summary carries their
/// CPU-time counterparts; `update_p50_ms` exists on one workload only.
pub const DETAIL_ONLY: &[&str] = &[
    "predict_rps",
    "predict_p50_ms",
    "predict_p90_ms",
    "update_p50_ms",
    "setup_wall_s",
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scheduler.queue_wait_p50_ms", "ms"),
    ("scheduler.batch_mean", "count"),
    ("scheduler.deadline_flush_frac", "ratio"),
    ("worker.batch_wait_p50_ms", "ms"),
    ("worker.execute_p50_ms", "ms"),
    ("worker.deliver_p50_ms", "ms"),
    ("worker.rows_per_batch", "count"),
    ("logits.hit_ratio", "ratio"),
    ("logits.evictions", "count"),
    ("logits.invalidations_per_update", "count"),
    ("cache.rows_refreshed_per_update", "count"),
    ("cache.halo_fetches_per_update", "count"),
    ("cache.retiered", "count"),
    ("shard.halo_rows_per_batch", "count"),
    ("accel.est_cycles_per_batch", "cycles"),
    ("accel.est_dram_bytes_per_batch", "B"),
    ("accel.cycles_per_exec_us", "cycles/us"),
    ("memory.features_bytes_per_node", "B"),
    ("memory.adjacency_bytes_per_node", "B"),
    ("memory.shard_bytes_per_node", "B"),
    ("memory.logits_bytes_per_node", "B"),
    ("memory.unattributed_mb", "MB"),
    ("http.requests", "count"),
    ("http.errors", "count"),
    ("http.shed", "count"),
    ("http.wire_p50_ms", "ms"),
    ("ticket.wake_p50_us", "us"),
    ("graph.generate_s", "s"),
    ("cache.build_s", "s"),
    ("gnn.expand_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("gnn.field_rows", "count"),
    ("shard.hw_estimate_ms", "ms"),
    ("shard.halo_rows_in_us", "us"),
    ("cache.update_cpu_ms", "ms"),
    ("cache.apply_delta_ms", "ms"),
    ("cache.invalidation_closure_ms", "ms"),
];

/// Values for one metric table. A metric the workload never exercises
/// (no update on `cold_http`, no HTTP on `zipf_window`, ...) reads 0 in
/// the summary line and is listed under `not_applicable`.
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: BTreeMap::new(),
        }
    }

    fn name(&self, name: &str) -> &'static str {
        self.table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"))
            .0
    }

    /// An exact value or a ratio of counts.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = self.name(name);
        self.values.insert(name, (value, None));
    }

    /// A value derived from `samples` observations.
    pub fn set_counted(&mut self, name: &str, value: f64, samples: usize) {
        let name = self.name(name);
        self.values.insert(name, (value, Some(samples)));
    }

    /// A percentile, scaled into the metric's unit; `None` leaves the
    /// metric unmeasured.
    pub fn stat(&mut self, name: &str, stat: Option<Stat>, scale: f64) {
        if let Some(stat) = stat {
            let name = self.name(name);
            self.values
                .insert(name, (stat.value * scale, Some(stat.samples)));
        }
    }

    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(value) = value {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// `{name: {value, unit}}` for every metric in the table, minus
    /// `skip`.
    pub fn summary(&self, skip: &[&str]) -> Json {
        Json::Obj(
            self.table
                .iter()
                .filter(|(name, _)| !skip.contains(name))
                .map(|&(name, unit)| {
                    let value = self.values.get(name).map_or(0.0, |&(v, _)| v);
                    let entry = Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::from(unit.to_string())),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// `{name: {value, unit, samples}}` for the measured metrics only.
    pub fn detail(&self) -> Json {
        Json::Obj(
            self.table
                .iter()
                .filter_map(|&(name, unit)| {
                    let &(value, samples) = self.values.get(name)?;
                    let mut entry = vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::from(unit.to_string())),
                    ];
                    if let Some(samples) = samples {
                        entry.push(("samples".into(), Json::from(samples as u64)));
                    }
                    Some((name.to_string(), Json::Obj(entry)))
                })
                .collect(),
        )
    }

    pub fn not_applicable(&self) -> Json {
        Json::Arr(
            self.table
                .iter()
                .filter(|(name, _)| !self.values.contains_key(name))
                .map(|(name, _)| Json::from(name.to_string()))
                .collect(),
        )
    }
}

/// The one-line summary: correctness, operations attempted and failed,
/// and each metric with its unit.
pub fn summary_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        ("metrics".into(), metrics),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let json = mega_serve::http::json::parse(text.as_bytes()).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn table(rows: &[(&str, &str)], skip: &[&str]) -> Vec<(String, String)> {
        rows.iter()
            .filter(|(n, _)| !skip.contains(n))
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        assert_eq!(declared("end_to_end"), table(END_TO_END, DETAIL_ONLY));
        assert_eq!(declared("per_layer"), table(PER_LAYER, &[]));
    }

    #[test]
    fn summary_lists_every_metric_and_detail_only_measured_ones() {
        let mut set = MetricSet::new(PER_LAYER);
        set.stat(
            "gnn.forward_ms",
            Some(Stat {
                value: 2.0,
                samples: 7,
            }),
            1.0,
        );
        let Json::Obj(summary) = set.summary(&[]) else {
            panic!("the summary is an object");
        };
        assert_eq!(summary.len(), PER_LAYER.len());
        assert_eq!(summary[0].1.render(), r#"{"value":0,"unit":"ms"}"#);
        let detail = set.detail().render();
        assert_eq!(
            detail,
            r#"{"gnn.forward_ms":{"value":2,"unit":"ms","samples":7}}"#
        );
        assert_eq!(
            set.not_applicable().as_array().map(<[Json]>::len),
            Some(PER_LAYER.len() - 1)
        );
    }
}
