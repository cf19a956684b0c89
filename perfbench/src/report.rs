//! Metric names, units and the result line.
//!
//! Every workload reports every metric below, so a run is comparable
//! with any other of its workload. `METRICS.md` defines each metric per
//! workload and names the end-to-end metric each layer metric should move.

use crate::mirror::Layers;
use crate::stats::ratio;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("throughput_per_s", "1/s"),
    ("best_gflops_geomean", "GFLOP/s"),
    ("modeled_explore_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, measured by the traced run: `(name, unit)`.
/// Search-layer values are means per traced search call.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("qlearn.train.busy_s", "s"),
    ("qlearn.train.rounds", "count"),
    ("qlearn.choose.busy_s", "s"),
    ("qlearn.record.busy_s", "s"),
    ("sa.select.busy_s", "s"),
    ("sa.select.calls", "count"),
    ("sa.record.busy_s", "s"),
    ("sa.history.len_max", "count"),
    ("space.propose.busy_s", "s"),
    ("space.propose.attempts", "count"),
    ("space.propose.fresh_ratio", "ratio"),
    ("pool.eval.busy_s", "s"),
    ("pool.candidates", "count"),
    ("pool.evaluated", "count"),
    ("pool.cache_hit_ratio", "ratio"),
    ("pool.infeasible_ratio", "ratio"),
    ("schedule.features.busy_s", "s"),
    ("sim.score.busy_s", "s"),
    ("optimize.lower.busy_s", "s"),
    ("methods.init.busy_s", "s"),
    ("methods.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("serve.hit_latency_s.p50", "s"),
    ("serve.hit_latency_s.p90", "s"),
    ("serve.queue_wait_s.p50", "s"),
    ("serve.queue_wait_s.p90", "s"),
    ("serve.fresh.service_s.p50", "s"),
    ("serve.worker_util", "ratio"),
    ("serve.hits", "count"),
    ("serve.fresh", "count"),
    ("serve.coalesced", "count"),
    ("serve.warm_starts", "count"),
    ("tunedb.open_s", "s"),
    ("tunedb.puts", "count"),
];

/// The serving layers' numbers (all zero on the search workloads, which
/// never reach a server or database).
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    pub hit_latency_p50: f64,
    pub hit_latency_p90: f64,
    pub queue_wait_p50: f64,
    pub queue_wait_p90: f64,
    pub fresh_service_p50: f64,
    pub worker_util: f64,
    pub hits: usize,
    pub fresh: usize,
    pub coalesced: usize,
    pub warm_starts: usize,
    pub open_s: f64,
    pub puts: usize,
}

/// Per-layer metric values in [`PER_LAYER`] order.
pub fn per_layer(l: &Layers, s: &ServeLayers) -> Vec<f64> {
    let calls = l.calls.max(1) as f64;
    let per = |x: f64| x / calls;
    let spans = l.spans_s();
    vec![
        per(l.qlearn_train_s),
        per(l.qlearn_train_rounds as f64),
        per(l.qlearn_choose_s),
        per(l.qlearn_record_s),
        per(l.sa_select_s),
        per(l.sa_select_calls as f64),
        per(l.sa_record_s),
        l.sa_history_len_max as f64,
        per(l.space_propose_s),
        per(l.space_propose_attempts as f64),
        ratio(
            l.space_propose_fresh as f64,
            l.space_propose_attempts as f64,
        ),
        per(l.pool_eval_s),
        per(l.pool_candidates as f64),
        per(l.pool_evaluated as f64),
        ratio(l.pool_cache_hits as f64, l.pool_lookups as f64),
        ratio(l.pool_infeasible as f64, l.pool_evaluated as f64),
        per(l.schedule_features_s),
        per(l.sim_score_s),
        per(l.optimize_lower_s),
        per(l.init_s),
        per(l.traced_wall_s - spans),
        ratio(spans, l.traced_wall_s),
        if l.calls == 0 {
            0.0
        } else {
            l.traced_wall_s / l.untraced_wall_s - 1.0
        },
        s.hit_latency_p50,
        s.hit_latency_p90,
        s.queue_wait_p50,
        s.queue_wait_p90,
        s.fresh_service_p50,
        s.worker_util,
        s.hits as f64,
        s.fresh as f64,
        s.coalesced as f64,
        s.warm_starts as f64,
        s.open_s,
        s.puts as f64,
    ]
}

/// One run's outcome: attempted and failed operations, the metrics the
/// mode reports, and human-readable notes printed ahead of the result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Checked results whose reported cost is the model's cost after a
    /// reciprocal round trip but not the model's cost itself.
    pub round_trip_off: usize,
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Counts one failed operation and reports why on standard error.
    pub fn fail(&mut self, msg: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {}", msg.as_ref());
    }

    /// Attaches `values` to the names in `table`, in order.
    pub fn set_metrics(&mut self, table: &[(&'static str, &'static str)], values: Vec<f64>) {
        assert_eq!(table.len(), values.len(), "one value per metric");
        self.metrics = table
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
    }

    /// The final result line. A non-finite value is a failed check: the
    /// run reports it as incorrect rather than print invalid JSON.
    pub fn result_line(&mut self) -> String {
        for (name, _, v) in &mut self.metrics {
            if !v.is_finite() {
                eprintln!("perfbench: check failed: metric {name} is not finite");
                self.failed += 1;
                *v = 0.0;
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set_metrics(&[("a.b", "s")], vec![0.25]);
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a.b\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.set_metrics(&[("a.b", "s")], vec![f64::NAN]);
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
