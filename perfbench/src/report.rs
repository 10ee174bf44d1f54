//! The metric catalogue and the one-line JSON result.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test pins the
//! two together). A plain run prints every end-to-end metric; a traced
//! run prints every per-layer metric, and a layer the workload does not
//! exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("px_per_s", "px/s"),
    ("ok_share", "share"),
    ("limit_met_share", "share"),
    ("psnr_db", "dB"),
    ("sim_energy_nj_per_px", "nJ/px"),
    ("sim_latency_ns_per_px", "ns/px"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.cores", "count"),
    ("host.tile_threads", "count"),
    ("host.ref_ms", "ms"),
    ("host.peak_rss_mb", "MB"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("e2e.latency_samples", "count"),
    ("imgproc.run_ms", "ms"),
    ("imgproc.parallel_eff", "share"),
    ("compile.emit_ms", "ms"),
    ("compile.optimize_ms", "ms"),
    ("compile.plan_ms", "ms"),
    ("compile.bind_ms", "ms"),
    ("compile.share", "share"),
    ("compile.cache_hit_rate", "share"),
    ("compile.cache_fallbacks", "count"),
    ("compile.useful_ratio", "share"),
    ("execute.build_ms", "ms"),
    ("execute.run_ms", "ms"),
    ("execute.scout_ops", "count"),
    ("execute.stream_writes", "count"),
    ("execute.trng_fills", "count"),
    ("execute.adc_samples", "count"),
    ("execute.ns_per_scout_op", "ns"),
    ("reram.scout_ns", "ns"),
    ("reram.write_row_ns", "ns"),
    ("reram.read_row_ns", "ns"),
    ("reram.trng_row_ns", "ns"),
    ("sched.vs_per_tile", "ratio"),
    ("sched.retired_arrays", "count"),
    ("sched.rescheduled_share", "share"),
    ("replay.ms", "ms"),
    ("replay.commands", "count"),
    ("replay.row_hit_rate", "share"),
    ("replay.peak_buffered_share", "share"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.unaccounted_ms", "ms"),
    ("serve.send_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.downgraded_share", "share"),
    ("serve.shed_queue_share", "share"),
    ("serve.shed_deadline_share", "share"),
    ("serve.gen_late_ms", "ms"),
    ("quality.psnr_db.edge", "dB"),
    ("quality.psnr_db.bilinear", "dB"),
    ("quality.psnr_db.compositing", "dB"),
    ("quality.psnr_db.matting", "dB"),
];

/// Metric values by name, as a workload measured them.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` (which must be in one of the catalogues).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if measured.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (frames or requests) attempted.
    pub attempted: u64,
    /// Operations that failed (error responses or sheds).
    pub failed: u64,
    /// Correctness-check failures; empty means correct.
    pub problems: Vec<String>,
    /// Measured metrics.
    pub metrics: Metrics,
}

/// Renders the result line. Every catalogue metric of the chosen kind
/// appears; an end-to-end metric that was not measured, or any value
/// that is not finite, is reported as a problem instead of a number.
#[must_use]
pub fn render(out: &mut Outcome, traced: bool) -> String {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                out.problems
                    .push(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None if traced => 0.0,
            None => {
                out.problems.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_fills_unexercised_layers_and_flags_missing_end_to_end() {
        let mut out = Outcome::default();
        out.metrics.set("host.cores", 2.0);
        let line = render(&mut out, true);
        assert!(line.contains("\"host.cores\": {\"value\": 2, \"unit\": \"count\"}"));
        assert!(line.contains("\"serve.queue_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(out.problems.is_empty());

        let line = render(&mut out, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(out.problems.len(), END_TO_END.len());
    }
}
