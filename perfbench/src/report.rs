//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the active catalogue, so runs
//! of different workloads compare field by field. A per-layer metric of a
//! layer the workload does not exercise reads 0 (no work done there);
//! `perfbench/README.md` lists which metric each workload exercises and
//! which end-to-end metric it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("edp_geomean", "pJ.cycle"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.unique_shapes", "count"),
    ("session.dedup_hits", "count"),
    ("session.cache_hit_rate", "ratio"),
    ("session.cache_entries", "count"),
    ("session.pool_rounds", "count"),
    ("search.layer_p50_ms", "ms"),
    ("search.layer_max_ms", "ms"),
    ("search.stage0_ms", "ms"),
    ("search.stage1_ms", "ms"),
    ("search.stage2_ms", "ms"),
    ("search.stage3_ms", "ms"),
    ("search.unattributed_ms", "ms"),
    ("search.warm_network_ms", "ms"),
    ("search.candidates", "count"),
    ("search.beam_kept", "count"),
    ("search.dedup_removed", "count"),
    ("search.orderings", "count"),
    ("search.tiles", "count"),
    ("search.unrollings", "count"),
    ("search.nodes_explored", "count"),
    ("estimate.probed", "count"),
    ("estimate.modeled", "count"),
    ("estimate.prefix_hit_rate", "ratio"),
    ("estimate.batched_fraction", "ratio"),
    ("estimate.avg_batch_width", "count"),
    ("pool.rounds", "count"),
    ("model.evals_per_s", "1/s"),
    ("model.batch_evals_per_s", "1/s"),
    ("model.est_share", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.memo_hits", "count"),
    ("serve.searches", "count"),
    ("serve.shed_requests", "count"),
    ("serve.degraded", "count"),
    ("serve.errors", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("store.appended", "count"),
    ("store.fsyncs", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that errored, were shed, degraded, late beyond the
    /// backlog rule, or failed the oracle.
    pub failed: u64,
    /// A whole-run failure (growing backlog, baseline mismatch, ...).
    pub run_error: Option<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: the catalogue of the run's mode, each metric with
    /// its unit. A metric the run could not measure is left out, which
    /// also marks the run incorrect.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        let mut complete = true;
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                // Per-layer metrics of unexercised layers read 0.
                None if trace => 0.0,
                _ => {
                    complete = false;
                    continue;
                }
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(metrics, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        let correct =
            complete && self.attempted > 0 && self.failed == 0 && self.run_error.is_none();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}
