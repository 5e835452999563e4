//! What one run of one workload reports, the metric catalogue of
//! `BENCHMARK.json` (names, units and which run emits them), and the result
//! line the driver reads.

use crate::json::Json;
use std::collections::BTreeMap;

/// Options of one run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics, decorators and spans absent. `true`:
    /// per-layer metrics from a decorated, span-recording repeat.
    pub trace: bool,
    /// Load-generating threads, `clamp(nproc, 2, 4)`.
    pub threads: usize,
}

/// Set-up is repeated untimed until [`SETUP_WARMUP_S`] have passed, then
/// [`SETUP_REPEATS`] times timed, and `setup_s` is the median of those. The
/// warm-up is there because set-up is mostly first-touch allocation and
/// comes first in a process: the same trace generation measured 0.066,
/// 0.067, 0.068, 0.069, 0.058, 0.042, 0.039 s over seven repetitions — a
/// vCPU woken from idle and guest pages the host has yet to back make the
/// first half second or so of a run slower, whatever runs in it.
pub const SETUP_WARMUP_S: f64 = 1.0;
pub const SETUP_REPEATS: usize = 11;

/// Runs `set_up` as described on [`SETUP_WARMUP_S`], dropping each product
/// before the next is built; returns the last product and the seconds each
/// timed repetition took.
pub fn repeat_set_up<T>(mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = std::time::Instant::now();
    let mut product = set_up();
    while start.elapsed().as_secs_f64() < SETUP_WARMUP_S {
        drop(product);
        product = set_up();
    }
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(product);
        let t0 = std::time::Instant::now();
        product = set_up();
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (product, seconds)
}

/// End-to-end metrics, `(name, unit)`; every workload emits every one of
/// them with `--trace 0`. Directions and bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
    ("distributed_fraction", "ratio"),
];

/// Per-layer metrics, `(name, unit)`; every workload emits every one of
/// them with `--trace 1`, 0 where the layer does not run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("workload.txns", "count"),
    ("workload.accesses", "count"),
    ("core.graph_builder.build_s", "s"),
    ("core.graph_builder.peak_mib", "MiB"),
    ("core.graph_builder.nodes", "count"),
    ("core.graph_builder.edges", "count"),
    ("core.graph_builder.pins", "count"),
    ("core.graph_builder.sampled_txns", "count"),
    ("core.graph_builder.dropped_scans", "count"),
    ("core.partition_phase.partition_s", "s"),
    ("core.partition_phase.peak_mib", "MiB"),
    ("graph.cut", "count"),
    ("graph.imbalance", "ratio"),
    ("graph.replicated_tuples", "count"),
    ("core.explain.explain_s", "s"),
    ("core.explain.rules", "count"),
    ("core.explain.trusted", "count"),
    ("router.evaluate_s", "s"),
    ("router.evaluate_txns_s", "1/s"),
    ("core.validate.validate_s", "s"),
    ("core.validate.lookup_fraction", "ratio"),
    ("core.validate.range_fraction", "ratio"),
    ("core.validate.hash_fraction", "ratio"),
    ("advisor.span_sum_s", "s"),
    ("advisor.span_sum_ratio", "ratio"),
    ("advisor.trace_overhead_pct", "%"),
    ("sql.parse_ns_per_stmt", "ns"),
    ("sql.classify_ns_per_stmt", "ns"),
    ("sql.parse_errors", "count"),
    ("router.route_ns_per_call", "ns"),
    ("router.route_calls_per_op", "ratio"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.exec_us_p50", "us"),
    ("serve.dispatch_us_p50", "us"),
    ("serve.shards_touched_mean", "ratio"),
    ("serve.retries_per_op", "ratio"),
    ("serve.read_p50_us", "us"),
    ("serve.write_p50_us", "us"),
    ("serve.multi_p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.point_share", "ratio"),
    ("serve.row.codec_ns_per_row", "ns"),
    ("store.get_ns_per_call", "ns"),
    ("store.write_us_per_call", "us"),
    ("store.calls_per_op", "ratio"),
    ("store.busy_share", "ratio"),
    ("store.syncs_per_write", "ratio"),
    ("store.write_amp", "ratio"),
    ("store.space_amp", "ratio"),
    ("store.compactions", "count"),
    ("migrate.rows_s", "1/s"),
    ("migrate.plan_s", "s"),
    ("migrate.step_us_p50", "us"),
    ("migrate.step_us_p99", "us"),
    ("migrate.batches_flipped", "count"),
    ("migrate.copy_retries", "count"),
    ("migrate.rows_copied_per_row_moved", "ratio"),
    ("migrate.active_share", "ratio"),
    ("serve.trace_overhead_pct", "%"),
];

/// The result of one run.
pub struct RunResult {
    /// Operations attempted: statements for a serving workload (window,
    /// ramp and verification reads), passes for an advisor workload.
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Why, one line per failed check (capped by the workloads).
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Sizes, flush policy, sample counts — whatever a reader needs to
    /// interpret the numbers.
    pub info: Vec<(String, Json)>,
}

impl RunResult {
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Sets a metric of the catalogue.
    ///
    /// # Panics
    /// Panics on a name neither catalogue lists — a typo in a workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Sets `setup_s` to the median of the timed set-up repetitions and
    /// keeps the repetitions themselves for the detail line.
    pub fn set_setup(&mut self, seconds: &[f64]) {
        self.set("setup_s", crate::stats::median(seconds));
        self.note("setup_runs_s", Json::nums(seconds));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_owned(), value));
    }

    /// Records a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics this run owes the driver, in catalogue order: every
    /// end-to-end one untraced, every per-layer one traced. A metric the
    /// workload did not set reads 0.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self, trace: bool) -> Json {
        let metrics = self
            .metrics(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_owned(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::new();
        r.attempted = 10;
        r.set("setup_s", 0.5);
        let line = r.result_line(false);
        let Json::Obj(fields) = &line else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value")),
            Some(&Json::Num(0.5))
        );
        r.fail(1, "boom".into());
        assert_eq!(
            r.result_line(false).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
