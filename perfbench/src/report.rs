//! Aggregating a run's operations into metrics, and printing them.

use crate::ops::{Op, Outcome};
use crate::stats::{mean, median, tail_percentile};
use crate::trace::{self, LAYERS};
use crate::workload::SetupInfo;
use mwtj_core::EngineStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a run's numbers came from.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: String,
    pub deadline_ms: Option<u64>,
    pub with_q18: bool,
    pub nproc: String,
    pub git_rev: String,
    pub source_digest: String,
    pub rustc: String,
    pub setup_samples: Vec<f64>,
}

/// The operations of one run.
pub struct Run {
    workload: String,
    trace: bool,
    /// Timed operations, in order.
    ops: Vec<Op>,
    /// `(traced, Σ operation seconds)` per timed cycle.
    cycles: Vec<(bool, f64)>,
    /// Σ simulated makespan over the first timed cycle.
    sim_pass_s: Option<f64>,
    /// Correctness failures, warm-up included.
    wrong: Vec<String>,
    /// `(ours_sim_s, best_baseline_sim_s)` of the traced run.
    pub baseline: (f64, f64),
}

/// A metric value with its unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

impl Run {
    /// An empty run of `workload`.
    pub fn new(workload: &str, trace: bool) -> Run {
        Run {
            workload: workload.to_string(),
            trace,
            ops: Vec::new(),
            cycles: Vec::new(),
            sim_pass_s: None,
            wrong: Vec::new(),
            baseline: (0.0, 0.0),
        }
    }

    /// Keep only the correctness verdicts of untimed operations.
    pub fn check_only(&mut self, ops: &[Op]) {
        self.wrong
            .extend(ops.iter().filter_map(|o| o.wrong.clone()));
    }

    /// Add one timed cycle.
    pub fn add_cycle(&mut self, ops: Vec<Op>, traced: bool) {
        self.check_only(&ops);
        let secs = ops.iter().map(|o| o.wall_ms / 1e3).sum();
        if self.sim_pass_s.is_none() {
            self.sim_pass_s = Some(ops.iter().map(|o| o.sim_secs).sum());
        }
        self.cycles.push((traced, secs));
        self.ops.extend(ops);
    }

    fn attempted(&self) -> usize {
        self.ops.len()
    }

    fn failed(&self) -> usize {
        self.ops.iter().filter(|o| o.outcome != Outcome::Ok).count()
    }

    /// Operations per kind, in kind order.
    fn ops_by_name(&self) -> BTreeMap<&str, Vec<&Op>> {
        let mut by_name: BTreeMap<&str, Vec<&Op>> = BTreeMap::new();
        for o in &self.ops {
            by_name.entry(&o.name).or_default().push(o);
        }
        by_name
    }

    fn end_to_end(&self, setup_s: f64, peak_rss: u64) -> Metrics {
        // Per operation kind: the median latency and the mean rows.
        let kinds: Vec<(f64, f64)> = self
            .ops_by_name()
            .values()
            .filter_map(|ops| {
                let walls: Vec<f64> = ops.iter().map(|o| o.wall_ms).collect();
                let rows: Vec<f64> = ops.iter().map(|o| o.rows as f64).collect();
                Some((median(&walls)?, mean(&rows)))
            })
            .collect();
        let medians: Vec<f64> = kinds.iter().map(|k| k.0).collect();
        // Per-kind figures are combined by geometric mean: on a
        // one-kind workload this is the plain figure, and on a mix of
        // kinds it moves with every kind instead of with whichever one
        // sits at the middle rank or has the most rows (mobile Q4's
        // output swings ±25 % with the seed).
        let p50 = geometric_mean(&medians);
        let rows_per_s = geometric_mean(
            &kinds
                .iter()
                .filter(|k| k.1 > 0.0)
                .map(|k| k.1 / (k.0 / 1e3))
                .collect::<Vec<_>>(),
        );
        // Operations per second of the median cycle: one operation of
        // each kind, each taking its kind's median latency. A sum of
        // all latencies would move with how many of a run's few slow
        // outliers (TPC-H Q17 swings 3x from one call to the next)
        // happened to land in it.
        let cycle_s = medians.iter().sum::<f64>() / 1e3;
        let completed = self.ops.iter().filter(|o| o.outcome == Outcome::Ok).count();
        let completed_share = completed as f64 / self.attempted().max(1) as f64;
        vec![
            ("setup_s", setup_s, "s"),
            ("query_p50_ms", p50, "ms"),
            ("ops_per_s", medians.len() as f64 * completed_share / cycle_s, "1/s"),
            ("rows_per_s", rows_per_s, "rows/s"),
            ("peak_rss_mb", peak_rss as f64 / (1024.0 * 1024.0), "MB"),
            ("sim_makespan_s", self.sim_pass_s.unwrap_or(0.0), "s"),
        ]
    }

    fn per_layer(&self, info: &SetupInfo) -> Metrics {
        let traced: Vec<&Op> = self
            .ops
            .iter()
            .filter(|o| o.attribution.is_some())
            .collect();
        let queries: Vec<&Op> = traced
            .iter()
            .copied()
            .filter(|o| o.name != "load")
            .collect();
        let layer = |name: &str| {
            mean(
                &traced
                    .iter()
                    .map(|o| o.attribution.as_ref().unwrap().layers[name])
                    .collect::<Vec<_>>(),
            )
        };
        let per_query =
            |f: &dyn Fn(&Op) -> f64| mean(&queries.iter().map(|o| f(o)).collect::<Vec<_>>());
        let sum = |f: &dyn Fn(&Op) -> f64| queries.iter().map(|o| f(o)).sum::<f64>();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        // Wire loads (serving) are the load path the workload repeats;
        // elsewhere the set-up loads are.
        let wire_loads: Vec<&Op> = traced
            .iter()
            .copied()
            .filter(|o| o.name == "load")
            .collect();
        let load_rows_per_s = if wire_loads.is_empty() {
            ratio(info.rows_loaded as f64, info.load_secs)
        } else {
            let secs: f64 = wire_loads.iter().map(|o| o.wall_ms / 1e3).sum();
            ratio((wire_loads.len() * crate::serve::T_ROWS) as f64, secs)
        };
        let rss_per_row = ratio(info.rss_growth as f64, info.rows_loaded as f64);
        let encoded_per_row = ratio(info.encoded_bytes as f64, info.rows_loaded as f64);

        // Wire requests carry no profile: their parse and plan times
        // come from the in-process probe of the same statement.
        let probe_or = |pick: fn((f64, f64)) -> f64, layer_name: &str| {
            per_query(&|o: &Op| match o.probe {
                Some(p) => pick(p),
                None => o.attribution.as_ref().unwrap().layers[layer_name],
            })
        };
        let (hits, misses) = traced
            .iter()
            .fold((0, 0), |(h, m), o| (h + o.cache.0, m + o.cache.1));
        let errors: Vec<f64> = queries
            .iter()
            .filter(|o| o.sim_secs > 0.0)
            .map(|o| o.predicted_secs / o.sim_secs)
            .collect();
        let first_batch: Vec<f64> = traced.iter().filter_map(|o| o.first_batch_ms).collect();
        let wire_ops: Vec<f64> = traced
            .iter()
            .filter(|o| o.response_bytes > 0)
            .map(|o| o.response_bytes as f64)
            .collect();
        let wall_sum: f64 = traced
            .iter()
            .map(|o| o.attribution.as_ref().unwrap().wall_ms)
            .sum();
        let unattributed_sum: f64 = traced
            .iter()
            .map(|o| o.attribution.as_ref().unwrap().layers[trace::UNATTRIBUTED])
            .sum();

        let cycle_secs = |t: bool| -> Vec<f64> {
            self.cycles
                .iter()
                .filter(|c| c.0 == t)
                .map(|c| c.1)
                .collect()
        };
        let overhead = match (median(&cycle_secs(true)), median(&cycle_secs(false))) {
            (Some(t), Some(u)) if u > 0.0 => (t - u) / u,
            _ => 0.0,
        };

        vec![
            ("storage.load_rows_per_s", load_rows_per_s, "rows/s"),
            ("storage.rss_bytes_per_row", rss_per_row, "B/row"),
            (
                "storage.rss_over_encoded",
                ratio(rss_per_row, encoded_per_row),
                "ratio",
            ),
            ("storage.load_ms", layer(trace::LOAD), "ms"),
            ("query.parse_ms", probe_or(|p| p.0, trace::PARSE), "ms"),
            ("planner.plan_ms", probe_or(|p| p.1, trace::PLAN), "ms"),
            (
                "planner.cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            (
                "planner.jobs_per_query",
                per_query(&|o| o.jobs.jobs as f64),
                "count",
            ),
            (
                "planner.sim_vs_best_baseline",
                ratio(self.baseline.0, self.baseline.1),
                "ratio",
            ),
            (
                "cost.model_error_ratio",
                median(&errors).unwrap_or(0.0),
                "ratio",
            ),
            (
                "cost.model_error_ratio_max",
                errors.iter().copied().fold(0.0, f64::max),
                "ratio",
            ),
            (
                "hilbert.replication",
                ratio(
                    sum(&|o| o.jobs.shuffle_records as f64),
                    sum(&|o| o.jobs.input_records as f64),
                ),
                "ratio",
            ),
            (
                "hilbert.reduce_skew",
                queries.iter().map(|o| o.jobs.max_skew).fold(0.0, f64::max),
                "ratio",
            ),
            (
                "core.op_wall_ms",
                ratio(wall_sum, traced.len() as f64),
                "ms",
            ),
            ("core.admission_wait_ms", layer(trace::ADMISSION), "ms"),
            ("core.unattributed_ms", layer(trace::UNATTRIBUTED), "ms"),
            (
                "core.unattributed_frac",
                ratio(unattributed_sum, wall_sum),
                "ratio",
            ),
            ("mapreduce.job_host_ms", layer(trace::JOB_HOST), "ms"),
            (
                "mapreduce.shuffle_records",
                per_query(&|o| o.jobs.shuffle_records as f64),
                "count",
            ),
            (
                "mapreduce.shuffle_bytes",
                per_query(&|o| o.jobs.shuffle_bytes as f64),
                "bytes",
            ),
            ("mapreduce.sim_map_s", per_query(&|o| o.jobs.sim_map_s), "s"),
            (
                "mapreduce.sim_shuffle_s",
                per_query(&|o| o.jobs.sim_shuffle_s),
                "s",
            ),
            (
                "mapreduce.sim_reduce_s",
                per_query(&|o| o.jobs.sim_reduce_s),
                "s",
            ),
            (
                "mapreduce.attempts",
                per_query(&|o| o.jobs.attempts as f64),
                "count",
            ),
            (
                "mapreduce.retries",
                per_query(&|o| o.jobs.retries as f64),
                "count",
            ),
            (
                "join.candidates",
                per_query(&|o| o.jobs.candidates as f64),
                "count",
            ),
            (
                "join.yield",
                ratio(
                    sum(&|o| o.jobs.output_records as f64),
                    sum(&|o| o.jobs.candidates as f64),
                ),
                "ratio",
            ),
            ("server.wire_ms", layer(trace::WIRE), "ms"),
            ("server.response_bytes", mean(&wire_ops), "bytes"),
            (
                "server.stream_first_batch_ms",
                median(&first_batch).unwrap_or(0.0),
                "ms",
            ),
            ("obs.trace_overhead_frac", overhead, "ratio"),
        ]
    }

    /// Print the human-readable report and, last, the JSON result.
    /// Returns whether every result was correct.
    pub fn report(
        &self,
        p: &Provenance,
        info: &SetupInfo,
        setup_s: f64,
        peak_rss: u64,
        engine: &EngineStats,
    ) -> bool {
        let correct = self.wrong.is_empty();
        println!(
            "provenance {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"sizes\":\"{}\",\
             \"deadline_ms\":{},\"with_q18\":{},\"nproc\":\"{}\",\"git_rev\":\"{}\",\"source_digest\":\"{}\",\"rustc\":\"{}\",\
             \"setup_samples_s\":{:?},\"cycles\":{},\"attempted\":{}}}",
            p.workload,
            p.seed,
            p.seconds,
            p.sizes,
            p.deadline_ms.map_or("null".into(), |d| d.to_string()),
            p.with_q18,
            p.nproc,
            p.git_rev,
            p.source_digest,
            p.rustc,
            p.setup_samples,
            self.cycles.len(),
            self.attempted(),
        );
        // Per-operation outcomes by name, so a deadline kill shows.
        for (name, ops) in &self.ops_by_name() {
            let count = |k: Outcome| ops.iter().filter(|o| o.outcome == k).count();
            let walls: Vec<f64> = ops.iter().map(|o| o.wall_ms).collect();
            println!(
                "op {}.{name} attempted={} ok={} error={} deadline={} refused={} \
                 min_ms={:.3} p50_ms={:.3} max_ms={:.3} rows={}",
                self.workload,
                ops.len(),
                count(Outcome::Ok),
                count(Outcome::Error),
                count(Outcome::Deadline),
                count(Outcome::Refused),
                walls.iter().copied().fold(f64::INFINITY, f64::min),
                median(&walls).unwrap_or(0.0),
                walls.iter().copied().fold(0.0, f64::max),
                ops.first().map_or(0, |o| o.rows),
            );
        }
        for w in &self.wrong {
            println!("WRONG {w}");
        }
        let walls: Vec<f64> = self.ops.iter().map(|o| o.wall_ms).collect();
        let e2e = self.end_to_end(setup_s, peak_rss);
        for (name, value, unit) in &e2e {
            println!("metric {name} {value} {unit}");
        }
        println!(
            "metric failed_frac {} ratio ({} of {} attempted)",
            self.failed() as f64 / self.attempted().max(1) as f64,
            self.failed(),
            self.attempted()
        );
        match tail_percentile(&walls, 0.95) {
            Ok(v) => println!("metric query_p95_ms {v} ms (n={})", walls.len()),
            Err(beyond) => println!(
                "metric query_p95_ms refused: {beyond} samples beyond p95 of {} (need 10)",
                walls.len()
            ),
        }
        println!(
            "engine plan_cache hits={} misses={} replans={} epoch={}",
            engine.plan_cache.hits,
            engine.plan_cache.misses,
            engine.plan_cache.replans,
            engine.epoch
        );
        let metrics = if self.trace {
            let layers = self.per_layer(info);
            for (name, value, unit) in &layers {
                println!("layer {name} {value} {unit}");
            }
            self.print_identity();
            layers
        } else {
            e2e
        };
        println!(
            "{}",
            result_json(correct, self.attempted(), self.failed(), &metrics)
        );
        correct
    }

    /// Check and print, per traced operation, that the layers plus the
    /// unattributed time sum to the operation's wall time.
    fn print_identity(&self) {
        let traced: Vec<_> = self
            .ops
            .iter()
            .filter_map(|o| o.attribution.as_ref())
            .collect();
        let worst = traced
            .iter()
            .map(|a| (a.layers.values().sum::<f64>() - a.wall_ms).abs())
            .fold(0.0, f64::max);
        let mut line = format!(
            "identity ops={} wall_ms={:.4} =",
            traced.len(),
            mean(&traced.iter().map(|a| a.wall_ms).collect::<Vec<_>>())
        );
        for (i, l) in LAYERS.iter().enumerate() {
            let v = mean(&traced.iter().map(|a| a.layers[l]).collect::<Vec<_>>());
            let _ = write!(line, "{} {l} {v:.4}", if i == 0 { "" } else { " +" });
        }
        let _ = write!(line, " (max per-op residual {worst:.2e} ms)");
        println!("{line}");
    }
}

/// Geometric mean of positive values; 0 for none.
fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_one_kind_is_that_kind() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[42.0]) - 42.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    fn op(name: &str, wall_ms: f64, rows: u64) -> Op {
        let mut o = Op::new(name);
        o.wall_ms = wall_ms;
        o.rows = rows;
        o
    }

    fn metric(m: &Metrics, name: &str) -> f64 {
        m.iter().find(|x| x.0 == name).unwrap().1
    }

    #[test]
    fn throughput_is_that_of_the_median_cycle() {
        let mut run = Run::new("w", false);
        // Kind `a` has one 10x outlier in three cycles; `b` has no rows.
        for wall in [100.0, 1000.0, 100.0] {
            run.add_cycle(vec![op("a", wall, 50), op("b", 300.0, 0)], false);
        }
        let m = run.end_to_end(1.0, 0);
        // The median cycle takes 100 + 300 ms for two operations.
        assert!((metric(&m, "ops_per_s") - 5.0).abs() < 1e-9);
        // Only `a` returns rows: 50 rows in its median 100 ms.
        assert!((metric(&m, "rows_per_s") - 500.0).abs() < 1e-9);
        assert!((metric(&m, "query_p50_ms") - (100.0f64 * 300.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn result_json_has_the_contract_keys() {
        let m: Metrics = vec![("setup_s", 0.5, "s"), ("query_p50_ms", 12.25, "ms")];
        assert_eq!(
            result_json(true, 4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"query_p50_ms\": {\"value\": 12.25, \"unit\": \"ms\"}}}"
        );
    }
}
