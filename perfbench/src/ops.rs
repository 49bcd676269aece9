//! One timed operation: its outcome, latency, result size, simulated
//! cost and job counters, plus the in-process ways of running one.

use crate::check::Fingerprint;
use crate::trace::{Attribution, Tracer, ADMISSION, JOB_HOST, PARSE, PLAN};
use mwtj_core::{Engine, EngineError, Method, PlanCacheStats, QueryRun, RunOptions};
use mwtj_mapreduce::JobMetrics;
use mwtj_query::MultiwayQuery;
use mwtj_storage::{DataType, Relation, Schema, Tuple};
use std::time::Instant;

/// How an attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a result.
    Ok,
    /// Failed with a typed error.
    Error,
    /// Killed (or refused while queued) by its deadline.
    Deadline,
    /// Refused by admission (queue full, shutting down).
    Refused,
}

impl Outcome {
    /// Stable label.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Deadline => "deadline",
            Outcome::Refused => "refused",
        }
    }

    /// Classify an engine error.
    pub fn of_error(e: &EngineError) -> Outcome {
        if e.is_deadline_exceeded() {
            Outcome::Deadline
        } else if matches!(e, EngineError::Admission(_)) {
            Outcome::Refused
        } else {
            Outcome::Error
        }
    }

    /// Classify a wire response by its first line.
    pub fn of_response(response: &str) -> Outcome {
        let head = response.lines().next().unwrap_or_default();
        if head.starts_with("ok") {
            Outcome::Ok
        } else if head.contains("deadline exceeded") {
            Outcome::Deadline
        } else if head.contains("overloaded") || head.contains("shutting down") {
            Outcome::Refused
        } else {
            Outcome::Error
        }
    }
}

/// Job counters of one operation, summed over its MapReduce jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobSum {
    /// MapReduce jobs run.
    pub jobs: u64,
    /// Σ `real_secs`, in ms.
    pub host_ms: f64,
    /// Σ `input_records`.
    pub input_records: u64,
    /// Σ `map_output_records`.
    pub shuffle_records: u64,
    /// Σ `map_output_bytes`.
    pub shuffle_bytes: u64,
    /// Σ `reduce_candidates`.
    pub candidates: u64,
    /// Σ `output_records`.
    pub output_records: u64,
    /// Largest `skew()` of any job.
    pub max_skew: f64,
    /// Σ simulated map phase (`sim_map_end_secs`).
    pub sim_map_s: f64,
    /// Σ simulated shuffle phase (`sim_shuffle_end_secs − sim_map_end_secs`).
    pub sim_shuffle_s: f64,
    /// Σ simulated reduce phase (`sim_total_secs − sim_shuffle_end_secs`).
    pub sim_reduce_s: f64,
    /// Map plus reduce attempts.
    pub attempts: u64,
    /// Real map plus reduce retries.
    pub retries: u64,
}

impl JobSum {
    /// Sum the counters of `jobs`.
    pub fn of(jobs: &[JobMetrics]) -> JobSum {
        let mut s = JobSum::default();
        for j in jobs {
            s.jobs += 1;
            s.host_ms += j.real_secs * 1e3;
            s.input_records += j.input_records;
            s.shuffle_records += j.map_output_records;
            s.shuffle_bytes += j.map_output_bytes;
            s.candidates += j.reduce_candidates;
            s.output_records += j.output_records;
            s.max_skew = s.max_skew.max(j.skew());
            s.sim_map_s += j.sim_map_end_secs;
            s.sim_shuffle_s += j.sim_shuffle_end_secs - j.sim_map_end_secs;
            s.sim_reduce_s += j.sim_total_secs - j.sim_shuffle_end_secs;
            s.attempts += u64::from(j.map_attempts) + u64::from(j.reduce_attempts);
            s.retries += u64::from(j.real_map_retries) + u64::from(j.real_reduce_retries);
        }
        s
    }
}

/// One attempted operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which operation of the cycle (query name or verb).
    pub name: String,
    /// How it ended.
    pub outcome: Outcome,
    /// Latency from issuing the call to holding the last result row.
    pub wall_ms: f64,
    /// Result rows delivered.
    pub rows: u64,
    /// Simulated Eq. 2–4 makespan, seconds (0 for loads).
    pub sim_secs: f64,
    /// The planner's predicted makespan, seconds.
    pub predicted_secs: f64,
    /// Job counters (from the run itself, or for wire requests from an
    /// in-process run of the same statement in the traced run).
    pub jobs: JobSum,
    /// Framed response bytes (wire requests only).
    pub response_bytes: u64,
    /// Time to the first batch frame (streams only).
    pub first_batch_ms: Option<f64>,
    /// Layer split, on traced operations.
    pub attribution: Option<Attribution>,
    /// Plan-cache `(hits, misses)` during the operation (traced only).
    pub cache: (u64, u64),
    /// `(parse_ms, plan_ms)` of an in-process probe of the same
    /// statement, for wire requests in the traced run.
    pub probe: Option<(f64, f64)>,
    /// `Some(reason)` when the result did not match its reference.
    pub wrong: Option<String>,
}

impl Op {
    /// A fresh record for an operation named `name`.
    pub fn new(name: &str) -> Op {
        Op {
            name: name.to_string(),
            outcome: Outcome::Ok,
            wall_ms: 0.0,
            rows: 0,
            sim_secs: 0.0,
            predicted_secs: 0.0,
            jobs: JobSum::default(),
            response_bytes: 0,
            first_batch_ms: None,
            attribution: None,
            cache: (0, 0),
            probe: None,
            wrong: None,
        }
    }

    /// Fill in the figures of a finished in-process run.
    pub fn record_run(&mut self, run: &QueryRun) {
        self.rows = run.output.len() as u64;
        self.sim_secs = run.sim_secs;
        self.predicted_secs = run.predicted_secs;
        self.jobs = JobSum::of(&run.jobs);
    }

    /// Compare a result against its reference fingerprint.
    pub fn check(&mut self, got: Fingerprint, want: Fingerprint) {
        if got != want {
            self.wrong = Some(format!(
                "{}: {} rows, fingerprint differs from the reference's {} rows",
                self.name, got.rows, want.rows
            ));
        }
    }
}

/// Simulated makespans of one query under `opts` (method Ours) and
/// under the best of the paper's baselines (YSmart, Hive, Pig) with the
/// same options; `None` when Ours or every baseline failed.
pub fn ours_and_best_baseline(
    run: impl Fn(&RunOptions) -> Result<QueryRun, EngineError>,
    opts: &RunOptions,
) -> Option<(f64, f64)> {
    let ours = run(opts).ok()?.sim_secs;
    let best = [Method::YSmart, Method::Hive, Method::Pig]
        .into_iter()
        .filter_map(|m| run(&opts.clone().method(m)).ok().map(|r| r.sim_secs))
        .fold(f64::INFINITY, f64::min);
    best.is_finite().then_some((ours, best))
}

/// Fingerprint of an in-process result.
pub fn fingerprint(run: &QueryRun) -> Fingerprint {
    Fingerprint::of_csv(&mwtj_storage::csv::to_csv(&run.output))
}

/// Fingerprint of rows computed outside a run (an oracle's), rendered
/// by the same CSV writer as results.
pub fn fingerprint_rows(rows: Vec<Tuple>) -> Fingerprint {
    let arity = rows.first().map_or(1, |r| r.arity());
    let cols: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
    let pairs: Vec<(&str, DataType)> = cols.iter().map(|c| (c.as_str(), DataType::Int)).collect();
    let rel = Relation::from_rows_unchecked(Schema::from_pairs("reference", &pairs), rows);
    Fingerprint::of_csv(&mwtj_storage::csv::to_csv(&rel))
}

/// The program-reported stages of a finished run, for derived spans:
/// the profile's `plan` and `admission` wall times, then each job's
/// host time.
fn reported_stages(run: &QueryRun) -> Vec<(String, Option<&'static str>, f64)> {
    let mut parts = Vec::new();
    if let Some(profile) = &run.profile {
        for (stage, layer) in [("plan", PLAN), ("admission", ADMISSION)] {
            if let Some(s) = profile.find(stage) {
                parts.push((format!("profile.{stage}"), Some(layer), s.wall_ms));
            }
        }
    }
    for j in &run.jobs {
        parts.push((format!("job.{}", j.name), Some(JOB_HOST), j.real_secs * 1e3));
    }
    parts
}

/// Run SQL in process the way `Engine::run_sql_with` does — prepare,
/// then execute — with default options and bound `params`. With a
/// tracer, spans wrap both calls and the run's reported stages nest
/// under the execute span.
pub fn sql_op(
    engine: &Engine,
    name: &str,
    sql: &str,
    params: &[f64],
    tracer: Option<(&mut Tracer, u64)>,
) -> (Op, Option<QueryRun>) {
    let mut op = Op::new(name);
    let opts = RunOptions::default();
    let started = Instant::now();
    let result = match tracer {
        None => engine
            .prepare_sql(name, sql)
            .and_then(|p| engine.execute(&p, params, &opts)),
        Some((t, id)) => {
            let before = engine.stats_snapshot().plan_cache;
            let root = t.open(name, None, id, None);
            let parse = t.open("Engine::prepare_sql", Some(PARSE), id, Some(root));
            let prepared = engine.prepare_sql(name, sql);
            t.close(parse);
            let exec = t.open("Engine::execute", None, id, Some(root));
            let result = prepared.and_then(|p| engine.execute(&p, params, &opts));
            t.close(exec);
            t.close(root);
            op.cache = cache_delta(engine, before);
            if let Ok(run) = &result {
                t.derived(exec, &reported_stages(run));
            }
            op.attribution = Some(t.attribute(id));
            result
        }
    };
    op.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    finish(op, result)
}

/// Plan-cache `(hits, misses)` since `before`.
pub fn cache_delta(engine: &Engine, before: PlanCacheStats) -> (u64, u64) {
    let after = engine.stats_snapshot().plan_cache;
    (after.hits - before.hits, after.misses - before.misses)
}

/// Run a built query in process under `opts`, traced like [`sql_op`].
pub fn query_op(
    engine: &Engine,
    name: &str,
    query: &MultiwayQuery,
    opts: &RunOptions,
    tracer: Option<(&mut Tracer, u64)>,
) -> (Op, Option<QueryRun>) {
    let mut op = Op::new(name);
    let started = Instant::now();
    let result = match tracer {
        None => engine.run(query, opts),
        Some((t, id)) => {
            let before = engine.stats_snapshot().plan_cache;
            let root = t.open(name, None, id, None);
            let exec = t.open("Engine::run", None, id, Some(root));
            let result = engine.run(query, opts);
            t.close(exec);
            t.close(root);
            op.cache = cache_delta(engine, before);
            if let Ok(run) = &result {
                t.derived(exec, &reported_stages(run));
            }
            op.attribution = Some(t.attribute(id));
            result
        }
    };
    op.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    finish(op, result)
}

fn finish(mut op: Op, result: Result<QueryRun, EngineError>) -> (Op, Option<QueryRun>) {
    match result {
        Ok(run) => {
            op.record_run(&run);
            (op, Some(run))
        }
        Err(e) => {
            op.outcome = Outcome::of_error(&e);
            eprintln!(
                "perfbench: {} failed ({}): {e}",
                op.name,
                op.outcome.as_str()
            );
            (op, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_responses_are_classified() {
        assert_eq!(Outcome::of_response("ok rows=3\na\n1"), Outcome::Ok);
        assert_eq!(
            Outcome::of_response("err deadline exceeded"),
            Outcome::Deadline
        );
        assert_eq!(
            Outcome::of_response("err overloaded retry_after=50"),
            Outcome::Refused
        );
        assert_eq!(
            Outcome::of_response("err unknown relation `q`"),
            Outcome::Error
        );
    }
}
