//! Trace ids and the span API.
//!
//! A *trace id* is a process-unique `u64` stamped on every query run
//! (and propagated to its admission ticket and per-job metrics) so
//! log lines, profile trees and metrics scrapes about one query can
//! be correlated without a global collector.
//!
//! A [`Span`] measures one lifecycle stage (parse, plan, admission
//! wait, execute, per-job map/shuffle/reduce, stream, wire) with the
//! monotonic wall clock, optionally annotated with the simulated
//! MapReduce clock and free-form `key=value` metadata. Finished spans
//! nest into a [`QueryProfile`] tree, which is what `EXPLAIN ANALYZE`
//! renders.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The process-wide trace-id source. Starts at 1 so 0 can mean
/// "never traced" in structs that default their trace id.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique trace id (monotone, never 0).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// One finished, immutable stage measurement — a node of the profile
/// tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Stage name (`parse`, `plan`, `admission`, `execute`,
    /// `job0/map`, …).
    pub stage: String,
    /// Real elapsed wall-clock milliseconds.
    pub wall_ms: f64,
    /// Simulated-clock seconds attributed to this stage, when the
    /// stage has a simulated cost (map/shuffle/reduce phases do; parse
    /// does not).
    pub sim_secs: Option<f64>,
    /// Free-form `key=value` annotations (cache hit/miss, rows,
    /// retries, skipped blocks, …) in insertion order.
    pub meta: Vec<(String, String)>,
    /// Nested child stages.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// A zero-duration record, for stages whose timing is derived
    /// rather than measured (e.g. per-job phases reconstructed from
    /// the simulated clock).
    pub fn synthetic(stage: &str) -> SpanRecord {
        SpanRecord {
            stage: stage.to_string(),
            wall_ms: 0.0,
            sim_secs: None,
            meta: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Attach a `key=value` annotation (builder form).
    pub fn with_meta(mut self, key: &str, value: impl std::fmt::Display) -> SpanRecord {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Attach a simulated-clock duration (builder form).
    pub fn with_sim_secs(mut self, secs: f64) -> SpanRecord {
        self.sim_secs = Some(secs);
        self
    }

    /// Depth-first search for the first node named `stage`.
    pub fn find(&self, stage: &str) -> Option<&SpanRecord> {
        if self.stage == stage {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(stage))
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.stage);
        out.push_str(&format!(" wall_ms={:.3}", self.wall_ms));
        if let Some(s) = self.sim_secs {
            out.push_str(&format!(" sim_secs={s:.6}"));
        }
        for (k, v) in &self.meta {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// An in-progress stage measurement. Create with [`Span::enter`],
/// annotate, then [`Span::finish`] into a [`SpanRecord`].
#[derive(Debug)]
pub struct Span {
    stage: String,
    started: Instant,
    meta: Vec<(String, String)>,
    children: Vec<SpanRecord>,
}

impl Span {
    /// Start measuring `stage` now (monotonic clock).
    pub fn enter(stage: &str) -> Span {
        Span {
            stage: stage.to_string(),
            started: Instant::now(),
            meta: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Attach a `key=value` annotation.
    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Nest a finished child stage.
    pub fn child(&mut self, record: SpanRecord) {
        self.children.push(record);
    }

    /// Stop the clock and freeze this span into its record.
    pub fn finish(self) -> SpanRecord {
        SpanRecord {
            stage: self.stage,
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
            sim_secs: None,
            meta: self.meta,
            children: self.children,
        }
    }
}

/// The finished profile of one query run: the trace id plus the root
/// span (whose children are the lifecycle stages in order).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The run's process-unique trace id.
    pub trace_id: u64,
    /// The root span (stage `query`), children in lifecycle order.
    pub root: SpanRecord,
}

impl QueryProfile {
    /// Render the profile as a stable indented tree, one stage per
    /// line: `stage wall_ms=… [sim_secs=…] [key=value …]`. This is
    /// the body `EXPLAIN ANALYZE` answers with.
    pub fn render(&self) -> String {
        let mut out = format!("trace={}\n", self.trace_id);
        self.root.render_into(&mut out, 0);
        out
    }

    /// Depth-first search for the first stage named `stage`.
    pub fn find(&self, stage: &str) -> Option<&SpanRecord> {
        self.root.find(stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert!(b > a);
    }

    #[test]
    fn span_nests_and_renders() {
        let mut root = Span::enter("query");
        let mut plan = Span::enter("plan");
        plan.meta("cache", "miss");
        root.child(plan.finish());
        root.child(
            SpanRecord::synthetic("job0/map")
                .with_sim_secs(1.5)
                .with_meta("tasks", 4),
        );
        let profile = QueryProfile {
            trace_id: 42,
            root: root.finish(),
        };
        let text = profile.render();
        assert!(text.starts_with("trace=42\n"), "{text}");
        assert!(text.contains("query wall_ms="), "{text}");
        assert!(text.contains("  plan wall_ms="), "{text}");
        assert!(text.contains("cache=miss"), "{text}");
        assert!(
            text.contains("  job0/map wall_ms=0.000 sim_secs=1.500000 tasks=4"),
            "{text}"
        );
        assert_eq!(profile.find("plan").unwrap().meta[0].1, "miss");
        assert!(profile.find("nope").is_none());
    }
}
