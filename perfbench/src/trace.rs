//! In-memory spans recorded around the program's public entry points,
//! and the per-operation layer attribution computed from them.
//!
//! A span has a name, a start, an end, a parent and an operation id.
//! Spans the benchmark times itself are *measured*; spans built from a
//! duration the program reports (a profile stage's `wall_ms`, a job's
//! `real_secs`, the flight recorder's `wall_ms`) are *derived*: they are
//! laid end to end from their parent's start, since the program reports
//! how long a stage took but not when it began.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span's self time counts towards. A span without a
/// layer credits its self time to [`UNATTRIBUTED`].
pub const PARSE: &str = "query.parse_ms";
/// Planning, from the profile's `plan` stage.
pub const PLAN: &str = "planner.plan_ms";
/// Admission wait, from the profile's `admission` stage.
pub const ADMISSION: &str = "core.admission_wait_ms";
/// Host time of the MapReduce jobs.
pub const JOB_HOST: &str = "mapreduce.job_host_ms";
/// Framing, wire transfer and server-side work outside the engine run.
pub const WIRE: &str = "server.wire_ms";
/// Loading a relation through the wire.
pub const LOAD: &str = "storage.load_ms";
/// Operation time no layer covers.
pub const UNATTRIBUTED: &str = "core.unattributed_ms";

/// Every layer of the attribution, in report order.
pub const LAYERS: [&str; 7] = [PARSE, PLAN, ADMISSION, JOB_HOST, WIRE, LOAD, UNATTRIBUTED];

/// One span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// What was called.
    pub name: String,
    /// The layer its self time counts towards.
    pub layer: Option<&'static str>,
    /// The operation it belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// Milliseconds since the tracer started.
    pub start_ms: f64,
    /// Milliseconds since the tracer started.
    pub end_ms: f64,
    /// Built from a program-reported duration rather than timed here.
    pub derived: bool,
}

/// The span store of one traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
}

/// One operation's wall time split over the layers. The layer values
/// sum to `wall_ms` (up to float rounding): unattributed time is what
/// remains, never spread over the layers.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Root span duration.
    pub wall_ms: f64,
    /// Milliseconds per layer (every name of [`LAYERS`]).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    /// Open a measured span now.
    pub fn open(
        &mut self,
        name: &str,
        layer: Option<&'static str>,
        op: u64,
        parent: Option<usize>,
    ) -> usize {
        let now = self.now();
        self.spans.push(SpanRec {
            name: name.to_string(),
            layer,
            op,
            parent,
            start_ms: now,
            end_ms: now,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Close a measured span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ms = self.now();
    }

    /// Place program-reported durations `(name, layer, ms)` end to end
    /// under the closed span `parent`, starting at its start. A part
    /// that would run past the parent's end is cut there, so children
    /// never claim more time than their parent measured.
    pub fn derived(&mut self, parent: usize, parts: &[(String, Option<&'static str>, f64)]) {
        let (op, mut at, end) = {
            let p = &self.spans[parent];
            (p.op, p.start_ms, p.end_ms)
        };
        for (name, layer, ms) in parts {
            let stop = (at + ms.max(0.0)).min(end);
            self.spans.push(SpanRec {
                name: name.clone(),
                layer: *layer,
                op,
                parent: Some(parent),
                start_ms: at,
                end_ms: stop,
                derived: true,
            });
            at = stop;
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Split operation `op` over the layers by self time: each span's
    /// duration minus the part of it its children cover.
    pub fn attribute(&self, op: u64) -> Attribution {
        let ids: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].op == op)
            .collect();
        let mut out = Attribution::default();
        for layer in LAYERS {
            out.layers.insert(layer, 0.0);
        }
        for &i in &ids {
            let s = &self.spans[i];
            if s.parent.is_none() {
                out.wall_ms += s.end_ms - s.start_ms;
            }
            let children: Vec<(f64, f64)> = ids
                .iter()
                .filter(|&&c| self.spans[c].parent == Some(i))
                .map(|&c| (self.spans[c].start_ms, self.spans[c].end_ms))
                .collect();
            let own = (s.end_ms - s.start_ms) - covered(s.start_ms, s.end_ms, children);
            *out.layers.get_mut(s.layer.unwrap_or(UNATTRIBUTED)).unwrap() += own;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"layer\":{},\"parent\":{},\
                 \"start_ms\":{:.4},\"end_ms\":{:.4},\"derived\":{}}}",
                s.op,
                s.name,
                s.layer.map_or("null".to_string(), |l| format!("\"{l}\"")),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ms,
                s.end_ms,
                s.derived
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children_is_not_double_counted() {
        assert_eq!(
            covered(0.0, 10.0, vec![(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]),
            6.0
        );
        assert_eq!(covered(0.0, 10.0, vec![]), 0.0);
    }

    #[test]
    fn layers_and_unattributed_sum_to_wall() {
        let mut t = Tracer::new();
        let root = t.open("op", None, 1, None);
        let parse = t.open("prepare_sql", Some(PARSE), 1, Some(root));
        t.close(parse);
        let exec = t.open("execute", None, 1, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.close(exec);
        t.close(root);
        let exec_ms = t.spans()[exec].end_ms - t.spans()[exec].start_ms;
        t.derived(
            exec,
            &[
                ("plan".into(), Some(PLAN), 0.5),
                ("job0".into(), Some(JOB_HOST), 1.0),
                // Runs past the parent's end: cut, never over-claimed.
                ("job1".into(), Some(JOB_HOST), 1e6),
            ],
        );
        let a = t.attribute(1);
        let sum: f64 = a.layers.values().sum();
        assert!((sum - a.wall_ms).abs() < 1e-9, "{sum} vs {}", a.wall_ms);
        assert!((a.layers[PLAN] - 0.5).abs() < 1e-9);
        assert!((a.layers[JOB_HOST] - (exec_ms - 0.5)).abs() < 1e-9);
        assert_eq!(t.attribute(2).wall_ms, 0.0);
    }
}
