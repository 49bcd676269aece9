//! `paper_queries`: the paper's mobile Q1–Q4 and TPC-H Q7/Q17/Q18/Q21
//! under the default method (Ours) with a fixed per-query deadline.

use crate::check::Fingerprint;
use crate::ops::{fingerprint, fingerprint_rows, ours_and_best_baseline, query_op, Op};
use crate::trace::Tracer;
use crate::workload::{timed_setup, SetupInfo, Workload};
use mwtj_core::{mobile_query, tpch_query, Engine, Method, MobileQuery, RunOptions, TpchQuery};
use mwtj_datagen::{MobileGen, TpchGen};
use mwtj_query::MultiwayQuery;

/// Rows of the mobile `calls` table.
pub const MOBILE_ROWS: usize = 120;
/// TPC-H scale factor.
pub const TPCH_SF: f64 = 0.001;
/// The fixed per-query deadline, about 3× the slowest query that
/// completes (Q21, 1.1–1.3 s on a 2-core host).
pub const DEADLINE_MS: u64 = 4_000;

struct Query {
    name: String,
    query: MultiwayQuery,
    /// `None` until computed: Q18's reference is only needed if it
    /// ever completes.
    reference: Option<Fingerprint>,
    mobile: bool,
}

/// The workload state.
pub struct Paper {
    engine: Engine,
    queries: Vec<Query>,
}

fn opts() -> RunOptions {
    RunOptions::default().deadline_ms(DEADLINE_MS)
}

impl Paper {
    /// Generate the inputs from `seed` and load them, `repeats` times
    /// (see [`timed_setup`]). Q18 joins the cycle only with `with_q18`.
    pub fn setup(seed: u64, with_q18: bool, repeats: usize) -> (Paper, SetupInfo) {
        let calls = MobileGen {
            seed,
            ..Default::default()
        }
        .generate("calls", MOBILE_ROWS);
        let gen = TpchGen {
            scale: TPCH_SF,
            seed: seed.rotate_left(17) ^ 0x7bc4,
        };
        let tables = [
            gen.supplier(),
            gen.customer(),
            gen.orders(),
            gen.part(),
            gen.nation(),
            gen.lineitem(),
        ];
        let (engine, mut info) = timed_setup(repeats, |info| {
            let engine = Engine::with_units(16);
            info.load(&engine, &calls);
            for alias in ["t1", "t2", "t3", "t4"] {
                let _ = engine
                    .load_alias_of("calls", alias)
                    .expect("calls is loaded");
            }
            for t in &tables {
                info.load(&engine, t);
            }
            for alias in ["l1", "l2", "l3"] {
                let _ = engine
                    .load_alias_of("lineitem", alias)
                    .expect("lineitem is loaded");
            }
            engine
        });
        info.sizes = format!(
            "calls={} {}",
            calls.len(),
            tables
                .iter()
                .map(|t| format!("{}={}", t.name(), t.len()))
                .collect::<Vec<_>>()
                .join(" ")
        );

        let mut queries: Vec<Query> = MobileQuery::ALL
            .iter()
            .map(|q| Query {
                name: format!("mobile.{q:?}"),
                query: mobile_query(*q),
                reference: None,
                mobile: true,
            })
            .collect();
        for q in TpchQuery::ALL {
            if q == TpchQuery::Q18 && !with_q18 {
                continue;
            }
            queries.push(Query {
                name: format!("tpch.{q:?}"),
                query: tpch_query(q),
                reference: None,
                mobile: false,
            });
        }
        (Paper { engine, queries }, info)
    }

    /// The reference for query `i`: the nested-loop oracle for the
    /// mobile queries, and a run under Hive (another plan) for TPC-H,
    /// whose oracle does not finish in set-up time.
    fn reference(&mut self, i: usize) -> Fingerprint {
        if let Some(f) = self.queries[i].reference {
            return f;
        }
        let q = &self.queries[i];
        let f = if q.mobile {
            fingerprint_rows(self.engine.oracle(&q.query).expect("oracle runs"))
        } else {
            let run = self
                .engine
                .run(&q.query, &RunOptions::from(Method::Hive))
                .unwrap_or_else(|e| panic!("{} under Hive failed: {e}", q.name));
            fingerprint(&run)
        };
        self.queries[i].reference = Some(f);
        f
    }
}

impl Workload for Paper {
    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn prepare_checks(&mut self) {
        for i in 0..self.queries.len() {
            // Q18's reference is computed only if it ever completes.
            if self.queries[i].name != "tpch.Q18" {
                self.reference(i);
            }
        }
    }

    fn cycle(
        &mut self,
        _index: usize,
        mut tracer: Option<&mut Tracer>,
        next_op: &mut u64,
    ) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.queries.len());
        for i in 0..self.queries.len() {
            let traced = tracer.as_deref_mut().map(|t| (t, *next_op));
            *next_op += 1;
            let q = &self.queries[i];
            let (mut op, run) = query_op(&self.engine, &q.name, &q.query, &opts(), traced);
            if let Some(run) = run {
                let want = self.reference(i);
                op.check(fingerprint(&run), want);
            }
            ops.push(op);
        }
        ops
    }

    fn baseline_sims(&mut self) -> (f64, f64) {
        self.queries
            .iter()
            .filter_map(|q| ours_and_best_baseline(|o| self.engine.run(&q.query, o), &opts()))
            .fold((0.0, 0.0), |(a, b), (o, x)| (a + o, b + x))
    }
}
