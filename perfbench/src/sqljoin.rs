//! `window_join` and `bulk_equi`: one SQL join repeated in process.

use crate::check::Fingerprint;
use crate::ops::{fingerprint, fingerprint_rows, ours_and_best_baseline, sql_op, Op};
use crate::trace::Tracer;
use crate::workload::{timed_setup, SetupInfo, Workload};
use mwtj_core::{Engine, RunOptions};
use mwtj_storage::{tuple, DataType, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Rows per side of `window_join`.
pub const WINDOW_ROWS: usize = 5_000;
/// `ts` is uniform in `[0, WINDOW_DOMAIN)`.
pub const WINDOW_DOMAIN: i64 = 10_000;
/// The two-sided window join.
pub const WINDOW_SQL: &str = "SELECT * FROM l x, r y WHERE x.ts <= y.ts AND y.ts < x.ts + 5";

/// Rows per side of `bulk_equi`.
pub const BULK_ROWS: usize = 500_000;
/// Distinct short strings in the dictionary column.
pub const BULK_DICT: usize = 64;
/// The equality join.
pub const BULK_SQL: &str = "SELECT x.k, x.v, x.s, y.v, y.s FROM a x, b y WHERE x.k = y.k";

/// The workload state.
pub struct SqlJoin {
    engine: Engine,
    name: &'static str,
    sql: &'static str,
    inputs: Inputs,
    reference: Fingerprint,
}

/// The generated rows, kept until the reference is computed.
enum Inputs {
    Window(Relation, Relation),
    Bulk(Vec<(i64, i64, usize)>, Vec<(i64, i64, usize)>),
    Dropped,
}

/// A fresh engine holding `left` and `right`.
fn load_pair(info: &mut SetupInfo, left: &Relation, right: &Relation) -> Engine {
    let engine = Engine::with_units(16);
    info.load(&engine, left);
    info.load(&engine, right);
    engine
}

fn dict_entry(i: usize) -> String {
    format!("s{i:02}")
}

impl SqlJoin {
    /// `window_join`: two relations `(id, ts)` with uniform random `ts`,
    /// loaded `repeats` times (see [`timed_setup`]).
    pub fn window(seed: u64, repeats: usize) -> (SqlJoin, SetupInfo) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut side = |name: &str| {
            let schema = Schema::from_pairs(name, &[("id", DataType::Int), ("ts", DataType::Int)]);
            let rows = (0..WINDOW_ROWS as i64)
                .map(|id| tuple![id, rng.gen_range(0..WINDOW_DOMAIN)])
                .collect();
            Relation::from_rows_unchecked(schema, rows)
        };
        let (l, r) = (side("l"), side("r"));
        let (engine, mut info) = timed_setup(repeats, |info| load_pair(info, &l, &r));
        info.sizes = format!("l={} r={} ts_domain={WINDOW_DOMAIN}", l.len(), r.len());

        let w = SqlJoin {
            engine,
            name: "window",
            sql: WINDOW_SQL,
            inputs: Inputs::Window(l, r),
            reference: Fingerprint::default(),
        };
        (w, info)
    }

    /// `bulk_equi`: two relations `(k, v, s)` — a key with about one
    /// match, an int and a short dictionary string, loaded `repeats`
    /// times (see [`timed_setup`]).
    pub fn bulk(seed: u64, repeats: usize) -> (SqlJoin, SetupInfo) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut side = || -> Vec<(i64, i64, usize)> {
            (0..BULK_ROWS)
                .map(|_| {
                    (
                        rng.gen_range(0..BULK_ROWS as i64),
                        rng.gen_range(0..1_000_000i64),
                        rng.gen_range(0..BULK_DICT),
                    )
                })
                .collect()
        };
        let (a, b) = (side(), side());
        let dict: Vec<String> = (0..BULK_DICT).map(dict_entry).collect();
        let relation = |name: &str, rows: &[(i64, i64, usize)]| {
            let schema = Schema::from_pairs(
                name,
                &[
                    ("k", DataType::Int),
                    ("v", DataType::Int),
                    ("s", DataType::Str),
                ],
            );
            let rows = rows
                .iter()
                .map(|(k, v, s)| tuple![*k, *v, dict[*s].as_str()])
                .collect();
            Relation::from_rows_unchecked(schema, rows)
        };
        let (ra, rb) = (relation("a", &a), relation("b", &b));
        let (engine, mut info) = timed_setup(repeats, |info| load_pair(info, &ra, &rb));
        info.sizes = format!(
            "a={} b={} key_domain={BULK_ROWS} dict={BULK_DICT}",
            ra.len(),
            rb.len()
        );
        drop((ra, rb));
        let w = SqlJoin {
            engine,
            name: "bulk",
            sql: BULK_SQL,
            inputs: Inputs::Bulk(a, b),
            reference: Fingerprint::default(),
        };
        (w, info)
    }
}

impl Workload for SqlJoin {
    fn engine(&self) -> &Engine {
        &self.engine
    }

    /// `window_join` checks against the engine's nested-loop oracle,
    /// run on a separate engine. At `bulk_equi`'s size that oracle
    /// cannot finish, so its reference is a hash join over the
    /// generated rows, computed here.
    fn prepare_checks(&mut self) {
        match std::mem::replace(&mut self.inputs, Inputs::Dropped) {
            Inputs::Window(l, r) => {
                let oracle = Engine::with_units(16);
                let _ = oracle.load_relation(&l);
                let _ = oracle.load_relation(&r);
                let parsed = oracle.parse_sql("oracle", self.sql).expect("SQL parses");
                for (alias, base) in &parsed.instances {
                    let _ = oracle.load_alias_of(base, alias).expect("base is loaded");
                }
                self.reference =
                    fingerprint_rows(oracle.oracle(&parsed.query).expect("oracle runs"));
            }
            Inputs::Bulk(a, b) => {
                let mut by_key: HashMap<i64, Vec<usize>> = HashMap::new();
                for (i, (k, _, _)) in b.iter().enumerate() {
                    by_key.entry(*k).or_default().push(i);
                }
                let dict: Vec<String> = (0..BULK_DICT).map(dict_entry).collect();
                for (k, v, s) in &a {
                    for &j in by_key.get(k).into_iter().flatten() {
                        let (_, v2, s2) = b[j];
                        self.reference
                            .add(&format!("{k},{v},{},{v2},{}", dict[*s], dict[s2]));
                    }
                }
            }
            Inputs::Dropped => {}
        }
    }

    fn cycle(&mut self, _index: usize, tracer: Option<&mut Tracer>, next_op: &mut u64) -> Vec<Op> {
        let traced = tracer.map(|t| (t, *next_op));
        *next_op += 1;
        let (mut op, run) = sql_op(&self.engine, self.name, self.sql, &[], traced);
        if let Some(run) = run {
            op.check(fingerprint(&run), self.reference);
        }
        vec![op]
    }

    fn baseline_sims(&mut self) -> (f64, f64) {
        let opts = RunOptions::default().deadline_ms(60_000);
        let run = |o: &RunOptions| self.engine.run_sql_with("baseline", self.sql, o);
        ours_and_best_baseline(run, &opts).unwrap_or((0.0, 0.0))
    }
}
