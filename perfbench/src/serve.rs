//! `serve_mixed`: an in-process server on loopback serving the demo
//! catalog to one closed-loop client connection.

use crate::check::{header_field, wire_ms_by_ticket, Fingerprint};
use crate::ops::{cache_delta, fingerprint, ours_and_best_baseline, sql_op, JobSum, Op, Outcome};
use crate::trace::{Tracer, ADMISSION, JOB_HOST, LOAD, PARSE, PLAN, WIRE};
use crate::workload::{timed_setup, SetupInfo, Workload};
use mwtj_core::{Engine, MetricValue, PlanCacheStats, RunOptions};
use mwtj_server::{load_demo, Client, Server};
use mwtj_storage::{csv, DataType, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::Instant;

/// The reads of every cycle, by operation name: three unary `run`s over
/// 2- and 3-way theta shapes, a prepared statement executed with a
/// changing parameter, and the dense demo query, streamed.
pub const READS: [(&str, &str); 5] = [
    (
        "run.equi_lt",
        "SELECT x.a, y.b FROM r x, s y WHERE x.a = y.a AND x.b < y.b",
    ),
    (
        "run.three_way",
        "SELECT x.a, z.b FROM r x, s y, t z WHERE x.a = y.a AND y.b = z.a AND x.b < z.b",
    ),
    (
        "run.band",
        "SELECT * FROM s y, t z WHERE y.a <= z.a AND z.a < y.a + 2",
    ),
    (
        PREPARED,
        "SELECT x.a, y.a FROM r x, t y WHERE x.a <= y.a AND y.a < x.a + ?",
    ),
    (STREAM, "SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a"),
];
const PREPARED: &str = "execute.prepared";
const STREAM: &str = "stream.dense";
/// The prepared statement's parameter cycles through this many values.
const PARAMS: usize = 3;
/// Versions of `t` the `load` cycles through.
pub const T_VARIANTS: usize = 4;
/// Rows of each `t` version (as many as the demo's `t`).
pub const T_ROWS: usize = 120;

/// One read as issued in one cycle.
#[derive(Clone, Copy)]
struct Read {
    name: &'static str,
    sql: &'static str,
    /// The parameter slot value, for the prepared statement.
    param: Option<f64>,
}

impl Read {
    fn all(cycle: usize) -> impl Iterator<Item = Read> {
        READS.iter().map(move |&(name, sql)| Read {
            name,
            sql,
            param: (name == PREPARED).then_some(1.0 + (cycle % PARAMS) as f64),
        })
    }

    fn params(&self) -> Vec<f64> {
        self.param.into_iter().collect()
    }
}

/// The workload state.
pub struct Serve {
    /// Clone of the server's engine.
    engine: Engine,
    client: Client,
    server: Option<JoinHandle<()>>,
    stmt: u64,
    variants: Vec<String>,
    /// Reference engine: the same catalog, never served.
    reference: Engine,
    ref_t: Option<usize>,
    references: HashMap<(&'static str, usize, u64), Fingerprint>,
}

fn admission_wait_sum(engine: &Engine) -> f64 {
    match engine.metrics().get("mwtj_admission_wait_ms", &[]) {
        Some(MetricValue::Histogram { sum, .. }) => sum,
        _ => 0.0,
    }
}

impl Serve {
    /// Generate the `t` versions from `seed`, load the demo catalog and
    /// bind the server (`repeats` times, see [`timed_setup`]), then
    /// connect the client.
    pub fn setup(seed: u64, repeats: usize) -> (Serve, SetupInfo) {
        let mut rng = StdRng::seed_from_u64(seed);
        let variants: Vec<String> = (0..T_VARIANTS)
            .map(|_| {
                (0..T_ROWS)
                    .map(|_| format!("{},{}\n", rng.gen_range(0..40i64), rng.gen_range(0..40i64)))
                    .collect()
            })
            .collect();
        let ((engine, server), mut info) = timed_setup(repeats, |info| {
            let engine = Engine::with_units(16);
            let loads = Instant::now();
            load_demo(&engine);
            info.load_secs = loads.elapsed().as_secs_f64();
            let server = Server::bind(engine.clone(), "127.0.0.1:0").expect("bind loopback");
            (engine, server)
        });
        info.sizes = format!("demo r=240 s=180 t=120; t versions={T_VARIANTS}x{T_ROWS}");
        info.rows_loaded = engine
            .loaded_instances()
            .iter()
            .map(|(_, n)| *n as u64)
            .sum();
        info.encoded_bytes = ["r", "s", "t"]
            .iter()
            .filter_map(|n| engine.relation(n))
            .map(|r| r.encoded_bytes() as u64)
            .sum();

        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let _ = server.serve();
        });
        let mut client = Client::connect(addr).expect("connect to loopback server");
        let prepared_sql = READS.iter().find(|r| r.0 == PREPARED).unwrap().1;
        let stmt = Client::parse_stmt_id(&client.prepare(prepared_sql).expect("prepare"))
            .expect("prepare answers a statement id");
        let reference = Engine::with_units(16);
        load_demo(&reference);
        let s = Serve {
            engine,
            client,
            server: Some(handle),
            stmt,
            variants,
            reference,
            ref_t: None,
            references: HashMap::new(),
        };
        (s, info)
    }

    /// The reference rows of `read` against `t` version `v`: the same
    /// SQL and parameters run in process on a separate engine holding
    /// the same catalog.
    fn reference(&mut self, read: &Read, v: usize) -> Fingerprint {
        let key = (read.name, v, read.param.unwrap_or(0.0).to_bits());
        if let Some(f) = self.references.get(&key) {
            return *f;
        }
        if self.ref_t != Some(v) {
            let schema = Schema::from_pairs("t", &[("a", DataType::Int), ("b", DataType::Int)]);
            let rel = csv::parse_csv(&schema, &self.variants[v]).expect("t version parses");
            let _ = self.reference.load_relation(&rel);
            self.ref_t = Some(v);
        }
        let run = self
            .reference
            .prepare_sql("reference", read.sql)
            .and_then(|p| {
                self.reference
                    .execute(&p, &read.params(), &RunOptions::default())
            })
            .expect("reference run");
        let f = fingerprint(&run);
        self.references.insert(key, f);
        f
    }

    /// The counters a traced request reads before it is sent.
    fn before(&self) -> (PlanCacheStats, f64) {
        (
            self.engine.stats_snapshot().plan_cache,
            admission_wait_sum(&self.engine),
        )
    }

    /// Close a traced request's root span, read the counters again and
    /// nest the recorder's view of `ticket` under it.
    fn after(
        &self,
        t: &mut Tracer,
        (root, id): (usize, u64),
        (cache, wait_before): (PlanCacheStats, f64),
        ticket: Option<&str>,
        op: &mut Op,
    ) {
        t.close(root);
        op.cache = cache_delta(&self.engine, cache);
        let wait = admission_wait_sum(&self.engine) - wait_before;
        self.nest_recorded(t, root, ticket, wait);
        op.attribution = Some(t.attribute(id));
    }

    /// Send one unary request and time it.
    fn unary(
        &mut self,
        name: &str,
        payload: &str,
        tracer: Option<(&mut Tracer, u64)>,
    ) -> (Op, String) {
        let mut op = Op::new(name);
        let layer = if name == "load" { LOAD } else { WIRE };
        let started = Instant::now();
        let response = match tracer {
            None => self.client.request(payload),
            Some((t, id)) => {
                let before = self.before();
                let root = t.open("Client::request", Some(layer), id, None);
                let response = self.client.request(payload);
                let ticket = response
                    .as_deref()
                    .ok()
                    .and_then(|r| header_field(r, "ticket"));
                self.after(t, (root, id), before, ticket, &mut op);
                response
            }
        };
        op.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let response = response.unwrap_or_else(|e| format!("err transport: {e}"));
        op.outcome = Outcome::of_response(&response);
        op.response_bytes = 4 + response.len() as u64;
        (op, response)
    }

    /// Stream the dense demo query, timing the first batch frame.
    /// Returns the operation and the end frame.
    fn stream(
        &mut self,
        sql: &str,
        tracer: Option<(&mut Tracer, u64)>,
    ) -> (Op, Fingerprint, String) {
        let mut op = Op::new(STREAM);
        let mut got = Fingerprint::default();
        let mut end = String::new();
        let mut bytes = 0u64;
        let mut first_batch = None;
        let started = Instant::now();
        let mut on_frame = |frame: &str| {
            bytes += 4 + frame.len() as u64;
            let (head, body) = frame.split_once('\n').unwrap_or((frame, ""));
            if head.starts_with("ok stream=batch") {
                first_batch.get_or_insert_with(|| started.elapsed().as_secs_f64() * 1e3);
                got.add_lines(body);
            } else if !head.starts_with("ok stream=schema") {
                end = frame.to_string();
            }
        };
        let payload = format!("stream\n{sql}");
        let result = match tracer {
            None => self.client.stream(&payload, &mut on_frame),
            Some((t, id)) => {
                let before = self.before();
                let root = t.open("Client::stream", Some(WIRE), id, None);
                let result = self.client.stream(&payload, &mut on_frame);
                self.after(t, (root, id), before, header_field(&end, "ticket"), &mut op);
                result
            }
        };
        op.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        op.response_bytes = bytes;
        op.first_batch_ms = first_batch;
        op.outcome = match result {
            Ok(_) => Outcome::of_response(&end),
            Err(_) => Outcome::Error,
        };
        (op, got, end)
    }

    /// Record a completed read: rows, the simulated and predicted
    /// makespans from the response `header`, the check against the
    /// reference and, in the traced run, the in-process probe.
    fn finish_read(&mut self, op: &mut Op, header: &str, got: Fingerprint, read: &Read, v: usize) {
        let field = |k: &str| {
            header_field(header, k)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0)
        };
        op.rows = got.rows;
        op.sim_secs = field("sim_secs");
        op.predicted_secs = field("predicted_secs");
        let want = self.reference(read, v);
        op.check(got, want);
        if op.attribution.is_some() {
            self.probe(op, read);
        }
    }

    /// Nest the recorder's view of ticket `ticket` under span `root`:
    /// the engine wall time the flight recorder holds for the ticket,
    /// and inside it the admission wait and each job's host time. What
    /// the request took beyond that is the wire time.
    fn nest_recorded(&self, t: &mut Tracer, root: usize, ticket: Option<&str>, wait_ms: f64) {
        let Some(ticket) = ticket.and_then(|v| v.parse::<u64>().ok()) else {
            return;
        };
        let records = self.engine.flight_recorder().recent(16);
        let walls: Vec<(u64, f64)> = records.iter().map(|r| (r.ticket, r.wall_ms)).collect();
        let client_ms = t.spans()[root].end_ms - t.spans()[root].start_ms;
        let (Some(wire_ms), Some(rec)) = (
            wire_ms_by_ticket(&[(ticket, client_ms)], &walls)[0],
            records.iter().find(|r| r.ticket == ticket),
        ) else {
            return;
        };
        t.derived(root, &[("recorder.run".into(), None, client_ms - wire_ms)]);
        let run = t.spans().len() - 1;
        let mut parts = vec![(
            "registry.admission_wait".to_string(),
            Some(ADMISSION),
            wait_ms,
        )];
        for j in &rec.jobs {
            parts.push((format!("job.{}", j.name), Some(JOB_HOST), j.real_secs * 1e3));
        }
        t.derived(run, &parts);
    }

    /// In the traced run, run the read in process on the server's
    /// engine once more: the wire response carries no profile, so parse
    /// time, plan time and the job counters come from this probe. The
    /// job host time stays the recorder's.
    fn probe(&self, op: &mut Op, read: &Read) {
        let mut scratch = Tracer::new();
        let (probe, _) = sql_op(
            &self.engine,
            read.name,
            read.sql,
            &read.params(),
            Some((&mut scratch, 0)),
        );
        if let Some(a) = &probe.attribution {
            op.probe = Some((a.layers[PARSE], a.layers[PLAN]));
        }
        let host_ms = op.attribution.as_ref().map_or(0.0, |a| a.layers[JOB_HOST]);
        op.jobs = JobSum {
            host_ms,
            ..probe.jobs
        };
    }
}

impl Workload for Serve {
    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn prepare_checks(&mut self) {
        for v in 0..T_VARIANTS {
            for cycle in 0..PARAMS {
                for read in Read::all(cycle) {
                    self.reference(&read, v);
                }
            }
        }
    }

    fn cycle(
        &mut self,
        index: usize,
        mut tracer: Option<&mut Tracer>,
        next_op: &mut u64,
    ) -> Vec<Op> {
        let v = index % T_VARIANTS;
        let mut ops = Vec::new();
        let mut next = || {
            *next_op += 1;
            *next_op - 1
        };

        let payload = format!("load t a:int,b:int\n{}", self.variants[v]);
        let (mut op, response) =
            self.unary("load", &payload, tracer.as_deref_mut().map(|t| (t, next())));
        if op.outcome == Outcome::Ok && header_field(&response, "rows") != Some("120") {
            op.wrong = Some(format!(
                "load: unexpected response `{}`",
                response.lines().next().unwrap_or("")
            ));
        }
        ops.push(op);

        for read in Read::all(index) {
            let traced = tracer.as_deref_mut().map(|t| (t, next()));
            let (mut op, got, header) = if read.name == STREAM {
                self.stream(read.sql, traced)
            } else {
                let payload = match read.param {
                    Some(p) => format!("execute {} {p}", self.stmt),
                    None => format!("run\n{}", read.sql),
                };
                let (op, response) = self.unary(read.name, &payload, traced);
                let body = response.split_once('\n').map_or("", |(_, b)| b);
                let got = Fingerprint::of_csv(body);
                (op, got, response)
            };
            if op.outcome == Outcome::Ok {
                self.finish_read(&mut op, &header, got, &read, v);
            }
            ops.push(op);
        }
        ops
    }

    fn baseline_sims(&mut self) -> (f64, f64) {
        Read::all(0)
            .filter_map(|read| {
                let sql = read.sql.replace('?', "1");
                let run = |o: &RunOptions| self.engine.run_sql_with("baseline", &sql, o);
                ours_and_best_baseline(run, &RunOptions::default())
            })
            .fold((0.0, 0.0), |(a, b), (o, x)| (a + o, b + x))
    }

    fn shutdown(&mut self) {
        let _ = self.client.request("shutdown");
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}
