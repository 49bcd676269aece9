//! End-to-end query benchmark with per-layer attribution.
//!
//! ```text
//! perfbench --workload <paper_queries|window_join|bulk_equi|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--with-q18]
//! ```
//!
//! Each run generates its inputs from the seed, loads them through the
//! engine's public API, runs the workload's operations in a closed loop
//! (one caller) for the given seconds, checks every result against an
//! independent reference, and prints one JSON object as the last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod check;
mod ops;
mod paper;
mod procfs;
mod report;
mod serve;
mod sqljoin;
mod stats;
mod trace;
mod workload;

use report::Run;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workload::{SetupInfo, Workload};

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["paper_queries", "window_join", "bulk_equi", "serve_mixed"];

/// Set-up is measured in this many extra fresh processes besides the
/// run's own, each setting up at least `PROBE_REPEATS` times (see
/// `workload::timed_setup`); `setup_s` is the median of all samples.
const SETUP_PROBES: usize = 4;
const PROBE_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    with_q18: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        with_q18: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--with-q18" => args.with_q18 = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn setup(args: &Args, repeats: usize) -> (Box<dyn Workload>, SetupInfo) {
    match args.workload.as_str() {
        "paper_queries" => {
            let (w, i) = paper::Paper::setup(args.seed, args.with_q18, repeats);
            (Box::new(w), i)
        }
        "window_join" => {
            let (w, i) = sqljoin::SqlJoin::window(args.seed, repeats);
            (Box::new(w), i)
        }
        "bulk_equi" => {
            let (w, i) = sqljoin::SqlJoin::bulk(args.seed, repeats);
            (Box::new(w), i)
        }
        _ => {
            let (w, i) = serve::Serve::setup(args.seed, repeats);
            (Box::new(w), i)
        }
    }
}

/// Set-up times of the same workload in a fresh process of this binary.
fn setup_in_fresh_process(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-probe")
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.split_whitespace().map(|x| x.parse().ok()).collect())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "setup probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// First line of a command's output, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".into())
}

/// FNV-1a digest of the engine and benchmark sources (`crates/`,
/// `perfbench/src/` and the manifests), in path order. It names the
/// code a run measured where no git revision is available.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        std::path::PathBuf::from("Cargo.toml"),
        std::path::PathBuf::from("perfbench/Cargo.toml"),
    ];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let (mut w, info) = setup(&args, PROBE_REPEATS);
        w.shutdown();
        let samples: Vec<String> = info.samples.iter().map(f64::to_string).collect();
        println!("setup_s {}", samples.join(" "));
        return ExitCode::SUCCESS;
    }

    let mut setup_samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        match setup_in_fresh_process(&args) {
            Ok(s) => setup_samples.extend(s),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let (mut w, info) = setup(&args, 1);
    setup_samples.extend(&info.samples);
    w.prepare_checks();

    let mut tracer = Tracer::new();
    let mut next_op = 0u64;
    // One warm-up cycle fills caches and finishes lazy set-up; its
    // results are checked but not timed.
    let warmup = w.cycle(0, None, &mut next_op);
    let mut run = Run::new(&args.workload, args.trace);
    run.check_only(&warmup);
    let started = Instant::now();
    let mut index = 1;
    while started.elapsed().as_secs_f64() < args.seconds {
        // The traced run alternates traced and untraced cycles, so the
        // tracing overhead is measured under the same conditions.
        let traced = args.trace && index % 2 == 1;
        let ops = w.cycle(index, traced.then_some(&mut tracer), &mut next_op);
        run.add_cycle(ops, traced);
        index += 1;
    }
    if args.trace {
        run.baseline = w.baseline_sims();
    }
    let engine_stats = w.engine().stats_snapshot();
    w.shutdown();
    drop(w);

    let provenance = report::Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        sizes: info.sizes.clone(),
        deadline_ms: (args.workload == "paper_queries").then_some(paper::DEADLINE_MS),
        with_q18: args.with_q18,
        nproc: command_line("nproc", &[]),
        git_rev: command_line("git", &["rev-parse", "HEAD"]),
        source_digest: source_digest(),
        rustc: command_line("rustc", &["--version"]),
        setup_samples: setup_samples.clone(),
    };
    let setup_s = stats::median(&setup_samples).unwrap_or(0.0);
    let ok = run.report(
        &provenance,
        &info,
        setup_s,
        procfs::peak_rss(),
        &engine_stats,
    );
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
            .is_ok()
        {
            eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
