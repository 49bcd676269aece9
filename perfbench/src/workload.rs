//! What every workload provides to the measurement loop.

use crate::ops::Op;
use crate::procfs;
use crate::trace::Tracer;
use mwtj_core::Engine;
use mwtj_storage::Relation;
use std::time::Instant;

/// What set-up cost, measured in the workload's own process.
#[derive(Debug, Clone, Default)]
pub struct SetupInfo {
    /// Wall time of the load calls (plus server bind for serving),
    /// seconds. Data generation is excluded.
    pub secs: f64,
    /// `secs` of every repetition in this process, in order.
    pub samples: Vec<f64>,
    /// Rows loaded by `load_relation` (aliases share rows and add none).
    pub rows_loaded: u64,
    /// Wall time of the `load_relation` calls alone, seconds.
    pub load_secs: f64,
    /// `VmRSS` after the loads minus before them, bytes.
    pub rss_growth: u64,
    /// `Relation::encoded_bytes()` of the loaded relations.
    pub encoded_bytes: u64,
    /// Generated input sizes, for provenance.
    pub sizes: String,
}

impl SetupInfo {
    /// Load `rel` into `engine`, adding its rows, time and encoded
    /// size to the totals.
    pub fn load(&mut self, engine: &Engine, rel: &Relation) {
        let started = Instant::now();
        let _report = engine.load_relation(rel);
        self.load_secs += started.elapsed().as_secs_f64();
        self.rows_loaded += rel.len() as u64;
        self.encoded_bytes += rel.encoded_bytes() as u64;
    }
}

/// A process that repeats its set-up goes on past `repeats` while the
/// repetitions so far took less than this many seconds in all...
const REPEAT_BUDGET_S: f64 = 0.25;
/// ...up to this many repetitions.
const MAX_REPEATS: usize = 32;

/// Run the timed set-up `load` `repeats` times, each on fresh state,
/// and keep the last result. Each repetition is timed, together with
/// the resident memory it adds; the previous one is dropped before the
/// next starts. The first load in a process also pays for growing the
/// heap, and that cost swings with the host's memory state, so a
/// process repeats its set-up to give warm samples beside the fresh one.
/// With `repeats > 1`, a set-up of a few milliseconds is repeated
/// further (see [`REPEAT_BUDGET_S`]), so that its median is not one of
/// a handful of samples split between a fresh and a warm cluster.
pub fn timed_setup<T>(repeats: usize, mut load: impl FnMut(&mut SetupInfo) -> T) -> (T, SetupInfo) {
    let mut samples: Vec<f64> = Vec::with_capacity(repeats);
    let mut last: Option<(T, SetupInfo)> = None;
    let more = |samples: &[f64]| {
        samples.len() < repeats.max(1)
            || (repeats > 1
                && samples.len() < MAX_REPEATS
                && samples.iter().sum::<f64>() < REPEAT_BUDGET_S)
    };
    while more(&samples) {
        drop(last.take());
        let mut info = SetupInfo::default();
        let rss_before = procfs::rss();
        let started = Instant::now();
        let state = load(&mut info);
        info.secs = started.elapsed().as_secs_f64();
        info.rss_growth = procfs::rss().saturating_sub(rss_before);
        samples.push(info.secs);
        last = Some((state, info));
    }
    let (state, mut info) = last.expect("at least one repetition");
    info.samples = samples;
    (state, info)
}

/// One workload: a fixed cycle of operations over generated inputs.
pub trait Workload {
    /// The engine the operations run on (an `Engine` clone of the
    /// server's for serving).
    fn engine(&self) -> &Engine;

    /// Compute the references results are checked against (not part
    /// of set-up time).
    fn prepare_checks(&mut self) {}

    /// Run cycle `index` of the operations; each one is checked
    /// against its reference. With a tracer, operations are traced and
    /// numbered from `next_op`.
    fn cycle(&mut self, index: usize, tracer: Option<&mut Tracer>, next_op: &mut u64) -> Vec<Op>;

    /// The best baseline's simulated makespan over one cycle's queries
    /// divided into Ours', as `(ours_sim_s, best_baseline_sim_s)`.
    fn baseline_sims(&mut self) -> (f64, f64);

    /// Stop whatever the workload started.
    fn shutdown(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_set_up_repeats_up_to_the_cap_only_when_asked() {
        let (_, once) = timed_setup(1, |_| ());
        assert_eq!(once.samples.len(), 1);
        let (_, probe) = timed_setup(3, |_| ());
        assert_eq!(probe.samples.len(), MAX_REPEATS);
        let (_, slow) = timed_setup(3, |_| std::thread::sleep(std::time::Duration::from_millis(130)));
        assert_eq!(slow.samples.len(), 3);
    }
}
