//! End-to-end wall-clock benchmark of the simulator.
//!
//! A *pass* runs one workload once, single-threaded, against the public
//! API. An untraced pass runs the plain suites and programs and gives
//! the end-to-end numbers. A traced pass runs the same inputs behind the
//! pass-through wrappers of [`trace`] with the kernel profiler on, and
//! gives the per-layer numbers. See `README.md` for the metrics.

pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vlog_explore::{default_scenarios, explore, fingerprint, Budget};
use vlog_sim::profiler::{self, Phase, PhaseReading};
use vlog_vmpi::{ClusterRun, RunReport};

use trace::{SpanReading, SPANS};
use workloads::{Fault, Job, Kind, Seeds, EXPLORE_DEPTH, EXPLORE_SCHEDULES};

/// Largest share of a traced pass's run wall time by which a derived
/// (residual) part of the partition may fall below zero, or the parts'
/// sum may miss the run wall, before the partition counts as broken.
pub const PARTITION_TOLERANCE: f64 = 0.01;

/// Scenario-set builds timed per explorer pass for its set-up time.
const EXPLORE_SETUP_REPEATS: usize = 101;

/// FNV-1a over a string: the digest of a run's fingerprint.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Digest of a cluster run: the fields of the explorer's fingerprint
/// (suite, completion, makespan, events, stats, rank stats).
pub fn digest(report: &RunReport) -> u64 {
    fnv1a(&fingerprint(report))
}

/// The deterministic counts of one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub messages: u64,
    pub pb_bytes: u64,
    pub el_records: u64,
    pub el_batches: u64,
}

impl Counts {
    fn of(report: &RunReport) -> Counts {
        Counts {
            events: report.events,
            messages: report.stats.messages,
            pb_bytes: report.stats.bytes.piggyback,
            el_records: report.el_acked_records(),
            el_batches: report.el_batches(),
        }
    }

    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.messages += o.messages;
        self.pb_bytes += o.pb_bytes;
        self.el_records += o.el_records;
        self.el_batches += o.el_batches;
    }
}

/// One cluster run of a pass.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub label: String,
    pub yardstick: Option<&'static str>,
    /// `None` when the run panicked.
    pub digest: Option<u64>,
    /// Why the run is wrong, if it is (incomplete, panicked, missing
    /// re-shard). Digest comparisons are made by the caller.
    pub error: Option<String>,
    pub counts: Counts,
    pub build_ns: u64,
    pub run_ns: u64,
}

/// What an explorer pass explored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreResult {
    pub schedules: u64,
    pub runs: u64,
    pub violations: Vec<String>,
    pub digest: u64,
    pub explore_ns: u64,
}

/// Kernel profiler and wrapper readings of a traced pass.
#[derive(Debug, Clone)]
pub struct LayerReadings {
    pub phases: Vec<PhaseReading>,
    pub spans: [SpanReading; SPANS.len()],
}

impl LayerReadings {
    pub fn phase(&self, phase: Phase) -> PhaseReading {
        *self
            .phases
            .iter()
            .find(|r| r.phase == phase)
            .expect("the profiler reports every phase")
    }

    pub fn span(&self, span: trace::Span) -> SpanReading {
        self.spans[SPANS.iter().position(|s| *s == span).expect("listed span")]
    }
}

/// One pass over a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    pub traced: bool,
    pub wall_ns: u64,
    /// Sweeps: input construction plus every `ClusterRun::build`.
    /// Explorer: median time to build the scenario set.
    pub setup_ns: u64,
    pub runs: Vec<RunResult>,
    pub explore: Option<ExploreResult>,
    /// Present for traced passes and for profiled explorer passes.
    pub layers: Option<LayerReadings>,
}

impl Pass {
    /// Summed counts over the pass's cluster runs.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for r in &self.runs {
            c.add(&r.counts);
        }
        c
    }

    /// Summed `ClusterRun::run` wall time.
    pub fn run_wall_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.run_ns).sum()
    }

    /// Summed `ClusterRun::build` wall time.
    pub fn build_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.build_ns).sum()
    }

    /// Simulated events: per-run reports for sweeps, the profiler's
    /// dispatch count for a profiled explorer pass.
    pub fn events(&self) -> Option<u64> {
        match &self.explore {
            None => Some(self.counts().events),
            Some(_) => self.layers.as_ref().map(|l| l.phase(Phase::Dispatch).calls),
        }
    }
}

fn start_profiling(on: bool) {
    profiler::set_enabled(on);
    profiler::take();
    trace::take();
}

fn stop_profiling(on: bool) -> Option<LayerReadings> {
    let out = on.then(|| LayerReadings {
        phases: profiler::take(),
        spans: trace::take(),
    });
    profiler::set_enabled(false);
    out
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Builds and runs one job, plain or traced.
fn run_job(job: &Job, traced: bool) -> RunResult {
    let t0 = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        let spec = job.workload.program().spec;
        let (suite, spec) = if traced {
            (job.suite.traced(), trace::timed_app(spec))
        } else {
            (job.suite.plain(), spec)
        };
        ClusterRun::build(&job.cfg, suite, spec, &job.faults)
    }));
    let build_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let report = built.and_then(|run| catch_unwind(AssertUnwindSafe(|| run.run())));
    let run_ns = t1.elapsed().as_nanos() as u64;
    let mut result = RunResult {
        label: job.label.clone(),
        yardstick: job.yardstick,
        digest: None,
        error: None,
        counts: Counts::default(),
        build_ns,
        run_ns,
    };
    match report {
        Err(p) => result.error = Some(format!("panicked: {}", panic_text(&*p))),
        Ok(report) => {
            result.digest = Some(digest(&report));
            result.counts = Counts::of(&report);
            if !report.completed {
                result.error = Some("did not complete".into());
            } else if job.fault == Fault::ElShard && report.el_reshards() == 0 {
                result.error = Some("EL shard failed but no re-shard happened".into());
            }
        }
    }
    result
}

/// Runs `jobs` in order; when `traced`, also returns the profiler and
/// wrapper readings summed over the runs.
pub fn run_jobs(jobs: &[Job], traced: bool) -> (Vec<RunResult>, Option<LayerReadings>) {
    start_profiling(traced);
    let runs = jobs.iter().map(|j| run_job(j, traced)).collect();
    (runs, stop_profiling(traced))
}

/// One pass over a sweep workload.
pub fn sweep_pass(kind: Kind, seeds: &Seeds, traced: bool) -> Pass {
    let t0 = Instant::now();
    let jobs = workloads::jobs(kind, seeds);
    let construct_ns = t0.elapsed().as_nanos() as u64;
    let (runs, layers) = run_jobs(&jobs, traced);
    let build_ns: u64 = runs.iter().map(|r| r.build_ns).sum();
    Pass {
        traced,
        wall_ns: t0.elapsed().as_nanos() as u64,
        setup_ns: construct_ns + build_ns,
        runs,
        explore: None,
        layers,
    }
}

/// One pass of `explore-ci`. The explorer's scenarios keep their suites
/// private, so a traced pass can only turn the kernel profiler on;
/// `profiled` does that, which also yields the event count.
pub fn explore_pass(seeds: &Seeds, profiled: bool) -> Pass {
    // Building the scenarios takes microseconds: report the median of
    // many builds rather than one clock reading.
    let mut builds: Vec<u64> = (0..EXPLORE_SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(default_scenarios());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    builds.sort_unstable();
    let setup_ns = builds[builds.len() / 2];
    let t0 = Instant::now();
    let scenarios = default_scenarios();
    let budget = Budget {
        depth: EXPLORE_DEPTH,
        schedules: EXPLORE_SCHEDULES,
        seed: seeds.explore,
    };
    start_profiling(profiled);
    let t1 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| explore(&scenarios, &budget)));
    let explore_ns = t1.elapsed().as_nanos() as u64;
    let layers = stop_profiling(profiled);
    let explore = match report {
        Ok(r) => {
            let violations: Vec<String> = r.violations.iter().map(|v| v.replay_line()).collect();
            let digest = fnv1a(&format!(
                "scenarios={} schedules={} runs={} violations={violations:?}",
                r.scenarios, r.distinct_schedules, r.runs
            ));
            ExploreResult {
                schedules: r.distinct_schedules,
                runs: r.runs,
                violations,
                digest,
                explore_ns,
            }
        }
        Err(p) => ExploreResult {
            schedules: 0,
            runs: 0,
            violations: vec![format!("explorer panicked: {}", panic_text(&*p))],
            digest: 0,
            explore_ns,
        },
    };
    Pass {
        traced: profiled,
        wall_ns: t0.elapsed().as_nanos() as u64,
        setup_ns,
        runs: Vec::new(),
        explore: Some(explore),
        layers,
    }
}

/// Runs one pass of `kind`.
pub fn pass(kind: Kind, seeds: &Seeds, traced: bool) -> Pass {
    match kind {
        Kind::ExploreCi => explore_pass(seeds, traced),
        _ => sweep_pass(kind, seeds, traced),
    }
}

/// Exclusive partition of a traced sweep pass's run wall time (the sum
/// of its `ClusterRun::run` calls), in nanoseconds. `loop_other` and
/// `daemon_other` are residuals, so they are signed.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    pub run_wall: i64,
    pub calendar: i64,
    pub loop_other: i64,
    /// Self time of each protocol hook span, in [`SPANS`] order.
    pub hooks: Vec<(trace::Span, i64)>,
    pub el_service: i64,
    pub app_poll: i64,
    pub daemon_other: i64,
}

impl Partition {
    pub fn of(run_wall_ns: u64, layers: &LayerReadings) -> Partition {
        let ns = |v: u64| v as i64;
        let calendar = ns(layers.phase(Phase::Calendar).nanos);
        let dispatch = ns(layers.phase(Phase::Dispatch).nanos);
        let hooks: Vec<(trace::Span, i64)> = SPANS
            .iter()
            .filter(|s| s.is_hook())
            .map(|&s| (s, ns(layers.span(s).self_ns)))
            .collect();
        let el_service = ns(layers.span(trace::Span::ElService).self_ns);
        let app_poll = ns(layers.span(trace::Span::AppPoll).self_ns);
        let hook_sum: i64 = hooks.iter().map(|h| h.1).sum();
        Partition {
            run_wall: ns(run_wall_ns),
            calendar,
            loop_other: ns(run_wall_ns) - calendar - dispatch,
            daemon_other: dispatch - hook_sum - el_service - app_poll,
            hooks,
            el_service,
            app_poll,
        }
    }

    /// Every exclusive part, named.
    pub fn parts(&self) -> Vec<(&'static str, i64)> {
        let mut v = vec![("calendar", self.calendar), ("loop_other", self.loop_other)];
        v.extend(self.hooks.iter().map(|(s, t)| (s.metric(), *t)));
        v.push(("el_service", self.el_service));
        v.push(("app_poll", self.app_poll));
        v.push(("daemon_other", self.daemon_other));
        v
    }

    /// Checks that no part is below `-tolerance × run_wall` and that the
    /// parts sum to the run wall within the same tolerance.
    pub fn check(&self, tolerance: f64) -> Result<(), String> {
        let slack = (self.run_wall as f64 * tolerance) as i64;
        for (name, t) in self.parts() {
            if t < -slack {
                return Err(format!(
                    "partition part {name} = {t} ns is negative (run wall {} ns)",
                    self.run_wall
                ));
            }
        }
        let sum: i64 = self.parts().iter().map(|p| p.1).sum();
        if (sum - self.run_wall).abs() > slack {
            return Err(format!(
                "partition parts sum to {sum} ns, run wall is {} ns",
                self.run_wall
            ));
        }
        Ok(())
    }
}
