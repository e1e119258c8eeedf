//! Benchmark driver: `vlog-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Runs one warm-up pass, then passes of the workload until `--seconds`
//! have elapsed, checks every run's output, prints each metric on its
//! own line and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics from untraced passes. `--trace 1` alternates
//! traced and untraced passes and reports the per-layer metrics.
//! `--digests` also prints each run's digest, the format of the
//! `expected/` files.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vlog_perfbench::trace::{Span, SPANS};
use vlog_perfbench::workloads::{
    aggregation_ladder, large_registry, Kind, Seeds, DEFAULT_SEED, YARDSTICKS,
};
use vlog_perfbench::{pass, Partition, Pass, PARTITION_TOLERANCE};
use vlog_sim::profiler::Phase;
use vlog_workloads::{registry, RegistryScale};

/// Seconds an invocation may run beyond `--seconds`, measured from the
/// start of the warm-up pass; a pass still running then is a failure.
/// Passes take 2-4 s at seed 1.
const GRACE_S: u64 = 60;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digests" {
            digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        digests,
    })
}

/// Expected digests at [`DEFAULT_SEED`], one `<hex digest> <run label>`
/// line per run.
fn expected_digests(kind: Kind) -> BTreeMap<String, u64> {
    let text = match kind {
        Kind::GraphNoel => include_str!("../expected/graph-noel.txt"),
        Kind::LoggedEl => include_str!("../expected/logged-el.txt"),
        Kind::ExploreCi => include_str!("../expected/explore-ci.txt"),
    };
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(d, label)| Some((label.to_string(), u64::from_str_radix(d, 16).ok()?)))
        .collect()
}

/// Output checks across every pass of one invocation.
struct Checker {
    expected: Option<BTreeMap<String, u64>>,
    /// Digests (and explorer event count) of the first pass.
    reference: Vec<(String, Option<u64>)>,
    explore_events: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn fail(&mut self, why: String) {
        eprintln!("FAILED: {why}");
        self.failed += 1;
    }

    fn check(&mut self, p: &Pass) {
        let digests: Vec<(String, Option<u64>)> = match &p.explore {
            None => p.runs.iter().map(|r| (r.label.clone(), r.digest)).collect(),
            Some(e) => vec![("explore".to_string(), Some(e.digest))],
        };
        if self.reference.is_empty() {
            self.reference = digests.clone();
            if let Some(expected) = self.expected.take() {
                let got: BTreeMap<String, u64> = digests
                    .iter()
                    .filter_map(|(l, d)| Some((l.clone(), (*d)?)))
                    .collect();
                if got != expected {
                    let diff = expected
                        .iter()
                        .find(|(l, d)| got.get(*l) != Some(d))
                        .map(|(l, _)| l.clone())
                        .or_else(|| got.keys().find(|l| !expected.contains_key(*l)).cloned());
                    self.fail(format!(
                        "digests differ from the expected ones at the default seed, first at {diff:?}"
                    ));
                }
            }
        }
        match &p.explore {
            None => {
                for (i, r) in p.runs.iter().enumerate() {
                    self.attempted += 1;
                    if let Some(why) = &r.error {
                        self.fail(format!("{}: {why}", r.label));
                    } else if digests[i] != self.reference[i] {
                        self.fail(format!(
                            "{}: digest differs between passes (traced={})",
                            r.label, p.traced
                        ));
                    }
                }
            }
            Some(e) => {
                self.attempted += e.runs.max(1);
                for v in &e.violations {
                    self.fail(v.clone());
                }
                if digests != self.reference {
                    self.fail(format!(
                        "explorer digest differs between passes (traced={})",
                        p.traced
                    ));
                }
                if let Some(events) = p.events() {
                    match self.explore_events {
                        None => self.explore_events = Some(events),
                        Some(first) if first != events => self.fail(format!(
                            "explorer event count differs between passes: {first} vs {events}"
                        )),
                        Some(_) => {}
                    }
                }
            }
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Per-layer metrics of one traced pass (times in s, counts exact).
fn layer_metrics(p: &Pass) -> Metrics {
    let l = p.layers.as_ref().expect("traced pass has layer readings");
    let mut m = Metrics::new();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    let ph = |phase| l.phase(phase);
    let dispatch = ph(Phase::Dispatch).nanos as f64;
    let calendar = ph(Phase::Calendar).nanos as f64;
    put("sim.events", p.events().unwrap_or(0) as f64, "count");
    put("sim.calendar_s", secs(calendar), "s");
    put("sim.dispatch_s", secs(dispatch), "s");
    put("sim.net_s", secs(ph(Phase::Net).nanos as f64), "s");
    put("sim.net_calls", ph(Phase::Net).calls as f64, "count");
    put("sim.stats_s", secs(ph(Phase::Stats).nanos as f64), "s");
    put(
        "core.reduction_build_s",
        secs(ph(Phase::Codec).nanos as f64),
        "s",
    );
    put(
        "core.reduction_builds",
        ph(Phase::Codec).calls as f64,
        "count",
    );
    for s in SPANS {
        let r = l.span(s);
        let calls = match s {
            Span::ElService => "core.el_service_msgs".to_string(),
            Span::AppPoll => "workloads.app_polls".to_string(),
            _ => format!("{}_calls", s.metric()),
        };
        put(&format!("{}_s", s.metric()), secs(r.self_ns as f64), "s");
        put(&calls, r.calls as f64, "count");
    }
    let c = p.counts();
    put("core.pb_bytes", c.pb_bytes as f64, "count");
    put("core.el_records", c.el_records as f64, "count");
    put("core.el_batches", c.el_batches as f64, "count");
    put("vmpi.messages", c.messages as f64, "count");
    put("vmpi.build_s", secs(p.build_ns() as f64), "s");
    match &p.explore {
        None => {
            let part = Partition::of(p.run_wall_ns(), l);
            put("sim.loop_other_s", secs(part.loop_other as f64), "s");
            put("vmpi.daemon_other_s", secs(part.daemon_other as f64), "s");
            put("trace.run_wall_s", secs(p.run_wall_ns() as f64), "s");
        }
        Some(e) => {
            // Cluster runs happen inside `explore`: loop and build time
            // fall into `explore.other_s`, protocol and application time
            // into `vmpi.daemon_other_s`.
            put("sim.loop_other_s", 0.0, "s");
            put("vmpi.daemon_other_s", secs(dispatch), "s");
            put("trace.run_wall_s", secs(e.explore_ns as f64), "s");
            put("explore.schedules", e.schedules as f64, "count");
            put("explore.runs", e.runs as f64, "count");
            put(
                "explore.other_s",
                secs(e.explore_ns as f64 - calendar - dispatch),
                "s",
            );
        }
    }
    m
}

/// Median of each metric over several passes' metric maps.
fn median_metrics(maps: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    for (name, &(_, unit)) in &maps[0] {
        let v = maps.iter().map(|m| m[name].0).collect();
        out.insert(name.clone(), (median(v), unit));
    }
    out
}

/// `suite.<name>.ns_per_event` from untraced per-run timings.
fn yardsticks(plain: &[Pass]) -> Metrics {
    let mut m = Metrics::new();
    for y in YARDSTICKS {
        let per_pass: Vec<f64> = plain
            .iter()
            .map(|p| {
                let runs = p.runs.iter().filter(|r| r.yardstick == Some(y));
                let (ns, ev) = runs.fold((0u64, 0u64), |(ns, ev), r| {
                    (ns + r.run_ns, ev + r.counts.events)
                });
                if ev == 0 {
                    0.0
                } else {
                    ns as f64 / ev as f64
                }
            })
            .collect();
        m.insert(format!("suite.{y}.ns_per_event"), (median(per_pass), "ns"));
    }
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    // Environment knobs of the simulator (profiler, causality log,
    // piggyback format, explorer budget) would change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("VLOG_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    // Explorer probes that panic are caught and reported as violations;
    // one line each on stderr is enough.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: vlog-perfbench --workload <graph-noel|logged-el|explore-ci> --seed <n> --seconds <s> --trace <0|1> [--digests]");
            return ExitCode::from(2);
        }
    };
    let seeds = Seeds::from_workload_seed(args.seed);
    let mut checker = Checker {
        expected: (args.seed == DEFAULT_SEED).then(|| expected_digests(args.kind)),
        reference: Vec::new(),
        explore_events: None,
        attempted: 0,
        failed: 0,
    };
    if args.seed == DEFAULT_SEED {
        let labels = |v: Vec<std::sync::Arc<dyn vlog_workloads::Workload>>| {
            v.iter().map(|w| w.label()).collect::<Vec<_>>()
        };
        let huge_ladder: Vec<String> = registry(RegistryScale::Huge)
            .iter()
            .filter(|w| {
                w.family() == "bursty" && (w.label() == "21c.3s.x3" || w.label().contains(".agg"))
            })
            .map(|w| w.label())
            .collect();
        if labels(large_registry(&seeds)) != labels(registry(RegistryScale::Large))
            || labels(aggregation_ladder(&seeds)) != huge_ladder
        {
            checker.fail("the default seed does not rebuild the registry labels".into());
        }
    }

    // Passes run on a worker thread so that a pass that never ends (the
    // explorer shrinking a violation whose probes each run into the
    // event cap) becomes a reported failure at the time limit instead of
    // an endless benchmark. The warm-up pass fills caches and lazily
    // built state, fixes the reference digests and, for the explorer,
    // counts events with the profiler.
    let (tx, rx) = mpsc::channel::<Pass>();
    let (kind, trace) = (args.kind, args.trace);
    std::thread::spawn(move || {
        let warm = pass(kind, &seeds, kind == Kind::ExploreCi);
        if tx.send(warm).is_err() {
            return;
        }
        for k in 0usize.. {
            // With tracing, passes go traced, untraced, untraced,
            // traced, ...: each pair has one of each and they alternate
            // which goes first, so a drift in machine speed biases
            // neither.
            let traced = trace && matches!(k % 4, 0 | 3);
            if tx.send(pass(kind, &seeds, traced)).is_err() {
                return;
            }
        }
    });
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let limit = budget + Duration::from_secs(GRACE_S);
    let next = || rx.recv_timeout(limit.saturating_sub(started.elapsed()));

    let warm = next().ok();
    if let Some(warm) = &warm {
        checker.check(warm);
        if args.digests {
            match &warm.explore {
                None => {
                    for r in &warm.runs {
                        println!("{:016x} {}", r.digest.unwrap_or(0), r.label);
                    }
                }
                Some(e) => println!("{:016x} explore", e.digest),
            }
        }
    }
    let measuring = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut timed_out = warm.is_none();
    while !timed_out {
        let enough = measuring.elapsed() >= budget
            && !plain.is_empty()
            && (!args.trace || !traced.is_empty());
        if enough {
            break;
        }
        match next() {
            Ok(p) => {
                checker.check(&p);
                if p.traced {
                    traced.push(p);
                } else {
                    plain.push(p);
                }
            }
            Err(_) => timed_out = true,
        }
    }
    if timed_out {
        checker.attempted += 1;
        checker.fail(format!(
            "a pass did not finish within {} s of the start",
            limit.as_secs()
        ));
    }

    let wall = |ps: &[Pass]| median(ps.iter().map(|p| secs(p.wall_ns as f64)).collect());
    let mut metrics = Metrics::new();
    if args.trace {
        if !traced.is_empty() && !plain.is_empty() {
            let maps: Vec<Metrics> = traced.iter().map(layer_metrics).collect();
            metrics = median_metrics(&maps);
            metrics.extend(yardsticks(&plain));
            metrics.insert(
                "trace.overhead_s".into(),
                (wall(&traced) - wall(&plain), "s"),
            );
        }
        for p in traced.iter().filter(|p| p.explore.is_none()) {
            let part = Partition::of(p.run_wall_ns(), p.layers.as_ref().expect("traced"));
            if let Err(e) = part.check(PARTITION_TOLERANCE) {
                checker.fail(e);
            }
        }
    } else if let (Some(events), false) = (warm.as_ref().and_then(Pass::events), plain.is_empty()) {
        // Every pass does the same work, so interference from other
        // tenants of the machine can only slow it: the fastest pass is
        // the steadiest reading of what the work costs. Over ten 45 s
        // runs on a shared 2-vCPU VM it spread 0.16 between runs, where
        // the median pass spread 0.30.
        let best = secs(plain.iter().map(|p| p.wall_ns).min().unwrap_or(0) as f64);
        metrics.insert("wall_s".into(), (best, "s"));
        metrics.insert(
            "setup_s".into(),
            (
                median(plain.iter().map(|p| secs(p.setup_ns as f64)).collect()),
                "s",
            ),
        );
        metrics.insert("events_per_s".into(), (events as f64 / best, "1/s"));
        metrics.insert("peak_rss_mb".into(), (peak_rss_mb(), "MiB"));
    }

    // Exact counts beside the timings: identical on every run of a seed.
    if let Some(warm) = &warm {
        let c = warm.counts();
        match &warm.explore {
            None => println!(
                "counts: runs={} events={} messages={} pb_bytes={} el_records={} el_batches={}",
                warm.runs.len(),
                c.events,
                c.messages,
                c.pb_bytes,
                c.el_records,
                c.el_batches
            ),
            Some(e) => println!(
                "counts: schedules={} runs={} events={}",
                e.schedules,
                e.runs,
                warm.events().unwrap_or(0)
            ),
        }
    }
    let walls = |ps: &[Pass]| {
        ps.iter()
            .map(|p| format!("{:.3}", secs(p.wall_ns as f64)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "pass walls (s): untraced [{}] traced [{}], plus one warm-up",
        walls(&plain),
        walls(&traced)
    );
    for (name, (v, unit)) in &metrics {
        println!("{name} = {v} {unit}");
    }
    println!(
        "fail_ratio = {} ({} failed of {} attempted)",
        checker.failed as f64 / checker.attempted.max(1) as f64,
        checker.failed,
        checker.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    );
    // Returning ends the process, and with it a pass still running on
    // the worker thread.
    ExitCode::SUCCESS
}
