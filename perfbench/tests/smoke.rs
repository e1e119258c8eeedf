//! Smoke-scale checks of the benchmark's own instruments: the wrappers
//! must not change what the simulator computes, and the traced pass's
//! parts must partition the run wall time.

use std::sync::{Arc, Mutex};

use vlog_core::Technique;
use vlog_perfbench::workloads::{Fault, Job, Seeds, SuiteSpec, DEFAULT_SEED};
use vlog_perfbench::{run_jobs, Partition, PARTITION_TOLERANCE};
use vlog_sim::NetProfile;
use vlog_workloads::{BurstyConfig, HaloConfig, Workload};

/// The kernel profiler's enable flag is process-wide: tests that trace
/// must not overlap.
static PROFILER: Mutex<()> = Mutex::new(());

fn every_suite() -> Vec<SuiteSpec> {
    let mut v = Vec::new();
    for technique in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        for el in [0, 1, 2] {
            v.push(SuiteSpec::Causal {
                technique,
                el,
                compact: false,
            });
        }
    }
    v.push(SuiteSpec::Causal {
        technique: Technique::Vcausal,
        el: 1,
        compact: true,
    });
    v.push(SuiteSpec::Pessimistic);
    v.push(SuiteSpec::Coordinated);
    v
}

/// Every suite on two smoke-sized workloads, fault-free and with a hub
/// failure, plus an EL-shard failure where the suite has two shards.
fn smoke_jobs() -> Vec<Job> {
    let seeds = Seeds::from_workload_seed(DEFAULT_SEED);
    let workloads: Vec<Arc<dyn Workload>> = vec![
        Arc::new(HaloConfig::new(4, 6, seeds.halo)),
        Arc::new(BurstyConfig::new(6, 4, seeds.bursty).with_servers(2)),
    ];
    let mut jobs = Vec::new();
    for w in &workloads {
        for suite in every_suite() {
            let mut faults = vec![Fault::Free, Fault::Hub];
            if matches!(suite, SuiteSpec::Causal { el: 2, .. }) {
                faults.push(Fault::ElShard);
            }
            for fault in faults {
                jobs.push(Job::new(
                    w,
                    suite,
                    NetProfile::fast_ethernet_2005(),
                    fault,
                    None,
                    &seeds,
                ));
            }
        }
    }
    jobs
}

#[test]
fn wrapped_runs_give_the_digests_of_unwrapped_runs() {
    let _lock = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = smoke_jobs();
    let (plain, _) = run_jobs(&jobs, false);
    let (traced, layers) = run_jobs(&jobs, true);
    let layers = layers.expect("a traced run returns readings");
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.error, None, "{}", p.label);
        assert_eq!(t.error, None, "{}", t.label);
        assert!(p.digest.is_some(), "{}", p.label);
        assert_eq!(p.digest, t.digest, "{}: wrapping changed the run", p.label);
        assert_eq!(p.counts, t.counts, "{}", p.label);
    }
    // The grid exercises every wrapper: each hook, the Event Logger
    // and the application futures.
    for span in vlog_perfbench::trace::SPANS {
        assert!(layers.span(span).calls > 0, "{span:?} never called");
    }
}

#[test]
fn traced_parts_partition_the_run_wall_time() {
    let _lock = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    for job in smoke_jobs() {
        let (runs, layers) = run_jobs(std::slice::from_ref(&job), true);
        let part = Partition::of(runs[0].run_ns, &layers.expect("traced"));
        if let Err(e) = part.check(PARTITION_TOLERANCE) {
            panic!("{}: {e}", job.label);
        }
    }
}
