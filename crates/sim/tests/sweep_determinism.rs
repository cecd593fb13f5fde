//! The parallel sweep must be bit-identical to the sequential loop: the
//! [`RunStats`] of every job must not depend on the worker count or on how
//! the work queue interleaved the jobs.

use rispp_core::SchedulerKind;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate, Burst, FaultConfig, Invocation, RunStats, SimConfig, SweepJob, SweepRunner, Trace,
};

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("A1"),
        AtomTypeInfo::new("A2"),
        AtomTypeInfo::new("A3"),
    ])
    .unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0, 0]), 100)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1, 0]), 30)
        .unwrap();
    b.special_instruction("Y", 800)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 0]), 90)
        .unwrap()
        .molecule(Molecule::from_counts([0, 2, 1]), 40)
        .unwrap();
    b.special_instruction("Z", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 1]), 70)
        .unwrap();
    b.build().unwrap()
}

fn trace(frames: usize) -> Trace {
    (0..frames)
        .map(|f| Invocation {
            // Alternate between two hot spots so the monitor's forecast and
            // the fabric's eviction logic are genuinely exercised.
            hot_spot: HotSpotId((f % 2) as u16),
            prologue_cycles: 1_000,
            bursts: vec![
                Burst {
                    si: SiId(0),
                    count: 400 + (f as u32 % 3) * 50,
                    overhead: 20,
                },
                Burst {
                    si: SiId(1),
                    count: 150,
                    overhead: 20,
                },
                Burst {
                    si: SiId(2),
                    count: 60,
                    overhead: 10,
                },
            ],
            hints: vec![(SiId(0), 400), (SiId(1), 150), (SiId(2), 60)],
        })
        .collect()
}

/// All jobs of the test matrix over the two traces: every scheduler plus
/// the Molen and software baselines, with detail enabled on half the jobs
/// so bucket/timeline collection is covered too. Two fault-injected HEF
/// jobs (different seeds) pin the per-fabric RNG streams: fault draws
/// must be a function of the job, never of worker scheduling.
fn jobs<'t>(small: &'t Trace, large: &'t Trace) -> Vec<SweepJob<'t>> {
    let mut jobs = Vec::new();
    for trace in [small, large] {
        for (i, &kind) in SchedulerKind::ALL.iter().enumerate() {
            let config = SimConfig::rispp(4, kind).with_detail(i % 2 == 0);
            jobs.push(SweepJob::new(config, trace));
        }
        jobs.push(SweepJob::new(SimConfig::molen(4), trace));
        jobs.push(SweepJob::new(SimConfig::software_only(), trace));
        for seed in [7u64, 0xDA7E_2008] {
            let faulted = SimConfig::rispp(4, SchedulerKind::Hef).with_fault(FaultConfig {
                rate_ppm: 120_000,
                seed,
                max_retries: 3,
            });
            jobs.push(SweepJob::new(faulted, trace));
        }
    }
    jobs
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let lib = library();
    let small = trace(3);
    let large = trace(12);
    let jobs = jobs(&small, &large);

    let sequential: Vec<RunStats> = jobs
        .iter()
        .map(|j| simulate(&lib, j.trace, &j.config))
        .collect();

    for threads in [1usize, 2, 4, 8] {
        let runner = SweepRunner::with_threads(threads);
        let parallel = runner.run(&lib, &jobs);
        assert_eq!(
            parallel, sequential,
            "sweep results diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn observed_sweep_is_bit_identical_and_counts_every_run() {
    use rispp_sim::{ProgressObserver, SimObserver};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let lib = library();
    let small = trace(3);
    let large = trace(12);
    let jobs = jobs(&small, &large);

    let sequential: Vec<RunStats> = jobs
        .iter()
        .map(|j| simulate(&lib, j.trace, &j.config))
        .collect();

    for threads in [1usize, 2, 4, 8] {
        let runner = SweepRunner::with_threads(threads);
        let finished = Arc::new(AtomicUsize::new(0));
        let total = jobs.len();
        let observed =
            runner.run_observed(&lib, &jobs, |_| {
                let finished = Arc::clone(&finished);
                vec![Box::new(ProgressObserver::new(total, finished, |_, _| {}))
                    as Box<dyn SimObserver>]
            });
        assert_eq!(
            observed, sequential,
            "observed sweep diverged at {threads} thread(s)"
        );
        assert_eq!(
            finished.load(Ordering::Relaxed),
            total,
            "every run must report completion at {threads} thread(s)"
        );
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let lib = library();
    let t = trace(6);
    let jobs: Vec<SweepJob<'_>> = SchedulerKind::ALL
        .iter()
        .map(|&k| SweepJob::new(SimConfig::rispp(3, k), &t))
        .collect();
    let runner = SweepRunner::with_threads(8);
    let first = runner.run(&lib, &jobs);
    let second = runner.run(&lib, &jobs);
    assert_eq!(first, second);
}

#[test]
fn threads_env_variable_is_honoured() {
    // One test mutates the environment (avoids races with other tests
    // reading RISPP_THREADS — no other test in this binary does).
    std::env::set_var(rispp_sim::THREADS_ENV, "3");
    assert_eq!(SweepRunner::from_env().threads(), 3);

    std::env::set_var(rispp_sim::THREADS_ENV, "0");
    assert_eq!(
        SweepRunner::from_env().threads(),
        1,
        "zero must clamp to one worker"
    );

    std::env::set_var(rispp_sim::THREADS_ENV, "not-a-number");
    assert!(SweepRunner::from_env().threads() >= 1);

    std::env::remove_var(rispp_sim::THREADS_ENV);
    assert!(SweepRunner::from_env().threads() >= 1);
}
