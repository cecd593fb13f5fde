//! Structured experiment runners, one per paper table/figure.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use rispp_core::SchedulerKind;
use rispp_h264::{EncoderConfig, EncoderWorkload, HotSpot};
use rispp_sim::{
    simulate, FaultConfig, ProgressObserver, RunStats, SimConfig, SimObserver, SweepJob,
    SweepRunner, SystemKind, Trace,
};

/// The AC sweep of Figure 7 / Table 2.
pub const AC_SWEEP: std::ops::RangeInclusive<u16> = 5..=24;

/// One row of the Figure 7 sweep: execution time per scheduler at a given
/// Atom Container count.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Atom Containers.
    pub containers: u16,
    /// Total cycles per scheduler, in [`SchedulerKind::ALL`] order
    /// (ASF, FSFR, SJF, HEF).
    pub cycles: [u64; 4],
    /// Total cycles of the Molen-like baseline.
    pub molen_cycles: u64,
}

/// Results of the full Figure 7 / Table 2 sweep.
#[derive(Debug, Clone)]
pub struct SchedulerSweep {
    /// Pure-software execution time (the paper's 7,403 M cycles point).
    pub software_cycles: u64,
    /// One entry per AC count in ascending order.
    pub points: Vec<SweepPoint>,
}

/// The paper's synthetic CIF workload, encoded for `frames` frames.
#[must_use]
pub fn quick_workload(frames: u32) -> EncoderWorkload {
    let mut config = EncoderConfig::paper_cif();
    config.frames = frames;
    EncoderWorkload::generate(&config)
}

/// Runs the Figure 7 / Table 2 sweep over `containers` for the given trace,
/// fanning the independent `(AC count, system)` simulations across the
/// `runner`'s worker threads. Results are deterministic regardless of the
/// worker count. `report(finished, total)` is invoked after every
/// completed run, from whichever worker finished it (a
/// [`ProgressObserver`] per job over one shared counter).
#[must_use]
pub fn scheduler_sweep_observed<I, R>(
    runner: &SweepRunner,
    trace: &Trace,
    containers: I,
    report: R,
) -> SchedulerSweep
where
    I: IntoIterator<Item = u16>,
    R: Fn(usize, usize) + Sync,
{
    let library = rispp_h264::h264_si_library();
    let acs: Vec<u16> = containers.into_iter().collect();

    // Flatten into one job list: software, then per AC count the four
    // schedulers followed by Molen — 1 + 5·N independent simulations.
    let mut jobs = vec![SweepJob::new(SimConfig::software_only(), trace)];
    for &ac in &acs {
        for &kind in &SchedulerKind::ALL {
            jobs.push(SweepJob::new(SimConfig::rispp(ac, kind), trace));
        }
        jobs.push(SweepJob::new(SimConfig::molen(ac), trace));
    }
    let finished = Arc::new(AtomicUsize::new(0));
    let total = jobs.len();
    let report = &report;
    let results = runner.run_observed(&library, &jobs, |_| {
        let finished = Arc::clone(&finished);
        vec![Box::new(ProgressObserver::new(
            total,
            finished,
            move |done, total| {
                report(done, total);
            },
        )) as Box<dyn SimObserver + '_>]
    });

    let software_cycles = results[0].total_cycles;
    let points = acs
        .iter()
        .enumerate()
        .map(|(i, &ac)| {
            let base = 1 + i * (SchedulerKind::ALL.len() + 1);
            let mut cycles = [0u64; 4];
            for (k, c) in cycles.iter_mut().enumerate() {
                *c = results[base + k].total_cycles;
            }
            SweepPoint {
                containers: ac,
                cycles,
                molen_cycles: results[base + SchedulerKind::ALL.len()].total_cycles,
            }
        })
        .collect();
    SchedulerSweep {
        software_cycles,
        points,
    }
}

/// Figure 2: the ME hot spot with (HEF) and without (Molen-like) stepwise
/// SI upgrades, on a cold fabric. Returns `(with_upgrade, without)`.
#[must_use]
pub fn fig2_upgrade_comparison(trace: &Trace, containers: u16) -> (RunStats, RunStats) {
    let library = rispp_h264::h264_si_library();
    let me_only = trace.filtered(HotSpot::MotionEstimation.id());
    let with = simulate(
        &library,
        &me_only,
        &SimConfig::rispp(containers, SchedulerKind::Hef).with_detail(true),
    );
    let without = simulate(
        &library,
        &me_only,
        &SimConfig {
            system: SystemKind::Molen,
            ..SimConfig::molen(containers)
        }
        .with_detail(true),
    );
    (with, without)
}

/// Figure 8: detailed HEF run (latency timelines + execution buckets).
#[must_use]
pub fn fig8_detail(trace: &Trace, containers: u16) -> RunStats {
    let library = rispp_h264::h264_si_library();
    simulate(
        &library,
        trace,
        &SimConfig::rispp(containers, SchedulerKind::Hef).with_detail(true),
    )
}

/// One row of the Figure 4 example: after loading `atoms_loaded` Atoms,
/// the fastest available Molecule (by latency) of the example SI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig4Row {
    /// Number of Atoms loaded so far.
    pub atoms_loaded: u32,
    /// Latency of the fastest available Molecule, or `None` (software).
    pub fastest_latency: Option<u32>,
    /// Name tag of that Molecule (`"m1"`, `"m2"`, `"m3"`).
    pub molecule: Option<&'static str>,
}

/// Figure 4: the schedule-quality example. One SI with Molecules
/// `m1 = (2,1)`, `m2 = (2,2)`, `m3 = (4,2)` (and the wrong-mix
/// `m4 = (1,3)`); `m3` is selected. Returns the availability table for a
/// good (HEF) schedule and a deliberately bad one, exactly mirroring the
/// paper's table.
#[must_use]
pub fn fig4_schedules() -> (Vec<Fig4Row>, Vec<Fig4Row>) {
    use rispp_core::{ScheduleRequest, SelectedMolecule};
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibraryBuilder};

    let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")])
        .expect("unique names");
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("FIG4", 1_000)
        .expect("unique name")
        .molecule(Molecule::from_counts([2, 1]), 60)
        .expect("valid")
        .molecule(Molecule::from_counts([2, 2]), 40)
        .expect("valid")
        .molecule(Molecule::from_counts([4, 2]), 20)
        .expect("valid")
        .molecule(Molecule::from_counts([1, 3]), 55)
        .expect("valid");
    let library = b.build().expect("valid library");
    let si = library.by_name("FIG4").expect("just built");
    let m3 = si
        .variants()
        .iter()
        .position(|v| v.atoms == Molecule::from_counts([4, 2]))
        .expect("m3 exists");
    let request = ScheduleRequest::new(
        &library,
        vec![SelectedMolecule::new(SiId(0), m3)],
        Molecule::zero(2),
        vec![1_000],
    )
    .expect("valid request");

    let name_of = |lat: u32| -> &'static str {
        match lat {
            60 => "m1",
            40 => "m2",
            20 => "m3",
            55 => "m4",
            _ => "?",
        }
    };
    let availability = |order: &[usize]| -> Vec<Fig4Row> {
        let mut avail = Molecule::zero(2);
        let mut rows = Vec::new();
        for (i, &unit) in order.iter().enumerate() {
            avail = avail.saturating_add(&Molecule::unit(2, unit));
            let fastest = si.fastest_available(&avail);
            rows.push(Fig4Row {
                atoms_loaded: (i + 1) as u32,
                fastest_latency: fastest.map(|v| v.latency),
                molecule: fastest.map(|v| name_of(v.latency)),
            });
        }
        rows
    };

    let good_schedule = SchedulerKind::Hef.schedule(&request);
    let good_order: Vec<usize> = good_schedule.atoms().map(|a| a.index()).collect();
    // The bad schedule of Figure 4: all A1 atoms first, then all A2.
    let bad_order = vec![0, 0, 0, 0, 1, 1];
    (availability(&good_order), availability(&bad_order))
}

/// Figure 5: upgrade paths (`(SI, variant)` milestones) of the four
/// schedulers for two SIs with three Molecules each.
#[must_use]
pub fn fig5_paths() -> Vec<(SchedulerKind, Vec<(u16, usize)>)> {
    use rispp_core::{ScheduleRequest, SelectedMolecule};
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibraryBuilder};

    let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")])
        .expect("unique names");
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("SI1", 1_000)
        .expect("unique name")
        .molecule(Molecule::from_counts([1, 1]), 120)
        .expect("valid")
        .molecule(Molecule::from_counts([2, 1]), 70)
        .expect("valid")
        .molecule(Molecule::from_counts([3, 2]), 30)
        .expect("valid");
    b.special_instruction("SI2", 800)
        .expect("unique name")
        .molecule(Molecule::from_counts([0, 1]), 200)
        .expect("valid")
        .molecule(Molecule::from_counts([1, 2]), 90)
        .expect("valid")
        .molecule(Molecule::from_counts([2, 3]), 45)
        .expect("valid");
    let library = b.build().expect("valid library");
    let request = ScheduleRequest::new(
        &library,
        vec![
            SelectedMolecule::new(SiId(0), 2),
            SelectedMolecule::new(SiId(1), 2),
        ],
        Molecule::zero(2),
        vec![900, 400],
    )
    .expect("valid request");

    SchedulerKind::ALL
        .iter()
        .map(|&kind| {
            let schedule = kind.schedule(&request);
            let path = schedule
                .upgrades()
                .into_iter()
                .map(|(si, v)| (si.0, v))
                .collect();
            (kind, path)
        })
        .collect()
}

/// One row of Table 1: SI name, atom types used, Molecule count.
#[must_use]
pub fn table1_inventory() -> Vec<(String, usize, usize)> {
    rispp_h264::h264_si_library()
        .iter()
        .map(|si| {
            (
                si.name().to_string(),
                si.atom_type_count(),
                si.molecule_count(),
            )
        })
        .collect()
}

/// Table 3: paper synthesis results next to the parametric estimate, plus
/// the FSM's scheduling latency on a full H.264 EE request.
#[must_use]
pub fn table3_hardware() -> (rispp_hw::AreaReport, rispp_hw::AreaReport, rispp_hw::FsmRun) {
    use rispp_core::{GreedySelector, ScheduleRequest, SelectionRequest};
    use rispp_h264::SiKind;
    use rispp_model::Molecule;

    let library = rispp_h264::h264_si_library();
    let demands = vec![
        (SiKind::Dct.id(), 9_504),
        (SiKind::Ht2x2.id(), 792),
        (SiKind::Ht4x4.id(), 80),
        (SiKind::Mc.id(), 360),
        (SiKind::IPredHdc.id(), 16),
        (SiKind::IPredVdc.id(), 20),
    ];
    let selection = GreedySelector.select(&SelectionRequest::new(&library, &demands, 20));
    let mut expected = vec![0u64; library.len()];
    for (si, e) in demands {
        expected[si.index()] = e;
    }
    let request = ScheduleRequest::new(
        &library,
        selection,
        Molecule::zero(library.arity()),
        expected,
    )
    .expect("valid request");
    let run = rispp_hw::HefFsm::new().run(&request);
    (
        rispp_hw::AreaReport::paper_hef(),
        rispp_hw::area_estimate(&rispp_hw::AreaParameters::default()),
        run,
    )
}

/// Fault-rate ladder (ppm) of the resilience benchmark: fault-free up to
/// one abort per four loads.
pub const FAULT_RATE_LADDER_PPM: [u32; 7] = [0, 1_000, 5_000, 10_000, 50_000, 100_000, 250_000];

/// One point of the resilience curve: the HEF system's speedup over pure
/// software and its self-healing counters at a uniform fault rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePoint {
    /// Uniform fault rate in parts per million.
    pub rate_ppm: u32,
    /// Total execution cycles of the HEF run at this rate.
    pub total_cycles: u64,
    /// Speedup over the fault-free software baseline (`>= 1.0` whenever
    /// graceful degradation holds: the cISA trap is the worst case).
    pub speedup_vs_software: f64,
    /// Fault events injected by the fabric.
    pub faults_injected: u64,
    /// Loads re-enqueued by the recovery policy.
    pub load_retries: u64,
    /// Containers taken out of service.
    pub containers_quarantined: u64,
    /// Hot-spot re-plans that came back with no hardware at all.
    pub degraded_to_software: u64,
    /// Reconfiguration-port cycles wasted on loads that never became usable.
    pub fault_cycles_lost: u64,
}

/// Results of the resilience sweep: the software floor plus one
/// [`ResiliencePoint`] per fault rate in ascending order.
#[derive(Debug, Clone)]
pub struct ResilienceSweep {
    /// Pure-software (0 AC) execution cycles — the graceful-degradation
    /// floor.
    pub software_cycles: u64,
    /// One point per fault rate.
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceSweep {
    /// Whether the speedup curve degrades monotonically (non-increasing
    /// with the fault rate) while staying at or above the software floor.
    #[must_use]
    pub fn is_gracefully_degrading(&self) -> bool {
        self.points.iter().all(|p| p.speedup_vs_software >= 1.0)
            && self
                .points
                .windows(2)
                .all(|w| w[1].speedup_vs_software <= w[0].speedup_vs_software)
    }
}

/// Runs the speedup-vs-fault-rate sweep on the HEF scheduler: one
/// fault-injected simulation per `(rate, seed)` pair (plus the fault-free
/// software baseline), fanned across the runner's workers and averaged
/// over the seeds per rate — one seed is a single noisy sample of the
/// fault process, several smooth the curve into the expected behaviour.
/// Every fault stream is seeded per job, so the sweep is deterministic
/// for any worker count.
///
/// # Panics
///
/// Panics if `seeds` is empty.
#[must_use]
pub fn resilience_sweep(
    runner: &SweepRunner,
    trace: &Trace,
    containers: u16,
    rates_ppm: &[u32],
    seeds: &[u64],
) -> ResilienceSweep {
    assert!(!seeds.is_empty(), "at least one fault seed is required");
    let library = rispp_h264::h264_si_library();
    let mut jobs = vec![SweepJob::new(SimConfig::software_only(), trace)];
    for &rate_ppm in rates_ppm {
        for &seed in seeds {
            let fault = FaultConfig {
                rate_ppm,
                seed,
                max_retries: FaultConfig::uniform(0.0).max_retries,
            };
            jobs.push(SweepJob::new(
                SimConfig::rispp(containers, SchedulerKind::Hef).with_fault(fault),
                trace,
            ));
        }
    }
    let results = runner.run(&library, &jobs);
    let software_cycles = results[0].total_cycles;
    let n = seeds.len() as u64;
    let points = rates_ppm
        .iter()
        .enumerate()
        .map(|(i, &rate_ppm)| {
            let samples = &results[1 + i * seeds.len()..1 + (i + 1) * seeds.len()];
            let mean = |f: fn(&RunStats) -> u64| samples.iter().map(f).sum::<u64>() / n;
            let total_cycles = mean(|s| s.total_cycles);
            ResiliencePoint {
                rate_ppm,
                total_cycles,
                speedup_vs_software: software_cycles as f64 / total_cycles.max(1) as f64,
                faults_injected: mean(|s| s.faults_injected),
                load_retries: mean(|s| s.load_retries),
                containers_quarantined: mean(|s| s.containers_quarantined),
                degraded_to_software: mean(|s| s.degraded_to_software),
                fault_cycles_lost: mean(|s| s.fault_cycles_lost),
            }
        })
        .collect();
    ResilienceSweep {
        software_cycles,
        points,
    }
}

/// Ablation: forecast policies (and the oracle bound) on the HEF system,
/// run in parallel on the default [`SweepRunner`]. Returns
/// `(label, total cycles)` per policy.
#[must_use]
pub fn ablation_forecast(trace: &Trace, containers: u16) -> Vec<(String, u64)> {
    use rispp_monitor::ForecastPolicy;
    let library = rispp_h264::h264_si_library();
    let base = SimConfig::rispp(containers, SchedulerKind::Hef);
    let policies = [
        ("last-value", ForecastPolicy::LastValue),
        ("ewma w=2", ForecastPolicy::ewma(2)),
        ("ewma w=4", ForecastPolicy::ewma(4)),
        ("cumulative avg", ForecastPolicy::CumulativeAverage),
    ];
    let mut jobs: Vec<SweepJob<'_>> = policies
        .iter()
        .map(|&(_, policy)| SweepJob::new(base.with_forecast(policy), trace))
        .collect();
    jobs.push(SweepJob::new(base.with_oracle(true), trace));
    let results = SweepRunner::from_env().run(&library, &jobs);
    policies
        .iter()
        .map(|&(label, _)| label)
        .chain(std::iter::once("oracle"))
        .zip(&results)
        .map(|(label, stats)| (label.to_string(), stats.total_cycles))
        .collect()
}

/// Ablation: reconfiguration-port bandwidth sweep (ICAP generations), run
/// in parallel on the default [`SweepRunner`]. Returns
/// `(bandwidth MB/s, HEF cycles)`.
#[must_use]
pub fn ablation_bandwidth(trace: &Trace, containers: u16) -> Vec<(u64, u64)> {
    let library = rispp_h264::h264_si_library();
    let bandwidths = [33u64, 66, 132, 264, 800];
    let jobs: Vec<SweepJob<'_>> = bandwidths
        .iter()
        .map(|&mbps| {
            SweepJob::new(
                SimConfig::rispp(containers, SchedulerKind::Hef)
                    .with_port_bandwidth(mbps * 1_000_000),
                trace,
            )
        })
        .collect();
    let results = SweepRunner::from_env().run(&library, &jobs);
    bandwidths
        .iter()
        .zip(&results)
        .map(|(&mbps, stats)| (mbps, stats.total_cycles))
        .collect()
}
