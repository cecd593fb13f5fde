//! Backend conformance suite: every [`ExecutionSystem`] implementation —
//! built-in or injected — must satisfy the same replay contract, and the
//! enum-configured path must be bit-identical to the trait path.

use std::borrow::Cow;

use rispp_core::{BurstSegment, PlanCacheHandle, SchedulerKind};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate, simulate_multi, simulate_multi_observed, simulate_observed,
    simulate_observed_planned, simulate_with, Burst, ExecutionSystem, FaultConfig, Invocation,
    RunStats, SimConfig, SimEvent, SimObserver, SoftwareBackend, SweepJob, SweepRunner, SystemKind,
    TenancyConfig, TenantArbitration, TenantPolicy, Trace, TraceContext, TraceLogObserver,
    DEFAULT_BUCKET_CYCLES,
};

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("A1"),
        AtomTypeInfo::new("A2"),
        AtomTypeInfo::new("A3"),
    ])
    .unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_200)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0, 0]), 150)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1, 0]), 40)
        .unwrap();
    b.special_instruction("Y", 900)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 1]), 80)
        .unwrap();
    b.special_instruction("Z", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 2]), 70)
        .unwrap();
    b.build().unwrap()
}

fn trace(frames: usize) -> Trace {
    (0..frames)
        .map(|f| Invocation {
            hot_spot: HotSpotId((f % 2) as u16),
            prologue_cycles: 500,
            bursts: vec![
                Burst {
                    si: SiId(0),
                    count: 300,
                    overhead: 15,
                },
                Burst {
                    si: SiId(1),
                    count: 120,
                    overhead: 15,
                },
                Burst {
                    si: SiId(2),
                    count: 0, // intentionally empty burst
                    overhead: 15,
                },
            ],
            hints: vec![(SiId(0), 300), (SiId(1), 120)],
        })
        .collect()
}

/// Every built-in configuration, covering all four `SystemKind`s and all
/// four schedulers.
fn all_configs() -> Vec<SimConfig> {
    let mut configs = vec![
        SimConfig::software_only(),
        SimConfig::molen(4),
        SimConfig {
            system: SystemKind::OneChip,
            ..SimConfig::molen(4)
        },
    ];
    for kind in SchedulerKind::ALL {
        configs.push(SimConfig::rispp(4, kind));
    }
    configs.push(SimConfig::rispp(4, SchedulerKind::Hef).with_oracle(true));
    configs
}

/// Replays `trace` on `system` while checking the segment contract:
/// per-burst counts sum to the requested count, segment starts are
/// non-decreasing, and the reconfiguration counters are monotone.
fn check_contract(system: &mut dyn ExecutionSystem, trace: &Trace) -> (u64, u64) {
    let mut executed = 0u64;
    let mut hardware = 0u64;
    let mut now = 0u64;
    let mut last_loads = 0u64;
    let mut last_busy = 0u64;
    for inv in trace.invocations() {
        system.enter_hot_spot(inv, now);
        now += inv.prologue_cycles;
        for b in &inv.bursts {
            if b.count == 0 {
                continue;
            }
            let segments = system.execute_burst(b.si, b.count, b.overhead, now);
            assert!(
                !segments.is_empty(),
                "{}: empty segment list",
                system.label()
            );
            assert_eq!(
                segments[0].start,
                now,
                "{}: first segment must start at the burst start",
                system.label()
            );
            let mut prev_start = now;
            for seg in &segments {
                assert!(
                    seg.start >= prev_start,
                    "{}: segment starts must be monotone (prev {prev_start}, got {})",
                    system.label(),
                    seg.start
                );
                assert!(seg.count > 0, "{}: zero-count segment", system.label());
                prev_start = seg.start;
                executed += seg.count;
                if seg.is_hardware() {
                    hardware += seg.count;
                }
                now = seg.start + seg.count * (u64::from(seg.latency) + u64::from(b.overhead));
            }
            let (loads, busy) = system.reconfiguration_stats();
            assert!(
                loads >= last_loads && busy >= last_busy,
                "{}: reconfiguration stats went backwards",
                system.label()
            );
            last_loads = loads;
            last_busy = busy;
        }
        system.exit_hot_spot(now);
    }
    (executed, hardware)
}

#[test]
fn every_builtin_backend_executes_exactly_the_trace() {
    let lib = library();
    let t = trace(5);
    let want = t.total_si_executions();
    for config in all_configs() {
        let mut system = config.build_system(&lib);
        let (executed, _) = check_contract(system.as_mut(), &t);
        assert_eq!(executed, want, "{}", system.label());
    }
}

#[test]
fn software_backend_is_exact_and_never_reconfigures() {
    let lib = library();
    let t = trace(3);
    let mut backend = SoftwareBackend::new(&lib);
    let (executed, hardware) = check_contract(&mut backend, &t);
    assert_eq!(executed, t.total_si_executions());
    assert_eq!(hardware, 0, "software backend must never touch hardware");
    assert_eq!(backend.reconfiguration_stats(), (0, 0));
    // Exact closed-form time: per frame 500 + 300·(1200+15) + 120·(900+15).
    let stats = simulate(&lib, &t, &SimConfig::software_only());
    assert_eq!(
        stats.total_cycles,
        3 * (500 + 300 * 1_215 + 120 * 915),
        "software-only time must be exact"
    );
}

#[test]
fn baselines_reconfigure_through_the_configured_port() {
    // Molen and OneChip load accelerators through the same port as RISPP:
    // a slower port leaves SIs trapping to software for longer.
    let lib = library();
    let t = trace(6);
    for system in [SystemKind::Molen, SystemKind::OneChip] {
        let cycles = |port_bandwidth: Option<u64>| {
            let config = SimConfig {
                system,
                port_bandwidth,
                ..SimConfig::molen(4)
            };
            simulate(&lib, &t, &config).total_cycles
        };
        let (slow, prototype, fast) = (
            cycles(Some(33_000_000)),
            cycles(None),
            cycles(Some(800_000_000)),
        );
        assert!(
            slow > prototype && prototype > fast,
            "{system:?}: 33 MB/s {slow}, prototype {prototype}, 800 MB/s {fast} cycles"
        );
    }
}

#[test]
fn enum_path_and_trait_path_are_bit_identical() {
    let lib = library();
    let t = trace(4);
    for config in all_configs() {
        let via_enum = simulate(&lib, &t, &config);
        let mut system = config.build_system(&lib);
        let mut stats = RunStats::new(
            system.label(),
            lib.len(),
            config.bucket_cycles,
            config.detail,
        );
        {
            let mut observers: [&mut dyn SimObserver; 1] = [&mut stats];
            simulate_with(system.as_mut(), &t, &mut observers);
        }
        assert_eq!(via_enum, stats, "{}", config.system.label());
    }
    // Detail mode too (buckets + latency timelines flow through events).
    for kind in SchedulerKind::ALL {
        let config = SimConfig::rispp(4, kind).with_detail(true);
        let via_enum = simulate(&lib, &t, &config);
        let mut system = config.build_system(&lib);
        let mut stats = RunStats::new(
            system.label(),
            lib.len(),
            config.bucket_cycles,
            config.detail,
        );
        {
            let mut observers: [&mut dyn SimObserver; 1] = [&mut stats];
            simulate_with(system.as_mut(), &t, &mut observers);
        }
        assert_eq!(via_enum, stats, "{kind} with detail");
    }
}

#[test]
fn emitted_event_stream_is_well_ordered() {
    let lib = library();
    let t = trace(3);
    for config in all_configs() {
        let mut system = config.build_system(&lib);
        let mut log = TraceLogObserver::new();
        {
            let mut observers: [&mut dyn SimObserver; 1] = [&mut log];
            simulate_with(system.as_mut(), &t, &mut observers);
        }
        let events = log.events();
        // Exactly one RunFinished, and it is last.
        let finished = events
            .iter()
            .filter(|e| matches!(e, SimEvent::RunFinished { .. }))
            .count();
        assert_eq!(finished, 1, "{}", config.system.label());
        assert!(matches!(events.last(), Some(SimEvent::RunFinished { .. })));
        // One HotSpotEntered per invocation, in trace order.
        let entries: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::HotSpotEntered { now, .. } => Some(*now),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), t.len(), "{}", config.system.label());
        assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "{}: hot-spot entries out of order",
            config.system.label()
        );
        // Segment starts never decrease; LoadCompleted totals are monotone.
        let mut prev_start = 0u64;
        let mut prev_total = 0u64;
        let mut executed = 0u64;
        for e in events {
            match e {
                SimEvent::SegmentExecuted { segment, .. } => {
                    assert!(segment.start >= prev_start, "{}", config.system.label());
                    prev_start = segment.start;
                    executed += segment.count;
                }
                SimEvent::LoadCompleted { total, .. } => {
                    assert!(*total > prev_total, "{}", config.system.label());
                    prev_total = *total;
                }
                _ => {}
            }
        }
        assert_eq!(
            executed,
            t.total_si_executions(),
            "{}",
            config.system.label()
        );
    }
}

#[test]
fn zero_count_and_empty_invocations_cost_only_their_prologues() {
    let lib = library();
    let t = Trace::from_invocations(vec![
        Invocation {
            hot_spot: HotSpotId(0),
            prologue_cycles: 250,
            bursts: vec![Burst {
                si: SiId(0),
                count: 0,
                overhead: 10,
            }],
            hints: vec![(SiId(0), 0)],
        },
        Invocation {
            hot_spot: HotSpotId(1),
            prologue_cycles: 750,
            bursts: Vec::new(),
            hints: Vec::new(),
        },
    ]);
    for config in all_configs() {
        let stats = simulate(&lib, &t, &config);
        assert_eq!(
            stats.total_cycles,
            1_000,
            "{}: zero-count bursts must still cost the prologue",
            config.system.label()
        );
        assert_eq!(stats.total_executions(), 0, "{}", config.system.label());
    }
}

#[test]
fn zero_fault_rate_is_bit_identical_for_every_backend() {
    // Pin the `fault_rate = 0` contract: attaching the null fault model
    // must leave results AND the full event stream bit-identical to not
    // attaching one, for every SystemKind / SchedulerKind pair.
    let lib = library();
    let t = trace(4);
    let null = FaultConfig {
        rate_ppm: 0,
        seed: 0xDEAD_BEEF,
        max_retries: 3,
    };
    for config in all_configs() {
        let plain = simulate(&lib, &t, &config);
        let faulted_cfg = config.with_fault(null);
        let faulted = simulate(&lib, &t, &faulted_cfg);
        assert_eq!(plain, faulted, "{}", config.system.label());
        assert_eq!(faulted.faults_injected, 0, "{}", config.system.label());
        assert_eq!(faulted.load_retries, 0, "{}", config.system.label());
        assert_eq!(
            faulted.containers_quarantined,
            0,
            "{}",
            config.system.label()
        );
        assert_eq!(faulted.degraded_to_software, 0, "{}", config.system.label());
        assert_eq!(faulted.fault_cycles_lost, 0, "{}", config.system.label());

        let mut plain_log = TraceLogObserver::new();
        {
            let mut system = config.build_system(&lib);
            let mut observers: [&mut dyn SimObserver; 1] = [&mut plain_log];
            simulate_with(system.as_mut(), &t, &mut observers);
        }
        let mut faulted_log = TraceLogObserver::new();
        {
            let mut system = faulted_cfg.build_system(&lib);
            let mut observers: [&mut dyn SimObserver; 1] = [&mut faulted_log];
            simulate_with(system.as_mut(), &t, &mut observers);
        }
        assert_eq!(
            plain_log.events(),
            faulted_log.events(),
            "{}: event streams must match at fault rate 0",
            config.system.label()
        );
    }
}

/// A user-defined backend: constant 100-cycle latency for every SI,
/// always "hardware". Exercises injection of a backend the library has
/// never seen, including an owned (non-static) label.
struct FlatBackend {
    label: String,
}

impl ExecutionSystem for FlatBackend {
    fn label(&self) -> Cow<'static, str> {
        Cow::Owned(self.label.clone())
    }

    fn enter_hot_spot(&mut self, _invocation: &Invocation, _now: u64) {}

    fn execute_burst(
        &mut self,
        _si: SiId,
        count: u32,
        _overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        vec![BurstSegment::hardware(start, u64::from(count), 100, 0)]
    }

    fn exit_hot_spot(&mut self, _now: u64) {}

    fn reconfiguration_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

#[test]
fn injected_custom_backend_runs_through_the_engine() {
    let lib = library();
    let t = trace(2);
    let mut backend = FlatBackend {
        label: String::from("flat-100"),
    };
    let mut stats = RunStats::new(backend.label(), lib.len(), DEFAULT_BUCKET_CYCLES, false);
    {
        let mut observers: [&mut dyn SimObserver; 1] = [&mut stats];
        simulate_with(&mut backend, &t, &mut observers);
    }
    assert_eq!(stats.system, "flat-100");
    assert_eq!(stats.total_executions(), t.total_si_executions());
    assert!((stats.hardware_fraction() - 1.0).abs() < f64::EPSILON);
    // 2 frames × (500 + 300·115 + 120·115) cycles.
    assert_eq!(stats.total_cycles, 2 * (500 + 420 * 115));
}

// ---------------------------------------------------------------------------
// Multi-tenant arbiter: the K=1 path must be the classic single-owner path.
// ---------------------------------------------------------------------------

/// Every configuration worth pinning for the K=1 equivalence: the full
/// `all_configs` matrix plus faulted and explain/journal RISPP runs.
fn equivalence_configs() -> Vec<SimConfig> {
    let mut configs = all_configs();
    configs.push(
        SimConfig::rispp(4, SchedulerKind::Hef).with_fault(FaultConfig {
            rate_ppm: 60_000,
            seed: 0x5EED_CAFE,
            max_retries: 2,
        }),
    );
    configs.push(
        SimConfig::rispp(4, SchedulerKind::Asf)
            .with_explain(true)
            .with_journal(true),
    );
    for kind in SchedulerKind::ALL {
        configs.push(SimConfig::rispp(3, kind).with_detail(true));
    }
    configs
}

#[test]
fn single_tenant_arbiter_stats_are_bit_identical_to_solo_path() {
    let lib = library();
    let t = trace(4);
    let traces = [t.clone()];
    for config in equivalence_configs() {
        let solo = simulate(&lib, &t, &config);
        for policy in [TenantPolicy::Shared, TenantPolicy::Partitioned] {
            for arbitration in [
                TenantArbitration::RoundRobin,
                TenantArbitration::CycleInterleaved,
            ] {
                let cfg = config.with_tenants(TenancyConfig {
                    count: 1,
                    policy,
                    arbitration,
                });
                let multi = simulate_multi(&lib, &traces, &cfg);
                assert_eq!(multi.per_tenant.len(), 1);
                assert_eq!(
                    multi.per_tenant[0],
                    solo,
                    "{} {policy:?}/{arbitration:?}: K=1 arbiter diverged",
                    config.system.label()
                );
                assert_eq!(multi.aggregate_cycles, solo.total_cycles);
                assert_eq!(multi.makespan_cycles, solo.total_cycles);
                assert_eq!(multi.atoms_shared, 0);
                assert_eq!(multi.evictions_contested, 0);
            }
        }
    }
}

#[test]
fn single_tenant_arbiter_event_stream_is_bit_identical_to_solo_path() {
    let lib = library();
    let t = trace(4);
    // A traced run as well: both paths must hand the configured context
    // to every observer, so the stamped exports match too.
    let mut configs = equivalence_configs();
    configs.push(
        SimConfig::rispp(4, SchedulerKind::Hef).with_trace(TraceContext::new(42).with_attempt(1)),
    );
    for config in configs {
        let mut solo_log = TraceLogObserver::new();
        {
            let mut observers: [&mut dyn SimObserver; 1] = [&mut solo_log];
            let _ = simulate_observed(&lib, &t, &config, &mut observers);
        }
        for policy in [TenantPolicy::Shared, TenantPolicy::Partitioned] {
            let cfg = config.with_tenants(TenancyConfig {
                count: 1,
                policy,
                arbitration: TenantArbitration::RoundRobin,
            });
            let mut multi_log = TraceLogObserver::new();
            {
                let mut observers: [&mut dyn SimObserver; 1] = [&mut multi_log];
                let _ =
                    simulate_multi_observed(&lib, std::slice::from_ref(&t), &cfg, &mut observers);
            }
            assert_eq!(
                solo_log.events(),
                multi_log.events(),
                "{} {policy:?}: K=1 event stream diverged",
                config.system.label()
            );
            assert_eq!(
                solo_log.to_jsonl(),
                multi_log.to_jsonl(),
                "{} {policy:?}: K=1 JSONL export diverged",
                config.system.label()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Plan cache: memoisation must be invisible — cache-on replays are
// bit-identical to cache-off planning for every configuration.
// ---------------------------------------------------------------------------

/// Full event stream of one run under `config`.
fn event_log(lib: &SiLibrary, t: &Trace, config: &SimConfig) -> TraceLogObserver {
    let mut log = TraceLogObserver::new();
    {
        let mut system = config.build_system(lib);
        let mut observers: [&mut dyn SimObserver; 1] = [&mut log];
        simulate_with(system.as_mut(), t, &mut observers);
    }
    log
}

#[test]
fn plan_cache_on_is_bit_identical_to_off_for_every_config() {
    let lib = library();
    let t = trace(6);
    for config in equivalence_configs() {
        let on = config.with_plan_cache(true);
        let off = config.with_plan_cache(false);
        assert_eq!(
            simulate(&lib, &t, &on),
            simulate(&lib, &t, &off),
            "{}: stats diverged with the plan cache on",
            config.system.label()
        );
        assert_eq!(
            event_log(&lib, &t, &on).events(),
            event_log(&lib, &t, &off).events(),
            "{}: event stream diverged with the plan cache on",
            config.system.label()
        );
    }
}

#[test]
fn plan_cache_rispp_runs_actually_hit_in_steady_state() {
    // Guard against the cache silently never matching (which would make
    // the bit-identity tests above vacuous): a periodic trace must reach
    // hits once the forecast converges.
    let lib = library();
    let t = trace(40);
    for kind in SchedulerKind::ALL {
        let config = SimConfig::rispp(4, kind).with_plan_cache(true);
        let (_, plan) = simulate_observed_planned(&lib, &t, &config, None, &mut []);
        assert!(
            plan.hits > 0,
            "{kind}: no plan-cache hits on a periodic 40-frame trace: {plan:?}"
        );
        assert_eq!(plan.lookups(), plan.hits + plan.misses);
        assert_eq!(plan.evictions, 0, "{kind}: workload far below capacity");
    }
}

#[test]
fn plan_cache_is_bit_identical_for_multi_tenant_runs() {
    let lib = library();
    let traces: Vec<Trace> = vec![trace(4), trace(5), trace(3)];
    for count in [2u16, 3] {
        let slice = &traces[..usize::from(count)];
        for kind in [SchedulerKind::Hef, SchedulerKind::Asf] {
            for policy in [TenantPolicy::Shared, TenantPolicy::Partitioned] {
                let base = SimConfig::rispp(6, kind).with_tenants(TenancyConfig {
                    count,
                    policy,
                    arbitration: TenantArbitration::RoundRobin,
                });
                let on = simulate_multi(&lib, slice, &base.with_plan_cache(true));
                let off = simulate_multi(&lib, slice, &base.with_plan_cache(false));
                assert_eq!(
                    on, off,
                    "{kind} K={count} {policy:?}: multi-tenant diverged"
                );

                // Per-tenant event streams must match too (one observer
                // per trace, as the multi API requires).
                let mut on_logs: Vec<TraceLogObserver> =
                    (0..count).map(|_| TraceLogObserver::new()).collect();
                {
                    let mut observers: Vec<&mut dyn SimObserver> = on_logs
                        .iter_mut()
                        .map(|l| l as &mut dyn SimObserver)
                        .collect();
                    let _ = simulate_multi_observed(
                        &lib,
                        slice,
                        &base.with_plan_cache(true),
                        &mut observers,
                    );
                }
                let mut off_logs: Vec<TraceLogObserver> =
                    (0..count).map(|_| TraceLogObserver::new()).collect();
                {
                    let mut observers: Vec<&mut dyn SimObserver> = off_logs
                        .iter_mut()
                        .map(|l| l as &mut dyn SimObserver)
                        .collect();
                    let _ = simulate_multi_observed(
                        &lib,
                        slice,
                        &base.with_plan_cache(false),
                        &mut observers,
                    );
                }
                for (tenant, (on_log, off_log)) in on_logs.iter().zip(off_logs.iter()).enumerate() {
                    assert_eq!(
                        on_log.events(),
                        off_log.events(),
                        "{kind} K={count} {policy:?} tenant {tenant}: event stream diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn plan_cache_shared_sweep_is_bit_identical_at_any_thread_count() {
    // Cross-job sharing (tentpole layer 2): one shared cache across a
    // sweep must leave every result bit-identical to the cache-off
    // sequential loop, at 1, 2, 4 and 8 worker threads — insertion order
    // into the shared cache is scheduling-dependent, results must not be.
    let lib = library();
    let t = trace(5);
    let jobs: Vec<SweepJob<'_>> = equivalence_configs()
        .into_iter()
        .map(|c| SweepJob::new(c.with_plan_cache(true), &t))
        .collect();
    let baseline: Vec<RunStats> = jobs
        .iter()
        .map(|j| simulate(&lib, j.trace, &j.config.with_plan_cache(false)))
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let runner = SweepRunner::with_threads(threads).with_plan_cache(PlanCacheHandle::default());
        let results = runner.run(&lib, &jobs);
        assert_eq!(
            results, baseline,
            "{threads}-thread shared-cache sweep diverged from sequential cache-off"
        );
    }
}
