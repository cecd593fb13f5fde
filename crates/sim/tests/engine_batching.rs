//! Batched vs per-burst replay bit-identity: the engine's
//! `execute_bursts_batched` fast path must yield exactly the same
//! `RunStats` (including detailed buckets and latency timelines) and the
//! same typed event stream as the per-burst fallback, for every built-in
//! backend and scheduler, on fault-free and fault-injected runs, with
//! telemetry capture on and off. Without detail no attached observer
//! reads segments, so the engine takes the totals path
//! (`execute_bursts_totals`, whole index blocks at a time): it must give
//! the same `RunStats` and the same coarse event stream, whether the
//! backend overrides it or keeps the trait's default fold.

use std::borrow::Cow;

use proptest::prelude::*;
use rispp_core::{BurstSegment, SchedulerKind};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate_with, Burst, ExecutionSystem, FaultConfig, Invocation, RunStats, SimConfig, SimEvent,
    SimObserver, SystemKind, Trace, TraceLogObserver,
};

/// Delegates every method — including the poll gates — to the wrapped
/// backend, except that it keeps the trait's **default**
/// `execute_bursts_totals` (which folds the batched segments) and, unless
/// `BATCHED`, consumes nothing in `execute_bursts_batched`, as the
/// trait's default does. `Shim::<false>` thus forces the per-burst path:
/// the only difference between a run through it and one on the bare
/// backend is whether the engine takes the batched fast path.
struct Shim<'a, const BATCHED: bool>(Box<dyn ExecutionSystem + 'a>);

impl<const BATCHED: bool> ExecutionSystem for Shim<'_, BATCHED> {
    fn label(&self) -> Cow<'static, str> {
        self.0.label()
    }

    fn enter_hot_spot(&mut self, invocation: &Invocation, now: u64) {
        self.0.enter_hot_spot(invocation, now);
    }

    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        self.0.execute_burst(si, count, overhead, start)
    }

    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        self.0.execute_burst_into(si, count, overhead, start, out);
    }

    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        if BATCHED {
            self.0.execute_bursts_batched(bursts, start, out)
        } else {
            0
        }
    }

    fn exit_hot_spot(&mut self, now: u64) {
        self.0.exit_hot_spot(now);
    }

    fn reconfiguration_stats(&self) -> (u64, u64) {
        self.0.reconfiguration_stats()
    }

    fn recovery_stats(&self) -> rispp_core::RecoveryStats {
        self.0.recovery_stats()
    }

    fn has_pending_activity(&self) -> bool {
        self.0.has_pending_activity()
    }

    fn recovery_active(&self) -> bool {
        self.0.recovery_active()
    }

    fn telemetry_active(&self) -> bool {
        self.0.telemetry_active()
    }

    fn drain_decisions(&mut self, out: &mut Vec<rispp_core::DecisionExplain>) {
        self.0.drain_decisions(out);
    }

    fn drain_fabric_journal(&mut self, out: &mut Vec<rispp_fabric::FabricJournalEntry>) {
        self.0.drain_fabric_journal(out);
    }
}

/// Small containers relative to the Molecule supremum, so loads are
/// frequent, evictions happen, and bursts regularly split across load
/// completions — exercising both the batched fast path and the fallback.
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
        .molecule(Molecule::from_counts([0, 1, 0]), 80)
        .unwrap();
    b.special_instruction("Z", 600)
        .unwrap()
        .molecule(Molecule::from_counts([0, 0, 1]), 70)
        .unwrap();
    b.build().unwrap()
}

/// A trace mixing burst shapes: tiny bursts (often split by in-flight
/// loads), a long run of bursts (the batched path's bread and butter)
/// and explicit zero-count bursts (must be consumed as no-ops).
fn trace(frames: usize, counts: [u32; 3]) -> Trace {
    (0..frames)
        .map(|f| Invocation {
            hot_spot: HotSpotId((f % 2) as u16),
            prologue_cycles: 500,
            bursts: vec![
                Burst {
                    si: SiId(0),
                    count: counts[0],
                    overhead: 15,
                },
                Burst {
                    si: SiId(1),
                    count: 0,
                    overhead: 15,
                },
                Burst {
                    si: SiId(1),
                    count: counts[1],
                    overhead: 15,
                },
                Burst {
                    si: SiId(2),
                    count: counts[2],
                    overhead: 15,
                },
                Burst {
                    si: SiId(0),
                    count: 0,
                    overhead: 15,
                },
            ],
            hints: vec![
                (SiId(0), u64::from(counts[0])),
                (SiId(1), u64::from(counts[1])),
                (SiId(2), u64::from(counts[2])),
            ],
        })
        .collect()
}

/// Replays `t` with (or without) the batched fast path and returns the
/// full statistics plus the typed event log.
fn run(
    lib: &SiLibrary,
    t: &Trace,
    config: &SimConfig,
    batched: bool,
) -> (RunStats, TraceLogObserver) {
    let mut stats = RunStats::new("run", lib.len(), config.bucket_cycles, config.detail);
    let mut log = TraceLogObserver::new();
    if batched {
        let mut system = config.build_system(lib);
        let mut obs: [&mut dyn SimObserver; 2] = [&mut stats, &mut log];
        simulate_with(system.as_mut(), t, &mut obs);
    } else {
        let mut system = Shim::<false>(config.build_system(lib));
        let mut obs: [&mut dyn SimObserver; 2] = [&mut stats, &mut log];
        simulate_with(&mut system, t, &mut obs);
    }
    (stats, log)
}

/// Invocations long enough for the block index: `counts` laid out over
/// the three SIs in turn (a count below 30 becomes an empty burst), with
/// overheads 0, 5, 10 and 15 in turn.
fn long_trace(frames: usize, counts: &[u32]) -> Trace {
    let bursts: Vec<Burst> = counts
        .iter()
        .enumerate()
        .map(|(k, &count)| Burst {
            si: SiId((k % 3) as u16),
            count: if count < 30 { 0 } else { count },
            overhead: (k % 4) as u32 * 5,
        })
        .collect();
    (0..frames)
        .map(|f| Invocation {
            hot_spot: HotSpotId((f % 2) as u16),
            prologue_cycles: 500,
            hints: (0..3)
                .map(|si| {
                    let executed = bursts.iter().filter(|b| b.si == SiId(si));
                    (SiId(si), executed.map(|b| u64::from(b.count)).sum())
                })
                .collect(),
            bursts: bursts.clone(),
        })
        .collect()
}

/// Records the coarse events only: it reads no segments, so beside a
/// detail-off `RunStats` it keeps the engine on the totals path.
struct CoarseLog(TraceLogObserver);

impl SimObserver for CoarseLog {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.on_event(event);
    }

    fn wants_segments(&self) -> bool {
        false
    }
}

/// Replays `t` on `system` without detail and returns the statistics plus
/// the coarse event log.
fn run_totals(
    lib: &SiLibrary,
    t: &Trace,
    config: &SimConfig,
    system: &mut dyn ExecutionSystem,
) -> (RunStats, TraceLogObserver) {
    assert!(!config.detail, "detail reads segments");
    let mut stats = RunStats::new("run", lib.len(), config.bucket_cycles, false);
    let mut log = CoarseLog(TraceLogObserver::new());
    let mut obs: [&mut dyn SimObserver; 2] = [&mut stats, &mut log];
    simulate_with(system, t, &mut obs);
    (stats, log.0)
}

/// The totals path — the backend's own `execute_bursts_totals` and the
/// trait's default fold over its batched segments — against per-burst
/// replay: the same `RunStats` and the same coarse event stream.
fn check_totals(lib: &SiLibrary, t: &Trace, config: &SimConfig) {
    let label = config.system.label();
    let (stats_u, log_u) = run_totals(lib, t, config, &mut Shim::<false>(config.build_system(lib)));
    let (stats_b, log_b) = run_totals(lib, t, config, config.build_system(lib).as_mut());
    let (stats_f, log_f) = run_totals(lib, t, config, &mut Shim::<true>(config.build_system(lib)));
    assert_eq!(stats_b, stats_u, "{label}: RunStats diverged");
    assert_eq!(
        log_b.events(),
        log_u.events(),
        "{label}: coarse events diverged"
    );
    assert_eq!(stats_f, stats_u, "{label}: default fold diverged");
    assert_eq!(
        log_f.events(),
        log_u.events(),
        "{label}: default fold events diverged"
    );
}

fn all_systems() -> Vec<SystemKind> {
    let mut kinds: Vec<SystemKind> = SchedulerKind::ALL
        .into_iter()
        .map(SystemKind::Rispp)
        .collect();
    kinds.extend([
        SystemKind::Molen,
        SystemKind::OneChip,
        SystemKind::SoftwareOnly,
    ]);
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free runs: batched ≡ per-burst for every built-in system,
    /// down to detailed buckets, latency timelines and the event stream.
    #[test]
    fn batched_replay_is_bit_identical_fault_free(
        frames in 1usize..5,
        c0 in 1u32..400,
        c1 in 1u32..150,
        c2 in 1u32..6,
    ) {
        let lib = library();
        let t = trace(frames, [c0, c1, c2]);
        for kind in all_systems() {
            let mut config = SimConfig::rispp(4, SchedulerKind::ALL[0]).with_detail(true);
            config.system = kind;
            let (stats_b, log_b) = run(&lib, &t, &config, true);
            let (stats_u, log_u) = run(&lib, &t, &config, false);
            prop_assert_eq!(&stats_b, &stats_u, "{}: RunStats diverged", kind.label());
            prop_assert_eq!(
                log_b.events(),
                log_u.events(),
                "{}: event streams diverged",
                kind.label()
            );
        }
    }

    /// Fault-injected and telemetry-capturing RISPP runs: the batched
    /// path must defer to the fallback exactly at every fabric event, so
    /// fault handling, recovery counters, decision explanations and the
    /// container journal all stay bit-identical.
    #[test]
    fn batched_replay_is_bit_identical_under_faults_and_telemetry(
        seed in 0u64..u64::MAX,
        rate_ppm in 0u32..300_000,
        frames in 1usize..4,
        c0 in 1u32..400,
    ) {
        let lib = library();
        let t = trace(frames, [c0, 120, 3]);
        for kind in SchedulerKind::ALL {
            let config = SimConfig::rispp(4, kind)
                .with_detail(true)
                .with_fault(FaultConfig { rate_ppm, seed, max_retries: 2 })
                .with_explain(true)
                .with_journal(true);
            let (stats_b, log_b) = run(&lib, &t, &config, true);
            let (stats_u, log_u) = run(&lib, &t, &config, false);
            prop_assert_eq!(&stats_b, &stats_u, "{}: RunStats diverged", kind);
            prop_assert_eq!(log_b.events(), log_u.events(), "{}: event streams diverged", kind);
        }
    }

    /// Detail off, fault-free: the totals path ≡ per-burst for every
    /// built-in system, on short invocations and on ones spanning several
    /// index blocks.
    #[test]
    fn totals_replay_is_bit_identical_fault_free(
        frames in 1usize..4,
        counts in prop::collection::vec(0u32..400, 1..140),
        c0 in 1u32..400,
    ) {
        let lib = library();
        for t in [trace(frames, [c0, 120, 3]), long_trace(frames, &counts)] {
            for kind in all_systems() {
                let mut config = SimConfig::rispp(4, SchedulerKind::ALL[0]);
                config.system = kind;
                check_totals(&lib, &t, &config);
            }
        }
    }

    /// Detail off, fault-injected (the baselines ignore the fault model)
    /// and telemetry-capturing: the totals path defers to the fallback at
    /// every fabric event exactly as the segment path does.
    #[test]
    fn totals_replay_is_bit_identical_under_faults(
        seed in 0u64..u64::MAX,
        rate_ppm in 0u32..300_000,
        frames in 1usize..4,
        counts in prop::collection::vec(0u32..400, 1..140),
    ) {
        let lib = library();
        for kind in all_systems() {
            let mut config = SimConfig::rispp(4, SchedulerKind::ALL[0])
                .with_fault(FaultConfig { rate_ppm, seed, max_retries: 2 })
                .with_explain(true)
                .with_journal(true);
            config.system = kind;
            check_totals(&lib, &long_trace(frames, &counts), &config);
        }
    }
}
