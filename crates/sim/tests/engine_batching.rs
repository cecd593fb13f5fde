//! Batched vs per-burst replay bit-identity: the engine's
//! `execute_bursts_batched` fast path must yield exactly the same
//! `RunStats` (including detailed buckets and latency timelines) and the
//! same typed event stream as the per-burst fallback, for every built-in
//! backend and scheduler, on fault-free and fault-injected runs, with
//! telemetry capture on and off. Without detail no attached observer
//! reads segments, so the engine takes the totals path
//! (`execute_bursts_totals`, whole index blocks at a time): it must give
//! the same `RunStats` and the same coarse event stream, whether the
//! backend overrides it or keeps the trait's default fold. A backend whose
//! batched calls stop early with no event due must be exact too: the
//! engine steps the burst a batch stopped at on the per-burst path.

use std::borrow::Cow;

use proptest::prelude::*;
use rispp_core::{BurstSegment, SchedulerKind};
use rispp_fabric::ReconfigPortConfig;
use rispp_model::{
    AtomTypeId, AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder,
};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate_with, Burst, ExecutionSystem, FaultConfig, Invocation, RunStats, SimConfig, SimEvent,
    SimObserver, SystemKind, Trace, TraceLogObserver,
};

/// Delegates every method — including the poll gates — to the wrapped
/// backend, except that it keeps the trait's **default**
/// `execute_bursts_totals` (which folds the batched segments) and lets
/// each `execute_bursts_batched` call see at most `CAP` bursts.
/// `Shim::<0>` consumes nothing, as the trait's default does, and so
/// forces the per-burst path: the only difference between a run through
/// it and one on the bare backend is whether the engine takes the
/// batched fast path. `Shim::<3>` stops every batch after three bursts
/// with no event due.
struct Shim<'a, const CAP: usize>(Box<dyn ExecutionSystem + 'a>);

/// Batched calls see the whole run.
const UNCAPPED: usize = usize::MAX;

impl<const CAP: usize> ExecutionSystem for Shim<'_, CAP> {
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
        if CAP == 0 {
            0
        } else {
            let run = &bursts[..bursts.len().min(CAP)];
            self.0.execute_bursts_batched(run, start, out)
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
    if batched {
        run_on(lib, t, config, config.build_system(lib).as_mut())
    } else {
        run_on(lib, t, config, &mut Shim::<0>(config.build_system(lib)))
    }
}

/// Replays `t` on `system` and returns the full statistics plus the typed
/// event log.
fn run_on(
    lib: &SiLibrary,
    t: &Trace,
    config: &SimConfig,
    system: &mut dyn ExecutionSystem,
) -> (RunStats, TraceLogObserver) {
    let mut stats = RunStats::new("run", lib.len(), config.bucket_cycles, config.detail);
    let mut log = TraceLogObserver::new();
    let mut obs: [&mut dyn SimObserver; 2] = [&mut stats, &mut log];
    simulate_with(system, t, &mut obs);
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
    let (stats_u, log_u) = run_totals(lib, t, config, &mut Shim::<0>(config.build_system(lib)));
    let (stats_b, log_b) = run_totals(lib, t, config, config.build_system(lib).as_mut());
    let (stats_f, log_f) = run_totals(
        lib,
        t,
        config,
        &mut Shim::<UNCAPPED>(config.build_system(lib)),
    );
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

/// Three one-Atom SIs for the baselines' directed cases: A and B share a
/// hot spot, C has one of its own, and two Atom slots hold only two of
/// the three accelerators.
fn molen_library() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("TA"),
        AtomTypeInfo::new("TB"),
        AtomTypeInfo::new("TC"),
    ])
    .unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    for (name, software, atoms) in [
        ("A", 1_000, [1, 0, 0]),
        ("B", 900, [0, 1, 0]),
        ("C", 800, [0, 0, 1]),
    ] {
        b.special_instruction(name, software)
            .unwrap()
            .molecule(Molecule::from_counts(atoms), 40)
            .unwrap();
    }
    b.build().unwrap()
}

fn burst(si: u16, count: u32, overhead: u32) -> Burst {
    Burst {
        si: SiId(si),
        count,
        overhead,
    }
}

/// Readiness inside index blocks, and an LRU victim that only the last
/// bursts inside a skipped block decide. On two slots:
///
/// 1. Hot spot 0 loads A, ready at cycle `L`, then B. Its first block
///    (A in software, 1,000 cycles per execution) is laid out so that its
///    last execution starts exactly at `L`: the block must not be
///    skipped, and that execution runs on hardware. B's readiness falls
///    inside the second block. In the third block, skipped whole, A and B
///    alternate, and B's last burst is the block's last but one.
/// 2. Hot spot 1 needs C, so the least recently used of A and B goes: B,
///    whose last burst ended first. Stamps taken from the block's start
///    or end would tie, and the tie would evict A.
/// 3. Hot spot 0 again: A runs at once only if B was the victim.
fn molen_lru_trace(lib: &SiLibrary) -> Trace {
    let bytes = lib.universe().info(AtomTypeId(0)).unwrap().bitstream_bytes;
    let ready = ReconfigPortConfig::prototype().load_cycles(bytes).unwrap();
    let prologue = ready % 1_000;
    let executions = u32::try_from((ready - prologue) / 1_000 + 1).unwrap();
    let mut first = vec![burst(0, 2, 0); 31];
    first.push(burst(0, executions - 62, 0));
    first.extend([burst(1, 10, 0); 32]);
    first.extend((0..32).map(|k| burst(if k % 2 == 0 { 1 } else { 0 }, 5, 10)));
    vec![
        Invocation {
            hot_spot: HotSpotId(0),
            prologue_cycles: prologue,
            bursts: first,
            hints: vec![(SiId(0), 1_000), (SiId(1), 1_000)],
        },
        Invocation {
            hot_spot: HotSpotId(1),
            prologue_cycles: 500,
            bursts: vec![burst(2, 20, 10); 3],
            hints: vec![(SiId(2), 1_000)],
        },
        Invocation {
            hot_spot: HotSpotId(0),
            prologue_cycles: 500,
            bursts: vec![burst(0, 30, 10), burst(1, 30, 10), burst(0, 30, 10)],
            hints: vec![(SiId(0), 1_000), (SiId(1), 1_000)],
        },
    ]
    .into_iter()
    .collect()
}

/// Molen and OneChip on [`molen_lru_trace`]: the totals path (block walk),
/// the segment path and the trait's default fold all equal per-burst
/// replay, `RunStats` and events alike.
#[test]
fn baseline_block_walk_keeps_readiness_and_lru_stamps() {
    let lib = molen_library();
    let t = molen_lru_trace(&lib);
    for kind in [SystemKind::Molen, SystemKind::OneChip] {
        let mut config = SimConfig::rispp(2, SchedulerKind::ALL[0]);
        config.system = kind;
        check_totals(&lib, &t, &config);
        let detailed = config.with_detail(true);
        let (stats_b, log_b) = run(&lib, &t, &detailed, true);
        let (stats_u, log_u) = run(&lib, &t, &detailed, false);
        assert_eq!(stats_b, stats_u, "{}: RunStats diverged", kind.label());
        assert_eq!(log_b.events(), log_u.events(), "{}", kind.label());
    }
}

/// Batches that stop after three bursts with no event due, on the totals
/// path and on the segment path: the engine steps the next burst on the
/// per-burst path, so every built-in system replays exactly as per-burst.
fn check_capped(lib: &SiLibrary, t: &Trace, config: &SimConfig) {
    let label = config.system.label();
    let (stats_u, log_u) = run_totals(lib, t, config, &mut Shim::<0>(config.build_system(lib)));
    let (stats_c, log_c) = run_totals(lib, t, config, &mut Shim::<3>(config.build_system(lib)));
    assert_eq!(stats_c, stats_u, "{label}: capped totals diverged");
    assert_eq!(
        log_c.events(),
        log_u.events(),
        "{label}: capped totals events"
    );
    let detailed = (*config).with_detail(true);
    let (stats_u, log_u) = run(lib, t, &detailed, false);
    let (stats_c, log_c) = run_on(
        lib,
        t,
        &detailed,
        &mut Shim::<3>(detailed.build_system(lib)),
    );
    assert_eq!(stats_c, stats_u, "{label}: capped segments diverged");
    assert_eq!(
        log_c.events(),
        log_u.events(),
        "{label}: capped segment events"
    );
}

#[test]
fn batches_stopping_early_are_exact_on_the_directed_traces() {
    let lib = molen_library();
    let t = molen_lru_trace(&lib);
    for kind in all_systems() {
        let mut config = SimConfig::rispp(2, SchedulerKind::ALL[0]);
        config.system = kind;
        check_capped(&lib, &t, &config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batches capped at three bursts, fault-free and under faults, on
    /// short and multi-block invocations, for every built-in system.
    #[test]
    fn batches_stopping_early_are_exact(
        seed in 0u64..u64::MAX,
        rate_ppm in 0u32..200_000,
        frames in 1usize..4,
        counts in prop::collection::vec(0u32..400, 1..140),
    ) {
        let lib = library();
        for t in [trace(frames, [counts[0].max(1), 120, 3]), long_trace(frames, &counts)] {
            for kind in all_systems() {
                let mut config = SimConfig::rispp(4, SchedulerKind::ALL[0])
                    .with_fault(FaultConfig { rate_ppm, seed, max_retries: 2 });
                config.system = kind;
                check_capped(&lib, &t, &config);
            }
        }
    }
}
