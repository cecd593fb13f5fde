//! Batched burst runs reach observers through `SimObserver::on_batch`.
//! `RunStats` overrides it with one folding loop, and that loop must
//! leave every field exactly as the trait's default (one
//! `SegmentExecuted` event per segment) would. `TraceLogObserver` keeps
//! the default, so batched and per-burst replays give it the same event
//! log.

use std::borrow::Cow;

use proptest::prelude::*;
use rispp_core::{BurstSegment, SchedulerKind};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate_with, Burst, ExecutionSystem, Invocation, RunStats, SimConfig, SimEvent, SimObserver,
    SystemKind, Trace, TraceLogObserver,
};

const SIS: u16 = 3;

/// Forwards only `on_event`, so `on_batch` is the trait's default.
struct DefaultBatch(RunStats);

impl SimObserver for DefaultBatch {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.on_event(event);
    }
}

/// One burst of a generated batch: SI, count (0 gives no segment),
/// overhead, latency and whether it ran on hardware.
type BurstSpec = (u16, u32, u32, u32, bool);

fn burst_spec() -> impl Strategy<Value = BurstSpec> {
    (
        0..SIS,
        (0u32..4, 1u32..300).prop_map(|(zero, count)| if zero == 0 { 0 } else { count }),
        0u32..20,
        // Few latencies, so the timeline both records and skips changes.
        (0usize..3).prop_map(|i| [1, 7, 40][i]),
        any::<bool>(),
    )
}

/// Lays `specs` back to back from `*now`, one unsplit segment per
/// non-empty burst, as a backend's batched step reports them.
fn batch(specs: &[BurstSpec], now: &mut u64) -> (Vec<Burst>, Vec<BurstSegment>) {
    let mut bursts = Vec::with_capacity(specs.len());
    let mut segments = Vec::new();
    for &(si, count, overhead, latency, hardware) in specs {
        bursts.push(Burst {
            si: SiId(si),
            count,
            overhead,
        });
        if count == 0 {
            continue;
        }
        let count = u64::from(count);
        segments.push(if hardware {
            BurstSegment::hardware(*now, count, latency, 0)
        } else {
            BurstSegment::software(*now, count, latency)
        });
        *now += count * (u64::from(latency) + u64::from(overhead));
    }
    (bursts, segments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Several batches in a row, with gaps between them, against buckets
    /// narrow enough that most segments straddle a bucket edge.
    #[test]
    fn run_stats_on_batch_equals_the_default(
        start in 0u64..1_000,
        bucket_cycles in 50u64..500,
        batches in prop::collection::vec(
            (0u64..2_000, prop::collection::vec(burst_spec(), 1..12)),
            1..5,
        ),
    ) {
        for detail in [false, true] {
            let mut folded = RunStats::new("x", usize::from(SIS), bucket_cycles, detail);
            let mut replayed =
                DefaultBatch(RunStats::new("x", usize::from(SIS), bucket_cycles, detail));
            let mut now = start;
            let mut executions = 0;
            for (gap, specs) in &batches {
                now += gap;
                let (bursts, segments) = batch(specs, &mut now);
                executions += segments.iter().map(|s| s.count).sum::<u64>();
                folded.on_batch(&bursts, &segments);
                replayed.on_batch(&bursts, &segments);
            }
            prop_assert_eq!(&folded, &replayed.0, "detail {}", detail);
            prop_assert_eq!(folded.total_executions(), executions);
        }
    }
}

/// Keeps the trait's default `execute_bursts_batched`, which consumes
/// nothing, so the engine steps every burst on its own.
struct PerBurst<'a>(Box<dyn ExecutionSystem + 'a>);

impl ExecutionSystem for PerBurst<'_> {
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

    fn exit_hot_spot(&mut self, now: u64) {
        self.0.exit_hot_spot(now);
    }

    fn reconfiguration_stats(&self) -> (u64, u64) {
        self.0.reconfiguration_stats()
    }
}

fn library() -> SiLibrary {
    let universe =
        AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 800)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0]), 60)
        .unwrap();
    b.special_instruction("Y", 700)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1]), 50)
        .unwrap();
    b.build().unwrap()
}

/// Alternating phases of many short bursts: X dominates one hot spot, Y
/// the other, with a rare burst of the other SI between them.
fn phased_trace() -> Trace {
    let phase = |hot_spot: u16, si: SiId, other: SiId| Invocation {
        hot_spot: HotSpotId(hot_spot),
        prologue_cycles: 300,
        bursts: (0..40)
            .flat_map(|i| {
                [
                    Burst {
                        si,
                        count: 6,
                        overhead: 20,
                    },
                    Burst {
                        si: other,
                        count: u32::from(i % 8 == 0),
                        overhead: 20,
                    },
                ]
            })
            .collect(),
        hints: vec![(si, 240), (other, 5)],
    };
    Trace::from_invocations(
        (0..6)
            .map(|f| {
                if f % 2 == 0 {
                    phase(0, SiId(0), SiId(1))
                } else {
                    phase(1, SiId(1), SiId(0))
                }
            })
            .collect(),
    )
}

#[test]
fn trace_log_sees_batched_segments_through_the_engine() {
    let lib = library();
    let trace = phased_trace();
    let mut kinds: Vec<SystemKind> = SchedulerKind::ALL
        .into_iter()
        .map(SystemKind::Rispp)
        .collect();
    kinds.extend([
        SystemKind::Molen,
        SystemKind::OneChip,
        SystemKind::SoftwareOnly,
    ]);
    for kind in kinds {
        let mut config = SimConfig::rispp(3, SchedulerKind::Hef);
        config.system = kind;
        let replay = |system: &mut dyn ExecutionSystem| {
            let mut log = TraceLogObserver::new();
            simulate_with(system, &trace, &mut [&mut log]);
            log.events().to_vec()
        };
        let batched = replay(config.build_system(&lib).as_mut());
        let per_burst = replay(&mut PerBurst(config.build_system(&lib)));
        assert!(
            batched
                .iter()
                .any(|e| matches!(e, SimEvent::SegmentExecuted { .. })),
            "{}: the log must carry the replayed segments",
            kind.label()
        );
        assert_eq!(batched, per_burst, "{}: event logs diverged", kind.label());
    }
}
