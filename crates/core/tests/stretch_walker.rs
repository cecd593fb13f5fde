//! The stretch walker's totals mode against the per-burst path: replaying
//! an invocation with `execute_bursts_totals` over its `BurstIndex` blocks
//! (whole blocks consumed from their sums where they fit, the per-burst
//! fallback where an event intervenes) must leave the arbiter exactly as
//! stepping every burst through `execute_burst_into` does — the same
//! consumed counts, end cycle, per-SI totals, monitor state, fabric clock
//! and LRU stamps. It holds in a universe of more than 64 atom types too,
//! where variants carry no type mask and the deferred marks go through
//! the atom counts.
//!
//! The walker itself keeps its per-SI table across walks and resets only
//! what the walk before touched: a reused walker must answer every walk,
//! in any order of SIs and over libraries of more than 64 SIs, exactly as
//! a fresh one does, and each burst stops at its own SI's limit.

use proptest::prelude::*;
use rispp_core::{
    Burst, BurstBlocks, BurstIndex, BurstRun, BurstSegment, FabricArbiter, SchedulerKind, SiRate,
    SiTotals, Stretch, StretchWalker, BLOCK_BURSTS,
};
use rispp_fabric::FaultModel;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;

const SIS: u16 = 3;
const HOT_SPOT: HotSpotId = HotSpotId(0);

/// Unused atom types that pad a wide universe past 64 types.
const PADDING: usize = 62;

/// SI0 and SI1 share atom types A and B, SI1 and SI2 share C, so one SI's
/// deferred stamp can be overwritten by another's. `wide` pads the
/// universe with [`PADDING`] unused types, so no variant has a type mask.
fn library(wide: bool) -> SiLibrary {
    let padding = if wide { PADDING } else { 0 };
    let types = ["A", "B", "C"]
        .into_iter()
        .map(str::to_owned)
        .chain((0..padding).map(|i| format!("P{i}")));
    let universe = AtomUniverse::from_types(types.map(AtomTypeInfo::new)).unwrap();
    let molecule = |counts: [u16; 3]| {
        Molecule::from_counts(counts.into_iter().chain(std::iter::repeat_n(0, padding)))
    };
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("S0", 900)
        .unwrap()
        .molecule(molecule([1, 0, 0]), 120)
        .unwrap()
        .molecule(molecule([1, 1, 0]), 50)
        .unwrap();
    b.special_instruction("S1", 700)
        .unwrap()
        .molecule(molecule([0, 1, 0]), 90)
        .unwrap()
        .molecule(molecule([1, 1, 1]), 30)
        .unwrap();
    b.special_instruction("S2", 600)
        .unwrap()
        .molecule(molecule([0, 0, 1]), 70)
        .unwrap();
    b.build().unwrap()
}

/// Case shape bits: which of the generator's special shapes apply.
const ZERO_OVERHEAD: u32 = 1;
const PHASES: u32 = 2;
const HUGE_COUNTS: u32 = 4;
const EMPTY_BLOCK: u32 = 8;
const EMPTY_TAIL: u32 = 16;
const SHORT_BURSTS: u32 = 32;

/// Builds an invocation from raw `(si, zero, count, overhead)` draws and
/// the shape bits: empty bursts inside blocks (`zero == 0`), optionally
/// zero overheads, a phase split that retires SI0 halfway (so SI0 and
/// SI1 end in different blocks), counts near `u32::MAX`, a whole empty
/// block, an empty tail, and bursts short enough that a whole block runs
/// in less than one Atom load.
fn invocation(raw: &[(u16, u32, u32, u32)], shape: u32) -> Vec<Burst> {
    let len = raw.len();
    let mut bursts: Vec<Burst> = raw
        .iter()
        .enumerate()
        .map(|(k, &(si, zero, count, overhead))| {
            let si = if shape & PHASES == 0 {
                si
            } else if k < len / 2 {
                si % 2
            } else {
                1 + si % 2
            };
            let count = match zero {
                0 => 0,
                1 if shape & HUGE_COUNTS != 0 => u32::MAX - count % 16,
                _ if shape & SHORT_BURSTS != 0 => 1 + count % 4,
                _ => count,
            };
            Burst {
                si: SiId(si),
                count,
                overhead: if shape & ZERO_OVERHEAD == 0 {
                    overhead
                } else {
                    0
                },
            }
        })
        .collect();
    if shape & EMPTY_BLOCK != 0 && len >= 2 * BLOCK_BURSTS {
        for b in &mut bursts[BLOCK_BURSTS..2 * BLOCK_BURSTS] {
            b.count = 0;
        }
    }
    if shape & EMPTY_TAIL != 0 {
        for b in bursts.iter_mut().rev().take(5) {
            b.count = 0;
        }
    }
    bursts
}

fn arbiter(lib: &SiLibrary, containers: u16, fault: Option<(u32, u64)>) -> FabricArbiter<'_> {
    let mut builder = FabricArbiter::builder(lib)
        .containers(containers)
        .scheduler(SchedulerKind::Hef);
    if let Some((ppm, seed)) = fault {
        builder = builder
            .fault_model(FaultModel::uniform_ppm(ppm, seed))
            .max_retries(2);
    }
    builder.build()
}

/// Everything the comparison reads after one replay.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    end: u64,
    totals: Vec<(u64, u64)>,
    clock: u64,
    live: Vec<u64>,
    last_used: Vec<u64>,
    loaded: Vec<Option<rispp_model::AtomTypeId>>,
    expected: Vec<u64>,
}

fn add(totals: &mut [(u64, u64)], si: SiId, count: u64, hardware: bool) {
    totals[si.index()].0 += count;
    if hardware {
        totals[si.index()].1 += count;
    }
}

/// Reads the outcome, then leaves the hot spot at `end`.
fn finish(arb: &mut FabricArbiter<'_>, end: u64, totals: Vec<(u64, u64)>) -> Outcome {
    let fabric = arb.fabric();
    let clock = fabric.now();
    let last_used = fabric
        .containers()
        .iter()
        .map(|c| fabric.effective_last_used(c))
        .collect();
    let loaded = fabric
        .containers()
        .iter()
        .map(|c| c.loaded_atom())
        .collect();
    let live = (0..SIS)
        .map(|si| arb.monitor(0).live_count(HOT_SPOT, SiId(si)))
        .collect();
    arb.exit_hot_spot(0, end);
    let expected = (0..SIS)
        .map(|si| arb.monitor(0).expected(HOT_SPOT, SiId(si)))
        .collect();
    Outcome {
        end,
        totals,
        clock,
        live,
        last_used,
        loaded,
        expected,
    }
}

/// Steps every non-empty burst of `bursts[from..]` through
/// `execute_burst_into`. Also returns, per burst, whether a batched walk
/// may consume it: empty, or one segment whose last execution starts
/// before the event horizon seen going in.
fn per_burst(
    arb: &mut FabricArbiter<'_>,
    bursts: &[Burst],
    from: usize,
    start: u64,
) -> (Outcome, Vec<bool>) {
    let mut now = start;
    let mut totals = vec![(0, 0); usize::from(SIS)];
    let mut fits = vec![true; bursts.len()];
    let mut segments = Vec::new();
    for (k, b) in bursts.iter().enumerate().skip(from) {
        if b.count == 0 {
            continue;
        }
        let horizon = arb.fabric().next_event_at();
        arb.execute_burst_into(0, b.si, b.count, b.overhead, now, &mut segments);
        let first = segments[0];
        let per = u64::from(first.latency) + u64::from(b.overhead);
        fits[k] = segments.len() == 1
            && horizon.is_none_or(|event| event > first.start + (first.count - 1) * per);
        for seg in &segments {
            add(&mut totals, b.si, seg.count, seg.is_hardware());
            now = seg.start + seg.count * (u64::from(seg.latency) + u64::from(b.overhead));
        }
    }
    (finish(arb, now, totals), fits)
}

/// Replays `bursts[from..]` as the engine does on its totals path:
/// `execute_bursts_totals` from each position, the per-burst fallback for
/// a burst it cannot consume. Returns each call's `(position, consumed)`.
fn blocked(
    arb: &mut FabricArbiter<'_>,
    bursts: &[Burst],
    from: usize,
    start: u64,
) -> (Outcome, Vec<(usize, usize)>) {
    let index = BurstIndex::new([bursts]);
    let mut now = start;
    let mut totals = vec![(0, 0); usize::from(SIS)];
    let mut calls = Vec::new();
    let mut segments = Vec::new();
    let mut bi = from;
    while bi < bursts.len() {
        if bursts[bi].count == 0 {
            bi += 1;
            continue;
        }
        let stretch = arb.execute_bursts_totals(
            0,
            BurstRun::new(bursts, bi, index.invocation(0)),
            now,
            &mut |t: SiTotals| {
                totals[t.si.index()].0 += t.executions;
                totals[t.si.index()].1 += t.hardware_executions;
            },
        );
        calls.push((bi, stretch.consumed));
        if stretch.consumed > 0 {
            now = stretch.end.unwrap_or(now);
            bi += stretch.consumed;
            continue;
        }
        let b = bursts[bi];
        arb.execute_burst_into(0, b.si, b.count, b.overhead, now, &mut segments);
        for seg in &segments {
            add(&mut totals, b.si, seg.count, seg.is_hardware());
            now = seg.start + seg.count * (u64::from(seg.latency) + u64::from(b.overhead));
        }
        bi += 1;
    }
    (finish(arb, now, totals), calls)
}

/// A start cycle that puts the last execution of the first full block
/// after `from` within `offset` cycles of the first fabric event (before
/// it for a negative offset, on it for zero), priced at software latency
/// as on a cold fabric; `None` when there is no such block or event.
fn straddling_start(
    lib: &SiLibrary,
    arb: &FabricArbiter<'_>,
    bursts: &[Burst],
    from: usize,
    offset: i64,
) -> Option<u64> {
    let event = arb.fabric().next_event_at()?;
    let first = from.div_ceil(BLOCK_BURSTS) * BLOCK_BURSTS;
    let block = bursts.get(first..first + BLOCK_BURSTS)?;
    let per =
        |b: &Burst| u64::from(lib.si(b.si).unwrap().software_latency()) + u64::from(b.overhead);
    let mut t = 0u64;
    for b in &bursts[from..first] {
        t = t.checked_add(u64::from(b.count).checked_mul(per(b))?)?;
    }
    let mut last_start = None;
    for b in block.iter().filter(|b| b.count > 0) {
        last_start = Some(t + (u64::from(b.count) - 1) * per(b));
        t = t.checked_add(u64::from(b.count).checked_mul(per(b))?)?;
    }
    let target = i128::from(event) + i128::from(offset) - i128::from(last_start?);
    u64::try_from(target).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn blocked_totals_walk_equals_per_burst_stepping(
        raw in prop::collection::vec((0..SIS, 0u32..10, 1u32..400, 0u32..40), 1..200),
        shape in 0u32..64,
        from_draw in 0usize..200,
        (containers, wide) in (2u16..6, 0u8..2),
        fault in (0u32..4, 0u32..200_000, any::<u64>()),
        start_draw in (0u32..3, 0u64..2_000_000, -2i64..3),
    ) {
        let lib = library(wide == 1);
        prop_assert_eq!(lib.iter().all(|si| si.variant_masks().is_empty()), wide == 1);
        let bursts = invocation(&raw, shape);
        let from = if from_draw % 3 == 0 { 0 } else { from_draw % bursts.len() };
        let fault = (fault.0 == 0).then_some((fault.1, fault.2));
        let hints: Vec<(SiId, u64)> = (0..SIS).map(|si| (SiId(si), 100)).collect();
        let mut reference = arbiter(&lib, containers, fault);
        let mut walked = arbiter(&lib, containers, fault);
        // Two visits: the second plans from the monitor's forecast.
        let mut now = 0;
        for visit in 0..2 {
            reference.enter_hot_spot(0, HOT_SPOT, &hints, now).unwrap();
            walked.enter_hot_spot(0, HOT_SPOT, &hints, now).unwrap();
            let (kind, prologue, offset) = start_draw;
            let start = match kind {
                0 => straddling_start(&lib, &reference, &bursts, from, offset)
                    .filter(|&s| s >= now)
                    .unwrap_or(now),
                _ => now + prologue,
            };
            let (expect, fits) = per_burst(&mut reference, &bursts, from, start);
            let (got, calls) = blocked(&mut walked, &bursts, from, start);
            prop_assert_eq!(&got, &expect, "visit {}: outcomes diverged", visit);
            for &(bi, consumed) in &calls {
                let want = (bi..bursts.len())
                    .find(|&k| !fits[k])
                    .unwrap_or(bursts.len())
                    - bi;
                prop_assert_eq!(consumed, want, "visit {}: stretch from burst {}", visit, bi);
            }
            now = expect.end + 1_000;
        }
    }
}

/// The block that holds the horizon goes burst by burst: with its last
/// execution starting exactly on the next fabric event the walker stops
/// one burst short of the block's end, and one cycle earlier it takes the
/// whole block.
#[test]
fn a_block_whose_last_execution_meets_the_event_is_not_skipped() {
    let lib = library(false);
    let bursts = vec![
        Burst {
            si: SiId(2),
            count: 3,
            overhead: 7,
        };
        2 * BLOCK_BURSTS
    ];
    let index = BurstIndex::new([bursts.as_slice()]);
    for (offset, want) in [(0i64, BLOCK_BURSTS - 1), (-1, BLOCK_BURSTS)] {
        let mut arb = arbiter(&lib, 3, None);
        arb.enter_hot_spot(0, HOT_SPOT, &[(SiId(2), 1_000)], 0)
            .unwrap();
        let event = arb.fabric().next_event_at().expect("a load is streaming");
        let start = straddling_start(&lib, &arb, &bursts, 0, offset).expect("block before event");
        let stretch = arb.execute_bursts_totals(
            0,
            BurstRun::new(&bursts, 0, index.invocation(0)),
            start,
            &mut |_| {},
        );
        assert!(start < event);
        assert_eq!(stretch.consumed, want, "last start {offset} from the event");
    }
}

fn burst(si: u16, count: u32, overhead: u32) -> Burst {
    Burst {
        si: SiId(si),
        count,
        overhead,
    }
}

/// Latency `10 + si`, even SIs on hardware variant 0, odd ones trapping;
/// the rate never changes.
fn fixed_rate(si: SiId) -> SiRate {
    SiRate {
        latency: 10 + u32::from(si.0),
        variant: si.0.is_multiple_of(2).then_some(0),
        until: None,
    }
}

/// What one walk reports: the stretch, the totals in report order, the
/// resolved SIs, where the last burst of every SI below `probe` sits, and
/// the segments of the bursts it stepped.
type Walked = (
    Stretch,
    Vec<SiTotals>,
    Vec<SiId>,
    Vec<Option<(u64, u64)>>,
    Vec<BurstSegment>,
);

fn walk(
    walker: &mut StretchWalker,
    run: BurstRun<'_>,
    start: u64,
    rate: impl FnMut(SiId) -> SiRate,
    probe: u16,
) -> Walked {
    let mut segments = Vec::new();
    let stretch = walker.walk(run, start, rate, |s| segments.push(s));
    let mut totals = Vec::new();
    walker.report(|t| totals.push(t));
    let resolved = walker.resolved().to_vec();
    let last = (0..probe)
        .map(|si| walker.last_burst(run, SiId(si)))
        .collect();
    (stretch, totals, resolved, last, segments)
}

/// Walks over SIs {0, 2}, then over {1}, then over {0} at a new rate: each
/// walk reports only its own SIs, in SI order, resolves each once, and
/// forgets where the SIs of the walk before it ran.
#[test]
fn a_reused_walker_reports_only_its_last_walk() {
    let mut walker = StretchWalker::default();
    let first = [burst(2, 3, 1), burst(0, 4, 1), burst(2, 1, 1)];
    let run = BurstRun::new(&first, 0, BurstBlocks::EMPTY);
    let (stretch, totals, resolved, last, _) = walk(&mut walker, run, 0, fixed_rate, 3);
    // SI 2 runs 3 × 13 = 39 cycles, SI 0 4 × 11 = 44, SI 2 again 13.
    assert_eq!(stretch.end, Some(96));
    let ran = |si, executions, hardware| SiTotals {
        si: SiId(si),
        executions,
        hardware_executions: if hardware { executions } else { 0 },
    };
    assert_eq!(totals, vec![ran(0, 4, true), ran(2, 4, true)], "SI order");
    assert_eq!(resolved, vec![SiId(0), SiId(2)]);
    assert_eq!(last, vec![Some((39, 83)), None, Some((83, 96))]);

    let second = [burst(1, 5, 2)];
    let run = BurstRun::new(&second, 0, BurstBlocks::EMPTY);
    let (stretch, totals, resolved, last, _) = walk(&mut walker, run, 100, fixed_rate, 3);
    assert_eq!(stretch.end, Some(165));
    assert_eq!(totals, vec![ran(1, 5, false)], "only SI 1 ran in this walk");
    assert_eq!(resolved, vec![SiId(1)]);
    assert_eq!(last, vec![None, Some((100, 165)), None]);

    let third = [burst(0, 2, 0)];
    let run = BurstRun::new(&third, 0, BurstBlocks::EMPTY);
    let mut calls = 0;
    let slow = |si: SiId| {
        assert_eq!(si, SiId(0));
        calls += 1;
        SiRate {
            latency: 7,
            variant: None,
            until: None,
        }
    };
    let (stretch, totals, _, last, _) = walk(&mut walker, run, 0, slow, 3);
    assert_eq!(calls, 1, "SI 0 resolves afresh, once");
    assert_eq!(stretch.end, Some(14));
    assert_eq!(totals, vec![ran(0, 2, false)], "no executions carried over");
    assert_eq!(last, vec![Some((0, 14)), None, None]);
}

/// Each burst stops at its own SI's limit: SI 1's limit at cycle 50 does
/// not stop SI 0's bursts past it, only SI 1's first burst; in a block,
/// the earliest limit of the SIs it runs decides whether it goes whole.
#[test]
fn each_burst_meets_its_own_limit() {
    let limited = |si: SiId| SiRate {
        until: (si == SiId(1)).then_some(50),
        ..fixed_rate(si)
    };
    let mut walker = StretchWalker::default();
    // SI 0 at 11 cycles a burst of one runs to 110 before SI 1 shows up.
    let mut bursts = vec![burst(0, 1, 1); 10];
    bursts.push(burst(1, 1, 0));
    let run = BurstRun::new(&bursts, 0, BurstBlocks::EMPTY);
    let (stretch, totals, resolved, _, _) = walk(&mut walker, run, 0, limited, 2);
    assert_eq!(stretch.consumed, 10, "SI 1's burst starts past its limit");
    assert_eq!(stretch.end, Some(110));
    assert_eq!(totals.len(), 1);
    assert_eq!(resolved, vec![SiId(0), SiId(1)], "SI 1 resolved, not run");

    // One indexed block of SI 0 with one SI 1 burst in it ends at 352,
    // its last execution starting at 341, past SI 1's limit: the block is
    // stepped. With SI 1's burst at offset 3 (starting at 33) every burst
    // still fits; at offset 5 (starting at 55) the walk stops there.
    for (offset, want) in [(3, (BLOCK_BURSTS, Some(352))), (5, (5, Some(55)))] {
        let mut block = vec![burst(0, 1, 1); BLOCK_BURSTS];
        block[offset] = burst(1, 1, 0);
        let index = BurstIndex::new([block.as_slice()]);
        let run = BurstRun::new(&block, 0, index.invocation(0));
        let (stretch, ..) = walk(&mut walker, run, 0, limited, 2);
        assert_eq!((stretch.consumed, stretch.end), want, "SI 1 at {offset}");
        // With SI 1's limit past the block's last start, it goes whole.
        let late = |si: SiId| SiRate {
            until: (si == SiId(1)).then_some(342),
            ..fixed_rate(si)
        };
        let (stretch, totals, ..) = walk(&mut walker, run, 0, late, 2);
        assert_eq!((stretch.consumed, stretch.end), (BLOCK_BURSTS, Some(352)));
        assert_eq!(totals[1].executions, 1);
    }
}

/// One walk: bursts as `(SI slot, count, overhead)` over six SI slots,
/// each slot's `(latency, hardware, limit)`, and the start cycle.
type WalkCase = (Vec<(u16, u32, u32)>, Vec<(u32, bool, Option<u64>)>, u64);

/// Draws one walk over six SI slots (a caller maps them to SIs, so
/// libraries reach past 64 SIs), each with a latency, a hardware flag and
/// an optional limit.
fn walk_case() -> impl Strategy<Value = WalkCase> {
    (
        prop::collection::vec((0u16..6, 0u32..4, 0u32..5), 1..3 * BLOCK_BURSTS + 5),
        prop::collection::vec((1u32..50, any::<bool>(), any::<bool>(), 0u64..6_000), 6).prop_map(
            |rates| {
                rates
                    .into_iter()
                    .map(|(latency, hardware, limited, until)| {
                        (latency, hardware, limited.then_some(until))
                    })
                    .collect()
            },
        ),
        0u64..500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A sequence of walks through one reused walker, blocked and
    /// unblocked, against a fresh walker per walk: the same stretch,
    /// totals, resolved SIs, segments and last bursts for every SI of a
    /// library of up to 150 SIs.
    #[test]
    fn a_reused_walker_answers_as_a_fresh_one(
        pool in prop::collection::vec(0u16..150, 6),
        walks in prop::collection::vec(walk_case(), 1..6),
    ) {
        let mut reused = StretchWalker::default();
        for (raw, rates, start) in &walks {
            let bursts: Vec<Burst> = raw
                .iter()
                .map(|&(k, count, overhead)| burst(pool[usize::from(k)], count, overhead))
                .collect();
            let rate = |si: SiId| {
                let k = pool.iter().position(|&p| p == si.0).expect("a pooled SI");
                let (latency, hardware, until) = rates[k];
                SiRate {
                    latency,
                    variant: hardware.then_some(k),
                    until,
                }
            };
            let index = BurstIndex::new([bursts.as_slice()]);
            for blocks in [BurstBlocks::EMPTY, index.invocation(0)] {
                let run = BurstRun::new(&bursts, 0, blocks);
                let got = walk(&mut reused, run, *start, rate, 150);
                let want = walk(&mut StretchWalker::default(), run, *start, rate, 150);
                prop_assert_eq!(&got.0, &want.0);
                prop_assert_eq!(&got.1, &want.1);
                prop_assert_eq!(&got.2, &want.2);
                prop_assert_eq!(&got.3, &want.3);
                prop_assert_eq!(&got.4, &want.4);
                prop_assert!(got.1.windows(2).all(|w| w[0].si < w[1].si), "SI order");
            }
        }
    }

    /// The blocked walk equals the unblocked one under per-SI limits:
    /// a block goes whole only when every burst in it would.
    #[test]
    fn blocks_respect_every_limit_in_them(case in walk_case()) {
        let (raw, rates, start) = case;
        let bursts: Vec<Burst> = raw
            .iter()
            .map(|&(k, count, overhead)| burst(k, count, overhead))
            .collect();
        let rate = |si: SiId| {
            let (latency, hardware, until) = rates[si.index()];
            SiRate {
                latency,
                variant: hardware.then_some(0),
                until,
            }
        };
        let index = BurstIndex::new([bursts.as_slice()]);
        let mut walker = StretchWalker::default();
        let blocked = walk(&mut walker, BurstRun::new(&bursts, 0, index.invocation(0)), start, rate, 6);
        let stepped = walk(&mut walker, BurstRun::new(&bursts, 0, BurstBlocks::EMPTY), start, rate, 6);
        prop_assert_eq!(blocked.0, stepped.0);
        prop_assert_eq!(blocked.1, stepped.1);
        prop_assert_eq!(blocked.3, stepped.3);
    }
}
