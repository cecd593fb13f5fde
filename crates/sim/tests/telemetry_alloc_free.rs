//! Counting-allocator harness for the telemetry hot path: attaching a
//! [`NullRecorder`] to a simulation must add **zero** heap allocations
//! over the bare run. The recorder is the default sink when no telemetry
//! output was requested, so any allocation here would tax every
//! simulation — including the fig7 throughput gate. A warm
//! `FlightRecorder` or `MetricsObserver` reused for another run must not
//! allocate either.
//!
//! The engine's own allocations are deterministic (same trace, same
//! config, same arena growth), so the test runs the bare simulation and
//! the observed one and asserts the counts are identical.
//!
//! All assertions live in one `#[test]` so the global counter is not
//! perturbed by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use rispp_core::SchedulerKind;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate, simulate_observed, Burst, FlightRecorder, Invocation, MetricsObserver, NullRecorder,
    SimConfig, SimObserver, Trace,
};

/// Forwards to the system allocator, counting every allocation path
/// (`alloc`, `alloc_zeroed`, `realloc`).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

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
    b.build().unwrap()
}

fn trace(frames: usize) -> Trace {
    (0..frames)
        .map(|f| Invocation {
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
                    overhead: 15,
                },
            ],
            hints: vec![(SiId(0), 400), (SiId(1), 150)],
        })
        .collect()
}

#[test]
fn null_recorder_adds_zero_allocations() {
    let lib = library();
    let t = trace(6);
    let config = SimConfig::rispp(3, SchedulerKind::Hef);

    // Warm up: the first run pays one-time lazy initialisation inside the
    // allocator and the library lookups; compare steady-state runs only.
    black_box(simulate(&lib, &t, &config));
    let mut null = NullRecorder::new();
    {
        let mut extra: [&mut dyn SimObserver; 1] = [&mut null];
        black_box(simulate_observed(&lib, &t, &config, &mut extra));
    }

    let bare = allocations(|| {
        black_box(simulate(&lib, &t, &config));
    });
    let observed = allocations(|| {
        let mut extra: [&mut dyn SimObserver; 1] = [&mut null];
        black_box(simulate_observed(&lib, &t, &config, &mut extra));
    });
    assert_eq!(
        observed, bare,
        "a NullRecorder must not add a single allocation to the hot path"
    );

    // A FlightRecorder with explain off (the default, so no boxed
    // decision payloads reach it) must also be alloc-free in steady
    // state: its rings are pre-allocated at construction and overwrite
    // oldest entries in place.
    let mut recorder = FlightRecorder::new();
    {
        let mut extra: [&mut dyn SimObserver; 1] = [&mut recorder];
        black_box(simulate_observed(&lib, &t, &config, &mut extra));
    }
    let recorded = allocations(|| {
        let mut extra: [&mut dyn SimObserver; 1] = [&mut recorder];
        black_box(simulate_observed(&lib, &t, &config, &mut extra));
    });
    assert_eq!(
        recorded, bare,
        "a FlightRecorder must be alloc-free once its rings are warm"
    );
    assert!(
        !recorder.events().is_empty(),
        "the recorder retained nothing — the steady-state claim is vacuous"
    );

    // A MetricsObserver reused for a second run adds to per-SI tallies
    // that kept their capacity and folds them into series that already
    // exist: that run allocates nothing the bare run does not.
    let mut metrics = MetricsObserver::new();
    {
        let mut extra: [&mut dyn SimObserver; 1] = [&mut metrics];
        black_box(simulate_observed(&lib, &t, &config, &mut extra));
    }
    let metered = allocations(|| {
        let mut extra: [&mut dyn SimObserver; 1] = [&mut metrics];
        black_box(simulate_observed(&lib, &t, &config, &mut extra));
    });
    assert_eq!(
        metered, bare,
        "a warm MetricsObserver must not allocate in a second run"
    );
    assert_eq!(
        metrics
            .snapshot()
            .counter("rispp_si_executions_total{si=\"0\"}"),
        2 * t
            .invocations()
            .iter()
            .map(|inv| u64::from(inv.bursts[0].count))
            .sum::<u64>(),
        "both runs were metered"
    );

    // Sanity check that the counter observes heap traffic at all.
    assert!(bare > 0, "counter failed to observe the engine's arenas");
}
