//! Counting-allocator pin for the plan cache: once a hot spot reaches
//! steady state (its Atoms loaded, its forecast stable, its schedule
//! empty), re-entering it is a cache *hit* that replays the memoised
//! decision with **zero heap allocations** — the key is built into a
//! reused scratch buffer, the lookup compares slices in place, and the
//! replay clones into retained capacity.
//!
//! All assertions live in one `#[test]` so the global counter is not
//! perturbed by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use rispp_core::{FabricArbiter, PlanCacheHandle, SchedulerKind};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;

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
        .molecule(Molecule::from_counts([0, 1, 1]), 90)
        .unwrap();
    b.build().unwrap()
}

#[test]
fn steady_state_plan_cache_hits_allocate_nothing() {
    let lib = library();
    let demands = [(SiId(0), 400u64), (SiId(1), 150u64)];
    let handle = PlanCacheHandle::private();
    let mut mgr = FabricArbiter::builder(&lib)
        .containers(4)
        .scheduler(SchedulerKind::Hef)
        .plan_cache(handle.clone())
        .build();

    // Reach steady state: the demand profile is pinned (oracle path, so
    // the evolving forecast cannot perturb the key), the first rounds
    // load every Atom of the selection, and once the fabric carries the
    // supremum the memoised schedule is empty.
    let mut now = 0u64;
    for _ in 0..6 {
        mgr.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, now)
            .unwrap();
        now += 1_000;
        for _ in 0..50 {
            black_box(mgr.execute_si(0, SiId(0), now));
            now += 150;
        }
        mgr.exit_hot_spot(0, now);
        now += 500;
    }
    let warm = mgr.plan_cache_stats();
    assert!(warm.hits > 0, "warm-up must already replay plans: {warm:?}");

    // Steady state: every re-entry is a verified hit. Minimum over
    // several rounds filters transient allocations of the libtest
    // harness threads out of the measurement.
    let mut hit_allocs = usize::MAX;
    for _ in 0..5 {
        mgr.exit_hot_spot(0, now);
        now += 500;
        let a = allocations(|| {
            mgr.enter_hot_spot_with_profile(0, HotSpotId(0), &demands, now)
                .unwrap();
        });
        now += 1_000;
        hit_allocs = hit_allocs.min(a);
    }
    let steady = mgr.plan_cache_stats();
    assert!(
        steady.hits >= warm.hits + 5,
        "every measured re-entry must be a hit: {steady:?} vs {warm:?}"
    );
    assert_eq!(
        hit_allocs, 0,
        "a steady-state plan-cache hit must not touch the heap"
    );
}
