//! Counting-allocator harness for the multi-tenant arbiter: the
//! per-plan scratch (demand/expected buffers, scheduler upgrade arenas,
//! used-container masks) is a **single shared arena**, not a per-context
//! copy, so K tenants must not multiply its allocations.
//!
//! Two pins:
//!
//! * The *first* plan round of a K=4 shared-fabric arbiter allocates
//!   strictly less than 4× the first round of a K=1 arbiter — the scratch
//!   arena grows once and is reused warm by the other three tenants. A
//!   per-context scratch would make the two sides equal.
//! * A *steady-state* round at K=4 allocates no more than 4× a
//!   steady-state round at K=1 — per-tenant bookkeeping may scale with K,
//!   shared state must not.
//!
//! All assertions live in one `#[test]` so the global counter is not
//! perturbed by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use rispp_core::{FabricArbiter, SchedulerKind};
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
        .molecule(Molecule::from_counts([0, 1, 0]), 90)
        .unwrap()
        .molecule(Molecule::from_counts([0, 2, 1]), 40)
        .unwrap();
    b.build().unwrap()
}

fn build(library: &SiLibrary, tenants: u16) -> FabricArbiter<'_> {
    FabricArbiter::builder(library)
        .containers(6)
        .tenants(tenants)
        .scheduler(SchedulerKind::Hef)
        .build()
}

/// One full plan round: every tenant enters a hot spot (forecast →
/// selection → schedule), executes, and leaves.
fn round(arbiter: &mut FabricArbiter<'_>, now: &mut u64) {
    let hints = [(SiId(0), 400u64), (SiId(1), 150u64)];
    for app in 0..arbiter.tenants() {
        arbiter
            .enter_hot_spot(app, HotSpotId(app % 2), &hints, *now)
            .unwrap();
        *now += 1_000;
        for _ in 0..50 {
            black_box(arbiter.execute_si(app, SiId(0), *now));
            *now += 100;
        }
        arbiter.exit_hot_spot(app, *now);
        *now += 500;
    }
}

/// The first plan round of a freshly built K-tenant arbiter: this is
/// where the scratch arena grows. Minimum over several fresh arbiters —
/// the libtest harness threads also hit the global counter, and the
/// minimum filters their transient allocations out of a deterministic
/// measurement.
fn first_round_allocations(lib: &SiLibrary, tenants: u16) -> usize {
    (0..5)
        .map(|_| {
            let mut arbiter = build(lib, tenants);
            let mut now = 0u64;
            allocations(|| round(&mut arbiter, &mut now))
        })
        .min()
        .unwrap()
}

#[test]
fn shared_scratch_does_not_multiply_with_tenant_count() {
    let lib = library();

    // Throwaway run to pay one-time lazy initialisation (allocator
    // internals, library lookups) before any measurement.
    {
        let mut warm = build(&lib, 1);
        let mut now = 0u64;
        round(&mut warm, &mut now);
    }

    // First plan round after build: shared arena → K=4 grows it once,
    // not four times. A per-context scratch would make first4 ≥ 4×first1.
    let first1 = first_round_allocations(&lib, 1);
    let first4 = first_round_allocations(&lib, 4);

    assert!(first1 > 0, "counter failed to observe the first plan round");
    assert!(
        first4 < 4 * first1,
        "first K=4 round allocated {first4}, expected < 4×{first1}: \
         the plan scratch is being grown per context instead of shared"
    );

    // Steady state: everything is warm; per-tenant bookkeeping may cost
    // up to K× the single-tenant round, shared state must add nothing.
    let mut a1 = build(&lib, 1);
    let mut now1 = 0u64;
    let mut a4 = build(&lib, 4);
    let mut now4 = 0u64;
    for _ in 0..4 {
        round(&mut a1, &mut now1);
        round(&mut a4, &mut now4);
    }
    let steady1 = (0..5)
        .map(|_| allocations(|| round(&mut a1, &mut now1)))
        .min()
        .unwrap();
    let steady4 = (0..5)
        .map(|_| allocations(|| round(&mut a4, &mut now4)))
        .min()
        .unwrap();
    assert!(
        steady4 <= 4 * steady1.max(1),
        "steady K=4 round allocated {steady4}, steady K=1 round {steady1}"
    );
}
