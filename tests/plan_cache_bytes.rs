//! Live-bytes pin for the plan cache: what one memoised decision costs
//! on the heap. The 6-frame H.264 trace under the four schedulers at
//! 5..=20 Atom Containers (the job list of `end_to_end.rs`'s shared-cache
//! test) fills one shared cache with 1,152 plans; the bytes the cache
//! holds afterwards, shard maps and slot lists included, divided by its
//! entries must stay within [`MAX_BYTES_PER_ENTRY`]. The packed entries
//! cost 223 bytes each here; with the key as one word per field and the
//! selection, Atom sequence and supremum held apart they cost 492. A
//! change to the entry or key layout that fattens every entry fails here.
//!
//! All measurements live in one `#[test]` so the global counter is not
//! perturbed by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use rispp::core::{PlanCache, PlanCacheHandle, SchedulerKind};
use rispp::h264::{h264_si_library, EncoderConfig, EncoderWorkload};
use rispp::sim::{simulate_observed_planned, SimConfig};

/// Most live heap bytes one cache entry may cost.
const MAX_BYTES_PER_ENTRY: f64 = 250.0;

/// Forwards to the system allocator, keeping the requested bytes of
/// every live allocation.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn size(layout: Layout) -> isize {
    isize::try_from(layout.size()).expect("an allocation fits isize")
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_size_signed = isize::try_from(new_size).expect("an allocation fits isize");
        LIVE.fetch_add(new_size_signed - size(layout), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(size(layout), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn a_cache_entry_costs_at_most_250_live_heap_bytes() {
    let library = h264_si_library();
    let mut encoder = EncoderConfig::paper_cif();
    encoder.frames = 6;
    let workload = EncoderWorkload::generate(&encoder);
    let jobs: Vec<SimConfig> = SchedulerKind::ALL
        .into_iter()
        .flat_map(|kind| (5u16..=20).map(move |acs| SimConfig::rispp(acs, kind)))
        .collect();
    let fill = |cache: &Arc<PlanCache>| {
        let handle = PlanCacheHandle::new(Arc::clone(cache));
        for job in &jobs {
            let _ =
                simulate_observed_planned(&library, workload.trace(), job, Some(&handle), &mut []);
        }
    };
    // A first pass builds whatever the replay keeps beside the cache (the
    // trace's burst index), so the measured pass adds only cache entries.
    fill(&Arc::new(PlanCache::default()));

    let cache = Arc::new(PlanCache::default());
    let before = LIVE.load(Ordering::Relaxed);
    fill(&cache);
    let bytes = LIVE.load(Ordering::Relaxed) - before;
    let entries = cache.len();
    assert!(entries > 1_000, "{entries} entries");
    let per_entry = bytes as f64 / entries as f64;
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "{per_entry:.1} live heap bytes per entry ({bytes} for {entries})"
    );
}
