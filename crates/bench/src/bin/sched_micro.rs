//! Scheduler-path microbenchmarks: isolates the cost of one hot-spot
//! entry (the paper's "decide within a fraction of one Atom load"
//! requirement) into Molecule selection, Atom scheduling per scheduler,
//! and the full [`FabricArbiter::enter_hot_spot`] pipeline.
//!
//! Usage: `sched_micro [iterations]` (default 2000).

use std::time::Instant;

use rispp_core::{
    FabricArbiter, GreedySelector, PlanCacheHandle, ScheduleRequest, SchedulerKind,
    SelectionRequest, UpgradeBuffers,
};
use rispp_h264::{h264_si_library, HotSpot, SiKind};
use rispp_model::{Molecule, SiId};

/// Design-time per-macroblock demand estimates for a CIF frame (396 MBs),
/// matching `EncoderWorkload`'s hint table.
fn demands() -> Vec<(SiId, u64)> {
    let mb = 396u64;
    vec![
        (SiKind::Sad.id(), 45 * mb),
        (SiKind::Satd.id(), 25 * mb),
        (SiKind::Dct.id(), 24 * mb),
        (SiKind::Ht2x2.id(), 2 * mb),
        (SiKind::Ht4x4.id(), mb / 4),
        (SiKind::Mc.id(), mb),
        (SiKind::IPredHdc.id(), mb / 8),
        (SiKind::IPredVdc.id(), mb / 8),
        (SiKind::LfBs4.id(), 6 * mb),
    ]
}

fn bench<F: FnMut()>(label: &str, iters: u32, mut f: F) -> f64 {
    // Warm-up.
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(iters);
    println!("{label:32} {ns:10.0} ns/op");
    ns
}

fn main() {
    let iters: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2000);
    let library = h264_si_library();
    let demands = demands();
    let containers = 20u16;

    // Molecule selection alone.
    let sel_req = SelectionRequest::new(&library, &demands, containers);
    let mut sink = 0usize;
    bench("GreedySelector::select", iters, || {
        sink += GreedySelector.select(&sel_req).len();
    });

    // Each scheduler on the selection, cold fabric, reused buffers.
    let selected = GreedySelector.select(&sel_req);
    let expected: Vec<u64> = {
        let mut v = vec![0u64; library.len()];
        for &(si, e) in &demands {
            v[si.index()] = e;
        }
        v
    };
    let mut buffers = UpgradeBuffers::new();
    for kind in SchedulerKind::ALL {
        let scheduler = kind.create();
        let label = format!("schedule_with ({})", kind.abbreviation());
        bench(&label, iters, || {
            let request = ScheduleRequest::new(
                &library,
                selected.clone(),
                Molecule::zero(library.arity()),
                expected.clone(),
            )
            .expect("request is valid");
            let schedule = scheduler.schedule_with(&request, &mut buffers);
            sink += schedule.len();
            buffers.reclaim(schedule);
        });
    }

    // The full hot-spot entry pipeline, alternating between two hot spots
    // so each entry re-plans against the other's leftover fabric state.
    let mut mgr = FabricArbiter::builder(&library)
        .containers(containers)
        .build();
    let hints = demands;
    let mut now = 0u64;
    bench("FabricArbiter::enter_hot_spot", iters, || {
        let hs = if now.is_multiple_of(2) {
            HotSpot::MotionEstimation.id()
        } else {
            HotSpot::EncodingEngine.id()
        };
        mgr.enter_hot_spot(0, hs, &hints, now * 1000)
            .expect("valid");
        now += 1;
    });

    // Plan-cache cold vs warm: identical pinned-profile entries (the
    // oracle path, so the evolving forecast cannot perturb the key) with
    // a dwell long enough for every scheduled load to complete — planned
    // from scratch on every entry vs replayed from a steady-state hit.
    let dwell = 10_000_000u64;
    let mut cold_mgr = FabricArbiter::builder(&library)
        .containers(containers)
        .build();
    let mut now = 0u64;
    bench("enter_with_profile (cold plan)", iters, || {
        cold_mgr
            .enter_hot_spot_with_profile(0, HotSpot::MotionEstimation.id(), &hints, now)
            .expect("valid");
        now += dwell;
        cold_mgr.exit_hot_spot(0, now);
        now += 100;
    });
    let mut warm_mgr = FabricArbiter::builder(&library)
        .containers(containers)
        .plan_cache(PlanCacheHandle::default())
        .build();
    let mut now = 0u64;
    bench("enter_with_profile (warm plan)", iters, || {
        warm_mgr
            .enter_hot_spot_with_profile(0, HotSpot::MotionEstimation.id(), &hints, now)
            .expect("valid");
        now += dwell;
        warm_mgr.exit_hot_spot(0, now);
        now += 100;
    });
    let stats = warm_mgr.plan_cache_stats();
    let rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64 * 100.0;
    println!(
        "plan cache: {} hits / {} misses ({rate:.1}% hit rate)",
        stats.hits, stats.misses
    );

    // Keep the sink observable so the optimiser cannot delete the loops.
    assert!(sink > 0);
}
