//! Plan-cache microbenchmark: the cost of one hot-spot entry planned
//! from scratch vs replayed from a steady-state [`PlanCache`] hit, plus
//! the observed hit rate of the steady-state workload.
//!
//! The workload re-enters one pinned-profile hot spot (the oracle path,
//! so the evolving forecast cannot perturb the plan key) with a dwell
//! long enough for every scheduled Atom load to complete: after the
//! first few entries the fabric state cycles exactly, so every further
//! entry replays the memoised decision. The bench fails (exit 1) if the
//! steady-state hit rate drops below 70% — the regression gate for the
//! committed `BENCH_plan.json`.
//!
//! Usage: `plan_cache [iterations] [--json [PATH]]` (default 4000
//! iterations; `PATH` defaults to `BENCH_plan.json`).
//!
//! [`PlanCache`]: rispp_core::PlanCache

use std::time::Instant;

use rispp_core::{PlanCacheHandle, PlanCacheStats, RunTimeManager};
use rispp_h264::{h264_si_library, HotSpot, SiKind};
use rispp_model::{SiId, SiLibrary};

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

/// Runs `iters` timed pinned-profile entries on `mgr` after `warmup`
/// untimed ones, returning ns per entry.
fn run_entries(
    mgr: &mut RunTimeManager<'_>,
    demands: &[(SiId, u64)],
    warmup: u32,
    iters: u32,
) -> f64 {
    let dwell = 10_000_000u64;
    let mut now = 0u64;
    let hs = HotSpot::MotionEstimation.id();
    for _ in 0..warmup {
        mgr.enter_hot_spot_with_profile(hs, demands, now).expect("valid profile");
        now += dwell;
        mgr.exit_hot_spot(now);
        now += 100;
    }
    let t = Instant::now();
    for _ in 0..iters {
        mgr.enter_hot_spot_with_profile(hs, demands, now).expect("valid profile");
        now += dwell;
        mgr.exit_hot_spot(now);
        now += 100;
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn build(library: &SiLibrary, cache: Option<PlanCacheHandle>) -> RunTimeManager<'_> {
    let mut b = RunTimeManager::builder(library).containers(20);
    if let Some(handle) = cache {
        b = b.plan_cache(handle);
    }
    b.build()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters: u32 = 4000;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            let path = args.get(i + 1).filter(|a| !a.starts_with("--")).cloned();
            if path.is_some() {
                i += 1;
            }
            json_path = Some(path.unwrap_or_else(|| "BENCH_plan.json".to_string()));
        } else if let Ok(n) = args[i].parse() {
            iters = n;
        } else {
            eprintln!("usage: plan_cache [iterations] [--json [PATH]]");
            std::process::exit(2);
        }
        i += 1;
    }

    let library = h264_si_library();
    let demands = demands();
    let warmup = iters / 10 + 1;

    let mut cold = build(&library, None);
    let cold_ns = run_entries(&mut cold, &demands, warmup, iters);
    println!("cold plan (no cache):   {cold_ns:10.0} ns/entry");

    let mut warm = build(&library, Some(PlanCacheHandle::default()));
    let warm_ns = run_entries(&mut warm, &demands, warmup, iters);
    let stats: PlanCacheStats = warm.plan_cache_stats();
    let lookups = stats.hits + stats.misses;
    let hit_rate = stats.hits as f64 / (lookups.max(1)) as f64;
    println!("warm plan (cache hit):  {warm_ns:10.0} ns/entry");
    println!(
        "speedup {:.2}x, {} hits / {} misses ({:.1}% hit rate)",
        cold_ns / warm_ns.max(1e-9),
        stats.hits,
        stats.misses,
        hit_rate * 100.0
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"benchmark\": \"plan_cache\",\n  \"iterations\": {iters},\n  \
             \"cold_ns_per_entry\": {cold_ns:.0},\n  \
             \"warm_ns_per_entry\": {warm_ns:.0},\n  \"speedup\": {:.3},\n  \
             \"hits\": {},\n  \"misses\": {},\n  \"insertions\": {},\n  \
             \"hit_rate\": {hit_rate:.4}\n}}\n",
            cold_ns / warm_ns.max(1e-9),
            stats.hits,
            stats.misses,
            stats.insertions,
        );
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if hit_rate < 0.7 {
        eprintln!(
            "error: steady-state hit rate {:.1}% is below the 70% floor",
            hit_rate * 100.0
        );
        std::process::exit(1);
    }
}
