//! Regenerates Figure 7: execution time vs. #Atom Containers per scheduler.
//!
//! Usage: `fig7 [frames] [--json [PATH]]` (default 140 frames, the paper's
//! setting). With `--json` a machine-readable benchmark record of the sweep
//! — wall-clock, worker threads, simulated cycles and throughput — is
//! written to `PATH` (default `BENCH_sweep.json`).

use std::time::Instant;

use rispp_bench::experiments::{quick_workload, scheduler_sweep_observed, AC_SWEEP};
use rispp_bench::report::fig7_table;
use rispp_core::{PlanCacheHandle, SchedulerKind};
use rispp_sim::SweepRunner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut frames: u32 = 140;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            let path = args
                .get(i + 1)
                .filter(|a| !a.starts_with("--"))
                .cloned();
            if path.is_some() {
                i += 1;
            }
            json_path = Some(path.unwrap_or_else(|| "BENCH_sweep.json".to_string()));
        } else if let Ok(n) = args[i].parse() {
            frames = n;
        } else {
            eprintln!("usage: fig7 [frames] [--json [PATH]]");
            std::process::exit(2);
        }
        i += 1;
    }

    eprintln!("encoding {frames} CIF frames...");
    let workload = quick_workload(frames);
    let s = workload.summary();
    eprintln!(
        "workload: {} SI executions, {:.0} ME executions/frame, PSNR {:.1} dB",
        workload.trace().total_si_executions(),
        s.me_executions_per_frame,
        s.mean_psnr_y
    );
    // Cross-job plan cache (results stay bit-identical at any thread
    // count; only how often the planner actually runs changes).
    let runner = SweepRunner::from_env().with_plan_cache(PlanCacheHandle::default());
    let ac_count = AC_SWEEP.clone().count();
    let jobs = 1 + ac_count * (SchedulerKind::ALL.len() + 1);
    eprintln!(
        "sweeping {AC_SWEEP:?} ACs x 4 schedulers + Molen ({jobs} simulations) on {} thread(s)...",
        runner.threads()
    );
    let started = Instant::now();
    let sweep = scheduler_sweep_observed(&runner, workload.trace(), AC_SWEEP, |done, total| {
        eprint!("\r  {done}/{total} simulations");
        if done == total {
            eprintln!();
        }
    });
    let wall = started.elapsed();
    println!("{}", fig7_table(&sweep));
    println!("{}", rispp_bench::report::table2(&sweep));

    if let Some(path) = json_path {
        let simulated_cycles: u64 = sweep.software_cycles
            + sweep
                .points
                .iter()
                .map(|p| p.cycles.iter().sum::<u64>() + p.molen_cycles)
                .sum::<u64>();
        let wall_s = wall.as_secs_f64();
        let json = format!(
            "{{\n  \"benchmark\": \"fig7_scheduler_sweep\",\n  \"frames\": {frames},\n  \"threads\": {},\n  \"jobs\": {jobs},\n  \"wall_clock_s\": {wall_s:.6},\n  \"simulated_cycles\": {simulated_cycles},\n  \"simulated_cycles_per_s\": {:.0},\n  \"jobs_per_s\": {:.3}\n}}\n",
            runner.threads(),
            simulated_cycles as f64 / wall_s.max(1e-9),
            jobs as f64 / wall_s.max(1e-9),
        );
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
