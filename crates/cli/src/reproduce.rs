//! `rispp-cli reproduce <experiment>`: one command per table and figure of
//! the paper's evaluation, plus the ablations, the resilience curve and the
//! generality check beyond video.

use std::fmt::Write as _;
use std::process::ExitCode;

use rispp_apps::audio::{audio_si_library, generate_filterbank_workload, FilterbankConfig};
use rispp_apps::crypto::{crypto_si_library, generate_gateway_workload, GatewayConfig};
use rispp_core::{PlanCacheHandle, SchedulerKind};
use rispp_h264::SiKind;
use rispp_model::SiLibrary;
use rispp_sim::{simulate, FaultConfig, SimConfig, SweepRunner, Trace};

use crate::args::Options;
use crate::commands::fail;
use crate::experiments::{
    ablation_bandwidth, ablation_forecast, fig2_upgrade_comparison, fig4_schedules, fig5_paths,
    fig8_detail, quick_workload, resilience_sweep, scheduler_sweep_observed, table1_inventory,
    table3_hardware, AC_SWEEP, FAULT_RATE_LADDER_PPM,
};
use crate::report;

/// One experiment: its name, the options it takes, and its runner.
type Experiment = (
    &'static str,
    &'static [&'static str],
    fn(&Options) -> Result<(), String>,
);

const EXPERIMENTS: [Experiment; 10] = [
    ("fig2", &["frames"], fig2),
    ("fig4", &[], fig4),
    ("fig5", &[], fig5),
    ("fig7", &["frames", "json"], fig7),
    ("fig8", &[], fig8),
    ("table1", &[], table1),
    ("table3", &[], table3),
    ("ablations", &["frames"], ablations),
    ("resilience", &["frames", "json"], resilience),
    ("generality", &[], generality),
];

/// `rispp-cli reproduce
/// <fig2|fig4|fig5|fig7|fig8|table1|table3|ablations|resilience|generality>
/// [--frames N] [--json PATH]`.
pub fn reproduce(args: &[String]) -> ExitCode {
    let names = || EXPERIMENTS.map(|(name, _, _)| name).join(" | ");
    let Some((name, rest)) = args.split_first() else {
        return fail(&format!("reproduce needs an experiment: {}", names()));
    };
    let Some(&(_, known, run)) = EXPERIMENTS.iter().find(|(n, _, _)| n == name) else {
        return fail(&format!(
            "unknown experiment `{name}`: expected {}",
            names()
        ));
    };
    match Options::parse(rest, known).and_then(|options| run(&options)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// The `--json PATH` record destination, if one was asked for.
fn json_path(options: &Options) -> Result<Option<&str>, String> {
    if options.flag("json") {
        return Err("--json needs a PATH".into());
    }
    Ok(options.value("json"))
}

fn write_record(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Figure 2: ME hot-spot SI executions per 100 K cycles, with vs. without
/// stepwise SI upgrade, on a cold fabric with 7 ACs. The paper plots
/// roughly one cold ME run plus its successor, hence 4 frames.
fn fig2(options: &Options) -> Result<(), String> {
    let workload = quick_workload(options.number("frames", 4)?);
    let (with, without) = fig2_upgrade_comparison(workload.trace(), 7);
    println!(
        "ME executions: {} (paper: 31,977 for one hot-spot run)",
        with.total_executions()
    );
    println!("{}", report::fig2_series(&with, &without, 24));
    Ok(())
}

/// Figure 4: Molecule availability after each Atom load for a good vs. a
/// bad schedule.
fn fig4(_: &Options) -> Result<(), String> {
    let (good, bad) = fig4_schedules();
    println!("{}", report::fig4_table(&good, &bad));
    Ok(())
}

/// Figure 5: the FSFR/ASF/SJF/HEF upgrade paths for two SIs.
fn fig5(_: &Options) -> Result<(), String> {
    println!("{}", report::fig5_table(&fig5_paths()));
    Ok(())
}

/// Figure 7 and Table 2: execution time vs. #Atom Containers per
/// scheduler, and the speedups derived from it (default 140 frames, the
/// paper's setting). `--json` writes the sweep's cycle pin — frame count,
/// job count and total simulated cycles. Throughput is measured by the
/// standalone benchmark's `fig7` workload, not here.
fn fig7(options: &Options) -> Result<(), String> {
    let frames: u32 = options.number("frames", 140)?;
    let json = json_path(options)?;
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
    let jobs = 1 + AC_SWEEP.count() * (SchedulerKind::ALL.len() + 1);
    eprintln!(
        "sweeping {AC_SWEEP:?} ACs x 4 schedulers + Molen ({jobs} simulations) on {} thread(s)...",
        runner.threads()
    );
    let sweep = scheduler_sweep_observed(&runner, workload.trace(), AC_SWEEP, |done, total| {
        eprint!("\r  {done}/{total} simulations");
        if done == total {
            eprintln!();
        }
    });
    println!("{}", report::fig7_table(&sweep));
    println!("{}", report::table2(&sweep));

    if let Some(path) = json {
        let simulated_cycles: u64 = sweep.software_cycles
            + sweep
                .points
                .iter()
                .map(|p| p.cycles.iter().sum::<u64>() + p.molen_cycles)
                .sum::<u64>();
        write_record(
            path,
            &format!(
                "{{\n  \"benchmark\": \"fig7_scheduler_sweep\",\n  \"frames\": {frames},\n  \"jobs\": {jobs},\n  \"simulated_cycles\": {simulated_cycles}\n}}\n"
            ),
        )?;
    }
    Ok(())
}

/// Figure 8: detailed HEF behaviour (per-SI latency steps and execution
/// frequency) for the first two hot spots — Motion Estimation and
/// Encoding Engine — of one encoded frame at 10 ACs.
fn fig8(_: &Options) -> Result<(), String> {
    // Frame 0 is the all-intra anchor frame; the paper's figure covers the
    // ME and EE hot spots of a P frame, so replay frame 1's ME + EE on a
    // cold fabric.
    let workload = quick_workload(2);
    let invocations = workload.trace().invocations()[3..=4].to_vec();
    let stats = fig8_detail(&Trace::from_invocations(invocations), 10);
    let sis = [
        (SiKind::Sad.id(), "SAD"),
        (SiKind::Satd.id(), "SATD"),
        (SiKind::Mc.id(), "MC"),
        (SiKind::Dct.id(), "DCT"),
    ];
    println!("{}", report::fig8_table(&stats, &sis, 24));
    Ok(())
}

/// Table 1: the implemented H.264 Special Instructions.
fn table1(_: &Options) -> Result<(), String> {
    println!("{}", report::table1(&table1_inventory()));
    Ok(())
}

/// Table 3: hardware implementation results of the HEF scheduler (paper
/// synthesis numbers, parametric model, FSM timing).
fn table3(_: &Options) -> Result<(), String> {
    let (paper, estimate, fsm) = table3_hardware();
    println!("{}", report::table3(&paper, &estimate, &fsm));
    Ok(())
}

/// Ablation studies beyond the paper: forecast policy (including the
/// perfect-knowledge oracle of Section 4.2) and reconfiguration-bandwidth
/// sweeps, on HEF with 15 ACs (default 30 frames).
fn ablations(options: &Options) -> Result<(), String> {
    let workload = quick_workload(options.number("frames", 30)?);
    let forecast = ablation_forecast(workload.trace(), 15);
    println!(
        "{}",
        report::ablation_table("Ablation: forecast policy (HEF, 15 ACs)", &forecast)
    );
    let bw: Vec<(String, u64)> = ablation_bandwidth(workload.trace(), 15)
        .into_iter()
        .map(|(mbps, cycles)| (format!("{mbps} MB/s"), cycles))
        .collect();
    println!(
        "{}",
        report::ablation_table("Ablation: reconfiguration bandwidth (HEF, 15 ACs)", &bw)
    );
    Ok(())
}

/// Atom Containers of the resilience curve's HEF system.
const RESILIENCE_CONTAINERS: u16 = 15;

/// Seeds averaged per fault rate: one seed is a single sample of the fault
/// process; five smooth the curve into its expected shape.
const RESILIENCE_SEEDS: [u64; 5] = [
    FaultConfig::DEFAULT_SEED,
    0x5EED_0001,
    0x5EED_0002,
    0x5EED_0003,
    0x5EED_0004,
];

/// The resilience curve: HEF speedup over pure software as the uniform
/// fault rate rises, together with the self-healing counters (default 20
/// frames). `--json` writes the sweep's record. Fails when the curve does
/// not degrade gracefully.
fn resilience(options: &Options) -> Result<(), String> {
    let frames: u32 = options.number("frames", 20)?;
    let json = json_path(options)?;
    eprintln!("encoding {frames} CIF frames...");
    let workload = quick_workload(frames);
    let runner = SweepRunner::from_env();
    eprintln!(
        "sweeping {} fault rates x {} seeds on HEF/{RESILIENCE_CONTAINERS} ACs on {} thread(s)...",
        FAULT_RATE_LADDER_PPM.len(),
        RESILIENCE_SEEDS.len(),
        runner.threads()
    );
    let sweep = resilience_sweep(
        &runner,
        workload.trace(),
        RESILIENCE_CONTAINERS,
        &FAULT_RATE_LADDER_PPM,
        &RESILIENCE_SEEDS,
    );

    println!(
        "software floor: {} cycles ({:.1} M)",
        sweep.software_cycles,
        sweep.software_cycles as f64 / 1e6
    );
    println!("  fault rate   speedup    faults   retries  quarantined  degraded");
    for p in &sweep.points {
        println!(
            "  {:>10.4}{:>10.2}x{:>10}{:>10}{:>13}{:>10}",
            f64::from(p.rate_ppm) / 1e6,
            p.speedup_vs_software,
            p.faults_injected,
            p.load_retries,
            p.containers_quarantined,
            p.degraded_to_software
        );
    }
    let graceful = sweep.is_gracefully_degrading();
    println!(
        "graceful degradation (monotone, >= 1.00x floor): {}",
        if graceful { "yes" } else { "NO" }
    );

    if let Some(path) = json {
        let mut points = String::new();
        for (i, p) in sweep.points.iter().enumerate() {
            let _ = write!(
                points,
                "{}    {{\"fault_rate_ppm\": {}, \"total_cycles\": {}, \"speedup_vs_software\": {:.4}, \
                 \"faults_injected\": {}, \"load_retries\": {}, \"containers_quarantined\": {}, \
                 \"degraded_to_software\": {}, \"fault_cycles_lost\": {}}}",
                if i == 0 { "" } else { ",\n" },
                p.rate_ppm,
                p.total_cycles,
                p.speedup_vs_software,
                p.faults_injected,
                p.load_retries,
                p.containers_quarantined,
                p.degraded_to_software,
                p.fault_cycles_lost
            );
        }
        write_record(
            path,
            &format!(
                "{{\n  \"benchmark\": \"resilience_fault_sweep\",\n  \"frames\": {frames},\n  \
                 \"containers\": {RESILIENCE_CONTAINERS},\n  \"scheduler\": \"HEF\",\n  \"threads\": {},\n  \
                 \"seeds_per_rate\": {},\n  \"software_cycles\": {},\n  \"graceful_degradation\": {graceful},\n  \
                 \"points\": [\n{points}\n  ]\n}}\n",
                runner.threads(),
                RESILIENCE_SEEDS.len(),
                sweep.software_cycles,
            ),
        )?;
    }
    if graceful {
        Ok(())
    } else {
        Err("the resilience curve does not degrade gracefully".into())
    }
}

/// Beyond video, the paper's "the concept is by no means limited to"
/// claim: the unmodified run-time system on the AES packet gateway (the
/// default traffic mix on 8 ACs, every scheduler) and on the audio
/// filterbank (the tiny configuration on 5 ACs, HEF), each against pure
/// software and the Molen-like baseline. Only the SI library and the
/// workload change.
fn generality(_: &Options) -> Result<(), String> {
    let library = crypto_si_library();
    print_library("gateway", &library);
    println!("\nencrypting and checksumming the synthetic traffic mix...");
    let (trace, checksum) = generate_gateway_workload(&GatewayConfig::default_mix());
    println!(
        "  {} hot-spot invocations, {} SI executions, ciphertext checksum {checksum:08x}",
        trace.len(),
        trace.total_si_executions()
    );
    print_replays(&library, &trace, 8, &SchedulerKind::ALL);

    let library = audio_si_library();
    println!();
    print_library("filterbank", &library);
    println!("\nfiltering the synthesised audio...");
    let (trace, energy) = generate_filterbank_workload(&FilterbankConfig::tiny());
    println!(
        "  {} hot-spot invocations, {} SI executions, output energy {energy}",
        trace.len(),
        trace.total_si_executions()
    );
    print_replays(&library, &trace, 5, &[SchedulerKind::Hef]);
    Ok(())
}

/// Lists each SI of `library` with its software latency and Molecule
/// count.
fn print_library(name: &str, library: &SiLibrary) {
    println!("{name} SI library:");
    for si in library.iter() {
        println!(
            "  {:<14} sw {:>5} cycles, {} molecules",
            si.name(),
            si.software_latency(),
            si.molecule_count()
        );
    }
}

/// Replays `trace` in pure software, on Molen and on RISPP with each of
/// `schedulers`, all with `containers` Atom Containers.
fn print_replays(
    library: &SiLibrary,
    trace: &Trace,
    containers: u16,
    schedulers: &[SchedulerKind],
) {
    let cycles = |config: SimConfig| simulate(library, trace, &config).total_cycles as f64;
    println!("\nreplaying on {containers} Atom Containers:");
    let software = cycles(SimConfig::software_only());
    println!("  pure software  {:>7.1} M cycles", software / 1e6);
    let molen = cycles(SimConfig::molen(containers));
    println!(
        "  Molen-like     {:>7.1} M cycles ({:.2}x)",
        molen / 1e6,
        software / molen
    );
    for &kind in schedulers {
        let rispp = cycles(SimConfig::rispp(containers, kind));
        println!(
            "  RISPP {:<6}   {:>7.1} M cycles ({:.2}x vs software, {:.2}x vs Molen)",
            kind.abbreviation(),
            rispp / 1e6,
            software / rispp,
            molen / rispp
        );
    }
}
