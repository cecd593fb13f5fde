//! The three batch workloads: `fig7`, `faults-tenants` and `observed`.
//! Each runs a fixed job list per pass; the untraced run times passes and
//! jobs from outside the library's sweep entry points, the traced run
//! replays the same jobs through the timing shim.

use std::sync::Mutex;
use std::time::Instant;

use rispp_core::{PlanCacheHandle, SchedulerKind};
use rispp_h264::{h264_si_library, FrameReport};
use rispp_model::SiLibrary;
use rispp_serve::job::fnv1a;
use rispp_sim::{
    simulate, simulate_multi, simulate_observed_planned, FaultConfig, FlightRecorder,
    MetricsObserver, MultiRunStats, PerfettoTraceObserver, RunStats, SimConfig, SimEvent,
    SimObserver, SweepJob, SweepRunner, TenancyConfig, TenantArbitration, TenantPolicy, Trace,
    TraceContext,
};

use crate::layers::{layers_json, simulate_traced, Layers, Tracer};
use crate::report::Outcome;
use crate::speed;
use crate::stats::{median, micros, Summary};
use crate::Ctx;

/// fig7's simulated-cycle pin at seed 2008 (ROADMAP aim 1).
const FIG7_CYCLES_PIN: u64 = 100_396_507_017;
/// HEF-over-Molen speed-up the paper reports (Table 2): maximum, average.
const PAPER_HEF_VS_MOLEN: (f64, f64) = (2.38, 1.71);

/// Resilience ladder, copied from the `resilience` experiment so the
/// benchmark does not depend on the experiment code it measures.
const FAULT_RATES_PPM: [u32; 7] = [0, 1_000, 5_000, 10_000, 50_000, 100_000, 250_000];
const FAULT_SEEDS: [u64; 5] = [
    FaultConfig::DEFAULT_SEED,
    0x5EED_0001,
    0x5EED_0002,
    0x5EED_0003,
    0x5EED_0004,
];
const RESILIENCE_CONTAINERS: u16 = 15;
/// `BENCH_resilience.json` at seed 2008: software floor and the mean HEF
/// cycles per fault rate.
const RESILIENCE_SOFTWARE_PIN: u64 = 899_003_870;
const RESILIENCE_MEAN_PIN: [u64; 7] = [
    98_161_580,
    98_302_897,
    100_070_640,
    103_445_633,
    128_919_752,
    179_889_589,
    835_007_757,
];
/// `BENCH_contention.json` at seed 2008: aggregate cycles of two
/// phase-shifted tenants, `(containers, shared, partitioned)`.
const CONTENTION_PIN: [(u16, u64, u64); 10] = [
    (6, 192_665_970, 445_426_940),
    (7, 186_215_292, 445_426_940),
    (8, 144_373_698, 261_656_120),
    (9, 160_862_050, 261_656_120),
    (10, 132_071_636, 232_847_900),
    (11, 212_675_380, 232_847_900),
    (12, 100_912_764, 172_389_860),
    (13, 106_572_656, 172_389_860),
    (14, 93_293_342, 147_708_436),
    (15, 98_389_716, 147_708_436),
];

/// Frames encoded per workload and the contention trace's length.
const FIG7_FRAMES: u32 = 140;
const FAULTS_FRAMES: u32 = 20;
const CONTENTION_FRAMES: usize = 8;
const OBSERVED_FRAMES: u32 = 10;

/// Passes per 10 s of `--seconds`, sized from measured pass times.
const FIG7_PASSES_PER_10S: usize = 10;
const FAULTS_PASSES_PER_10S: usize = 120;
const OBSERVED_PASSES_PER_10S: usize = 44;

/// What the traced pass measured beyond the shim's layers.
#[derive(Debug, Clone, Copy, Default)]
struct PassExtra {
    wall_ns: u64,
    multi_ns: u64,
    export_ns: u64,
    export_bytes: u64,
    atoms_shared: u64,
    evictions_contested: u64,
}

/// One batch workload: a fixed job list run once per pass.
trait Sweep {
    /// A job's checked result.
    type Out: PartialEq;
    /// Jobs per pass.
    fn jobs(&self) -> usize;
    /// One untraced pass: results in job order and per-job microseconds.
    fn pass(&self) -> (Vec<Self::Out>, Vec<f64>);
    /// One traced pass through the shim.
    fn traced_pass(
        &self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        extra: &mut PassExtra,
    ) -> Vec<Self::Out>;
}

/// Observer that timestamps the end of a sweep job from inside
/// `SweepRunner::run_observed`, which builds it right before the replay.
struct JobClock<'s> {
    index: usize,
    started: Instant,
    sink: &'s Mutex<Vec<(usize, f64)>>,
}

impl SimObserver for JobClock<'_> {
    fn on_event(&mut self, event: &SimEvent) {
        if matches!(event, SimEvent::RunFinished { .. }) {
            let us = micros(self.started.elapsed());
            self.sink
                .lock()
                .expect("job clock sink")
                .push((self.index, us));
        }
    }

    fn wants_segments(&self) -> bool {
        false
    }
}

/// Runs `jobs` on one worker (with `runner`'s plan-cache setting) and
/// returns the results with each job's wall time.
fn timed_sweep(
    runner: &SweepRunner,
    library: &SiLibrary,
    jobs: &[SweepJob<'_>],
) -> (Vec<RunStats>, Vec<f64>) {
    let sink = Mutex::new(Vec::with_capacity(jobs.len()));
    let results = runner.run_observed(library, jobs, |index| {
        vec![Box::new(JobClock {
            index,
            started: Instant::now(),
            sink: &sink,
        }) as Box<dyn SimObserver + '_>]
    });
    let mut clocked = sink.into_inner().expect("job clock sink");
    clocked.sort_by_key(|&(i, _)| i);
    (results, clocked.into_iter().map(|(_, us)| us).collect())
}

/// Replays `config` through the shim inside a `sim.job` span. The replay
/// and the reference replay are covered by the shim's own rows, so the
/// span's self time is the job's set-up around them.
#[allow(clippy::too_many_arguments)]
fn traced_job(
    tracer: &mut Tracer,
    layers: &mut Layers,
    job: u64,
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    shared: Option<&PlanCacheHandle>,
    extra: &mut [&mut dyn SimObserver],
) -> RunStats {
    let span = tracer.open("sim.job", job);
    let mut own = Layers::default();
    let stats = simulate_traced(library, trace, config, shared, extra, &mut own);
    tracer.close_with(
        span,
        own.replay.ns + own.reference_ns,
        Some(layers_json(&own)),
    );
    layers.merge(&own);
    stats
}

/// Runs `sweep` for this run's passes and fills the outcome's metrics.
fn run_sweep<S: Sweep>(ctx: &mut Ctx, sweep: &S, per_10s: usize, o: &mut Outcome) -> Vec<S::Out> {
    let passes = ctx.passes(per_10s);
    let (untraced, traced) = match ctx.tracer {
        Some(_) => ((passes / 4).max(1), (passes / 2).max(1)),
        None => (passes, 0),
    };
    let jobs = sweep.jobs() as f64;
    let mut first: Option<Vec<S::Out>> = None;
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    // Each job's fastest wall time over the passes.
    let mut fastest_us = vec![f64::INFINITY; sweep.jobs()];
    let timed = ctx.speed.mark();
    for _ in 0..untraced {
        ctx.speed.sample();
        let started = Instant::now();
        let (outs, job_us) = sweep.pass();
        let wall = started.elapsed().as_secs_f64();
        rates.push(jobs / wall);
        walls.push(wall);
        for (fastest, us) in fastest_us.iter_mut().zip(job_us) {
            *fastest = fastest.min(us);
        }
        check_pass(o, &mut first, outs);
    }
    ctx.speed.sample();
    o.passes = untraced;
    let reference = first.expect("at least one pass");

    let Some(mut tracer) = ctx.tracer.take() else {
        // Neighbours on a shared host only ever add time, and they do so
        // for seconds at a stretch, so a whole pass's rate swings with
        // them; a job's fastest repeat is its own cost. A slowdown of the
        // whole host that outlasts the run slows the speed samples too,
        // so the fastest repeats are read against the fastest sample.
        let slowdown = speed::fastest(ctx.speed.since(timed));
        let rate = jobs / (fastest_us.iter().sum::<f64>() / 1e6);
        let at_reference: Vec<f64> = fastest_us.iter().map(|us| us / slowdown).collect();
        let latency = Summary::of(&at_reference);
        ctx.report_setup(o);
        o.set("jobs_per_s", rate * slowdown, None);
        o.set("latency_p50_us", latency.median, Some(latency));
        o.note_metric("host.timed_slowdown", "ratio", slowdown, None);
        o.note_metric("measured_jobs_per_s", "jobs/s", rate, None);
        o.note_metric("measured_latency_p50_us", "us", median(&fastest_us), None);
        o.note_metric(
            "pass_jobs_per_s",
            "jobs/s",
            median(&rates),
            Some(Summary::of(&rates)),
        );
        return reference;
    };
    let mut pass_layers = Vec::new();
    let mut extras = Vec::new();
    for p in 0..traced {
        let span = tracer.open("pass", p as u64);
        let started = Instant::now();
        let mut layers = Layers::default();
        let mut extra = PassExtra::default();
        let outs = sweep.traced_pass(&mut tracer, &mut layers, &mut extra);
        extra.wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tracer.close(span);
        o.attempted += outs.len() as u64;
        let differing = outs.iter().zip(&reference).filter(|(a, b)| a != b).count();
        o.failed += differing as u64;
        if differing > 0 {
            o.errors.push(format!(
                "traced pass {p}: {differing} jobs differ from the untraced run"
            ));
        }
        pass_layers.push(layers);
        extras.push(extra);
    }
    o.passes += traced;
    layer_metrics(o, &tracer, &pass_layers, &extras, median(&walls));
    ctx.tracer = Some(tracer);
    reference
}

/// Counts a pass's jobs and checks them against the first pass.
fn check_pass<T: PartialEq>(o: &mut Outcome, first: &mut Option<Vec<T>>, outs: Vec<T>) {
    o.attempted += outs.len() as u64;
    match first {
        None => *first = Some(outs),
        Some(reference) => {
            let differing = outs
                .iter()
                .zip(reference.iter())
                .filter(|(a, b)| a != b)
                .count();
            o.failed += differing as u64;
        }
    }
}

/// Per-layer metrics of a traced batch run.
fn layer_metrics(
    o: &mut Outcome,
    tracer: &Tracer,
    passes: &[Layers],
    extras: &[PassExtra],
    untraced_wall_s: f64,
) {
    replay_metrics(o, tracer, passes);
    let share = |f: fn(&PassExtra) -> u64| {
        median(
            &extras
                .iter()
                .map(|e| f(e) as f64 / e.wall_ns.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    o.set("core.multi_replay_share", share(|e| e.multi_ns), None);
    o.set("telemetry.export_share", share(|e| e.export_ns), None);
    let e = extras[0];
    o.set("telemetry.export_bytes", e.export_bytes as f64, None);
    o.set("core.atoms_shared", e.atoms_shared as f64, None);
    o.set(
        "core.evictions_contested",
        e.evictions_contested as f64,
        None,
    );
    // Tracing's cost: the traced pass without its reference replays.
    let traced_wall_s = median(
        &extras
            .iter()
            .zip(passes)
            .map(|(e, l)| e.wall_ns.saturating_sub(l.reference_ns) as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    o.set(
        "trace_overhead",
        traced_wall_s / untraced_wall_s.max(1e-9),
        None,
    );
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What every traced run reports from its spans and the shim: layer times
/// as per-pass medians, counts from the first pass, and the self-time
/// table (every span name, then the shim's layers, where the replay's own
/// self time is the engine loop).
pub fn replay_metrics(o: &mut Outcome, tracer: &Tracer, passes: &[Layers]) {
    use crate::report::LayerRow;
    let per_pass = |f: fn(&Layers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    o.set("sim.replay_us", per_pass(|l| us(l.replay.ns)), None);
    o.set(
        "sim.engine_self_us",
        per_pass(|l| us(l.engine_self_ns().unwrap_or(0))),
        None,
    );
    o.set("core.enter_us", per_pass(|l| us(l.enter.ns)), None);
    o.set("core.batched_us", per_pass(|l| us(l.batched.ns)), None);
    o.set("core.single_us", per_pass(|l| us(l.single.ns)), None);
    o.set("monitor.exit_us", per_pass(|l| us(l.exit.ns)), None);
    o.set("sim.observer_us", per_pass(Layers::observer_us), None);
    o.set(
        "sim.host_ns_per_si",
        per_pass(|l| l.replay.ns as f64 / l.si_executions.max(1) as f64),
        None,
    );

    let rows = tracer.rows();
    let span_median_us = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.median_ns / 1e3)
    };
    o.set(
        "h264.encode_frame_us",
        span_median_us("h264.encode_frame"),
        None,
    );
    o.set("h264.to_trace_us", span_median_us("h264.to_trace"), None);
    let l = &passes[0];
    for (name, value) in [
        ("sim.si_executions", l.si_executions),
        ("sim.events", l.events),
        ("core.enter_calls", l.enter.calls),
        ("core.batched_calls", l.batched.calls),
        ("core.batched_bursts", l.batched_bursts),
        ("core.single_calls", l.single.calls),
        ("core.plan_hits", l.plan.hits),
        ("core.plan_misses", l.plan.misses),
        ("core.plan_epoch_bumps", l.plan.epoch_bumps),
        ("fabric.faults_injected", l.recovery.faults_injected),
        ("core.load_retries", l.recovery.load_retries),
        ("core.quarantined", l.recovery.containers_quarantined),
    ] {
        o.set(name, value as f64, None);
    }
    o.set("sim.batched_share", l.batched_share(), None);
    o.set("core.plan_hit_ratio", l.plan.hit_rate(), None);

    for r in rows {
        if r.self_ns < 0 {
            o.errors
                .push(format!("negative self time in span {}", r.name));
        }
        o.layers.push(LayerRow {
            layer: r.name,
            calls: r.calls,
            total_us: r.total_ns as f64 / 1e3,
            self_us: r.self_ns as f64 / 1e3,
            median_us: r.median_ns / 1e3,
            p99_us: r.p99_ns / 1e3,
        });
    }
    let mut all = Layers::default();
    for l in passes {
        all.merge(l);
    }
    let engine_self = all.engine_self_ns().unwrap_or_else(|| {
        o.errors.push("negative self time in sim.replay".into());
        0
    });
    for (layer, acc, self_ns) in [
        ("sim.replay", &all.replay, engine_self),
        ("core.enter", &all.enter, all.enter.ns),
        ("core.batched", &all.batched, all.batched.ns),
        ("core.single", &all.single, all.single.ns),
        ("monitor.exit", &all.exit, all.exit.ns),
    ] {
        o.layers.push(LayerRow {
            layer,
            calls: acc.calls,
            total_us: us(acc.ns),
            self_us: us(self_ns),
            median_us: us(acc.hist.quantile(0.5)),
            p99_us: us(acc.hist.quantile(0.99)),
        });
    }
    // Observer time is known only in total (by difference), not per call.
    o.layers.push(LayerRow {
        layer: "sim.observer",
        calls: all.events,
        total_us: all.observer_us(),
        self_us: all.observer_us(),
        median_us: 0.0,
        p99_us: 0.0,
    });
}

// ---------------------------------------------------------------------
// fig7
// ---------------------------------------------------------------------

struct Fig7<'t> {
    library: SiLibrary,
    trace: &'t Trace,
    configs: Vec<SimConfig>,
}

impl Sweep for Fig7<'_> {
    type Out = RunStats;

    fn jobs(&self) -> usize {
        self.configs.len()
    }

    fn pass(&self) -> (Vec<RunStats>, Vec<f64>) {
        let jobs: Vec<SweepJob<'_>> = self
            .configs
            .iter()
            .map(|&c| SweepJob::new(c, self.trace))
            .collect();
        let runner = SweepRunner::with_threads(1).with_plan_cache(PlanCacheHandle::default());
        timed_sweep(&runner, &self.library, &jobs)
    }

    fn traced_pass(
        &self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        _: &mut PassExtra,
    ) -> Vec<RunStats> {
        let shared = PlanCacheHandle::default();
        self.configs
            .iter()
            .enumerate()
            .map(|(i, config)| {
                traced_job(
                    tracer,
                    layers,
                    i as u64,
                    &self.library,
                    self.trace,
                    config,
                    Some(&shared),
                    &mut [],
                )
            })
            .collect()
    }
}

/// The paper's sweep: software, then per AC count the four schedulers
/// and Molen.
fn fig7_configs() -> Vec<SimConfig> {
    let mut configs = vec![SimConfig::software_only()];
    for ac in 5..=24u16 {
        configs.extend(SchedulerKind::ALL.iter().map(|&k| SimConfig::rispp(ac, k)));
        configs.push(SimConfig::molen(ac));
    }
    configs
}

/// `fig7`: the paper's Figure 7 / Table 2 sweep.
pub fn fig7(ctx: &mut Ctx) -> Outcome {
    let mut o = Outcome::new("fig7", ctx.traced());
    let config = ctx.encoder(FIG7_FRAMES);
    // One set-up per run: the 140-frame encode alone takes ~20 s.
    let (_, workload) = ctx.timed_setup(1, |ctx| ctx.encode(&config));
    let sweep = Fig7 {
        library: h264_si_library(),
        trace: workload.trace(),
        configs: fig7_configs(),
    };
    let results = run_sweep(ctx, &sweep, FIG7_PASSES_PER_10S, &mut o);

    let cycles: u64 = results.iter().map(|s| s.total_cycles).sum();
    o.notes.push(format!("simulated cycles per pass: {cycles}"));
    if ctx.pinned() && cycles != FIG7_CYCLES_PIN {
        o.failed += results.len() as u64;
        o.errors.push(format!(
            "simulated cycles {cycles} != pinned {FIG7_CYCLES_PIN}"
        ));
    }
    // Accuracy against the paper (informational): HEF over Molen per AC.
    let hef = SchedulerKind::ALL
        .iter()
        .position(|&k| k == SchedulerKind::Hef)
        .expect("HEF");
    let per_ac = SchedulerKind::ALL.len() + 1;
    let speedups: Vec<f64> = results[1..]
        .chunks(per_ac)
        .map(|c| c[per_ac - 1].total_cycles as f64 / c[hef].total_cycles as f64)
        .collect();
    let max = speedups.iter().copied().fold(0.0, f64::max);
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let (pmax, pavg) = PAPER_HEF_VS_MOLEN;
    o.notes.push(format!(
        "accuracy: HEF vs Molen speed-up max {max:.3}x (paper {pmax}x, error {:+.1}%), avg {avg:.3}x (paper {pavg}x, error {:+.1}%)",
        (max - pmax) / pmax * 100.0,
        (avg - pavg) / pavg * 100.0
    ));
    o
}

// ---------------------------------------------------------------------
// faults-tenants
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum FaultsOut {
    Solo(RunStats),
    Multi(MultiRunStats),
}

struct Faults<'t> {
    library: SiLibrary,
    trace: &'t Trace,
    tenants: Vec<Trace>,
    solo: Vec<SimConfig>,
    multi: Vec<SimConfig>,
}

impl Faults<'_> {
    fn multi_outs(&self, mut each: impl FnMut(&SimConfig) -> MultiRunStats) -> Vec<FaultsOut> {
        self.multi
            .iter()
            .map(|c| FaultsOut::Multi(each(c)))
            .collect()
    }
}

impl Sweep for Faults<'_> {
    type Out = FaultsOut;

    fn jobs(&self) -> usize {
        self.solo.len() + self.multi.len()
    }

    fn pass(&self) -> (Vec<FaultsOut>, Vec<f64>) {
        let jobs: Vec<SweepJob<'_>> = self
            .solo
            .iter()
            .map(|&c| SweepJob::new(c, self.trace))
            .collect();
        let (stats, mut latencies) =
            timed_sweep(&SweepRunner::with_threads(1), &self.library, &jobs);
        let mut outs: Vec<FaultsOut> = stats.into_iter().map(FaultsOut::Solo).collect();
        outs.extend(self.multi_outs(|c| {
            let started = Instant::now();
            let m = simulate_multi(&self.library, &self.tenants, c);
            latencies.push(micros(started.elapsed()));
            m
        }));
        (outs, latencies)
    }

    fn traced_pass(
        &self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        extra: &mut PassExtra,
    ) -> Vec<FaultsOut> {
        let mut outs: Vec<FaultsOut> = self
            .solo
            .iter()
            .enumerate()
            .map(|(i, c)| {
                FaultsOut::Solo(traced_job(
                    tracer,
                    layers,
                    i as u64,
                    &self.library,
                    self.trace,
                    c,
                    None,
                    &mut [],
                ))
            })
            .collect();
        let mut job = outs.len() as u64;
        outs.extend(self.multi_outs(|c| {
            let span = tracer.open("core.multi_replay", job);
            let started = Instant::now();
            let m = simulate_multi(&self.library, &self.tenants, c);
            extra.multi_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            tracer.close(span);
            extra.atoms_shared += m.atoms_shared;
            extra.evictions_contested += m.evictions_contested;
            job += 1;
            m
        }));
        outs
    }
}

/// The encoder trace rotated by `offset` invocations, so two tenants are
/// never in the same hot spot at once (as the `contend` command builds).
fn phase_shift(trace: &Trace, offset: usize) -> Trace {
    let invs = trace.invocations();
    let offset = offset % invs.len().max(1);
    Trace::from_invocations(
        invs[offset..]
            .iter()
            .chain(&invs[..offset])
            .cloned()
            .collect(),
    )
}

/// `faults-tenants`: the resilience ladder plus K=2 contention.
pub fn faults_tenants(ctx: &mut Ctx) -> Outcome {
    let mut o = Outcome::new("faults-tenants", ctx.traced());
    let config = ctx.encoder(FAULTS_FRAMES);
    let (reports, workload) = ctx.timed_setup(3, |ctx| ctx.encode(&config));
    let short = first_frames_trace(ctx, &config, &reports[..CONTENTION_FRAMES]);
    let mut solo = vec![SimConfig::software_only()];
    for &rate_ppm in &FAULT_RATES_PPM {
        for &seed in &FAULT_SEEDS {
            let fault = FaultConfig {
                rate_ppm,
                seed,
                max_retries: FaultConfig::uniform(0.0).max_retries,
            };
            solo.push(
                SimConfig::rispp(RESILIENCE_CONTAINERS, SchedulerKind::Hef).with_fault(fault),
            );
        }
    }
    let mut multi = Vec::new();
    for ac in 6..=15u16 {
        for policy in [TenantPolicy::Shared, TenantPolicy::Partitioned] {
            let tenancy = TenancyConfig {
                count: 2,
                policy,
                arbitration: TenantArbitration::RoundRobin,
            };
            multi.push(SimConfig::rispp(ac, SchedulerKind::Hef).with_tenants(tenancy));
        }
    }
    let sweep = Faults {
        library: h264_si_library(),
        trace: workload.trace(),
        tenants: vec![phase_shift(&short, 0), phase_shift(&short, 1)],
        solo,
        multi,
    };
    let outs = run_sweep(ctx, &sweep, FAULTS_PASSES_PER_10S, &mut o);
    if ctx.pinned() {
        check_faults_pins(&mut o, &outs);
    }
    o
}

/// The trace of the first frames of an encode, as a shorter encode of the
/// same video would give.
fn first_frames_trace(
    ctx: &mut Ctx,
    config: &rispp_h264::EncoderConfig,
    reports: &[FrameReport],
) -> Trace {
    let mut short = *config;
    short.frames = reports.len() as u32;
    let span = ctx.open("h264.to_trace", 0);
    let trace = rispp_h264::EncoderWorkload::from_reports(&short, reports)
        .trace()
        .clone();
    ctx.close(span);
    trace
}

/// Compares pass 1 with `BENCH_resilience.json` and `BENCH_contention.json`.
fn check_faults_pins(o: &mut Outcome, outs: &[FaultsOut]) {
    let solo: Vec<&RunStats> = outs
        .iter()
        .filter_map(|x| match x {
            FaultsOut::Solo(s) => Some(s),
            FaultsOut::Multi(_) => None,
        })
        .collect();
    if solo[0].total_cycles != RESILIENCE_SOFTWARE_PIN {
        o.failed += 1;
        o.errors.push(format!(
            "software floor {} != pinned {RESILIENCE_SOFTWARE_PIN}",
            solo[0].total_cycles
        ));
    }
    for (i, (&rate, &pin)) in FAULT_RATES_PPM.iter().zip(&RESILIENCE_MEAN_PIN).enumerate() {
        let group = &solo[1 + i * FAULT_SEEDS.len()..1 + (i + 1) * FAULT_SEEDS.len()];
        let mean = group.iter().map(|s| s.total_cycles).sum::<u64>() / FAULT_SEEDS.len() as u64;
        if mean != pin {
            o.failed += group.len() as u64;
            o.errors
                .push(format!("{rate} ppm: mean cycles {mean} != pinned {pin}"));
        }
    }
    let multi = outs.iter().filter_map(|x| match x {
        FaultsOut::Multi(m) => Some(m.aggregate_cycles),
        FaultsOut::Solo(_) => None,
    });
    let pins = CONTENTION_PIN
        .iter()
        .flat_map(|&(ac, shared, part)| [(ac, shared), (ac, part)]);
    for ((ac, pin), got) in pins.zip(multi) {
        if got != pin {
            o.failed += 1;
            o.errors
                .push(format!("{ac} ACs: aggregate cycles {got} != pinned {pin}"));
        }
    }
}

// ---------------------------------------------------------------------
// observed
// ---------------------------------------------------------------------

/// A job's statistics and the size and hash of everything it exported.
#[derive(Debug, PartialEq)]
struct ObservedOut {
    stats: RunStats,
    export_bytes: u64,
    export_hash: u64,
}

struct Observed<'t> {
    library: SiLibrary,
    trace: &'t Trace,
    configs: Vec<SimConfig>,
}

/// The three telemetry observers the daemon and the CLI attach.
struct Telemetry {
    metrics: MetricsObserver,
    perfetto: PerfettoTraceObserver,
    recorder: FlightRecorder,
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            metrics: MetricsObserver::new(),
            perfetto: PerfettoTraceObserver::new(),
            recorder: FlightRecorder::new(),
        }
    }

    /// Renders metrics JSON and Prometheus text, the Perfetto trace and a
    /// flight bundle to memory; returns their total size and hash.
    fn export(mut self, job: usize, plan: &rispp_core::PlanCacheStats) -> (u64, u64) {
        self.metrics.record_plan_cache(plan);
        let snapshot = self.metrics.into_snapshot();
        let parts = [
            snapshot.to_json(),
            snapshot.to_prometheus_text(),
            self.perfetto.into_json(),
            self.recorder.dump(
                "benchmark",
                &format!("job-{job}"),
                job as u64,
                plan.hits,
                plan.misses,
            ),
        ];
        let bytes = parts.iter().map(|p| p.len() as u64).sum();
        let hash = parts
            .iter()
            .fold(0u64, |h, p| h.rotate_left(7) ^ fnv1a(p.as_bytes()));
        (bytes, hash)
    }
}

impl Sweep for Observed<'_> {
    type Out = ObservedOut;

    fn jobs(&self) -> usize {
        self.configs.len()
    }

    fn pass(&self) -> (Vec<ObservedOut>, Vec<f64>) {
        self.configs
            .iter()
            .enumerate()
            .map(|(i, config)| {
                let started = Instant::now();
                let mut t = Telemetry::new();
                let (stats, plan) = simulate_observed_planned(
                    &self.library,
                    self.trace,
                    config,
                    None,
                    &mut [&mut t.metrics, &mut t.perfetto, &mut t.recorder],
                );
                let (export_bytes, export_hash) = t.export(i, &plan);
                (
                    ObservedOut {
                        stats,
                        export_bytes,
                        export_hash,
                    },
                    micros(started.elapsed()),
                )
            })
            .unzip()
    }

    fn traced_pass(
        &self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        extra: &mut PassExtra,
    ) -> Vec<ObservedOut> {
        self.configs
            .iter()
            .enumerate()
            .map(|(i, config)| {
                let mut t = Telemetry::new();
                let mut own = Layers::default();
                let stats = {
                    let mut observers: [&mut dyn SimObserver; 3] =
                        [&mut t.metrics, &mut t.perfetto, &mut t.recorder];
                    traced_job(
                        tracer,
                        &mut own,
                        i as u64,
                        &self.library,
                        self.trace,
                        config,
                        None,
                        &mut observers,
                    )
                };
                let span = tracer.open("telemetry.export", i as u64);
                let started = Instant::now();
                let (export_bytes, export_hash) = t.export(i, &own.plan);
                extra.export_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                extra.export_bytes += export_bytes;
                tracer.close(span);
                layers.merge(&own);
                ObservedOut {
                    stats,
                    export_bytes,
                    export_hash,
                }
            })
            .collect()
    }
}

/// `observed`: telemetry on — explain, journal and three exporters.
pub fn observed(ctx: &mut Ctx) -> Outcome {
    let mut o = Outcome::new("observed", ctx.traced());
    let config = ctx.encoder(OBSERVED_FRAMES);
    let (_, workload) = ctx.timed_setup(3, |ctx| ctx.encode(&config));
    let mut configs = Vec::new();
    for kind in [SchedulerKind::Hef, SchedulerKind::Sjf] {
        for ac in [6u16, 10, 15, 20] {
            let job = configs.len() as u64 + 1;
            configs.push(
                SimConfig::rispp(ac, kind)
                    .with_explain(true)
                    .with_journal(true)
                    .with_trace(TraceContext::new(job)),
            );
        }
    }
    let sweep = Observed {
        library: h264_si_library(),
        trace: workload.trace(),
        configs,
    };
    let outs = run_sweep(ctx, &sweep, OBSERVED_PASSES_PER_10S, &mut o);
    // Telemetry never changes what is simulated: each job's statistics
    // equal a plain run without explain, journal or observers.
    for (out, config) in outs.iter().zip(&sweep.configs) {
        let plain = SimConfig {
            explain: false,
            journal: false,
            trace: None,
            ..*config
        };
        if out.stats != simulate(&sweep.library, sweep.trace, &plain) {
            o.failed += 1;
            o.errors.push(format!(
                "{} @ {} ACs: telemetry changed the statistics",
                config.system.label(),
                config.containers
            ));
        }
    }
    o.notes.push(format!(
        "exported bytes per pass: {}",
        outs.iter().map(|x| x.export_bytes).sum::<u64>()
    ));
    o
}
