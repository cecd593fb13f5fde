//! `serve-mix`: the job-server daemon behind its NDJSON-over-TCP front
//! end, driven over one connection by one paced writer thread and one
//! reader thread, then the request path a daemon worker runs, in process.
//!
//! Requests are small replays, so parsing, admission, encoding and
//! queueing dominate: 80% name a warm `fig7:N` workload, 15% carry a
//! seeded inline trace (~15 KB lines that load the parser), 5% add a
//! fault model. Every response is checked byte for byte against a local
//! `encode_stats(simulate(..))` of the same request.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rispp_core::{PlanCache, PlanCacheHandle, SchedulerKind};
use rispp_h264::{h264_si_library, EncoderConfig, EncoderWorkload, SiKind};
use rispp_model::SiLibrary;
use rispp_monitor::HotSpotId;
use rispp_serve::cache::LruCache;
use rispp_serve::{
    encode_stats, encode_submit, encode_trace, materialise_trace, parse_request, run_daemon,
    JobOutcome, JobSpec, JobStatus, Request, Server, ServerConfig, SubmitResult,
};
use rispp_sim::{
    simulate, simulate_cancellable_shared, Burst, CancelToken, FaultConfig, Invocation, RunStats,
    SimConfig, Trace,
};

use crate::layers::{layers_json, simulate_traced, Layers};
use crate::report::Outcome;
use crate::speed::{self, HostSpeed};
use crate::stats::{median, micros, weighted_median, OpenLoop, Summary};
use crate::sweeps::replay_metrics;
use crate::Ctx;

/// Offered rate of the latency phase, requests per second.
const RATE: u32 = 1_000;
/// Share of `--seconds` spent in the open-loop phase over the wire.
const OPEN_LOOP_SHARE: f64 = 0.3;
/// Passes of the in-process capacity phase per 10 s of `--seconds`.
const CAPACITY_PASSES_PER_10S: usize = 20;
/// Deep enough to hold a second of the open loop, so a stall of the
/// shared host delays requests instead of refusing them.
const QUEUE_CAPACITY: usize = 1_024;
/// Set-ups per run. Restarting the daemon in one process churns the
/// allocator enough to move the process's peak memory by a quarter, so
/// the repetitions after the first run once the peak has been read.
const SETUP_REPS: usize = 3;

/// Named workloads (`fig7:N`) and the share of each request kind.
const NAMED_FRAMES: [u32; 3] = [2, 3, 4];
const NAMED_PERCENT: u64 = 80;
const INLINE_PERCENT: u64 = 15;
const INLINE_TRACES: usize = 8;
const INLINE_INVOCATIONS: usize = 200;
const FAULT_PPM: u32 = 10_000;
const FAULT_SEEDS: usize = 4;
const FAULTY_PERCENT: u64 = 100 - NAMED_PERCENT - INLINE_PERCENT;
const SYSTEMS: [&str; 5] = ["hef", "asf", "fsfr", "sjf", "molen"];
const AC_MIN: u16 = 4;
const AC_COUNT: usize = 12;
/// Distinct requests of each kind, in the order `build_mix` lists them.
const NAMED_COMBOS: usize = NAMED_FRAMES.len() * SYSTEMS.len() * AC_COUNT;
const INLINE_COMBOS: usize = INLINE_TRACES * AC_COUNT;
const FAULTY_COMBOS: usize = NAMED_FRAMES.len() * FAULT_SEEDS * AC_COUNT;

/// SplitMix64: a tiny seeded generator for the request mix and the
/// inline traces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One distinct request: its submit line after the id, and what must
/// come back.
struct Combo {
    /// The submit line from just after the id to the end.
    tail: String,
    /// The completed response from `,"stats":` to the end.
    stats_suffix: String,
    /// The request's share of the mix.
    share: f64,
}

/// Every distinct request of the mix.
struct Mix {
    combos: Vec<Combo>,
    /// Local traces per payload, in payload order.
    traces: Vec<Trace>,
    /// Canonical payload strings, in payload order.
    payloads: Vec<String>,
}

fn config_for(system: &str, ac: u16) -> SimConfig {
    match system {
        "hef" => SimConfig::rispp(ac, SchedulerKind::Hef),
        "asf" => SimConfig::rispp(ac, SchedulerKind::Asf),
        "fsfr" => SimConfig::rispp(ac, SchedulerKind::Fsfr),
        "sjf" => SimConfig::rispp(ac, SchedulerKind::Sjf),
        _ => SimConfig::molen(ac),
    }
}

/// A seeded trace of `INLINE_INVOCATIONS` small hot-spot invocations over
/// the H.264 SIs of each hot spot.
fn inline_trace(rng: &mut Rng) -> Trace {
    const GROUPS: [&[SiKind]; 3] = [
        &[SiKind::Sad, SiKind::Satd],
        &[
            SiKind::Dct,
            SiKind::Ht2x2,
            SiKind::Ht4x4,
            SiKind::Mc,
            SiKind::IPredHdc,
            SiKind::IPredVdc,
        ],
        &[SiKind::LfBs4],
    ];
    Trace::from_invocations(
        (0..INLINE_INVOCATIONS)
            .map(|_| {
                let hot_spot = rng.below(3) as usize;
                let group = GROUPS[hot_spot];
                let si = group[rng.below(group.len() as u64) as usize].id();
                let count = 1 + rng.below(400) as u32;
                Invocation {
                    hot_spot: HotSpotId(hot_spot as u16),
                    prologue_cycles: 1_000 + rng.below(20_000),
                    bursts: vec![Burst {
                        si,
                        count,
                        overhead: 10,
                    }],
                    hints: vec![(si, u64::from(count))],
                }
            })
            .collect(),
    )
}

/// Builds the payloads, every distinct request and its reference
/// response. Named payloads are `fig7:N` (the daemon encodes them with
/// the paper's fixed-seed video); smoke runs send tiny inline encodes in
/// their place.
fn build_mix(ctx: &mut Ctx, library: &SiLibrary, rng: &mut Rng) -> Mix {
    let mut encoder = EncoderConfig::paper_cif();
    if ctx.smoke {
        encoder = ctx.encoder(0);
    }
    encoder.frames = NAMED_FRAMES[NAMED_FRAMES.len() - 1];
    let (reports, _) = ctx.encode(&encoder);
    let mut traces = Vec::new();
    let mut payloads = Vec::new();
    for frames in NAMED_FRAMES {
        let mut config = encoder;
        config.frames = frames;
        let span = ctx.open("h264.to_trace", u64::from(frames));
        let trace = EncoderWorkload::from_reports(&config, &reports[..frames as usize])
            .trace()
            .clone();
        ctx.close(span);
        payloads.push(if ctx.smoke {
            encode_trace(&trace)
        } else {
            format!("fig7:{frames}")
        });
        traces.push(trace);
    }
    for _ in 0..INLINE_TRACES {
        let trace = inline_trace(rng);
        payloads.push(encode_trace(&trace));
        traces.push(trace);
    }
    let fault_seeds: Vec<u64> = (0..FAULT_SEEDS).map(|_| rng.next()).collect();

    let mut combos = Vec::new();
    let mut push = |payload: usize, config: SimConfig, percent: u64, kind_combos: usize| {
        let spec = JobSpec {
            id: "@".into(),
            config,
            trace_payload: payloads[payload].clone(),
            deadline_ms: None,
            chaos_panics: 0,
        };
        let line = encode_submit(&spec);
        let tail = line
            .strip_prefix(r#"{"op":"submit","id":"@"#)
            .expect("submit lines start with the op and id")
            .to_string();
        // The reference runs the decoded request through the plain batch
        // path, independent of the daemon's caches.
        let Ok(Request::Submit(parsed)) = parse_request(&line) else {
            panic!("the mix's own submit line must parse");
        };
        let stats = simulate(library, &traces[payload], &parsed.config);
        combos.push(Combo {
            tail,
            stats_suffix: format!(r#","stats":{}}}"#, encode_stats(&stats)),
            share: percent as f64 / 100.0 / kind_combos as f64,
        });
    };
    for payload in 0..NAMED_FRAMES.len() {
        for system in SYSTEMS {
            for ac in 0..AC_COUNT {
                let config = config_for(system, AC_MIN + ac as u16);
                push(payload, config, NAMED_PERCENT, NAMED_COMBOS);
            }
        }
    }
    for t in 0..INLINE_TRACES {
        for ac in 0..AC_COUNT {
            let config = config_for("hef", AC_MIN + ac as u16);
            push(
                NAMED_FRAMES.len() + t,
                config,
                INLINE_PERCENT,
                INLINE_COMBOS,
            );
        }
    }
    for payload in 0..NAMED_FRAMES.len() {
        for &seed in &fault_seeds {
            for ac in 0..AC_COUNT {
                let fault = FaultConfig {
                    rate_ppm: FAULT_PPM,
                    seed,
                    ..FaultConfig::uniform(0.0)
                };
                let config = config_for("hef", AC_MIN + ac as u16).with_fault(fault);
                push(payload, config, FAULTY_PERCENT, FAULTY_COMBOS);
            }
        }
    }
    Mix {
        combos,
        traces,
        payloads,
    }
}

/// Draws `n` requests of the mix: 80% named, 15% inline, 5% faulty.
fn draw(rng: &mut Rng, n: usize) -> Vec<usize> {
    (0..n)
        .map(|_| {
            let kind = rng.below(100);
            let ac = rng.below(AC_COUNT as u64) as usize;
            let payload = rng.below(NAMED_FRAMES.len() as u64) as usize;
            if kind < NAMED_PERCENT {
                let system = rng.below(SYSTEMS.len() as u64) as usize;
                (payload * SYSTEMS.len() + system) * AC_COUNT + ac
            } else if kind < NAMED_PERCENT + INLINE_PERCENT {
                NAMED_COMBOS + rng.below(INLINE_TRACES as u64) as usize * AC_COUNT + ac
            } else {
                let seed = rng.below(FAULT_SEEDS as u64) as usize;
                NAMED_COMBOS + INLINE_COMBOS + (payload * FAULT_SEEDS + seed) * AC_COUNT + ac
            }
        })
        .collect()
}

/// An in-process daemon listening on an ephemeral loopback port, with
/// one client connection.
struct Daemon {
    server: Server,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
    stream: TcpStream,
}

impl Daemon {
    fn start() -> std::io::Result<Daemon> {
        let server = Server::start(
            h264_si_library(),
            ServerConfig {
                workers: 1,
                queue_capacity: QUEUE_CAPACITY,
                flight_dir: None,
                ..ServerConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (server, stop) = (server.clone(), Arc::clone(&stop));
            std::thread::spawn(move || run_daemon(&server, listener, &stop))
        };
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Daemon {
            server,
            stop,
            thread,
            stream,
        })
    }

    /// Hangs up, drains the daemon and joins every thread it started.
    fn stop(self) -> Result<(), String> {
        let _ = self.stream.shutdown(Shutdown::Both);
        drop(self.stream);
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// What one phase over the wire measured.
#[derive(Default)]
struct Phase {
    /// Per request of the open loop, from its due time to its response.
    latencies_us: Vec<f64>,
    /// How late the writer sent each request of the open loop.
    lags_us: Vec<f64>,
    failed: u64,
    refused: u64,
    /// The first response that failed its check, shortened.
    first_failure: Option<String>,
}

impl Phase {
    /// Reads and checks the response to request `id` of `combo`.
    fn receive(
        &mut self,
        reader: &mut impl BufRead,
        line: &mut String,
        id: usize,
        combo: &Combo,
    ) -> std::io::Result<Instant> {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon hung up",
            ));
        }
        let done = Instant::now();
        let response = line.trim_end();
        let head =
            format!(r#"{{"ok":true,"id":"r{id}","status":"completed","attempts":1,"latency_ms":"#);
        if !(response.starts_with(&head) && response.ends_with(combo.stats_suffix.as_str())) {
            self.failed += 1;
            if response.contains(r#""status":"rejected""#) {
                self.refused += 1;
            }
            if self.first_failure.is_none() {
                self.first_failure = Some(response.chars().take(200).collect());
            }
        }
        Ok(done)
    }

    /// Counts this phase's requests and failures into `o`.
    fn tally(&self, o: &mut Outcome, what: &str, requests: usize) {
        o.attempted += requests as u64;
        o.failed += self.failed;
        if let Some(response) = &self.first_failure {
            o.errors.push(format!(
                "{what}: {} of {requests} responses failed their check, first: {response}",
                self.failed
            ));
        }
    }
}

fn submit_line(line: &mut String, id: usize, combo: &Combo) {
    line.clear();
    let _ = writeln!(line, r#"{{"op":"submit","id":"r{id}{}"#, combo.tail);
}

/// Sends `requests` (combo indexes) with ids from `first_id` and checks
/// every response: an open loop at `rate` requests per second (a paced
/// writer thread, responses read here), or with `rate` `None` one
/// synchronous client that sends the next request when the previous
/// response is in.
fn exchange(
    stream: &TcpStream,
    mix: &Mix,
    requests: &[usize],
    first_id: usize,
    rate: Option<u32>,
) -> std::io::Result<Phase> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut phase = Phase::default();
    let mut line = String::new();
    let Some(rate) = rate else {
        for (i, &combo) in requests.iter().enumerate() {
            submit_line(&mut line, first_id + i, &mix.combos[combo]);
            writer.write_all(line.as_bytes())?;
            phase.receive(&mut reader, &mut line, first_id + i, &mix.combos[combo])?;
        }
        return Ok(phase);
    };
    let schedule = OpenLoop {
        start: Instant::now() + Duration::from_millis(2),
        rate,
    };
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut lags = Vec::with_capacity(requests.len());
            let mut line = String::new();
            for (i, &combo) in requests.iter().enumerate() {
                let wait = schedule.due(i).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                submit_line(&mut line, first_id + i, &mix.combos[combo]);
                let sent = Instant::now();
                writer.write_all(line.as_bytes())?;
                lags.push(micros(schedule.lag(i, sent)));
            }
            Ok(lags)
        });
        for (i, &combo) in requests.iter().enumerate() {
            let done = phase.receive(&mut reader, &mut line, first_id + i, &mix.combos[combo])?;
            phase.latencies_us.push(micros(schedule.latency(i, done)));
        }
        phase.lags_us = sender.join().expect("writer thread panicked")?;
        Ok(phase)
    })
}

/// Starts a daemon and sends every distinct request once.
fn warm_daemon(mix: &Mix, o: &mut Outcome) -> Result<Daemon, String> {
    let daemon = Daemon::start().map_err(|e| format!("cannot start the daemon: {e}"))?;
    let all: Vec<usize> = (0..mix.combos.len()).collect();
    let warm = match exchange(&daemon.stream, mix, &all, 0, None) {
        Ok(warm) => warm,
        Err(e) => {
            let _ = daemon.stop();
            return Err(format!("warm-up: {e}"));
        }
    };
    warm.tally(o, "warm-up", all.len());
    Ok(daemon)
}

/// `serve-mix`.
pub fn serve_mix(ctx: &mut Ctx) -> Outcome {
    let mut o = Outcome::new("serve-mix", ctx.traced());
    if let Err(e) = run(ctx, &mut o) {
        o.failed += 1;
        o.errors.push(e);
    }
    o
}

fn run(ctx: &mut Ctx, o: &mut Outcome) -> Result<(), String> {
    let library = h264_si_library();
    let mut rng = Rng(ctx.seed);
    let mix = build_mix(ctx, &library, &mut rng);
    let (rate, open_n) = if ctx.smoke {
        (RATE / 5, (RATE / 5) as usize)
    } else {
        let open_s = ctx.seconds as f64 * OPEN_LOOP_SHARE;
        (RATE, (f64::from(RATE) * open_s) as usize)
    };
    let open_requests = draw(&mut rng, open_n);

    let daemon = ctx.timed_setup(1, |_| warm_daemon(&mix, o))?;

    let trace_cache_before = daemon.server.cache_stats();
    let plans_before = daemon.server.plan_cache_totals();
    let open = exchange(
        &daemon.stream,
        &mix,
        &open_requests,
        mix.combos.len(),
        Some(rate),
    );
    let open = match open {
        Ok(p) => p,
        Err(e) => {
            let _ = daemon.stop();
            return Err(format!("open-loop phase: {e}"));
        }
    };
    open.tally(o, "open loop", open_requests.len());
    let (hits, misses) = daemon.server.cache_stats();
    let trace_hit_ratio = ratio(hits - trace_cache_before.0, misses - trace_cache_before.1);
    let plans = daemon.server.plan_cache_totals();
    let plan_hit_ratio = ratio(
        plans.hits - plans_before.hits,
        plans.misses - plans_before.misses,
    );
    let latency = Summary::of(&open.latencies_us);
    let lag = Summary::of(&open.lags_us);
    o.note_metric("serve.gen_lag_p99_us", "us", lag.p99, Some(lag));
    daemon.stop()?;
    // The daemon's peak, before the in-process path builds caches of its own.
    let peak_rss_mb = crate::peak_rss_mb();
    let path = RequestPath::warm(&library, &mix);
    let passes = ctx.passes(CAPACITY_PASSES_PER_10S);
    o.notes.push(format!(
        "{} distinct requests; open loop {} requests at {rate}/s; capacity {passes} passes over every distinct request in process",
        mix.combos.len(),
        open_requests.len(),
    ));

    if ctx.tracer.is_none() {
        o.note_metric("serve.refused", "count", open.refused as f64, None);
        o.note_metric(
            "serve.trace_cache_hit_ratio",
            "ratio",
            trace_hit_ratio,
            None,
        );
        o.note_metric("serve.plan_hit_ratio", "ratio", plan_hit_ratio, None);
        o.passes = passes;
        let timed = ctx.speed.mark();
        let fastest_us = capacity(&path, &mix, passes, &mut ctx.speed, o);
        let slowdown = speed::fastest(ctx.speed.since(timed));
        let fastest = Summary::of(&fastest_us);
        o.note_metric("serve.path_us", "us", fastest.median, Some(fastest));
        let shares: Vec<f64> = mix.combos.iter().map(|c| c.share).collect();
        let mean_us: f64 = fastest_us.iter().zip(&shares).map(|(us, s)| us * s).sum();
        let p50_us = weighted_median(&fastest_us, &shares);
        o.set("peak_rss_mb", peak_rss_mb, None);
        ctx.timed_setup(SETUP_REPS - 1, |_| {
            if let Err(e) = warm_daemon(&mix, o).and_then(Daemon::stop) {
                o.errors.push(e);
            }
        });
        // Set-up and the request path are read at the reference speed.
        // Over the wire the median follows the request interval and, on
        // a slowed host, queueing (see README), so it is recorded beside.
        ctx.report_setup(o);
        o.set("jobs_per_s", 1e6 / mean_us * slowdown, None);
        o.set("latency_p50_us", p50_us / slowdown, None);
        o.note_metric("host.timed_slowdown", "ratio", slowdown, None);
        o.note_metric("measured_jobs_per_s", "jobs/s", 1e6 / mean_us, None);
        o.note_metric("measured_latency_p50_us", "us", p50_us, None);
        o.note_metric("serve.open_loop_us", "us", latency.median, Some(latency));
        return Ok(());
    }

    let stages = decompose(ctx, o, &path, &mix, &open_requests);
    let client_p50 = latency.median;
    let stage_sum_p50 = median(&stages.sums_ns) / 1e3;
    for (name, share_name, samples) in [
        ("serve.parse_us", "serve.parse_share", &stages.parse),
        ("serve.admit_us", "serve.admit_share", &stages.admit),
        (
            "serve.materialise_us",
            "serve.materialise_share",
            &stages.materialise,
        ),
        (
            "serve.simulate_us",
            "serve.simulate_share",
            &stages.simulate,
        ),
        ("serve.encode_us", "serve.encode_share", &stages.encode),
    ] {
        let us: Vec<f64> = samples.iter().map(|ns| ns / 1e3).collect();
        let s = Summary::of(&us);
        o.note_metric(name, "us", s.median, Some(s));
        o.set(share_name, s.median / client_p50.max(1e-9), None);
    }
    // Derived, not measured: the client's median latency minus the median
    // of the summed stages.
    let queue_wait = (client_p50 - stage_sum_p50).max(0.0);
    o.note_metric("serve.queue_wait_derived_us", "us", queue_wait, None);
    o.note_metric("serve.client_latency_us", "us", client_p50, Some(latency));
    o.set(
        "serve.queue_wait_share",
        queue_wait / client_p50.max(1e-9),
        None,
    );
    o.set("serve.trace_cache_hit_ratio", trace_hit_ratio, None);
    o.set("serve.plan_hit_ratio", plan_hit_ratio, None);
    o.set("serve.refused", open.refused as f64, None);
    Ok(())
}

fn ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Per-request stage durations of the decomposition pass, nanoseconds.
#[derive(Default)]
struct Stages {
    parse: Vec<f64>,
    admit: Vec<f64>,
    materialise: Vec<f64>,
    simulate: Vec<f64>,
    encode: Vec<f64>,
    sums_ns: Vec<f64>,
}

/// The request path a daemon worker runs, as public calls: parse, warm
/// trace lookup, replay on the shared plan cache (namespaced by config
/// hash, as the daemon does), response encoding.
struct RequestPath<'l> {
    library: &'l SiLibrary,
    traces: LruCache<Trace>,
    plans: Arc<PlanCache>,
    token: CancelToken,
}

impl<'l> RequestPath<'l> {
    /// A path with caches as warm as the daemon's after its warm-up: every
    /// payload cached and every distinct request replayed once.
    fn warm(library: &'l SiLibrary, mix: &Mix) -> Self {
        let path = RequestPath {
            library,
            traces: LruCache::new(ServerConfig::default().trace_cache_capacity),
            plans: Arc::new(PlanCache::default()),
            token: CancelToken::new(),
        };
        for (payload, trace) in mix.payloads.iter().zip(&mix.traces) {
            let _ = path
                .traces
                .get_or_try_insert(payload, || Ok::<_, String>(trace.clone()));
        }
        for combo in &mix.combos {
            let spec = Self::parse(&format!(r#"{{"op":"submit","id":"w{}"#, combo.tail));
            let _ = path.serve(&spec);
        }
        path
    }

    fn parse(line: &str) -> JobSpec {
        match parse_request(line) {
            Ok(Request::Submit(spec)) => *spec,
            _ => panic!("the benchmark's own submit line must parse: {line:.80}"),
        }
    }

    fn materialise(&self, spec: &JobSpec) -> Option<Arc<Trace>> {
        self.traces
            .get_or_try_insert(&spec.trace_payload, || {
                materialise_trace(&spec.trace_payload)
            })
            .ok()
    }

    fn plans(&self, spec: &JobSpec) -> PlanCacheHandle {
        PlanCacheHandle::new(Arc::clone(&self.plans)).with_namespace(spec.config_hash())
    }

    fn respond(spec: &JobSpec, stats: RunStats) -> String {
        JobOutcome {
            id: spec.id.clone(),
            status: JobStatus::Completed,
            stats: Some(stats),
            attempts: 1,
            latency_ms: 0,
        }
        .to_line()
    }

    /// Everything after parsing: the response line, or `None` if the
    /// payload does not materialise.
    fn serve(&self, spec: &JobSpec) -> Option<String> {
        let trace = self.materialise(spec)?;
        let run = simulate_cancellable_shared(
            self.library,
            &trace,
            &spec.config,
            &self.token,
            Some(&self.plans(spec)),
        );
        Some(Self::respond(spec, run.stats))
    }
}

/// The submit line of the `i`-th request of a phase.
fn request_line(phase: char, i: usize, combo: &Combo) -> String {
    format!(r#"{{"op":"submit","id":"{phase}{i}{}"#, combo.tail)
}

/// The capacity phase: `passes` passes over every distinct request
/// through the request path on this thread, every response checked.
/// Returns each request's fastest microseconds over the passes. Every
/// distinct request runs equally often, so a seed's random draw cannot
/// move the result; the mix's shares enter as weights.
fn capacity(
    path: &RequestPath<'_>,
    mix: &Mix,
    passes: usize,
    speed: &mut HostSpeed,
    o: &mut Outcome,
) -> Vec<f64> {
    let lines: Vec<String> = mix
        .combos
        .iter()
        .enumerate()
        .map(|(i, combo)| request_line('c', i, combo))
        .collect();
    let mut fastest = vec![f64::INFINITY; lines.len()];
    for _ in 0..passes {
        speed.sample();
        for ((line, combo), fastest) in lines.iter().zip(&mix.combos).zip(&mut fastest) {
            let started = Instant::now();
            let response = path.serve(&RequestPath::parse(line));
            *fastest = fastest.min(micros(started.elapsed()));
            o.attempted += 1;
            if !response.is_some_and(|r| r.ends_with(combo.stats_suffix.as_str())) {
                o.failed += 1;
            }
        }
    }
    speed.sample();
    fastest
}

/// Admission as the daemon runs it: `submit` on an idle in-process
/// server; the admitted job is cancelled at once, so it never executes.
fn admit(server: &Server, spec: JobSpec) -> bool {
    match server.submit(spec) {
        SubmitResult::Enqueued(ticket) => {
            ticket.cancel.cancel();
            ticket.outcome.recv().is_ok()
        }
        SubmitResult::Refused(_) => false,
    }
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays the open-loop phase's requests in process, admission
/// included, on warm caches: one untraced pass as the overhead baseline,
/// then a traced pass with a span per stage and the shim's layers inside
/// the simulation. Every response is checked against the reference.
fn decompose(
    ctx: &mut Ctx,
    o: &mut Outcome,
    path: &RequestPath<'_>,
    mix: &Mix,
    requests: &[usize],
) -> Stages {
    let server = Server::start(
        h264_si_library(),
        ServerConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            flight_dir: None,
            ..ServerConfig::default()
        },
    );
    let lines: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, &c)| request_line('d', i, &mix.combos[c]))
        .collect();

    let started = Instant::now();
    for line in &lines {
        let spec = RequestPath::parse(line);
        if admit(&server, spec.clone()) {
            std::hint::black_box(path.serve(&spec));
        }
    }
    let baseline = started.elapsed();

    let mut tracer = ctx
        .tracer
        .take()
        .expect("decomposition runs in the traced run");
    let mut layers = Layers::default();
    let mut st = Stages::default();
    let started = Instant::now();
    let pass = tracer.open("pass", 0);
    for (i, (line, &combo)) in lines.iter().zip(requests).enumerate() {
        let job = i as u64;
        let request = tracer.open("serve.request", job);
        o.attempted += 1;

        let span = tracer.open("serve.parse", job);
        let t = Instant::now();
        let spec = RequestPath::parse(line);
        st.parse.push(elapsed_ns(t));
        tracer.close(span);

        let admitted = spec.clone();
        let span = tracer.open("serve.admit", job);
        let t = Instant::now();
        let ok = admit(&server, admitted);
        st.admit.push(elapsed_ns(t));
        tracer.close(span);

        let span = tracer.open("serve.materialise", job);
        let t = Instant::now();
        let trace = path.materialise(&spec);
        st.materialise.push(elapsed_ns(t));
        tracer.close(span);
        let (true, Some(trace)) = (ok, trace) else {
            o.failed += 1;
            tracer.close(request);
            continue;
        };

        let span = tracer.open("serve.simulate", job);
        let t = Instant::now();
        let mut own = Layers::default();
        let stats = simulate_traced(
            path.library,
            &trace,
            &spec.config,
            Some(&path.plans(&spec)),
            &mut [],
            &mut own,
        );
        st.simulate.push(elapsed_ns(t) - own.reference_ns as f64);
        tracer.close_with(
            span,
            own.replay.ns + own.reference_ns,
            Some(layers_json(&own)),
        );
        layers.merge(&own);

        let span = tracer.open("serve.encode", job);
        let t = Instant::now();
        let response = RequestPath::respond(&spec, stats);
        st.encode.push(elapsed_ns(t));
        tracer.close(span);
        tracer.close(request);

        let n = st.encode.len() - 1;
        st.sums_ns
            .push(st.parse[i] + st.admit[i] + st.materialise[i] + st.simulate[n] + st.encode[n]);
        if !response.ends_with(mix.combos[combo].stats_suffix.as_str()) {
            o.failed += 1;
        }
    }
    tracer.close(pass);
    let traced = started.elapsed();
    server.await_drained();

    o.passes = 1;
    replay_metrics(o, &tracer, std::slice::from_ref(&layers));
    let traced = traced.saturating_sub(Duration::from_nanos(layers.reference_ns));
    o.set(
        "trace_overhead",
        traced.as_secs_f64() / baseline.as_secs_f64().max(1e-9),
        None,
    );
    ctx.tracer = Some(tracer);
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_cover_every_kind_in_proportion() {
        let mut rng = Rng(2008);
        let (named, inline) = (NAMED_COMBOS, INLINE_COMBOS);
        let draws = draw(&mut rng, 20_000);
        let share = |lo: usize, hi: usize| {
            draws.iter().filter(|&&c| c >= lo && c < hi).count() as f64 / 20_000.0
        };
        assert!((share(0, named) - 0.80).abs() < 0.02);
        assert!((share(named, named + inline) - 0.15).abs() < 0.02);
        assert!((share(named + inline, usize::MAX) - 0.05).abs() < 0.01);
        let total = named + inline + FAULTY_COMBOS;
        assert!(draws.iter().all(|&c| c < total));
        assert_eq!(draw(&mut Rng(7), 50), draw(&mut Rng(7), 50), "seeded");
    }
}
