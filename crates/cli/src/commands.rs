//! Subcommand implementations.

use std::process::ExitCode;

use rispp_core::{GreedySelector, ScheduleRequest, SchedulerKind, SelectionRequest};
use rispp_fabric::ReconfigPortConfig;
use rispp_h264::{h264_si_library, SiKind};
use rispp_model::Molecule;
use rispp_sim::{
    simulate as run_simulation, simulate_multi, simulate_observed_planned, FaultConfig,
    MetricsObserver, PerfettoTraceObserver, SimConfig, SimEvent, SimObserver, SystemKind,
    TenancyConfig, TenantArbitration, TenantPolicy, Trace, TraceLogObserver,
};
use rispp_telemetry::{Bundle, JsonValue};

use crate::args::Options;
use crate::experiments::quick_workload;

pub(crate) fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// Collects [`SimEvent::Decision`] payloads for the `--explain` rendering.
#[derive(Default)]
struct DecisionLog(Vec<rispp_core::DecisionExplain>);

impl SimObserver for DecisionLog {
    fn on_event(&mut self, event: &SimEvent) {
        if let SimEvent::Decision(d) = event {
            self.0.push((**d).clone());
        }
    }

    fn wants_segments(&self) -> bool {
        false
    }
}

/// Writes `contents` to `path`, treating `.prom`/`.txt` suffixes on a
/// metrics path as a request for the Prometheus text format.
pub(crate) fn write_metrics(path: &str, snapshot: &rispp_telemetry::MetricsSnapshot) -> Result<(), String> {
    let text = if path.ends_with(".prom") || path.ends_with(".txt") {
        snapshot.to_prometheus_text()
    } else {
        snapshot.to_json()
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write metrics `{path}`: {e}"))
}

/// Parses and validates a `--fault-rate` value. The rate is a probability
/// in `[0, 1]` that expands to integer parts-per-million inside
/// [`rispp_fabric::fault::FaultModel`]; anything above 1 would silently
/// saturate at [`rispp_fabric::fault::PPM`] (1,000,000 ppm = certainty)
/// deep in the model, so the CLI rejects it up front with the ceiling
/// spelled out. Shared by every fault-injecting subcommand (`simulate`
/// and `submit`'s job specs) so they all fail identically.
fn parse_fault_rate(raw: &str) -> Result<f64, String> {
    let rate: f64 = raw
        .parse()
        .map_err(|_| format!("invalid value `{raw}` for --fault-rate"))?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "--fault-rate must be a probability in [0, 1] — it scales to parts per million, \
             capped at {} ppm (= 1.0); got `{raw}` which would silently saturate",
            rispp_fabric::fault::PPM
        ));
    }
    Ok(rate)
}

/// Parses the shared fault-injection options `--fault-rate RATE`
/// (probability in `[0, 1]`, validated by [`parse_fault_rate`]),
/// `--fault-seed SEED` and `--max-retries N`. Returns `None` when
/// `--fault-rate` is absent, so runs without the flag stay bit-identical
/// to builds that predate fault injection.
pub(crate) fn fault_options(options: &Options) -> Result<Option<FaultConfig>, String> {
    let Some(raw) = options.value("fault-rate") else {
        return Ok(None);
    };
    let mut fault = FaultConfig::uniform(parse_fault_rate(raw)?);
    fault.seed = options.number("fault-seed", FaultConfig::DEFAULT_SEED)?;
    fault.max_retries = options.number("max-retries", fault.max_retries)?;
    Ok(Some(fault))
}

pub(crate) fn scheduler_kind(name: &str) -> Option<SchedulerKind> {
    match name.to_ascii_lowercase().as_str() {
        "hef" => Some(SchedulerKind::Hef),
        "asf" => Some(SchedulerKind::Asf),
        "fsfr" => Some(SchedulerKind::Fsfr),
        "sjf" => Some(SchedulerKind::Sjf),
        _ => None,
    }
}

fn system_kind(name: &str) -> Option<SystemKind> {
    match name.to_ascii_lowercase().as_str() {
        "molen" => Some(SystemKind::Molen),
        "onechip" => Some(SystemKind::OneChip),
        "software" => Some(SystemKind::SoftwareOnly),
        other => scheduler_kind(other).map(SystemKind::Rispp),
    }
}

/// `rispp-cli inventory [--molecules]`.
pub fn inventory(args: &[String]) -> ExitCode {
    let options = match Options::parse(args, &["molecules"]) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let library = h264_si_library();
    println!("H.264 SI library ({} SIs over {} atom types):", library.len(), library.arity());
    for si in library.iter() {
        println!(
            "  {:<12} sw {:>6} cycles, {:>2} molecules over {} atom types",
            si.name(),
            si.software_latency(),
            si.molecule_count(),
            si.atom_type_count()
        );
        if options.flag("molecules") {
            for (i, v) in si.variants().iter().enumerate() {
                println!(
                    "      m{:<2} {} -> {:>5} cycles ({} atoms)",
                    i,
                    v.atoms,
                    v.latency,
                    v.atoms.total_atoms()
                );
            }
        }
    }
    println!("\natom types:");
    for (id, info) in library.universe().iter() {
        println!(
            "  {id} {:<14} bitstream {:>6} B, {:>4} slices",
            info.name, info.bitstream_bytes, info.slices
        );
    }
    ExitCode::SUCCESS
}

/// `rispp-cli schedule [--acs N] [--scheduler KIND]`.
pub fn schedule(args: &[String]) -> ExitCode {
    let options = match Options::parse(args, &["acs", "scheduler"]) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let acs: u16 = match options.number("acs", 16) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let kinds: Vec<SchedulerKind> = match options.value("scheduler") {
        None => SchedulerKind::ALL.to_vec(),
        Some(name) => match scheduler_kind(name) {
            Some(k) => vec![k],
            None => return fail(&format!("unknown scheduler `{name}`")),
        },
    };

    let library = h264_si_library();
    let demands = vec![
        (SiKind::Dct.id(), 9_504),
        (SiKind::Ht2x2.id(), 792),
        (SiKind::Ht4x4.id(), 80),
        (SiKind::Mc.id(), 360),
        (SiKind::IPredHdc.id(), 16),
        (SiKind::IPredVdc.id(), 20),
    ];
    let selection = GreedySelector.select(&SelectionRequest::new(&library, &demands, acs));
    println!("Encoding-Engine hot spot, {acs} ACs, cold fabric. Selection:");
    for s in &selection {
        let si = library.si(s.si).expect("selected");
        let v = &si.variants()[s.variant_index];
        println!(
            "  {:<12} m{} {} @ {} cycles (sw {})",
            si.name(),
            s.variant_index,
            v.atoms,
            v.latency,
            si.software_latency()
        );
    }
    let mut expected = vec![0u64; library.len()];
    for (si, e) in demands {
        expected[si.index()] = e;
    }
    let request = match ScheduleRequest::new(
        &library,
        selection,
        Molecule::zero(library.arity()),
        expected,
    ) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    for kind in kinds {
        let schedule = kind.schedule(&request);
        println!("\n{kind} schedule ({} atom loads):", schedule.len());
        for (i, step) in schedule.steps().iter().enumerate() {
            let name = library
                .universe()
                .info(step.atom)
                .map(|t| t.name.as_str())
                .unwrap_or("?");
            match step.completes {
                Some((si, v)) => {
                    let si_name = library.si(si).map(|s| s.name()).unwrap_or("?");
                    println!("  {:>2}. {name:<14} completes {si_name} m{v}", i + 1);
                }
                None => println!("  {:>2}. {name}", i + 1),
            }
        }
    }
    ExitCode::SUCCESS
}

/// `rispp-cli simulate [--frames N] [--acs N] [--system KIND] [--oracle]
/// [--bandwidth MBPS] [--fault-rate R] [--fault-seed S] [--max-retries N]
/// [--csv] [--log-events PATH] [--metrics-out PATH] [--trace-out PATH]
/// [--explain]`.
pub fn simulate(args: &[String]) -> ExitCode {
    let known = [
        "frames",
        "acs",
        "system",
        "oracle",
        "bandwidth",
        "fault-rate",
        "fault-seed",
        "max-retries",
        "csv",
        "log-events",
        "metrics-out",
        "trace-out",
        "explain",
    ];
    let options = match Options::parse(args, &known) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let frames: u32 = match options.number("frames", 20) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let acs: u16 = match options.number("acs", 15) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let system = match options.value("system") {
        None => SystemKind::Rispp(SchedulerKind::Hef),
        Some(name) => match system_kind(name) {
            Some(s) => s,
            None => return fail(&format!("unknown system `{name}`")),
        },
    };
    let mut config = SimConfig {
        containers: acs,
        system,
        ..SimConfig::rispp(acs, SchedulerKind::Hef)
    };
    if options.flag("oracle") {
        config = config.with_oracle(true);
    }
    if options.value("bandwidth").is_some() {
        let mbps: u64 = match options.number("bandwidth", 0) {
            Ok(v) => v,
            Err(e) => return fail(&e),
        };
        // Reject unusable ports up front instead of panicking mid-run.
        let port = ReconfigPortConfig::with_bandwidth(mbps.saturating_mul(1_000_000));
        if let Err(e) = port.validate() {
            return fail(&format!("--bandwidth {mbps}: {e}"));
        }
        config = config.with_port_bandwidth(port.bandwidth_bytes_per_sec);
    }
    match fault_options(&options) {
        Ok(None) => {}
        Ok(Some(fault)) => config = config.with_fault(fault),
        Err(e) => return fail(&e),
    }

    let metrics_out = options.value("metrics-out").map(str::to_owned);
    let trace_out = options.value("trace-out").map(str::to_owned);
    let explain = options.flag("explain");
    // Decision capture feeds --explain, the metrics registry and the trace
    // instants; the fabric journal feeds container timelines. Both stay
    // off (and cost nothing) unless some telemetry sink asked for them.
    if explain || metrics_out.is_some() || trace_out.is_some() {
        config = config.with_explain(true);
    }
    if metrics_out.is_some() || trace_out.is_some() {
        config = config.with_journal(true);
    }

    eprintln!("encoding {frames} CIF frames...");
    let workload = quick_workload(frames);
    let library = h264_si_library();

    let mut metrics = metrics_out.as_ref().map(|_| MetricsObserver::new());
    let mut perfetto = trace_out.as_ref().map(|_| PerfettoTraceObserver::new());
    let mut decisions = explain.then(DecisionLog::default);
    // --log-events streams write-through: one line of text in memory at a
    // time, so logging long runs does not buffer millions of events.
    let mut log = match options.value("log-events") {
        None => None,
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some((
                path.to_owned(),
                TraceLogObserver::streaming(std::io::BufWriter::new(file)),
            )),
            Err(e) => return fail(&format!("cannot create event log `{path}`: {e}")),
        },
    };

    let (stats, plan) = {
        let mut extra: Vec<&mut dyn SimObserver> = Vec::new();
        if let Some(m) = metrics.as_mut() {
            extra.push(m);
        }
        if let Some(p) = perfetto.as_mut() {
            extra.push(p);
        }
        if let Some(d) = decisions.as_mut() {
            extra.push(d);
        }
        if let Some((_, l)) = log.as_mut() {
            extra.push(l);
        }
        simulate_observed_planned(&library, workload.trace(), &config, None, &mut extra)
    };
    if let Some(m) = metrics.as_mut() {
        m.record_plan_cache(&plan);
    }

    if let Some((path, mut l)) = log {
        if let Err(e) = l.finish() {
            return fail(&format!("cannot write event log `{path}`: {e}"));
        }
        eprintln!("streamed event log to {path}");
    }
    if let (Some(path), Some(m)) = (&metrics_out, metrics) {
        if let Err(e) = write_metrics(path, &m.into_snapshot()) {
            return fail(&e);
        }
        eprintln!("wrote metrics to {path}");
    }
    if let (Some(path), Some(p)) = (&trace_out, perfetto) {
        if let Err(e) = std::fs::write(path, p.into_json()) {
            return fail(&format!("cannot write trace `{path}`: {e}"));
        }
        eprintln!("wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(d) = decisions {
        println!(
            "{} run-time decisions (cycle-stamped, all scored candidates):",
            d.0.len()
        );
        for decision in &d.0 {
            print!("{decision}");
        }
    }

    if options.flag("csv") {
        println!("{}", rispp_sim::export::summary_csv_header());
        println!("{}", rispp_sim::export::summary_csv_row(&stats));
    } else {
        println!("system:            {}", stats.system);
        println!("total cycles:      {} ({:.1} M)", stats.total_cycles, stats.total_cycles as f64 / 1e6);
        println!("SI executions:     {}", stats.total_executions());
        println!("hardware fraction: {:.1}%", stats.hardware_fraction() * 100.0);
        println!("reconfigurations:  {}", stats.reconfigurations);
        println!(
            "port busy:         {:.1}% of execution time",
            stats.reconfiguration_cycles as f64 * 100.0 / stats.total_cycles.max(1) as f64
        );
        if config.fault.is_some() {
            println!(
                "faults injected:   {} ({} cycles lost on the port)",
                stats.faults_injected, stats.fault_cycles_lost
            );
            println!("load retries:      {}", stats.load_retries);
            println!("ACs quarantined:   {}", stats.containers_quarantined);
            println!("cISA degradations: {}", stats.degraded_to_software);
        }
        println!(
            "workload quality:  {:.1} dB PSNR, {:.0} kbit/frame",
            workload.summary().mean_psnr_y,
            workload.summary().mean_kbits_per_frame
        );
    }
    ExitCode::SUCCESS
}

/// `rispp-cli profile [--frames N] [--acs N] [--system KIND]
/// [--metrics-out PATH] [--trace-out PATH]`.
///
/// Runs one telemetry-enabled simulation and prints a cycle-domain
/// profile: where the simulated cycles went per SI, how each Atom
/// Container spent the run, and what the run-time system decided.
pub fn profile(args: &[String]) -> ExitCode {
    let known = ["frames", "acs", "system", "metrics-out", "trace-out"];
    let options = match Options::parse(args, &known) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let frames: u32 = match options.number("frames", 20) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let acs: u16 = match options.number("acs", 15) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let system = match options.value("system") {
        None => SystemKind::Rispp(SchedulerKind::Hef),
        Some(name) => match system_kind(name) {
            Some(s) => s,
            None => return fail(&format!("unknown system `{name}`")),
        },
    };
    let config = SimConfig {
        containers: acs,
        system,
        ..SimConfig::rispp(acs, SchedulerKind::Hef)
    }
    .with_explain(true)
    .with_journal(true);

    eprintln!("encoding {frames} CIF frames...");
    let workload = quick_workload(frames);
    let library = h264_si_library();

    let mut metrics = MetricsObserver::new();
    let mut perfetto = options.value("trace-out").map(|_| PerfettoTraceObserver::new());
    let (stats, plan) = {
        let mut extra: Vec<&mut dyn SimObserver> = vec![&mut metrics];
        if let Some(p) = perfetto.as_mut() {
            extra.push(p);
        }
        simulate_observed_planned(&library, workload.trace(), &config, None, &mut extra)
    };
    metrics.record_plan_cache(&plan);
    let snapshot = metrics.into_snapshot();

    println!(
        "{} on {acs} ACs, {frames} frames: {} cycles ({:.1} M)",
        stats.system,
        stats.total_cycles,
        stats.total_cycles as f64 / 1e6
    );
    let total = stats.total_cycles.max(1);
    println!(
        "port busy {:.1}%, {} reconfigurations, {} decisions",
        snapshot.counter("rispp_port_busy_cycles_total") as f64 * 100.0 / total as f64,
        snapshot.counter("rispp_reconfigurations_total"),
        snapshot.counter("rispp_decisions_total")
    );
    if plan.lookups() > 0 {
        println!(
            "plan cache: {} hits / {} lookups ({:.1}% hit rate), {} insertions, \
             {} evictions, {} epoch bumps",
            plan.hits,
            plan.lookups(),
            plan.hit_rate() * 100.0,
            plan.insertions,
            plan.evictions,
            plan.epoch_bumps
        );
    }

    println!("\nper-SI cycle profile:");
    println!("  SI            executions   hw share    cycles     mean lat");
    for si in library.iter() {
        let id = si.id().0;
        let execs = snapshot.counter(&format!("rispp_si_executions_total{{si=\"{id}\"}}"));
        if execs == 0 {
            continue;
        }
        let hw = snapshot.counter(&format!("rispp_si_hardware_executions_total{{si=\"{id}\"}}"));
        let (sum, count) = match snapshot.get(&format!("rispp_si_latency_cycles{{si=\"{id}\"}}")) {
            Some(rispp_telemetry::Metric::Histogram(h)) => (h.sum(), h.count()),
            _ => (0, 0),
        };
        println!(
            "  {:<12} {:>11}   {:>7.1}% {:>9}   {:>10.1}",
            si.name(),
            execs,
            hw as f64 * 100.0 / execs.max(1) as f64,
            sum,
            sum as f64 / count.max(1) as f64
        );
    }

    println!("\nper-container time profile (% of run):");
    println!("   AC      load     ready      idle  quarantined");
    for c in 0..acs {
        let pct = |family: &str| {
            snapshot.counter(&format!("{family}{{container=\"{c}\"}}")) as f64 * 100.0
                / total as f64
        };
        let load = pct("rispp_container_load_cycles_total");
        let ready = pct("rispp_container_ready_cycles_total");
        let idle = pct("rispp_container_idle_cycles_total");
        let quarantined = pct("rispp_container_quarantined_cycles_total");
        if load + ready + idle + quarantined == 0.0 {
            continue;
        }
        println!(
            "  {c:>3} {load:>8.1}% {ready:>8.1}% {idle:>8.1}% {quarantined:>11.1}%"
        );
    }

    if let Some(path) = options.value("metrics-out") {
        if let Err(e) = write_metrics(path, &snapshot) {
            return fail(&e);
        }
        eprintln!("wrote metrics to {path}");
    }
    if let (Some(path), Some(p)) = (options.value("trace-out"), perfetto) {
        if let Err(e) = std::fs::write(path, p.into_json()) {
            return fail(&format!("cannot write trace `{path}`: {e}"));
        }
        eprintln!("wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }
    ExitCode::SUCCESS
}

/// `rispp-cli check-trace --file PATH`.
///
/// Validates that a `--trace-out` document is well-formed Chrome
/// trace-event JSON with at least one Atom Container track and at least
/// one scheduler decision event. Used by the CI telemetry smoke test.
pub fn check_trace(args: &[String]) -> ExitCode {
    let options = match Options::parse(args, &["file"]) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let Some(path) = options.value("file") else {
        return fail("check-trace requires --file PATH");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read `{path}`: {e}")),
    };
    let doc = match JsonValue::parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("`{path}` is not valid JSON: {e}")),
    };
    let Some(events) = doc.get("traceEvents").and_then(JsonValue::as_array) else {
        return fail(&format!("`{path}` has no traceEvents array"));
    };
    // Container tracks are threads of the "Atom Containers" process (pid 1)
    // announced via thread_name metadata events.
    let container_tracks = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("M")
                && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
                && e.get("pid").and_then(JsonValue::as_u64) == Some(1)
        })
        .count();
    let decision_events = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("decision"))
        .count();
    let spans = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .count();
    println!(
        "{path}: {} events, {container_tracks} container track(s), {spans} span(s), \
         {decision_events} decision event(s)",
        events.len()
    );
    if container_tracks == 0 {
        return fail("no Atom Container tracks in trace");
    }
    if decision_events == 0 {
        return fail("no scheduler decision events in trace");
    }
    ExitCode::SUCCESS
}

/// `rispp-cli forensics --file PATH`.
///
/// Loads a flight-recorder diagnostic bundle spilled by `rispp-serve`
/// and renders the causal chain behind the failure: admission identity,
/// plan-cache state at the dump, retained scheduler decisions, the
/// fabric journal tail and the event tail. Exits 0 iff the bundle
/// parses; a truncated-but-readable bundle is rendered with a warning.
pub fn forensics(args: &[String]) -> ExitCode {
    let options = match Options::parse(args, &["file"]) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let Some(path) = options.value("file") else {
        return fail("forensics requires --file PATH");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read `{path}`: {e}")),
    };
    let bundle = match Bundle::parse(&text) {
        Ok(b) => b,
        Err(e) => return fail(&format!("`{path}` is not a flight bundle: {e}")),
    };
    let meta = &bundle.meta;
    println!("flight bundle {path}");
    println!("  reason       {}", meta.reason);
    println!(
        "  identity     job `{}`  trace {}  tenant {}  attempt {}",
        meta.job_id, meta.trace_id, meta.tenant, meta.attempt
    );
    println!(
        "  config       hash {:016x}  (event schema v{})",
        meta.config_hash, meta.event_schema_version
    );
    if !bundle.complete {
        println!("  WARNING      bundle is truncated; the tail below is partial");
    }

    let count = |name: &str| {
        bundle
            .events
            .iter()
            .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some(name))
            .count()
    };
    let event_u64 = |row: &JsonValue, key: &str| row.get(key).and_then(JsonValue::as_u64);

    println!("\ncausal chain:");
    println!(
        "  admission    job `{}` admitted as trace {}; bundle captures attempt {}",
        meta.job_id, meta.trace_id, meta.attempt
    );
    println!(
        "  plan/replay  warm plan cache at dump: {} hits / {} misses",
        meta.plan_hits, meta.plan_misses
    );
    println!(
        "  bursts       event tail retains {} rows ({} older rows fell off the ring): \
         {} hot-spot entries, {} segments, {} atom loads",
        bundle.events.len(),
        meta.events_dropped,
        count("hot_spot_entered"),
        count("segment_executed"),
        count("load_completed"),
    );
    println!(
        "  faults       {} injected, {} load retries, {} quarantines, {} cISA degradations",
        count("fault_injected"),
        count("load_retried"),
        count("container_quarantined"),
        count("degraded_to_software"),
    );
    let last_cycle = bundle
        .events
        .iter()
        .rev()
        .find_map(|e| event_u64(e, "now").or_else(|| event_u64(e, "at")))
        .unwrap_or(0);
    if count("run_finished") > 0 {
        println!("  outcome      {} — run reached its end", meta.reason);
    } else {
        println!(
            "  outcome      {} — run stopped near cycle {last_cycle}, no run_finished event",
            meta.reason
        );
    }

    if bundle.explains.is_empty() {
        println!("\nno retained scheduler decisions");
    } else {
        println!(
            "\nlast {} scheduler decision(s) ({} older dropped):",
            bundle.explains.len(),
            meta.decisions_dropped
        );
        for (now, summary) in &bundle.explains {
            println!("  @{now:>12}  {summary}");
        }
    }
    if bundle.journal.is_empty() {
        println!("no retained fabric-journal entries");
    } else {
        println!(
            "last {} fabric-journal entries ({} older dropped):",
            bundle.journal.len(),
            meta.journal_dropped
        );
        for entry in &bundle.journal {
            let kind = entry.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
            let container = event_u64(entry, "container").unwrap_or(0);
            let at = event_u64(entry, "at").unwrap_or(0);
            match event_u64(entry, "atom") {
                Some(atom) => println!("  @{at:>12}  AC{container} {kind} atom {atom}"),
                None => println!("  @{at:>12}  AC{container} {kind}"),
            }
        }
    }
    println!(
        "perfetto fragment: {}",
        if bundle.perfetto.is_some() {
            "present (extract with any JSONL tool, open at https://ui.perfetto.dev)"
        } else {
            "absent"
        }
    );
    ExitCode::SUCCESS
}

/// The encoder workload rotated by `offset` invocations, so phase-shifted
/// tenant instances are never in the same hot spot at the same time.
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

/// `rispp-cli contend [--frames N] [--apps K] [--from N] [--to N]
/// [--scheduler KIND] [--arbitration rr|interleaved] [--csv]
/// [--json [PATH]]`.
///
/// Sweeps K phase-shifted encoder instances contending for a range of
/// fabric sizes under both tenancy policies: `shared` (one fabric,
/// cross-app Atom reuse, contention-aware eviction) and `partitioned`
/// (hard `containers / K` quota per app).
pub fn contend(args: &[String]) -> ExitCode {
    let known = [
        "frames",
        "apps",
        "from",
        "to",
        "scheduler",
        "arbitration",
        "csv",
        "json",
    ];
    let options = match Options::parse(args, &known) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let frames: u32 = match options.number("frames", 8) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let apps: u16 = match options.number("apps", 2) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if apps == 0 {
        return fail("--apps must be at least 1");
    }
    let from: u16 = match options.number("from", apps.max(6)) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let to: u16 = match options.number("to", 15) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if from > to {
        return fail("--from must not exceed --to");
    }
    if from < apps {
        return fail("--from must provide at least one container per app");
    }
    let scheduler = match options.value("scheduler") {
        None => SchedulerKind::Hef,
        Some(name) => match scheduler_kind(name) {
            Some(kind) => kind,
            None => return fail(&format!("unknown scheduler `{name}`")),
        },
    };
    let arbitration = match options.value("arbitration") {
        None => TenantArbitration::RoundRobin,
        Some("rr") | Some("round-robin") => TenantArbitration::RoundRobin,
        Some("interleaved") | Some("cycle") => TenantArbitration::CycleInterleaved,
        Some(other) => {
            return fail(&format!(
                "unknown arbitration `{other}` (expected rr | interleaved)"
            ))
        }
    };

    eprintln!(
        "encoding {frames} CIF frames and contending {apps} app(s) over {from}..={to} ACs..."
    );
    let workload = quick_workload(frames);
    let library = h264_si_library();
    let traces: Vec<Trace> = (0..usize::from(apps))
        .map(|i| phase_shift(workload.trace(), i))
        .collect();

    // Per-app cISA floor: the starvation bound every policy must respect.
    let software: Vec<u64> = traces
        .iter()
        .map(|t| run_simulation(&library, t, &SimConfig::software_only()).total_cycles)
        .collect();

    struct Point {
        containers: u16,
        policy: TenantPolicy,
        per_app: Vec<(u64, u64, u64)>, // (cycles, atoms_shared, evictions_contested)
        solo: Vec<u64>,
        aggregate: u64,
        makespan: u64,
        atoms_shared: u64,
        evictions_contested: u64,
    }
    let policy_name = |p: TenantPolicy| match p {
        TenantPolicy::Shared => "shared",
        TenantPolicy::Partitioned => "partitioned",
    };

    let mut points: Vec<Point> = Vec::new();
    for containers in from..=to {
        let solo_cfg = SimConfig::rispp(containers, scheduler);
        let solo: Vec<u64> = traces
            .iter()
            .map(|t| run_simulation(&library, t, &solo_cfg).total_cycles)
            .collect();
        for policy in [TenantPolicy::Shared, TenantPolicy::Partitioned] {
            let cfg = solo_cfg.with_tenants(TenancyConfig {
                count: apps,
                policy,
                arbitration,
            });
            let multi = simulate_multi(&library, &traces, &cfg);
            points.push(Point {
                containers,
                policy,
                per_app: multi
                    .per_tenant
                    .iter()
                    .map(|s| (s.total_cycles, s.atoms_shared, s.evictions_contested))
                    .collect(),
                solo: solo.clone(),
                aggregate: multi.aggregate_cycles,
                makespan: multi.makespan_cycles,
                atoms_shared: multi.atoms_shared,
                evictions_contested: multi.evictions_contested,
            });
        }
    }

    let starved = points.iter().any(|p| {
        p.per_app
            .iter()
            .zip(&software)
            .any(|(&(cycles, _, _), &floor)| cycles > floor)
    });
    let shared_wins = points.chunks(2).all(|pair| {
        // [Shared, Partitioned] per container count, in push order.
        pair[0].aggregate <= pair[1].aggregate
    });

    if options.flag("csv") {
        println!(
            "containers,policy,app,total_cycles,speedup_vs_software,solo_fraction,\
             atoms_shared,evictions_contested"
        );
        for p in &points {
            for (app, &(cycles, shared, contested)) in p.per_app.iter().enumerate() {
                println!(
                    "{},{},{app},{cycles},{:.4},{:.4},{shared},{contested}",
                    p.containers,
                    policy_name(p.policy),
                    software[app] as f64 / cycles.max(1) as f64,
                    p.solo[app] as f64 / cycles.max(1) as f64,
                );
            }
        }
    } else if !options.flag("json") && options.value("json").is_none() {
        println!(
            "{apps} apps, {} scheduler, {} arbitration:",
            scheduler.abbreviation(),
            match arbitration {
                TenantArbitration::RoundRobin => "round-robin",
                TenantArbitration::CycleInterleaved => "cycle-interleaved",
            }
        );
        println!("  #ACs  policy        aggregate   makespan    shared  contested  worst app");
        for p in &points {
            let worst = p
                .per_app
                .iter()
                .zip(&p.solo)
                .map(|(&(cycles, _, _), &solo)| solo as f64 / cycles.max(1) as f64)
                .fold(f64::INFINITY, f64::min);
            println!(
                "  {:>4}  {:<12}{:>9.1} M{:>9.1} M{:>10}{:>11}{:>9.1}%",
                p.containers,
                policy_name(p.policy),
                p.aggregate as f64 / 1e6,
                p.makespan as f64 / 1e6,
                p.atoms_shared,
                p.evictions_contested,
                100.0 * worst
            );
        }
        println!(
            "  shared aggregate <= partitioned at every fabric size: {shared_wins}; \
             tenant starved: {starved}"
        );
    }

    if options.flag("json") || options.value("json").is_some() {
        let mut doc = String::new();
        doc.push_str("{\n");
        doc.push_str("  \"benchmark\": \"multi_tenant_contention\",\n");
        doc.push_str(&format!("  \"frames\": {frames},\n"));
        doc.push_str(&format!("  \"apps\": {apps},\n"));
        doc.push_str(&format!(
            "  \"scheduler\": \"{}\",\n",
            scheduler.abbreviation()
        ));
        doc.push_str(&format!(
            "  \"arbitration\": \"{}\",\n",
            match arbitration {
                TenantArbitration::RoundRobin => "round_robin",
                TenantArbitration::CycleInterleaved => "cycle_interleaved",
            }
        ));
        doc.push_str(&format!("  \"container_range\": [{from}, {to}],\n"));
        doc.push_str(&format!(
            "  \"software_cycles\": [{}],\n",
            software
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        doc.push_str(&format!(
            "  \"shared_beats_partitioned_everywhere\": {shared_wins},\n"
        ));
        doc.push_str(&format!("  \"no_tenant_starved\": {},\n", !starved));
        doc.push_str("  \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            let per_app = p
                .per_app
                .iter()
                .enumerate()
                .map(|(app, &(cycles, shared, contested))| {
                    format!(
                        "{{\"app\": {app}, \"total_cycles\": {cycles}, \
                         \"speedup_vs_software\": {:.4}, \"solo_fraction\": {:.4}, \
                         \"atoms_shared\": {shared}, \"evictions_contested\": {contested}}}",
                        software[app] as f64 / cycles.max(1) as f64,
                        p.solo[app] as f64 / cycles.max(1) as f64,
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            doc.push_str(&format!(
                "    {{\"containers\": {}, \"policy\": \"{}\", \"aggregate_cycles\": {}, \
                 \"makespan_cycles\": {}, \"atoms_shared\": {}, \"evictions_contested\": {}, \
                 \"per_app\": [{per_app}]}}{}\n",
                p.containers,
                policy_name(p.policy),
                p.aggregate,
                p.makespan,
                p.atoms_shared,
                p.evictions_contested,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        doc.push_str("  ]\n}\n");
        match options.value("json") {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &doc) {
                    return fail(&format!("cannot write `{path}`: {e}"));
                }
                eprintln!("wrote {path}");
            }
            None => print!("{doc}"),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_rate_accepts_the_valid_range() {
        assert_eq!(parse_fault_rate("0").unwrap(), 0.0);
        assert_eq!(parse_fault_rate("0.05").unwrap(), 0.05);
        assert_eq!(parse_fault_rate("1").unwrap(), 1.0);
        assert_eq!(parse_fault_rate("1e-6").unwrap(), 1e-6);
    }

    #[test]
    fn fault_rate_rejects_saturating_and_garbage_values() {
        // Everything above 1.0 would silently clamp to PPM inside the
        // fault model; the error must name the ceiling instead.
        for raw in ["1.0001", "2", "1000000", "2000000", "inf", "NaN", "-0.1", "-inf"] {
            let err = parse_fault_rate(raw).unwrap_err();
            assert!(
                err.contains("1000000") && err.contains("[0, 1]"),
                "{raw}: error must cite the ppm ceiling, got: {err}"
            );
        }
        assert!(parse_fault_rate("half").unwrap_err().contains("invalid value"));
    }

    #[test]
    fn fault_options_is_shared_and_validates() {
        let parse = |args: &[&str]| {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            Options::parse(&owned, &["fault-rate", "fault-seed"]).unwrap()
        };
        assert!(fault_options(&parse(&[])).unwrap().is_none());
        let f = fault_options(&parse(&["--fault-rate", "0.25", "--fault-seed", "7"]))
            .unwrap()
            .unwrap();
        assert_eq!(f.rate_ppm, 250_000);
        assert_eq!(f.seed, 7);
        assert!(fault_options(&parse(&["--fault-rate", "1.5"])).is_err());
    }
}
