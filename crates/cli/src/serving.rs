//! `serve` and `submit` subcommands: the job-server daemon and its
//! batch client.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;

use rispp_core::SchedulerKind;
use rispp_h264::h264_si_library;
use rispp_serve::{encode_stats, encode_submit, JobSpec, Server, ServerConfig};
use rispp_sim::{simulate as run_simulation, SimConfig};
use rispp_telemetry::JsonValue;

use crate::args::Options;
use crate::commands::{fail, fault_options, scheduler_kind, write_metrics};

/// `rispp-cli serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
/// [--deadline-ms MS] [--poison-threshold N] [--max-attempts N]
/// [--cache-capacity N] [--metrics-out PATH] [--flight-dir DIR]
/// [--flight-events N]`.
pub fn serve(args: &[String]) -> ExitCode {
    let known = [
        "addr",
        "workers",
        "queue-capacity",
        "deadline-ms",
        "poison-threshold",
        "max-attempts",
        "cache-capacity",
        "metrics-out",
        "flight-dir",
        "flight-events",
    ];
    let options = match Options::parse(args, &known) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let addr = options.value("addr").unwrap_or("127.0.0.1:7208");
    let mut config = ServerConfig::default();
    let parsed: Result<(), String> = (|| {
        config.workers = options.number("workers", config.workers)?;
        config.queue_capacity = options.number("queue-capacity", config.queue_capacity)?;
        config.poison_threshold = options.number("poison-threshold", config.poison_threshold)?;
        config.max_attempts = options.number("max-attempts", config.max_attempts)?;
        config.trace_cache_capacity =
            options.number("cache-capacity", config.trace_cache_capacity)?;
        if options.value("deadline-ms").is_some() {
            config.default_deadline_ms = Some(options.number("deadline-ms", 0u64)?);
        }
        if let Some(dir) = options.value("flight-dir") {
            config.flight_dir = Some(std::path::PathBuf::from(dir));
        }
        config.flight_events = options.number("flight-events", config.flight_events)?;
        Ok(())
    })();
    if let Err(e) = parsed {
        return fail(&e);
    }
    let metrics_out = options.value("metrics-out").map(str::to_owned);

    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot bind `{addr}`: {e}")),
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_owned());

    let stop = rispp_serve::signal::install_shutdown_flag();
    let server = Server::start(h264_si_library(), config);
    // Scripts wait for this exact line (and parse the bound address from
    // it when --addr used port 0).
    println!("rispp-serve listening on {local}");
    let _ = std::io::stdout().flush();

    if let Err(e) = rispp_serve::run_daemon(&server, listener, stop) {
        return fail(&format!("daemon failed: {e}"));
    }

    let snapshot = server.metrics_snapshot();
    if let Some(path) = metrics_out {
        if let Err(e) = write_metrics(&path, &snapshot) {
            return fail(&e);
        }
        eprintln!("wrote metrics to {path}");
    }
    println!(
        "drained: {} completed, {} rejected, {} timeouts, {} cancelled, {} panicked, {} poisoned",
        snapshot.counter("rispp_serve_jobs_completed_total"),
        snapshot.counter("rispp_serve_jobs_rejected_total"),
        snapshot.counter("rispp_serve_jobs_timeout_total"),
        snapshot.counter("rispp_serve_jobs_cancelled_total"),
        snapshot.counter("rispp_serve_jobs_panicked_total"),
        snapshot.counter("rispp_serve_jobs_poisoned_total"),
    );
    ExitCode::SUCCESS
}

/// `rispp-cli submit --addr HOST:PORT [--frames N] [--acs N | --from N --to N]
/// [--scheduler KIND] [--repeat K] [--fault-rate R] [--fault-seed S]
/// [--max-retries N] [--deadline-ms MS] [--chaos-panics N]
/// [--compare-local] [--shutdown] [--health]`.
pub fn submit(args: &[String]) -> ExitCode {
    let known = [
        "addr",
        "frames",
        "acs",
        "from",
        "to",
        "scheduler",
        "repeat",
        "fault-rate",
        "fault-seed",
        "max-retries",
        "deadline-ms",
        "chaos-panics",
        "compare-local",
        "shutdown",
        "health",
    ];
    let options = match Options::parse(args, &known) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let Some(addr) = options.value("addr") else {
        return fail("submit requires --addr HOST:PORT");
    };

    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot connect to `{addr}`: {e}")),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return fail(&format!("cannot clone connection: {e}")),
    };
    let mut reader = BufReader::new(stream);
    let mut read_line = move || -> Result<JsonValue, String> {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("connection lost: {e}"))?;
        if line.trim().is_empty() {
            return Err("server closed the connection".into());
        }
        JsonValue::parse(line.trim()).map_err(|e| format!("bad response: {e}"))
    };

    if options.flag("health") {
        if writeln!(writer, r#"{{"op":"health"}}"#).is_err() {
            return fail("cannot send health request");
        }
        return match read_line() {
            Ok(v) => {
                println!(
                    "status={} queue_depth={} inflight={}",
                    v.get("status").and_then(JsonValue::as_str).unwrap_or("?"),
                    v.get("queue_depth")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0),
                    v.get("inflight").and_then(JsonValue::as_u64).unwrap_or(0),
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }

    // Build the fig7-shaped batch: one job per container count in
    // [--from, --to] (default --acs only), times --repeat.
    let batch: Result<Vec<JobSpec>, String> = (|| {
        let frames: u32 = options.number("frames", 4)?;
        let acs: u16 = options.number("acs", 15)?;
        let from: u16 = options.number("from", acs)?;
        let to: u16 = options.number("to", acs)?;
        if from > to {
            return Err("--from must not exceed --to".into());
        }
        let repeat: u32 = options.number("repeat", 1)?;
        let scheduler = match options.value("scheduler") {
            None => SchedulerKind::Hef,
            Some(name) => {
                scheduler_kind(name).ok_or_else(|| format!("unknown scheduler `{name}`"))?
            }
        };
        let fault = fault_options(&options)?;
        let deadline_ms = match options.value("deadline-ms") {
            None => None,
            Some(_) => Some(options.number("deadline-ms", 0u64)?),
        };
        let chaos_panics: u32 = options.number("chaos-panics", 0)?;
        let mut specs = Vec::new();
        for _ in 0..repeat.max(1) {
            for containers in from..=to {
                let mut config = SimConfig::rispp(containers, scheduler);
                if let Some(f) = fault {
                    config = config.with_fault(f);
                }
                specs.push(JobSpec {
                    id: format!("job-{}", specs.len()),
                    config,
                    trace_payload: format!("fig7:{frames}"),
                    deadline_ms,
                    chaos_panics,
                });
            }
        }
        Ok(specs)
    })();
    let batch = match batch {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };

    // Pipelined: send every submit, then read the responses (the server
    // answers in request order).
    for spec in &batch {
        if writeln!(writer, "{}", encode_submit(spec)).is_err() {
            return fail("connection lost while submitting");
        }
    }

    let compare_local = options.flag("compare-local");
    let library = compare_local.then(h264_si_library);
    let mut completed = 0usize;
    let mut mismatches = 0usize;
    let mut failures = 0usize;
    for spec in &batch {
        let response = match read_line() {
            Ok(v) => v,
            Err(e) => return fail(&e),
        };
        let id = response
            .get("id")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        let status = response
            .get("status")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        let latency = response
            .get("latency_ms")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        match status {
            "completed" => {
                completed += 1;
                let cycles = response
                    .get("stats")
                    .and_then(|s| s.get("total_cycles"))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                let mut verdict = String::new();
                if let Some(library) = &library {
                    // Bit-identity check: re-run the job through the
                    // batch path and compare the canonical encodings.
                    let trace = match rispp_serve::materialise_trace(&spec.trace_payload) {
                        Ok(t) => t,
                        Err(e) => return fail(&e),
                    };
                    let local = run_simulation(library, &trace, &spec.config);
                    let local_json =
                        JsonValue::parse(&encode_stats(&local)).expect("local stats encode");
                    if response.get("stats") == Some(&local_json) {
                        verdict = " stats=bit-identical".into();
                    } else {
                        mismatches += 1;
                        verdict = " stats=MISMATCH".into();
                    }
                }
                println!("{id}: completed in {latency} ms, {cycles} cycles{verdict}");
            }
            other => {
                failures += 1;
                let extra = response
                    .get("queue_depth")
                    .and_then(JsonValue::as_u64)
                    .map(|d| format!(" queue_depth={d}"))
                    .unwrap_or_default();
                println!("{id}: {other}{extra}");
            }
        }
    }
    println!(
        "batch: {} submitted, {completed} completed, {failures} failed{}",
        batch.len(),
        if compare_local {
            format!(", {mismatches} stats mismatches")
        } else {
            String::new()
        }
    );

    if options.flag("shutdown") {
        if writeln!(writer, r#"{{"op":"shutdown"}}"#).is_err() {
            return fail("connection lost while requesting shutdown");
        }
        match read_line() {
            Ok(v) if v.get("ok").and_then(JsonValue::as_bool) == Some(true) => {
                println!("server draining");
            }
            Ok(_) | Err(_) => return fail("shutdown request not acknowledged"),
        }
    }

    if mismatches > 0 || failures > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
