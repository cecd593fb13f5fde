//! Chaos test: the acceptance scenario from the issue.
//!
//! A mixed storm of jobs — nonzero fault-injection rate, injected
//! panics, mid-run cancellations — must leave the server with:
//!
//! * zero lost or duplicated jobs (every admitted job yields exactly one
//!   terminal outcome);
//! * the repeatedly-panicking config quarantined on the poison list;
//! * the server still serving fresh work afterwards;
//! * every completed job's `RunStats` bit-identical to a batch re-run of
//!   the same config and trace.
//!
//! A second test drives the same storm shape through the real TCP
//! daemon (`run_daemon` + NDJSON protocol) and checks the drain
//! handshake end to end.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rispp_core::SchedulerKind;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_serve::{
    encode_stats, encode_submit, encode_trace, materialise_trace, run_daemon, JobSpec, JobStatus,
    Server, ServerConfig, SubmitResult,
};
use rispp_sim::{simulate, Burst, FaultConfig, Invocation, SimConfig, Trace};
use rispp_telemetry::{Bundle, JsonValue};

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1]), 50)
        .unwrap();
    b.build().unwrap()
}

fn payload(invocations: usize, count: u32) -> String {
    let trace = Trace::from_invocations(
        (0..invocations)
            .map(|_| Invocation {
                hot_spot: HotSpotId(0),
                prologue_cycles: 10,
                bursts: vec![Burst {
                    si: SiId(0),
                    count,
                    overhead: 2,
                }],
                hints: vec![(SiId(0), u64::from(count))],
            })
            .collect(),
    );
    encode_trace(&trace)
}

/// A config with nonzero fault-injection rate; `containers` varies it so
/// different jobs hash to different poison-list entries.
fn faulty_config(containers: u16) -> SimConfig {
    let mut fault = FaultConfig::uniform(0.001);
    fault.seed = 7;
    SimConfig::rispp(containers, SchedulerKind::Hef).with_fault(fault)
}

fn spec(id: &str, config: SimConfig, trace_payload: String, chaos_panics: u32) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        config,
        trace_payload,
        deadline_ms: None,
        chaos_panics,
    }
}

/// Silence the expected chaos panics so the test log stays readable;
/// anything else still prints through the default hook.
fn quiet_chaos_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaos = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("chaos:"));
        if !chaos {
            default_hook(info);
        }
    }));
}

#[test]
fn chaos_storm_loses_nothing_and_stays_bit_identical() {
    quiet_chaos_panics();
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 3,
            queue_capacity: 64,
            poison_threshold: 3,
            max_attempts: 2,
            ..ServerConfig::default()
        },
    );

    // The storm: healthy fault-injected jobs, one-off panickers that
    // recover on retry, a config that panics until quarantined, and
    // long-running jobs cancelled mid-run.
    let healthy: Vec<JobSpec> = (2..=6)
        .map(|c| {
            spec(
                &format!("healthy-{c}"),
                faulty_config(c),
                payload(40, 50),
                0,
            )
        })
        .collect();
    // Distinct configs: one recovered panic each stays well below the
    // poison threshold and is wiped by the retry's success.
    let flaky: Vec<JobSpec> = (0..3)
        .map(|i| {
            spec(
                &format!("flaky-{i}"),
                faulty_config(20 + i),
                payload(30, 40),
                1,
            )
        })
        .collect();
    // chaos_panics > max_attempts * jobs: panics on every attempt, so
    // three jobs x (up to) 2 attempts crosses poison_threshold = 3.
    let cursed: Vec<JobSpec> = (0..3)
        .map(|i| {
            spec(
                &format!("cursed-{i}"),
                faulty_config(8),
                payload(10, 30),
                u32::MAX,
            )
        })
        .collect();
    let doomed: Vec<JobSpec> = (0..2)
        .map(|i| {
            spec(
                &format!("doomed-{i}"),
                faulty_config(9),
                payload(20_000, 40),
                0,
            )
        })
        .collect();

    let mut tickets = Vec::new();
    for job in healthy.iter().chain(&flaky).chain(&cursed) {
        match server.submit(job.clone()) {
            SubmitResult::Enqueued(t) => tickets.push((job.clone(), t)),
            SubmitResult::Refused(o) => panic!("{} refused: {:?}", job.id, o.status),
        }
    }
    let mut doomed_tickets = Vec::new();
    for job in &doomed {
        match server.submit(job.clone()) {
            SubmitResult::Enqueued(t) => doomed_tickets.push(t),
            SubmitResult::Refused(o) => panic!("{} refused: {:?}", job.id, o.status),
        }
    }
    let submitted = tickets.len() + doomed_tickets.len();

    // Cancel the doomed jobs mid-storm (they may be queued or running —
    // both are legal cancellation points).
    for t in &doomed_tickets {
        t.cancel.cancel();
    }

    // Zero lost jobs: every ticket delivers exactly one outcome ...
    let mut outcomes = Vec::new();
    for (job, t) in &tickets {
        let outcome = t
            .outcome
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("{} lost: {e}", job.id));
        // ... and never a duplicate.
        assert!(
            matches!(
                t.outcome.try_recv(),
                Err(TryRecvError::Empty | TryRecvError::Disconnected)
            ),
            "{} delivered a duplicate outcome",
            job.id
        );
        outcomes.push((job, outcome));
    }
    for (i, t) in doomed_tickets.iter().enumerate() {
        let outcome = t
            .outcome
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("doomed-{i} lost: {e}"));
        assert_eq!(outcome.status, JobStatus::Cancelled, "doomed-{i}");
        assert!(outcome.stats.is_none());
    }
    assert_eq!(outcomes.len() + doomed_tickets.len(), submitted);

    // Healthy fault-injected jobs completed; flaky jobs completed after
    // exactly one retry.
    for (job, outcome) in &outcomes {
        if job.id.starts_with("healthy") {
            assert_eq!(outcome.status, JobStatus::Completed, "{}", job.id);
            assert_eq!(outcome.attempts, 1, "{}", job.id);
        }
        if job.id.starts_with("flaky") {
            assert_eq!(outcome.status, JobStatus::Completed, "{}", job.id);
            assert_eq!(outcome.attempts, 2, "{}", job.id);
        }
    }

    // The cursed config is quarantined: its panics crossed the
    // threshold, every cursed outcome is Panicked or Poisoned, and a
    // fresh submission of the same config is refused by the poison list
    // without executing.
    assert_eq!(
        server.poisoned_configs(),
        1,
        "cursed config not quarantined"
    );
    for (job, outcome) in &outcomes {
        if job.id.starts_with("cursed") {
            assert!(
                matches!(outcome.status, JobStatus::Panicked | JobStatus::Poisoned),
                "{}: {:?}",
                job.id,
                outcome.status
            );
            assert!(outcome.stats.is_none());
        }
    }
    let retry_cursed = spec("cursed-again", faulty_config(8), payload(10, 30), 0);
    let SubmitResult::Enqueued(t) = server.submit(retry_cursed) else {
        panic!("poisoned configs are refused at execution, not admission");
    };
    let outcome = t.outcome.recv_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(outcome.status, JobStatus::Poisoned);
    assert_eq!(outcome.attempts, 0, "poisoned config must not execute");

    // The server keeps serving: fresh work still completes, and its
    // stats are bit-identical to the batch path — as are all completed
    // storm jobs'.
    let fresh = spec("fresh", faulty_config(3), payload(25, 60), 0);
    let SubmitResult::Enqueued(t) = server.submit(fresh.clone()) else {
        panic!("fresh job refused after the storm");
    };
    let fresh_outcome = t.outcome.recv_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(fresh_outcome.status, JobStatus::Completed);

    let lib = library();
    let mut checked = 0;
    for (job, outcome) in outcomes
        .iter()
        .map(|(j, o)| (*j, o))
        .chain(std::iter::once((&fresh, &fresh_outcome)))
    {
        if outcome.status != JobStatus::Completed {
            continue;
        }
        let stats = outcome.stats.as_ref().expect("completed without stats");
        let trace = materialise_trace(&job.trace_payload).expect("trace");
        let local = simulate(&lib, &trace, &job.config);
        assert_eq!(
            encode_stats(stats),
            encode_stats(&local),
            "{}: served stats diverge from the batch path",
            job.id
        );
        checked += 1;
    }
    assert!(checked > healthy.len() + flaky.len());

    server.await_drained();
    assert!(server.is_drained());
}

#[test]
fn tcp_daemon_round_trip_with_drain_handshake() {
    quiet_chaos_panics();
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            poison_threshold: 2,
            max_attempts: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let daemon = std::thread::spawn({
        let server = server.clone();
        move || run_daemon(&server, listener, &stop).map_err(|e| e.to_string())
    });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut read_json = |context: &str| -> JsonValue {
        let mut line = String::new();
        reader.read_line(&mut line).expect(context);
        JsonValue::parse(line.trim()).unwrap_or_else(|e| panic!("{context}: {e}: {line}"))
    };

    // Pipelined storm over the wire: health probe, healthy jobs, a
    // panicking config, then metrics — responses arrive in order.
    writeln!(writer, r#"{{"op":"health"}}"#).unwrap();
    let jobs: Vec<JobSpec> = (2..=4)
        .map(|c| spec(&format!("net-{c}"), faulty_config(c), payload(20, 40), 0))
        .collect();
    for job in &jobs {
        writeln!(writer, "{}", encode_submit(job)).unwrap();
    }
    let crash = spec("net-crash", faulty_config(9), payload(5, 20), u32::MAX);
    writeln!(writer, "{}", encode_submit(&crash)).unwrap();

    let health = read_json("health");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        health.get("status").and_then(JsonValue::as_str),
        Some("ready")
    );

    let lib = library();
    for job in &jobs {
        let response = read_json(&job.id);
        assert_eq!(
            response.get("id").and_then(JsonValue::as_str),
            Some(job.id.as_str())
        );
        assert_eq!(
            response.get("status").and_then(JsonValue::as_str),
            Some("completed")
        );
        // Wire-level bit-identity: the stats object on the wire parses
        // back equal to the canonical encoding of a local batch run.
        let trace = materialise_trace(&job.trace_payload).expect("trace");
        let local = simulate(&lib, &trace, &job.config);
        let local_json = JsonValue::parse(&encode_stats(&local)).expect("local stats");
        assert_eq!(
            response.get("stats"),
            Some(&local_json),
            "{}: wire stats diverge from the batch path",
            job.id
        );
    }
    let crash_response = read_json("net-crash");
    assert_eq!(
        crash_response.get("status").and_then(JsonValue::as_str),
        Some("panicked")
    );
    // Metrics are snapshotted at dispatch time, so ask only after every
    // job response is in — the counters must then cover the whole storm.
    writeln!(writer, r#"{{"op":"metrics"}}"#).unwrap();
    let metrics = read_json("metrics");
    assert_eq!(metrics.get("ok").and_then(JsonValue::as_bool), Some(true));
    let prometheus = metrics
        .get("prometheus")
        .and_then(JsonValue::as_str)
        .expect("prometheus text");
    assert!(prometheus.contains("rispp_serve_jobs_completed_total"));
    assert!(prometheus.contains("rispp_serve_job_latency_ms_bucket"));

    // Drain handshake: shutdown is acknowledged, subsequent submits are
    // refused as draining, and the daemon exits cleanly.
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let ack = read_json("shutdown ack");
    assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        ack.get("status").and_then(JsonValue::as_str),
        Some("draining")
    );
    let late = spec("late", faulty_config(2), payload(5, 20), 0);
    writeln!(writer, "{}", encode_submit(&late)).unwrap();
    let refusal = read_json("late refusal");
    assert_eq!(
        refusal.get("status").and_then(JsonValue::as_str),
        Some("draining")
    );
    drop(writer);

    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon result");
    assert!(server.is_drained());

    // Zero lost jobs across the wire: submitted = resolved.
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.counter("rispp_serve_jobs_completed_total"), 3);
    assert_eq!(snapshot.counter("rispp_serve_jobs_panicked_total"), 1);
    assert_eq!(snapshot.counter("rispp_serve_jobs_drain_rejected_total"), 1);
}

/// A slow client that pauses mid-line for longer than the daemon's
/// 250 ms read timeout must get its request served whole: the bytes read
/// before the timeout belong to the line and must not be dropped.
#[test]
fn request_line_split_across_a_read_timeout_is_served_whole() {
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let daemon = std::thread::spawn({
        let server = server.clone();
        move || run_daemon(&server, listener, &stop).map_err(|e| e.to_string())
    });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut read_json = |context: &str| -> JsonValue {
        let mut line = String::new();
        reader.read_line(&mut line).expect(context);
        JsonValue::parse(line.trim()).unwrap_or_else(|e| panic!("{context}: {e}: {line}"))
    };

    writer.write_all(br#"{"op":"hea"#).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    writer.write_all(b"lth\"}\n").unwrap();
    let health = read_json("split health");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        health.get("status").and_then(JsonValue::as_str),
        Some("ready")
    );

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let ack = read_json("shutdown ack");
    assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
    drop(writer);
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon result");
}

/// A client that drip-feeds a request line faster than the daemon's
/// 250 ms read timeout, one byte every 50 ms of a line that never ends,
/// must not hold the drain open: after another connection's `shutdown`,
/// `run_daemon` returns while the client still writes.
#[test]
fn a_drip_feeding_client_does_not_block_the_drain() {
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let (done_tx, done_rx) = mpsc::channel();
    let daemon = std::thread::spawn({
        let server = server.clone();
        move || {
            let stop = AtomicBool::new(false);
            let _ = done_tx.send(run_daemon(&server, listener, &stop).map_err(|e| e.to_string()));
        }
    });

    let dripping = Arc::new(AtomicBool::new(true));
    let mut drip = TcpStream::connect(addr).expect("connect the drip");
    let dripper = std::thread::spawn({
        let dripping = Arc::clone(&dripping);
        move || {
            while dripping.load(Ordering::Acquire) && drip.write_all(b"[").is_ok() {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    });
    // Let the drip's handler start reading the endless line.
    std::thread::sleep(Duration::from_millis(300));
    let control = TcpStream::connect(addr).expect("connect");
    let mut writer = control.try_clone().expect("clone");
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let mut ack = String::new();
    BufReader::new(control)
        .read_line(&mut ack)
        .expect("shutdown ack");
    assert!(ack.contains(r#""status":"draining""#), "{ack}");

    let returned = done_rx.recv_timeout(Duration::from_secs(2));
    dripping.store(false, Ordering::Release);
    dripper.join().expect("dripper");
    returned
        .expect("run_daemon still blocked 2 s after shutdown, held by a drip-feeding client")
        .expect("daemon result");
    daemon.join().expect("daemon thread");
}

/// A request line nested 10 000 levels deep (10 KB of `[`) must not
/// overflow the connection thread's stack, which aborts the whole daemon:
/// it gets an error line, and the same connection keeps serving.
#[test]
fn deeply_nested_request_line_is_refused_and_the_connection_keeps_serving() {
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let daemon = std::thread::spawn({
        let server = server.clone();
        move || run_daemon(&server, listener, &stop).map_err(|e| e.to_string())
    });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut read_json = |context: &str| -> JsonValue {
        let mut line = String::new();
        reader.read_line(&mut line).expect(context);
        JsonValue::parse(line.trim()).unwrap_or_else(|e| panic!("{context}: {e}: {line}"))
    };

    writeln!(writer, "{}", "[".repeat(10_000)).unwrap();
    let refused = read_json("deep line");
    assert_eq!(refused.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        refused.get("status").and_then(JsonValue::as_str),
        Some("error")
    );
    let error = refused.get("error").and_then(JsonValue::as_str);
    assert!(
        error.is_some_and(|e| e.contains("nested too deeply")),
        "{refused:?}"
    );

    writeln!(writer, r#"{{"op":"health"}}"#).unwrap();
    let health = read_json("health after the deep line");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let ack = read_json("shutdown ack");
    assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
    drop(writer);
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon result");
}

#[test]
fn a_refused_pipelined_submit_is_answered_under_its_own_id() {
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let daemon = std::thread::spawn({
        let server = server.clone();
        move || run_daemon(&server, listener, &stop).map_err(|e| e.to_string())
    });

    // Both submits go out before either answer is read: the wire refuses
    // the first (zero port bandwidth) and runs the second.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let refused = spec(
        "job-a",
        SimConfig::rispp(2, SchedulerKind::Hef).with_port_bandwidth(0),
        payload(2, 30),
        0,
    );
    let valid = spec(
        "job-b",
        SimConfig::rispp(2, SchedulerKind::Hef),
        payload(2, 30),
        0,
    );
    writeln!(writer, "{}", encode_submit(&refused)).unwrap();
    writeln!(writer, "{}", encode_submit(&valid)).unwrap();
    let mut read_json = |context: &str| -> JsonValue {
        let mut line = String::new();
        reader.read_line(&mut line).expect(context);
        JsonValue::parse(line.trim()).unwrap_or_else(|e| panic!("{context}: {e}: {line}"))
    };
    let first = read_json("answer to job-a");
    assert_eq!(first.get("id").and_then(JsonValue::as_str), Some("job-a"));
    assert_eq!(
        first.get("status").and_then(JsonValue::as_str),
        Some("error")
    );
    let second = read_json("answer to job-b");
    assert_eq!(second.get("id").and_then(JsonValue::as_str), Some("job-b"));
    assert_eq!(
        second.get("status").and_then(JsonValue::as_str),
        Some("completed")
    );

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let ack = read_json("shutdown ack");
    assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
    drop(writer);
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon result");
}

/// A client that never sends a newline must not grow its connection's
/// buffer without limit: 20 MB with no newline is past the 16 MiB line
/// cap, so it gets one error line after the answers to its earlier
/// requests, and the connection closes. New connections are still served.
#[test]
fn over_long_request_line_is_refused_and_the_connection_closes() {
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let daemon = std::thread::spawn({
        let server = server.clone();
        move || run_daemon(&server, listener, &stop).map_err(|e| e.to_string())
    });

    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        // A daemon that waits for the newline forever fails the test
        // instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        (writer, BufReader::new(stream))
    };
    let read_json = |reader: &mut BufReader<TcpStream>, context: &str| -> JsonValue {
        let mut line = String::new();
        reader.read_line(&mut line).expect(context);
        JsonValue::parse(line.trim()).unwrap_or_else(|e| panic!("{context}: {e}: {line}"))
    };

    let (mut writer, mut reader) = connect();
    writeln!(writer, r#"{{"op":"health"}}"#).unwrap();
    // The daemon stops reading at the cap and closes, so the rest of the
    // payload may fail to send; only the answers matter.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 20_000_000]);
    });
    let health = read_json(&mut reader, "health before the long line");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));
    let refused = read_json(&mut reader, "long line");
    assert_eq!(refused.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        refused.get("status").and_then(JsonValue::as_str),
        Some("error")
    );
    let error = refused.get("error").and_then(JsonValue::as_str);
    assert!(error.is_some_and(|e| e.contains("exceeds")), "{refused:?}");
    let mut rest = String::new();
    assert!(
        !matches!(reader.read_line(&mut rest), Ok(n) if n > 0),
        "connection still open after the error line: {rest}"
    );
    flood.join().expect("flood thread");

    let (mut writer, mut reader) = connect();
    writeln!(writer, r#"{{"op":"health"}}"#).unwrap();
    let health = read_json(&mut reader, "health on a new connection");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let ack = read_json(&mut reader, "shutdown ack");
    assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
    drop(writer);
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon result");
}

#[test]
fn deadline_timeout_is_reported_as_timeout() {
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        },
    );
    let mut job = spec("slow", faulty_config(2), payload(400_000, 40), 0);
    job.deadline_ms = Some(50);
    let SubmitResult::Enqueued(t) = server.submit(job) else {
        panic!("refused");
    };
    let outcome = t
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("outcome");
    assert_eq!(outcome.status, JobStatus::Timeout);
    assert!(outcome.latency_ms >= 50, "deadline fired early");
    assert!(outcome.stats.is_none());

    // The timeout neither panicked nor poisoned anything; the same
    // config with a comfortable deadline completes.
    assert_eq!(server.poisoned_configs(), 0);
    let mut retry = spec("slow-retry", faulty_config(2), payload(10, 30), 0);
    retry.deadline_ms = Some(60_000);
    let SubmitResult::Enqueued(t) = server.submit(retry) else {
        panic!("refused");
    };
    let started = Instant::now();
    let outcome = t
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("outcome");
    assert_eq!(
        outcome.status,
        JobStatus::Completed,
        "after {:?}",
        started.elapsed()
    );
    server.await_drained();
}

/// A fresh, empty flight directory unique to this test process + tag.
fn flight_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rispp-flight-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bundles_in(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    paths.sort();
    paths
}

fn parse_only_bundle(dir: &std::path::Path) -> Bundle {
    let paths = bundles_in(dir);
    assert_eq!(paths.len(), 1, "expected exactly one bundle, got {paths:?}");
    let text = std::fs::read_to_string(&paths[0]).expect("read bundle");
    let bundle = Bundle::parse(&text)
        .unwrap_or_else(|e| panic!("{}: not a parseable bundle: {e}", paths[0].display()));
    assert!(bundle.complete, "bundle reported truncated");
    bundle
}

#[test]
fn retry_exhaustion_dumps_exactly_one_parseable_bundle() {
    quiet_chaos_panics();
    let dir = flight_dir("panic");
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            // High threshold: the job exhausts retries (Panicked) well
            // before its config would be poison-listed.
            poison_threshold: 100,
            max_attempts: 2,
            flight_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    );
    let job = spec("always-panics", faulty_config(5), payload(10, 30), u32::MAX);
    let SubmitResult::Enqueued(t) = server.submit(job) else {
        panic!("refused");
    };
    let outcome = t
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("outcome");
    assert_eq!(outcome.status, JobStatus::Panicked);
    assert_eq!(outcome.attempts, 2);

    // Only the final, failing attempt is dumped — exactly one bundle.
    let bundle = parse_only_bundle(&dir);
    assert_eq!(bundle.meta.reason, "panicked");
    assert_eq!(bundle.meta.job_id, "always-panics");
    assert_eq!(
        bundle.meta.attempt, 2,
        "bundle must capture the last attempt"
    );
    assert!(bundle.meta.trace_id > 0, "trace ids are minted from 1");
    assert_eq!(server.bundles_written(), 1);
    let snapshot = server.metrics_snapshot();
    assert_eq!(
        snapshot.counter(r#"rispp_serve_bundles_written_total{reason="panicked"}"#),
        1
    );
    assert_eq!(snapshot.gauge("rispp_serve_bundles_written"), 1);
    server.await_drained();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forced_timeout_increments_exactly_one_and_dumps_one_bundle() {
    let dir = flight_dir("timeout");
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            flight_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    );
    let mut slow = spec("slow", faulty_config(2), payload(400_000, 40), 0);
    slow.deadline_ms = Some(50);
    let SubmitResult::Enqueued(t) = server.submit(slow) else {
        panic!("refused");
    };
    let outcome = t
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("outcome");
    assert_eq!(outcome.status, JobStatus::Timeout);

    // A companion job that finishes comfortably must not disturb either
    // the timeout counter or the bundle count.
    let mut quick = spec("quick", faulty_config(2), payload(10, 30), 0);
    quick.deadline_ms = Some(60_000);
    let SubmitResult::Enqueued(t) = server.submit(quick) else {
        panic!("refused");
    };
    let outcome = t
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("outcome");
    assert_eq!(outcome.status, JobStatus::Completed);

    // The forced timeout increments the Timeout counter exactly once —
    // and never leaks into the Cancelled split.
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.counter("rispp_serve_jobs_timeout_total"), 1);
    assert_eq!(snapshot.counter("rispp_serve_jobs_cancelled_total"), 0);
    assert_eq!(snapshot.gauge("rispp_serve_deadlines_armed"), 2);
    assert_eq!(snapshot.gauge("rispp_serve_deadlines_fired"), 1);
    assert_eq!(snapshot.gauge("rispp_serve_deadlines_disarmed"), 1);

    let bundle = parse_only_bundle(&dir);
    assert_eq!(bundle.meta.reason, "timeout");
    assert_eq!(bundle.meta.job_id, "slow");
    // The run was cut mid-replay: the ring retained real engine events.
    assert!(
        !bundle.events.is_empty(),
        "timeout bundle has no event tail"
    );
    server.await_drained();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_cancel_disarms_the_deadline_and_writes_no_bundle() {
    let dir = flight_dir("cancel");
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            flight_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    );
    // A slow job with a far-away deadline: the client cancel always
    // beats the watchdog.
    let mut job = spec("abandoned", faulty_config(2), payload(400_000, 40), 0);
    job.deadline_ms = Some(600_000);
    let SubmitResult::Enqueued(t) = server.submit(job) else {
        panic!("refused");
    };
    // Let it start executing so the guard is armed, then give up.
    std::thread::sleep(Duration::from_millis(100));
    t.cancel.cancel();
    let outcome = t
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("outcome");
    assert_eq!(outcome.status, JobStatus::Cancelled, "cancel misreported");

    // The guard was disarmed (not fired) and no bundle was dumped: a
    // client cancel is not a forensic event.
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.gauge("rispp_serve_deadlines_fired"), 0);
    assert_eq!(snapshot.gauge("rispp_serve_deadlines_disarmed"), 1);
    assert_eq!(server.bundles_written(), 0);
    assert!(
        bundles_in(&dir).is_empty(),
        "client cancel must not dump a bundle"
    );
    server.await_drained();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_listing_dumps_one_bundle_with_the_quarantine_reason() {
    quiet_chaos_panics();
    let dir = flight_dir("poison");
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            poison_threshold: 1,
            max_attempts: 3,
            flight_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    );
    let job = spec("toxic", faulty_config(6), payload(10, 30), u32::MAX);
    let SubmitResult::Enqueued(t) = server.submit(job) else {
        panic!("refused");
    };
    let outcome = t
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("outcome");
    assert_eq!(outcome.status, JobStatus::Poisoned);
    assert_eq!(server.poisoned_configs(), 1);

    let bundle = parse_only_bundle(&dir);
    assert_eq!(bundle.meta.reason, "poisoned");
    assert_eq!(bundle.meta.job_id, "toxic");
    assert_eq!(server.bundles_written(), 1);
    server.await_drained();
    let _ = std::fs::remove_dir_all(&dir);
}
