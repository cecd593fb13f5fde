//! Admission-control properties of the job server.
//!
//! Three invariants, each driven by generated loads:
//!
//! 1. completion is FIFO: with one worker, nothing overtakes the queue
//!    head, and when the last admitted job completes every earlier job
//!    has already completed;
//! 2. rejected jobs are inert: a queue-full refusal never executes,
//!    never touches the warm trace cache and never counts an attempt;
//! 3. cancellation is clean: a job cancelled mid-run neither poisons
//!    its config nor corrupts the cached trace it was using;
//! 4. a trace the engine cannot replay, or a detail run whose buckets
//!    would exceed the per-SI cap, is refused with an error before any
//!    attempt: it never poisons its config, and an unreplayable trace
//!    never enters the cache;
//! 5. a config with a zero port bandwidth is refused the same way, on
//!    the wire and in process, and so are malformed submit lines: a
//!    `config` that is not an object, `hints` that are not an array and
//!    numbers outside RFC 8259.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rispp_core::SchedulerKind;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_serve::{
    encode_config, encode_submit, encode_trace, run_daemon, JobOutcome, JobSpec, JobStatus, Server,
    ServerConfig, SubmitResult,
};
use rispp_sim::{Burst, Invocation, SimConfig, Trace};

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1]), 50)
        .unwrap();
    b.build().unwrap()
}

/// An inline-trace payload with `invocations` hot-spot entries. More
/// invocations means a longer run (each entry re-plans), which is how
/// the tests build controllable long-running "blocker" jobs.
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

/// A one-invocation inline-trace payload with the given bursts and hints.
fn inline(bursts: Vec<Burst>, hints: Vec<(SiId, u64)>) -> String {
    encode_trace(&Trace::from_invocations(vec![Invocation {
        hot_spot: HotSpotId(0),
        prologue_cycles: 10,
        bursts,
        hints,
    }]))
}

fn spec(id: &str, containers: u16, trace_payload: String) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        config: SimConfig::rispp(containers, SchedulerKind::Hef),
        trace_payload,
        deadline_ms: None,
        chaos_panics: 0,
    }
}

fn server(queue_capacity: usize) -> Server {
    Server::start(
        library(),
        ServerConfig {
            workers: 1,
            queue_capacity,
            ..ServerConfig::default()
        },
    )
}

/// Submits a blocker job (long run, cancelled by the caller when done
/// blocking) and waits until the single worker has actually started it.
fn submit_blocker(srv: &Server) -> rispp_serve::JobTicket {
    let SubmitResult::Enqueued(ticket) = srv.submit(spec("blocker", 2, payload(20_000, 40))) else {
        panic!("blocker refused");
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while srv.inflight() == 0 {
        assert!(
            Instant::now() < deadline,
            "worker never picked up the blocker"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    ticket
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn completion_is_fifo_under_a_full_queue(jobs in 2usize..6, count in 20u32..60) {
        let srv = server(jobs);
        let blocker = submit_blocker(&srv);

        // Fill the queue behind the in-flight blocker.
        let tickets: Vec<_> = (0..jobs)
            .map(|i| {
                match srv.submit(spec(&format!("job-{i}"), 2, payload(3, count + i as u32))) {
                    SubmitResult::Enqueued(t) => t,
                    SubmitResult::Refused(o) => panic!("job-{i} refused: {:?}", o.status),
                }
            })
            .collect();

        // Nothing may overtake the queue head: while the blocker runs,
        // no queued job has an outcome.
        for (i, t) in tickets.iter().enumerate() {
            assert!(
                matches!(t.outcome.try_recv(), Err(TryRecvError::Empty)),
                "job-{i} completed while the queue head was still running"
            );
        }

        blocker.cancel.cancel();
        let head = blocker.outcome.recv().expect("blocker outcome");
        assert_eq!(head.status, JobStatus::Cancelled);

        // When the *last* admitted job completes, every earlier job must
        // already have completed — FIFO prefix-completeness.
        let last = tickets.last().unwrap().outcome.recv().expect("last outcome");
        assert_eq!(last.status, JobStatus::Completed);
        for (i, t) in tickets[..jobs - 1].iter().enumerate() {
            let earlier = t.outcome.try_recv().unwrap_or_else(|_| {
                panic!("job-{i} had not completed before the last job did")
            });
            assert_eq!(earlier.status, JobStatus::Completed);
        }
        srv.await_drained();
    }

    #[test]
    fn rejected_jobs_are_inert(extra in 1usize..5, capacity in 1usize..4) {
        let srv = server(capacity);
        let blocker = submit_blocker(&srv);
        let admitted: Vec<_> = (0..capacity)
            .map(|i| match srv.submit(spec(&format!("fill-{i}"), 2, payload(2, 30))) {
                SubmitResult::Enqueued(t) => t,
                SubmitResult::Refused(o) => panic!("fill-{i} refused: {:?}", o.status),
            })
            .collect();
        let cache_before = srv.cache_stats();

        // Overflow: every extra submission bounces with the observed
        // depth, zero attempts, no stats — and distinct payloads that
        // must never reach the cache.
        for i in 0..extra {
            let rejected = spec(&format!("extra-{i}"), 2, payload(5, 100 + i as u32));
            let rejected_payload = rejected.trace_payload.clone();
            match srv.submit(rejected) {
                SubmitResult::Refused(outcome) => {
                    assert_eq!(
                        outcome.status,
                        JobStatus::Rejected { queue_depth: capacity },
                    );
                    assert_eq!(outcome.attempts, 0);
                    assert!(outcome.stats.is_none());
                    assert_ne!(rejected_payload, "", "payload must be distinct");
                }
                SubmitResult::Enqueued(_) => panic!("extra-{i} must be rejected"),
            }
        }
        assert_eq!(
            srv.cache_stats(),
            cache_before,
            "rejected jobs touched the warm cache"
        );

        blocker.cancel.cancel();
        let _ = blocker.outcome.recv().expect("blocker outcome");
        for (i, t) in admitted.iter().enumerate() {
            let outcome = t.outcome.recv().expect("admitted outcome");
            assert_eq!(outcome.status, JobStatus::Completed, "fill-{i}");
        }
        srv.await_drained();
        // The cache saw only the blocker's and the admitted jobs'
        // payloads (2 distinct), never the rejected ones.
        let (_, misses) = srv.cache_stats();
        assert_eq!(misses, 2, "cache misses must cover admitted payloads only");
    }

    #[test]
    fn cancellation_leaves_no_poison_and_a_clean_cache(count in 20u32..60) {
        let srv = server(8);
        let blocker = submit_blocker(&srv);
        let blocker_payload = payload(20_000, 40); // same payload as the blocker
        blocker.cancel.cancel();
        let outcome = blocker.outcome.recv().expect("outcome");
        assert_eq!(outcome.status, JobStatus::Cancelled);
        assert!(outcome.stats.is_none(), "cancelled jobs return no stats");

        // The cancelled config is not poisoned: the identical config
        // resubmitted (with a short trace) completes.
        assert_eq!(srv.poisoned_configs(), 0);
        let SubmitResult::Enqueued(again) = srv.submit(spec("again", 2, payload(2, count)))
        else {
            panic!("resubmission refused");
        };
        assert_eq!(again.outcome.recv().unwrap().status, JobStatus::Completed);

        // The cached trace the cancelled job was using is intact: a new
        // job on the same payload *hits* the cache and completes. (It
        // runs long, so cancel it too once it has proven the hit.)
        let (hits_before, _) = srv.cache_stats();
        let SubmitResult::Enqueued(reuse) = srv.submit(spec("reuse", 2, blocker_payload))
        else {
            panic!("reuse refused");
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while srv.cache_stats().0 == hits_before {
            assert!(Instant::now() < deadline, "reuse job never hit the cache");
            std::thread::sleep(Duration::from_millis(2));
        }
        reuse.cancel.cancel();
        assert_eq!(reuse.outcome.recv().unwrap().status, JobStatus::Cancelled);
        assert_eq!(srv.poisoned_configs(), 0);
        srv.await_drained();
    }
}

#[test]
fn unreplayable_traces_are_refused_without_an_attempt() {
    let srv = server(8);
    let run_spec = |job: JobSpec| -> JobOutcome {
        let id = job.id.clone();
        match srv.submit(job) {
            SubmitResult::Enqueued(t) => t.outcome.recv().expect("outcome"),
            SubmitResult::Refused(o) => panic!("{id} refused at admission: {:?}", o.status),
        }
    };
    let run = |id: &str, trace_payload: String| run_spec(spec(id, 2, trace_payload));
    let burst = |si: u16, count: u32, overhead: u32| Burst {
        si: SiId(si),
        count,
        overhead,
    };
    let refused = |outcome: &JobOutcome| {
        assert!(
            matches!(outcome.status, JobStatus::Error(_)),
            "{}: {:?}",
            outcome.id,
            outcome.status
        );
        assert_eq!(outcome.attempts, 0, "{}", outcome.id);
        assert!(outcome.stats.is_none(), "{}", outcome.id);
    };

    // The library has one SI: SI 99 is outside it. Resubmitting the same
    // payload misses the cache again, so it was never inserted.
    for i in 0..3 {
        refused(&run(
            &format!("outside-{i}"),
            inline(vec![burst(99, 5, 2)], vec![]),
        ));
    }
    assert_eq!(srv.cache_stats(), (0, 3));
    // Replaying count × (software latency + overhead) for this burst
    // would take more than 2^64 cycles.
    refused(&run(
        "overflow",
        inline(vec![burst(0, u32::MAX, u32::MAX)], vec![]),
    ));
    refused(&run(
        "hint",
        inline(vec![burst(0, 5, 2)], vec![(SiId(7), 5)]),
    ));
    // Detail keeps one bucket per `bucket_cycles` cycles per SI. This
    // trace's worst case is 10 + 2048 × (1000 + 14) = 2,076,682 cycles:
    // at `bucket_cycles: 1` that is twice the 2^20-bucket cap, at the
    // default width 21 buckets.
    let detailed = |id: &str, bucket_cycles: u64| JobSpec {
        config: SimConfig {
            bucket_cycles,
            ..SimConfig::rispp(2, SchedulerKind::Hef).with_detail(true)
        },
        ..spec(id, 2, inline(vec![burst(0, 2048, 14)], vec![]))
    };
    refused(&run_spec(detailed("detail", 1)));
    let coarse = run_spec(detailed("coarse", 100_000));
    assert_eq!(coarse.status, JobStatus::Completed);

    // The same config still serves a replayable trace.
    let ok = run("valid", payload(2, 30));
    assert_eq!(ok.status, JobStatus::Completed);
    assert_eq!(ok.attempts, 1);
    assert_eq!(srv.poisoned_configs(), 0);
    assert_eq!(
        srv.metrics_snapshot().counter("rispp_serve_panics_total"),
        0
    );
    srv.await_drained();
}

#[test]
fn a_zero_port_bandwidth_is_refused_in_process() {
    let srv = server(4);
    let run = |job: JobSpec| -> JobOutcome {
        match srv.submit(job) {
            SubmitResult::Enqueued(t) => t.outcome.recv().expect("outcome"),
            SubmitResult::Refused(o) => panic!("refused at admission: {:?}", o.status),
        }
    };
    let mut job = spec("port", 2, payload(2, 30));
    job.config = job.config.with_port_bandwidth(0);
    let refused = run(job);
    assert!(
        matches!(&refused.status, JobStatus::Error(e) if e.contains("`port_bandwidth` 0")),
        "{:?}",
        refused.status
    );
    assert_eq!(refused.attempts, 0);
    assert!(refused.stats.is_none());
    assert_eq!(srv.poisoned_configs(), 0);
    assert_eq!(
        srv.metrics_snapshot().counter("rispp_serve_panics_total"),
        0
    );

    let ok = run(spec("valid", 2, payload(2, 30)));
    assert_eq!(ok.status, JobStatus::Completed);
    assert_eq!(ok.attempts, 1);
    srv.await_drained();
}

#[test]
fn a_zero_port_bandwidth_is_refused_on_the_wire() {
    let srv = server(4);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = std::thread::spawn({
        let (srv, stop) = (srv.clone(), Arc::clone(&stop));
        move || run_daemon(&srv, listener, &stop)
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut answers = BufReader::new(stream.try_clone().expect("clone stream")).lines();
    let mut ask = |bandwidth: u64| -> String {
        let mut job = spec("port", 2, payload(2, 30));
        job.config = job.config.with_port_bandwidth(bandwidth);
        writeln!(&stream, "{}", encode_submit(&job)).expect("send");
        answers.next().expect("answer").expect("read answer")
    };

    // More refusals than the poison threshold: none of them ran.
    for _ in 0..=ServerConfig::default().poison_threshold {
        let answer = ask(0);
        assert!(answer.contains(r#""status":"error""#), "{answer}");
        assert!(answer.contains(r#""attempts":0"#), "{answer}");
        assert!(answer.contains("`port_bandwidth` 0"), "{answer}");
    }
    let ok = ask(66_000_000);
    assert!(ok.contains(r#""status":"completed""#), "{ok}");
    assert!(ok.contains(r#""attempts":1"#), "{ok}");
    assert_eq!(srv.poisoned_configs(), 0);
    assert_eq!(
        srv.metrics_snapshot().counter("rispp_serve_panics_total"),
        0
    );

    stop.store(true, Ordering::Release);
    daemon.join().expect("daemon thread").expect("daemon");
}

#[test]
fn malformed_submits_are_refused_on_the_wire() {
    let srv = server(4);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = std::thread::spawn({
        let (srv, stop) = (srv.clone(), Arc::clone(&stop));
        move || run_daemon(&srv, listener, &stop)
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut answers = BufReader::new(stream.try_clone().expect("clone stream")).lines();
    let mut ask = |line: &str| -> String {
        writeln!(&stream, "{line}").expect("send");
        answers.next().expect("answer").expect("read answer")
    };

    let job = spec("good", 2, payload(2, 30));
    let good = encode_submit(&job);
    let config = |config: &str| good.replacen(&encode_config(&job.config), config, 1);
    let hints_at = good.find(r#""hints":["#).expect("a payload with hints");
    let bad_hints = |hints: &str| {
        let (head, tail) = good.split_at(hints_at + r#""hints":"#.len());
        let tail = &tail[tail.find(']').expect("hint pair") + 2..];
        format!("{head}{hints}{tail}")
    };
    // Every refusal answers under the id the line carries, a syntax error
    // after the id included, so a pipelining client can match it.
    let refusals = [
        (config("5"), "`config` must be an object"),
        (
            config(r#"[{"containers":2}]"#),
            "`config` must be an object",
        ),
        (config("null"), "`config` must be an object"),
        (bad_hints("{}"), "invocation 0: `hints` must be an array"),
        (bad_hints("5"), "invocation 0: `hints` must be an array"),
        (
            good.replace(r#""containers":2"#, r#""containers":02"#),
            "invalid number",
        ),
        (
            good.replace(r#""containers":2"#, r#""containers":2."#),
            "invalid number",
        ),
        (
            good.replace(r#""containers":2"#, r#""containers":-.5"#),
            "invalid number",
        ),
        (
            good.replace(r#""containers":2"#, r#""containers":2.e0"#),
            "invalid number",
        ),
        (
            r#"{"op":"submit","id":"job-a","config":{"containers":08},"trace":"fig7:1"}"#
                .to_owned(),
            "invalid number",
        ),
    ];
    // More refusals than the poison threshold: none of them ran.
    for _ in 0..=ServerConfig::default().poison_threshold {
        for (line, message) in &refusals {
            assert_ne!(line, &good, "the line must be malformed");
            let answer = ask(line);
            let id = if line.contains(r#""id":"job-a""#) {
                "job-a"
            } else {
                "good"
            };
            assert!(
                answer.contains(&format!(r#""id":"{id}""#)),
                "{line}: {answer}"
            );
            assert!(answer.contains(r#""status":"error""#), "{line}: {answer}");
            assert!(answer.contains(r#""attempts":0"#), "{line}: {answer}");
            assert!(answer.contains(message), "{line}: {answer}");
        }
    }
    let ok = ask(&good);
    assert!(ok.contains(r#""status":"completed""#), "{ok}");
    assert!(ok.contains(r#""attempts":1"#), "{ok}");
    assert_eq!(srv.poisoned_configs(), 0);
    assert_eq!(
        srv.metrics_snapshot().counter("rispp_serve_panics_total"),
        0
    );

    stop.store(true, Ordering::Release);
    daemon.join().expect("daemon thread").expect("daemon");
}
