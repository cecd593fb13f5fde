//! TCP front end: NDJSON request/response over persistent connections.
//!
//! Each connection gets a reader (this thread) and a writer thread
//! joined by a channel of pending responses. Immediate operations
//! (health, metrics, refusals) enqueue a ready line; admitted submits
//! enqueue the job's outcome receiver. The writer resolves pendings
//! strictly in arrival order, so responses always come back in request
//! order — full pipelining without reordering.
//!
//! The accept loop polls a non-blocking listener so it can observe the
//! drain flag (SIGTERM, `shutdown` op) without being parked in
//! `accept(2)`. On drain it stops accepting, lets every handler flush
//! its pending responses, and returns — zero admitted jobs are lost.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;

use crate::job::{json_escape, parse_request, JobOutcome, JobStatus, Request};
use crate::server::{Server, SubmitResult};

/// How often the accept loop and idle readers re-check the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Longest request line accepted, newline excluded. The 140-frame paper
/// trace encodes inline to ~3.6 MB, so this refuses no legitimate
/// request while bounding what one connection can make the reader hold.
const MAX_LINE_BYTES: usize = 16 << 20;

enum Pending {
    Ready(String),
    Outcome(mpsc::Receiver<JobOutcome>),
}

fn health_line(server: &Server) -> String {
    let status = if server.is_draining() { "draining" } else { "ready" };
    format!(
        r#"{{"ok":true,"status":"{status}","queue_depth":{},"queue_capacity":{},"inflight":{},"bundles_written":{}}}"#,
        server.queue_depth(),
        server.queue_capacity(),
        server.inflight(),
        server.bundles_written()
    )
}

fn metrics_line(server: &Server) -> String {
    let snapshot = server.metrics_snapshot();
    // `to_json` ends with a newline for file writers; embedded in an
    // NDJSON response it would split the line.
    format!(
        r#"{{"ok":true,"metrics":{},"prometheus":"{}"}}"#,
        snapshot.to_json().trim_end(),
        json_escape(&snapshot.to_prometheus_text())
    )
}

fn error_line(message: &str) -> String {
    JobOutcome::refused("", JobStatus::Error(message.to_owned())).to_line()
}

/// Serves one established connection until the peer hangs up or the
/// server finishes draining. `drain_trigger` is raised by a `shutdown`
/// request so the accept loop stops too.
pub fn handle_connection(server: &Server, stream: TcpStream, drain_trigger: &AtomicBool) {
    let peer_writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    // Readers wake periodically so a connection idling after drain
    // completion can close instead of parking in read(2) forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let (pending_tx, pending_rx) = mpsc::channel::<Pending>();

    let writer = std::thread::Builder::new()
        .name("rispp-conn-writer".into())
        .spawn(move || {
            let mut out = BufWriter::new(peer_writer);
            for pending in pending_rx {
                let line = match pending {
                    Pending::Ready(line) => line,
                    // A dropped sender without an outcome cannot happen:
                    // workers always send exactly one outcome per
                    // admitted job, even during drain.
                    Pending::Outcome(rx) => match rx.recv() {
                        Ok(outcome) => outcome.to_line(),
                        Err(_) => error_line("job outcome lost"),
                    },
                };
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    return; // peer gone; outcomes drain into the void
                }
            }
        })
        .expect("spawn connection writer");

    let mut reader = BufReader::new(stream);
    // One request line, accumulated across read timeouts: a timeout can
    // fire mid-line, and the bytes read before it belong to the line. It
    // is cleared only once the whole line has been handled.
    let mut line = Vec::new();
    loop {
        // At most one byte past the cap, so an over-long line is seen
        // without reading (or holding) the rest of it.
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => break, // EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if server.is_drained() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            // One error line, then close: the rest of the line cannot be
            // skipped without reading it. Earlier answers still drain.
            let _ = pending_tx.send(Pending::Ready(error_line(&format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            ))));
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break; // invalid UTF-8 closes the connection
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        let pending = match parse_request(trimmed) {
            Err(message) => Pending::Ready(error_line(&message)),
            Ok(Request::Health) => Pending::Ready(health_line(server)),
            Ok(Request::Metrics) => Pending::Ready(metrics_line(server)),
            Ok(Request::Cancel { id }) => {
                let cancelled = server.cancel(&id);
                Pending::Ready(format!(
                    r#"{{"ok":true,"op":"cancel","id":"{}","cancelled":{cancelled}}}"#,
                    json_escape(&id)
                ))
            }
            Ok(Request::Shutdown) => {
                drain_trigger.store(true, Ordering::Release);
                server.drain();
                Pending::Ready(r#"{"ok":true,"op":"shutdown","status":"draining"}"#.into())
            }
            Ok(Request::Submit(spec)) => match server.submit(*spec) {
                SubmitResult::Refused(outcome) => Pending::Ready(outcome.to_line()),
                SubmitResult::Enqueued(ticket) => Pending::Outcome(ticket.outcome),
            },
        };
        line.clear();
        if pending_tx.send(pending).is_err() {
            break; // writer died (peer gone)
        }
    }
    drop(pending_tx);
    let _ = writer.join();
}

/// Accepts connections until `stop` is raised (SIGTERM) or a client
/// requests shutdown, then drains the server — finishing every admitted
/// job and flushing every connection — before returning.
///
/// # Errors
///
/// Propagates listener configuration failures; per-connection errors
/// only terminate that connection.
pub fn run_daemon(
    server: &Server,
    listener: TcpListener,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let drain_trigger = std::sync::Arc::new(AtomicBool::new(false));
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if stop.load(Ordering::Acquire)
            || drain_trigger.load(Ordering::Acquire)
            || server.is_draining()
        {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let server = server.clone();
                let trigger = std::sync::Arc::clone(&drain_trigger);
                handlers.push(
                    std::thread::Builder::new()
                        .name("rispp-conn".into())
                        .spawn(move || handle_connection(&server, stream, &trigger))?,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) => return Err(e),
        }
        // Join the handlers of closed connections now: an exited
        // thread's stack stays mapped until it is joined, so a
        // long-lived daemon would otherwise run out of memory maps.
        for finished in handlers.extract_if(.., |h| h.is_finished()) {
            let _ = finished.join();
        }
    }
    // Stop admitting, finish the backlog, then let handlers flush their
    // final responses and close.
    server.drain();
    server.await_drained();
    for handler in handlers {
        let _ = handler.join();
    }
    Ok(())
}
