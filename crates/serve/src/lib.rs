//! rispp-serve: a crash-isolated, backpressured job-server daemon for
//! RISPP simulations.
//!
//! The batch tools (`rispp simulate`, `rispp sweep`) pay trace
//! generation and process startup per run. This crate turns the
//! simulator into a persistent daemon: clients submit jobs — a trace
//! plus a [`rispp_sim::SimConfig`] — as newline-delimited JSON over
//! TCP, a worker pool executes them, and the returned
//! [`rispp_sim::RunStats`] are **bit-identical** to the batch path
//! (the daemon calls the very same engine with an unfired
//! [`rispp_sim::CancelToken`], which is bit-transparent by
//! construction).
//!
//! Robustness properties, each carried by a dedicated module:
//!
//! * **Backpressure** ([`queue`]) — a bounded admission queue; a full
//!   queue refuses with `status:"rejected"` and the observed depth
//!   instead of buffering unboundedly.
//! * **Deadlines** ([`watchdog`]) — per-job timeouts fire a
//!   [`rispp_sim::CancelToken`]; the engine stops cooperatively at the
//!   next burst-batch boundary.
//! * **Crash isolation** ([`server`], [`poison`]) — jobs run under
//!   `catch_unwind`; panics retry with bounded backoff, and a config
//!   hash that keeps panicking is quarantined on the poison list.
//! * **Warm caches** ([`cache`]) — materialised traces (the CIF
//!   encoder run behind `"fig7:N"` payloads) are LRU-cached; only
//!   executing workers touch the cache, never rejected submissions.
//! * **Graceful drain** ([`server`], [`net`], [`signal`]) — SIGTERM or
//!   a `shutdown` request stops admission, finishes every admitted
//!   job, flushes every connection and exits cleanly: zero lost, zero
//!   duplicated jobs.
//! * **Observability** ([`Server::metrics_snapshot`]) — queue depth,
//!   in-flight, rejects, timeouts, cancellations, panics, retries,
//!   poisonings, trace- and plan-cache counters, plan-cache occupancy
//!   and a job-latency histogram (p50/p99 via
//!   [`rispp_telemetry::Histogram::quantile`]), in JSON and Prometheus
//!   text over the `metrics` op.

#![deny(unsafe_code)] // granted back, narrowly, in `signal`
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod net;
pub mod poison;
pub mod queue;
pub mod server;
pub mod signal;
pub mod watchdog;

pub use job::{
    encode_config, encode_stats, encode_submit, encode_trace, materialise_trace, parse_request,
    validate_config, JobOutcome, JobSpec, JobStatus, Request,
};
pub use net::{handle_connection, run_daemon};
pub use queue::{AdmissionQueue, PushError};
pub use server::{JobTicket, Server, ServerConfig, SubmitResult};
