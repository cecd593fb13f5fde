//! Cycle-domain telemetry primitives for the RISPP reproduction.
//!
//! Everything in this crate measures **simulated cycles**, never wall-clock
//! time: the run-time system under study is deterministic, so its telemetry
//! must be too. Three building blocks, all dependency-free:
//!
//! * [`MetricsRegistry`] — a deterministic registry of counters, gauges and
//!   histograms keyed by name (BTree-ordered), with [`MetricsSnapshot`]
//!   supporting both JSON and Prometheus-text exposition.
//! * [`TraceBuilder`] — an incremental Chrome trace-event JSON writer
//!   (duration/instant/counter/metadata events) whose output loads in
//!   Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`. Simulated
//!   cycles are rendered as microseconds (1 cycle = 1 µs).
//! * [`json::Reader`] — a pull reader over one JSON document, and
//!   [`JsonValue`], a tree built on it (the workspace has no serde). The
//!   job-server daemon decodes its wire with the reader; tests and the CLI
//!   trace validator read the tree.
//! * [`Bundle`] / [`BundleMeta`] — the self-describing flight-recorder
//!   diagnostic-bundle format (writer helpers + parser) consumed by
//!   `rispp-cli forensics`.
//!
//! The crate deliberately knows nothing about the simulator: `rispp-sim`
//! hosts the observers that translate simulation events into these
//! primitives, so the dependency arrow points the cheap way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod json;
pub mod metrics;
pub mod perfetto;

pub use bundle::{Bundle, BundleMeta, BUNDLE_FORMAT_VERSION};
pub use json::{JsonError, JsonValue};
pub use metrics::{Histogram, Metric, MetricsRegistry, MetricsSnapshot};
pub use perfetto::{escape_json_into, push_u64, SegmentSpan, TraceBuilder};
