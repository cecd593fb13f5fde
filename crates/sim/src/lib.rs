//! Cycle-level trace-driven execution engine for RISPP and its baselines.
//!
//! The engine replays a [`Trace`] — a sequence of hot-spot invocations,
//! each consisting of bursts of Special Instruction executions interleaved
//! with base-processor overhead — against any [`ExecutionSystem`]. The
//! built-in backends are:
//!
//! * [`RisppBackend`] ([`SystemKind::Rispp`]) — the full RISPP run-time
//!   system ([`rispp_core::FabricArbiter`]) with one of the four
//!   schedulers, gradual Molecule upgrades and cross-SI Atom sharing.
//! * [`MolenSystem`] ([`SystemKind::Molen`] / [`SystemKind::OneChip`]) — a
//!   Molen/OneChip-like state-of-the-art reconfigurable system (paper
//!   Section 5, Table 2): a single monolithic implementation per SI, no
//!   partial upgrades and no Atom sharing, with reconfiguration on
//!   hot-spot switches.
//! * [`SoftwareBackend`] ([`SystemKind::SoftwareOnly`]) — pure
//!   base-processor execution, the paper's 0-AC reference point.
//!
//! The replay loop itself is stats-free: it emits typed [`SimEvent`]s to
//! any set of [`SimObserver`]s. [`RunStats`] — total cycles, per-SI
//! execution counts, per-100K-cycle execution-frequency buckets (the bars
//! of paper Figures 2 and 8) and per-SI latency timelines (the lines of
//! Figure 8) — is one such observer; [`TraceLogObserver`] (JSONL event
//! logs) and [`ProgressObserver`] (sweep progress) are others. Custom
//! backends and observers plug into [`simulate_with`] without touching the
//! engine.
//!
//! # Examples
//!
//! ```
//! use rispp_sim::{simulate, Burst, Invocation, SimConfig, SystemKind, Trace};
//! use rispp_core::SchedulerKind;
//! use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibraryBuilder};
//! use rispp_monitor::HotSpotId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let universe = AtomUniverse::from_types([AtomTypeInfo::new("SAV")])?;
//! let mut b = SiLibraryBuilder::new(universe);
//! b.special_instruction("SAD", 680)?.molecule(Molecule::from_counts([1]), 20)?;
//! let library = b.build()?;
//!
//! let trace = Trace::from_invocations(vec![Invocation {
//!     hot_spot: HotSpotId(0),
//!     prologue_cycles: 100,
//!     bursts: vec![Burst { si: SiId(0), count: 1_000, overhead: 20 }],
//!     hints: vec![(SiId(0), 1_000)],
//! }]);
//! let stats = simulate(&library, &trace, &SimConfig::rispp(4, SchedulerKind::Hef));
//! assert!(stats.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod baseline;
mod cancel;
mod context;
mod engine;
pub mod export;
mod flight;
mod multi;
mod observer;
mod stats;
mod sweep;
mod telemetry;
mod trace;

pub use backend::{ExecutionSystem, RisppBackend, SoftwareBackend};
pub use baseline::{molen_select, MolenSystem};
pub use cancel::{CancelCause, CancelToken, CancellableRun};
pub use context::TraceContext;
pub use flight::{FlightRecorder, FlightRecorderConfig};
pub use engine::{
    simulate, simulate_cancellable_shared, simulate_observed, simulate_observed_cancellable_shared,
    simulate_observed_planned, simulate_with, FaultConfig, SimConfig, SystemKind,
};
pub use multi::{
    simulate_multi, simulate_multi_observed, MultiRunStats, TenancyConfig, TenantArbitration,
    TenantPolicy,
};
pub use observer::{
    HotSpotOrigin, ProgressObserver, SimEvent, SimObserver, TraceLogObserver,
};
pub use stats::{LatencyEvent, RunStats, DEFAULT_BUCKET_CYCLES};
pub use sweep::{SweepJob, SweepRunner, THREADS_ENV};
pub use telemetry::{DetectorObserver, MetricsObserver, NullRecorder, PerfettoTraceObserver};
pub use trace::{Burst, Invocation, Trace};
