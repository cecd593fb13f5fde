//! Opt-in telemetry observers over the engine's event stream.
//!
//! Everything here lives in the *simulated-cycle* domain: cycles come from
//! the events themselves (each journal entry and decision carries its own
//! exact cycle), never from wall-clock time, so any two runs of the same
//! trace produce bit-identical telemetry regardless of host load or sweep
//! thread count.
//!
//! * [`NullRecorder`] — the default: consumes nothing, allocates nothing,
//!   opts out of the per-segment stream. Attaching it is free.
//! * [`MetricsObserver`] — folds the stream into a
//!   [`rispp_telemetry::MetricsRegistry`]: per-SI execution counts and
//!   latency histograms, per-container load/ready/idle/quarantined cycle
//!   totals, reconfiguration-port busy cycles, recovery counters and
//!   scheduler decision/upgrade counts. Snapshots merge across sweep jobs.
//! * [`PerfettoTraceObserver`] — renders the run as Chrome trace-event
//!   JSON (openable at <https://ui.perfetto.dev>): one track per Atom
//!   Container with load/ready/quarantine spans, one track per SI with
//!   execution-burst spans, and instant events for faults and decisions.
//! * [`DetectorObserver`] — feeds the SI stream through the windowed
//!   [`HotSpotDetector`] and surfaces detected phase changes as synthetic
//!   [`SimEvent::HotSpotEntered`] events with
//!   [`HotSpotOrigin::Detected`].

use std::fmt::Write as _;

use rispp_fabric::FabricJournalEntry;
use rispp_model::SiId;
use rispp_monitor::{HotSpotDetector, HotSpotId};
use rispp_telemetry::{push_u64, MetricsRegistry, MetricsSnapshot, TraceBuilder};

use crate::context::TraceContext;
use crate::observer::{HotSpotOrigin, SimEvent, SimObserver};

/// The no-op recorder: the default telemetry sink when no `--metrics-out`
/// or `--trace-out` is requested. It opts out of the per-segment stream
/// and its `on_event` body is empty, so the replay hot path stays
/// allocation-free and effectively telemetry-free (verified by the
/// alloc-counter test in `crates/sim/tests/telemetry_alloc_free.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl NullRecorder {
    /// Creates the recorder (equivalent to the unit value).
    #[must_use]
    pub fn new() -> Self {
        NullRecorder
    }
}

impl SimObserver for NullRecorder {
    fn on_event(&mut self, _event: &SimEvent) {}

    fn wants_segments(&self) -> bool {
        false
    }
}

/// What an Atom Container is doing between two journal entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContainerPhase {
    /// No (usable) atom configured.
    Idle,
    /// A bitstream is streaming in through the reconfiguration port.
    Loading,
    /// Holding a usable atom.
    Ready,
    /// Permanently out of service.
    Quarantined,
}

impl ContainerPhase {
    fn family(self) -> &'static str {
        match self {
            ContainerPhase::Idle => "rispp_container_idle_cycles_total",
            ContainerPhase::Loading => "rispp_container_load_cycles_total",
            ContainerPhase::Ready => "rispp_container_ready_cycles_total",
            ContainerPhase::Quarantined => "rispp_container_quarantined_cycles_total",
        }
    }
}

/// Distinct latencies a [`SiTally`] holds before it is folded early, so a
/// trace with many per-burst overheads keeps each segment's scan short.
const TALLY_LATENCIES: usize = 16;

/// One SI's executions since the tallies were last folded into the
/// registry.
#[derive(Debug, Default)]
struct SiTally {
    executions: u64,
    /// `None` until the SI runs in hardware: the hardware counter exists
    /// only for an SI that did.
    hardware: Option<u64>,
    /// Distinct `(latency, count)` observations; empty means the SI has
    /// not executed since the last fold.
    latencies: Vec<(u64, u64)>,
}

impl SiTally {
    /// Writes the tally under SI `si`'s metric names, formatted in `name`,
    /// with the registry's current base labels.
    fn fold_into(&self, si: usize, registry: &mut MetricsRegistry, name: &mut String) {
        if self.latencies.is_empty() {
            return;
        }
        name.clear();
        let _ = write!(name, "rispp_si_executions_total{{si=\"{si}\"}}");
        registry.counter_add(name, self.executions);
        if let Some(hardware) = self.hardware {
            name.clear();
            let _ = write!(name, "rispp_si_hardware_executions_total{{si=\"{si}\"}}");
            registry.counter_add(name, hardware);
        }
        name.clear();
        let _ = write!(name, "rispp_si_latency_cycles{{si=\"{si}\"}}");
        for &(latency, count) in &self.latencies {
            registry.observe_n(name, latency, count);
        }
    }

    /// Empties the tally, keeping its allocation.
    fn clear(&mut self) {
        self.executions = 0;
        self.hardware = None;
        self.latencies.clear();
    }
}

/// Folds the event stream into a deterministic [`MetricsRegistry`].
///
/// Container time accounting is derived from the fabric journal
/// ([`SimEvent::ContainerTransition`], enabled via
/// [`SimConfig::with_journal`](crate::SimConfig::with_journal)); without
/// the journal those families simply stay absent. Open container phases
/// are flushed at [`SimEvent::RunFinished`], so a snapshot taken after the
/// run accounts for every simulated cycle.
///
/// Burst segments, by far the most frequent event, only add to typed
/// per-SI tallies. The tallies are folded into the registry at
/// [`SimEvent::RunFinished`], before the trace context changes the base
/// labels, and on every snapshot, under the same names and with the same
/// values as writing each segment to the registry would give.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    /// Per-SI tallies indexed by [`SiId`], grown on first sighting.
    si: Vec<SiTally>,
    /// Per-container `(phase, phase-start-cycle)`, grown on first sighting.
    containers: Vec<(ContainerPhase, u64)>,
    /// Latest cumulative port cycles lost to faulted loads (flushed as a
    /// counter at run end — the event only carries the running total).
    fault_cycles_lost: u64,
    /// Scratch buffer for labelled metric names.
    name: String,
}

impl MetricsObserver {
    /// Creates an observer with an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsObserver::default()
    }

    /// Freezes the current state into a mergeable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut registry = self.registry.clone();
        let mut name = String::new();
        for (si, tally) in self.si.iter().enumerate() {
            tally.fold_into(si, &mut registry, &mut name);
        }
        registry.into_snapshot()
    }

    /// Consumes the observer into a snapshot without cloning.
    #[must_use]
    pub fn into_snapshot(mut self) -> MetricsSnapshot {
        self.fold_tallies();
        self.registry.into_snapshot()
    }

    /// Folds every per-SI tally into the registry and empties it.
    fn fold_tallies(&mut self) {
        for (si, tally) in self.si.iter_mut().enumerate() {
            tally.fold_into(si, &mut self.registry, &mut self.name);
            tally.clear();
        }
    }

    fn container_entry(&mut self, container: u16) -> &mut (ContainerPhase, u64) {
        let i = usize::from(container);
        if self.containers.len() <= i {
            self.containers.resize(i + 1, (ContainerPhase::Idle, 0));
        }
        &mut self.containers[i]
    }

    /// Closes the container's current phase at `at`, crediting the elapsed
    /// cycles to that phase's counter, and opens `next`.
    fn container_transition(&mut self, container: u16, next: ContainerPhase, at: u64) {
        let (phase, since) = *self.container_entry(container);
        let elapsed = at.saturating_sub(since);
        if elapsed > 0 {
            self.name.clear();
            let _ = write!(self.name, "{}{{container=\"{container}\"}}", phase.family());
            let name = std::mem::take(&mut self.name);
            self.registry.counter_add(&name, elapsed);
            self.name = name;
        }
        *self.container_entry(container) = (next, at);
    }

    fn labelled_counter_add(&mut self, family: &str, key: &str, value: u64, delta: u64) {
        self.name.clear();
        let _ = write!(self.name, "{family}{{{key}=\"{value}\"}}");
        let name = std::mem::take(&mut self.name);
        self.registry.counter_add(&name, delta);
        self.name = name;
    }

    /// Folds a run's deterministic plan-cache counters into the registry
    /// (they are pulled from the backend after the run rather than carried
    /// on the event stream, which stays bit-identical cache-on vs
    /// cache-off). All-zero stats — cache off, or a non-RISPP backend —
    /// add nothing, so such snapshots are byte-identical to runs recorded
    /// before the plan cache existed.
    pub fn record_plan_cache(&mut self, stats: &rispp_core::PlanCacheStats) {
        if stats.is_zero() {
            return;
        }
        self.registry
            .counter_add("rispp_plan_cache_hits_total", stats.hits);
        self.registry
            .counter_add("rispp_plan_cache_misses_total", stats.misses);
        self.registry
            .counter_add("rispp_plan_cache_insertions_total", stats.insertions);
        self.registry
            .counter_add("rispp_plan_cache_evictions_total", stats.evictions);
        self.registry
            .counter_add("rispp_plan_cache_epoch_bumps_total", stats.epoch_bumps);
    }
}

impl SimObserver for MetricsObserver {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::HotSpotEntered { origin, .. } => {
                let name = match origin {
                    HotSpotOrigin::Annotated => {
                        "rispp_hot_spots_entered_total{origin=\"annotated\"}"
                    }
                    HotSpotOrigin::Detected => {
                        "rispp_hot_spots_entered_total{origin=\"detected\"}"
                    }
                };
                self.registry.counter_add(name, 1);
            }
            SimEvent::SegmentExecuted {
                si,
                segment,
                overhead,
            } => {
                let i = usize::from(si.0);
                if self.si.len() <= i {
                    self.si.resize_with(i + 1, SiTally::default);
                }
                let per = u64::from(segment.latency) + u64::from(*overhead);
                let tally = &mut self.si[i];
                match tally
                    .latencies
                    .iter_mut()
                    .find(|(latency, _)| *latency == per)
                {
                    Some((_, count)) => *count += segment.count,
                    None => {
                        if tally.latencies.len() == TALLY_LATENCIES {
                            tally.fold_into(i, &mut self.registry, &mut self.name);
                            tally.clear();
                        }
                        tally.latencies.push((per, segment.count));
                    }
                }
                tally.executions += segment.count;
                if segment.is_hardware() {
                    *tally.hardware.get_or_insert(0) += segment.count;
                }
            }
            SimEvent::LoadCompleted { completed, .. } => {
                self.registry
                    .counter_add("rispp_loads_completed_total", *completed);
            }
            SimEvent::FaultInjected {
                count, cycles_lost, ..
            } => {
                self.registry.counter_add("rispp_faults_injected_total", *count);
                self.fault_cycles_lost = *cycles_lost;
            }
            SimEvent::LoadRetried { count, .. } => {
                self.registry.counter_add("rispp_load_retries_total", *count);
            }
            SimEvent::ContainerQuarantined { count, .. } => {
                self.registry
                    .counter_add("rispp_containers_quarantined_total", *count);
            }
            SimEvent::DegradedToSoftware { count, .. } => {
                self.registry
                    .counter_add("rispp_degraded_to_software_total", *count);
            }
            // Multi-tenant counters carry the application as a label, so a
            // merged snapshot keeps the per-app breakdown.
            SimEvent::TenantSwitched { tenant, .. } => {
                self.labelled_counter_add(
                    "rispp_tenant_switches_total",
                    "tenant",
                    u64::from(*tenant),
                    1,
                );
            }
            SimEvent::AtomShared { tenant, count, .. } => {
                self.labelled_counter_add(
                    "rispp_atoms_shared_total",
                    "tenant",
                    u64::from(*tenant),
                    *count,
                );
            }
            SimEvent::EvictionContested { tenant, count, .. } => {
                self.labelled_counter_add(
                    "rispp_evictions_contested_total",
                    "tenant",
                    u64::from(*tenant),
                    *count,
                );
            }
            SimEvent::Decision(decision) => {
                self.registry.counter_add("rispp_decisions_total", 1);
                let upgrades = decision
                    .schedule
                    .rounds
                    .iter()
                    .filter(|r| r.chosen.is_some())
                    .count() as u64;
                self.name.clear();
                let _ = write!(
                    self.name,
                    "rispp_scheduler_upgrades_total{{scheduler=\"{}\"}}",
                    decision.schedule.scheduler
                );
                let name = std::mem::take(&mut self.name);
                self.registry.counter_add(&name, upgrades);
                self.name = name;
                let sel_upgrades = decision
                    .selection
                    .rounds
                    .iter()
                    .filter(|r| r.chosen.is_some())
                    .count() as u64;
                self.registry
                    .counter_add("rispp_selection_upgrades_total", sel_upgrades);
                self.registry.counter_add(
                    "rispp_selection_rejected_total",
                    decision.selection.rejected.len() as u64,
                );
            }
            SimEvent::ContainerTransition(entry) => match *entry {
                FabricJournalEntry::LoadStarted { container, at, .. } => {
                    self.container_transition(container.0, ContainerPhase::Loading, at);
                }
                FabricJournalEntry::LoadFinished { container, at, .. } => {
                    self.container_transition(container.0, ContainerPhase::Ready, at);
                }
                FabricJournalEntry::LoadAborted { container, at, .. }
                | FabricJournalEntry::AtomCorrupted { container, at, .. } => {
                    self.container_transition(container.0, ContainerPhase::Idle, at);
                }
                FabricJournalEntry::ContainerQuarantined { container, at } => {
                    self.container_transition(container.0, ContainerPhase::Quarantined, at);
                }
            },
            SimEvent::RunFinished {
                total_cycles,
                reconfigurations,
                reconfiguration_cycles,
            } => {
                self.fold_tallies();
                self.registry.counter_add("rispp_runs_total", 1);
                self.registry
                    .counter_add("rispp_simulated_cycles_total", *total_cycles);
                self.registry
                    .counter_add("rispp_reconfigurations_total", *reconfigurations);
                self.registry
                    .counter_add("rispp_port_busy_cycles_total", *reconfiguration_cycles);
                if self.fault_cycles_lost > 0 {
                    self.registry
                        .counter_add("rispp_fault_cycles_lost_total", self.fault_cycles_lost);
                    self.fault_cycles_lost = 0;
                }
                // Flush open container phases so every simulated cycle of
                // every sighted container is accounted for.
                let end = *total_cycles;
                for i in 0..self.containers.len() {
                    let (phase, _) = self.containers[i];
                    let container = i as u16;
                    self.container_transition(container, phase, end);
                }
            }
        }
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        // Tallies taken under the old labels keep them.
        self.fold_tallies();
        self.name.clear();
        // `trace_tenant`, as in the JSONL export: the per-tenant families
        // already carry a payload `tenant` label, and a sample may not
        // repeat a label name.
        let _ = write!(
            self.name,
            "trace_id=\"{}\",trace_tenant=\"{}\",attempt=\"{}\"",
            context.trace_id, context.tenant, context.attempt
        );
        self.registry.set_base_labels(&self.name);
        self.name.clear();
    }
}

/// Track group for Atom Containers in the exported trace.
const PID_CONTAINERS: u64 = 1;
/// Track group for Special Instructions.
const PID_SIS: u64 = 2;
/// Track group for run-time decisions and hot-spot markers.
const PID_DECISIONS: u64 = 3;
/// Track group for tenants of a multi-application run (one track per
/// application, populated only when the stream carries tenant events).
const PID_TENANTS: u64 = 4;

/// An open span on a container track.
#[derive(Debug, Clone, Copy)]
enum ContainerSpan {
    /// A bitstream transfer in flight since `since`.
    Load { atom: u16, since: u64 },
    /// A usable atom resident since `since`.
    Ready { atom: u16, since: u64 },
    /// Out of service since `since`.
    Quarantined { since: u64 },
}

/// Renders the run as Chrome trace-event JSON for Perfetto.
///
/// Container spans come from the fabric journal
/// ([`SimConfig::with_journal`](crate::SimConfig::with_journal)), decision
/// instants from [`SimConfig::with_explain`](crate::SimConfig::with_explain);
/// SI execution spans and hot-spot markers are always available. Spans
/// still open when [`SimEvent::RunFinished`] arrives are closed at the
/// run's final cycle. 1 simulated cycle renders as 1 µs.
#[derive(Debug)]
pub struct PerfettoTraceObserver {
    trace: TraceBuilder,
    spans: Vec<Option<ContainerSpan>>,
    container_named: Vec<bool>,
    si_named: Vec<bool>,
    tenant_named: Vec<bool>,
    /// The tenant slice currently occupying the substrate, as
    /// `(tenant, slice-start-cycle)`.
    tenant_span: Option<(u16, u64)>,
    /// Scratch buffers for track names and pre-rendered args objects.
    name: String,
    args: String,
}

impl Default for PerfettoTraceObserver {
    fn default() -> Self {
        PerfettoTraceObserver::new()
    }
}

impl PerfettoTraceObserver {
    /// Creates an observer with the three named track groups.
    #[must_use]
    pub fn new() -> Self {
        let mut trace = TraceBuilder::new();
        trace.process_name(PID_CONTAINERS, "Atom Containers");
        trace.process_name(PID_SIS, "Special Instructions");
        trace.process_name(PID_DECISIONS, "Run-time decisions");
        trace.process_name(PID_TENANTS, "Tenants");
        PerfettoTraceObserver {
            trace,
            spans: Vec::new(),
            container_named: Vec::new(),
            si_named: Vec::new(),
            tenant_named: Vec::new(),
            tenant_span: None,
            name: String::new(),
            args: String::new(),
        }
    }

    /// Closes the document and returns the trace JSON.
    #[must_use]
    pub fn into_json(self) -> String {
        self.trace.finish()
    }

    fn ensure_container(&mut self, container: u16) {
        let i = usize::from(container);
        if self.spans.len() <= i {
            self.spans.resize(i + 1, None);
            self.container_named.resize(i + 1, false);
        }
        if !self.container_named[i] {
            self.container_named[i] = true;
            self.name.clear();
            let _ = write!(self.name, "AC{container}");
            self.trace
                .thread_name(PID_CONTAINERS, u64::from(container), &self.name);
        }
    }

    fn ensure_si(&mut self, si: SiId) {
        let i = usize::from(si.0);
        if self.si_named.len() <= i {
            self.si_named.resize(i + 1, false);
        }
        if !self.si_named[i] {
            self.si_named[i] = true;
            self.name.clear();
            let _ = write!(self.name, "SI{}", si.0);
            self.trace.thread_name(PID_SIS, u64::from(si.0), &self.name);
        }
    }

    /// Closes the container's open span (if any) at cycle `at`.
    fn close_span(&mut self, container: u16, at: u64) {
        let i = usize::from(container);
        let Some(span) = self.spans.get_mut(i).and_then(Option::take) else {
            return;
        };
        let tid = u64::from(container);
        match span {
            ContainerSpan::Load { atom, since } => {
                self.name.clear();
                let _ = write!(self.name, "load A{atom}");
                self.args.clear();
                let _ = write!(self.args, "{{\"atom\":{atom}}}");
                self.trace.complete_with_args(
                    PID_CONTAINERS,
                    tid,
                    &self.name,
                    since,
                    at.saturating_sub(since),
                    Some(&self.args),
                );
            }
            ContainerSpan::Ready { atom, since } => {
                self.name.clear();
                let _ = write!(self.name, "A{atom}");
                self.args.clear();
                let _ = write!(self.args, "{{\"atom\":{atom}}}");
                self.trace.complete_with_args(
                    PID_CONTAINERS,
                    tid,
                    &self.name,
                    since,
                    at.saturating_sub(since),
                    Some(&self.args),
                );
            }
            ContainerSpan::Quarantined { since } => {
                self.trace.complete(
                    PID_CONTAINERS,
                    tid,
                    "quarantined",
                    since,
                    at.saturating_sub(since),
                );
            }
        }
    }

    fn open_span(&mut self, container: u16, span: ContainerSpan) {
        self.spans[usize::from(container)] = Some(span);
    }

    fn ensure_tenant(&mut self, tenant: u16) {
        let i = usize::from(tenant);
        if self.tenant_named.len() <= i {
            self.tenant_named.resize(i + 1, false);
        }
        if !self.tenant_named[i] {
            self.tenant_named[i] = true;
            self.name.clear();
            let _ = write!(self.name, "T{tenant}");
            self.trace
                .thread_name(PID_TENANTS, u64::from(tenant), &self.name);
        }
    }

    /// Closes the active tenant slice span (if any) at cycle `at`.
    fn close_tenant_span(&mut self, at: u64) {
        if let Some((tenant, since)) = self.tenant_span.take() {
            self.trace.complete(
                PID_TENANTS,
                u64::from(tenant),
                "active",
                since,
                at.saturating_sub(since),
            );
        }
    }
}

impl SimObserver for PerfettoTraceObserver {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::HotSpotEntered {
                hot_spot,
                now,
                origin,
            } => {
                self.name.clear();
                let _ = write!(self.name, "hot spot {}", hot_spot.0);
                self.args.clear();
                let origin = match origin {
                    HotSpotOrigin::Annotated => "annotated",
                    HotSpotOrigin::Detected => "detected",
                };
                let _ = write!(self.args, "{{\"origin\":\"{origin}\"}}");
                let name = std::mem::take(&mut self.name);
                self.trace
                    .instant_with_args(PID_DECISIONS, 0, &name, *now, Some(&self.args));
                self.name = name;
            }
            SimEvent::SegmentExecuted {
                si,
                segment,
                overhead,
            } => {
                self.ensure_si(*si);
                let per = u64::from(segment.latency) + u64::from(*overhead);
                // One span per burst segment: written with `push_u64`, not
                // `core::fmt`.
                self.name.clear();
                match segment.variant_index {
                    Some(v) => {
                        self.name.push('v');
                        push_u64(&mut self.name, v as u64);
                        self.name.push_str(" ×");
                    }
                    None => self.name.push_str("software ×"),
                }
                push_u64(&mut self.name, segment.count);
                self.args.clear();
                self.args.push_str("{\"count\":");
                push_u64(&mut self.args, segment.count);
                self.args.push_str(",\"latency\":");
                push_u64(&mut self.args, u64::from(segment.latency));
                self.args.push_str(if segment.is_hardware() {
                    ",\"hardware\":true}"
                } else {
                    ",\"hardware\":false}"
                });
                self.trace.complete_with_args(
                    PID_SIS,
                    u64::from(si.0),
                    &self.name,
                    segment.start,
                    segment.count.saturating_mul(per),
                    Some(&self.args),
                );
            }
            SimEvent::FaultInjected { count, now, .. } if *count > 0 => {
                self.args.clear();
                let _ = write!(self.args, "{{\"count\":{count}}}");
                self.trace
                    .instant_with_args(PID_DECISIONS, 0, "fault injected", *now, Some(&self.args));
            }
            SimEvent::DegradedToSoftware { count, now, .. } if *count > 0 => {
                self.args.clear();
                let _ = write!(self.args, "{{\"count\":{count}}}");
                self.trace.instant_with_args(
                    PID_DECISIONS,
                    0,
                    "degraded to software",
                    *now,
                    Some(&self.args),
                );
            }
            SimEvent::Decision(decision) => {
                self.args.clear();
                let upgrades = decision
                    .schedule
                    .rounds
                    .iter()
                    .filter(|r| r.chosen.is_some())
                    .count();
                let _ = write!(
                    self.args,
                    "{{\"scheduler\":\"{}\",\"containers\":{},\"selected\":{},\"upgrades\":{}}}",
                    decision.schedule.scheduler,
                    decision.containers,
                    decision.selection.selection.len(),
                    upgrades
                );
                self.trace.instant_with_args(
                    PID_DECISIONS,
                    0,
                    "decision",
                    decision.now,
                    Some(&self.args),
                );
            }
            SimEvent::ContainerTransition(entry) => match *entry {
                FabricJournalEntry::LoadStarted {
                    container, atom, at, ..
                } => {
                    self.ensure_container(container.0);
                    self.close_span(container.0, at);
                    self.open_span(
                        container.0,
                        ContainerSpan::Load {
                            atom: atom.0,
                            since: at,
                        },
                    );
                }
                FabricJournalEntry::LoadFinished { container, atom, at } => {
                    self.ensure_container(container.0);
                    self.close_span(container.0, at);
                    self.open_span(
                        container.0,
                        ContainerSpan::Ready {
                            atom: atom.0,
                            since: at,
                        },
                    );
                }
                FabricJournalEntry::LoadAborted { container, atom, at } => {
                    self.ensure_container(container.0);
                    self.close_span(container.0, at);
                    self.name.clear();
                    let _ = write!(self.name, "load aborted A{}", atom.0);
                    let name = std::mem::take(&mut self.name);
                    self.trace
                        .instant(PID_CONTAINERS, u64::from(container.0), &name, at);
                    self.name = name;
                }
                FabricJournalEntry::AtomCorrupted { container, atom, at } => {
                    self.ensure_container(container.0);
                    self.close_span(container.0, at);
                    self.name.clear();
                    let _ = write!(self.name, "SEU corrupt A{}", atom.0);
                    let name = std::mem::take(&mut self.name);
                    self.trace
                        .instant(PID_CONTAINERS, u64::from(container.0), &name, at);
                    self.name = name;
                }
                FabricJournalEntry::ContainerQuarantined { container, at } => {
                    self.ensure_container(container.0);
                    self.close_span(container.0, at);
                    self.trace
                        .instant(PID_CONTAINERS, u64::from(container.0), "quarantined", at);
                    self.open_span(container.0, ContainerSpan::Quarantined { since: at });
                }
            },
            SimEvent::TenantSwitched { tenant, now } => {
                self.ensure_tenant(*tenant);
                self.close_tenant_span(*now);
                self.tenant_span = Some((*tenant, *now));
            }
            SimEvent::AtomShared { tenant, count, now, .. } if *count > 0 => {
                self.ensure_tenant(*tenant);
                self.args.clear();
                let _ = write!(self.args, "{{\"count\":{count}}}");
                self.trace.instant_with_args(
                    PID_TENANTS,
                    u64::from(*tenant),
                    "atoms shared",
                    *now,
                    Some(&self.args),
                );
            }
            SimEvent::EvictionContested { tenant, count, now, .. } if *count > 0 => {
                self.ensure_tenant(*tenant);
                self.args.clear();
                let _ = write!(self.args, "{{\"count\":{count}}}");
                self.trace.instant_with_args(
                    PID_TENANTS,
                    u64::from(*tenant),
                    "contested eviction",
                    *now,
                    Some(&self.args),
                );
            }
            SimEvent::RunFinished { total_cycles, .. } => {
                for container in 0..self.spans.len() {
                    self.close_span(container as u16, *total_cycles);
                }
                self.close_tenant_span(*total_cycles);
            }
            SimEvent::LoadCompleted { .. }
            | SimEvent::FaultInjected { .. }
            | SimEvent::LoadRetried { .. }
            | SimEvent::ContainerQuarantined { .. }
            | SimEvent::DegradedToSoftware { .. }
            | SimEvent::AtomShared { .. }
            | SimEvent::EvictionContested { .. } => {}
        }
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        self.args.clear();
        let _ = write!(
            self.args,
            "{{\"trace_id\":{},\"tenant\":{},\"attempt\":{}}}",
            context.trace_id, context.tenant, context.attempt
        );
        self.trace
            .instant_with_args(PID_DECISIONS, 0, "trace context", 0, Some(&self.args));
    }
}

/// Feeds the SI execution stream through the windowed
/// [`HotSpotDetector`] and forwards every event — plus a synthetic
/// [`SimEvent::HotSpotEntered`] with [`HotSpotOrigin::Detected`] whenever
/// the detector commits a new dominant-SI signature — to the wrapped
/// observer. This makes the companion-work hardware detector's view of the
/// run visible in the same event stream as the trace annotations, so logs
/// and traces can compare annotated against detected phase boundaries.
#[derive(Debug)]
pub struct DetectorObserver<O> {
    detector: HotSpotDetector,
    inner: O,
    /// The detector's last committed signature, cached so a change is
    /// recognised without cloning the detector per segment.
    signature: Vec<SiId>,
    /// Most recent annotated hot spot, reused as the synthetic event's id
    /// (detected signatures have no id of their own).
    last_hot_spot: HotSpotId,
}

impl<O> DetectorObserver<O> {
    /// Wraps `inner`, detecting over `window_cycles`-wide windows with the
    /// given debounce (see [`HotSpotDetector::new`]).
    #[must_use]
    pub fn new(window_cycles: u64, stable_windows: u32, inner: O) -> Self {
        DetectorObserver {
            detector: HotSpotDetector::new(window_cycles, stable_windows),
            inner,
            signature: Vec::new(),
            last_hot_spot: HotSpotId(0),
        }
    }

    /// The wrapped detector (e.g. for [`HotSpotDetector::transitions`]).
    #[must_use]
    pub fn detector(&self) -> &HotSpotDetector {
        &self.detector
    }

    /// Consumes the wrapper, returning the inner observer.
    #[must_use]
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: SimObserver> SimObserver for DetectorObserver<O> {
    fn on_event(&mut self, event: &SimEvent) {
        if let SimEvent::HotSpotEntered {
            hot_spot,
            origin: HotSpotOrigin::Annotated,
            ..
        } = event
        {
            self.last_hot_spot = *hot_spot;
        }
        self.inner.on_event(event);
        if let SimEvent::SegmentExecuted { si, segment, .. } = event {
            self.detector.observe(*si, segment.start);
            if self.detector.last_signature() != self.signature.as_slice() {
                self.signature.clear();
                self.signature.extend_from_slice(self.detector.last_signature());
                self.inner.on_event(&SimEvent::HotSpotEntered {
                    hot_spot: self.last_hot_spot,
                    now: segment.start,
                    origin: HotSpotOrigin::Detected,
                });
            }
        }
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        self.inner.set_trace_context(context);
    }

    fn wants_segments(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::BurstSegment;
    use rispp_fabric::ContainerId;
    use rispp_model::AtomTypeId;
    use rispp_telemetry::JsonValue;

    fn segment(si: u16, start: u64, count: u64, latency: u32) -> SimEvent {
        SimEvent::SegmentExecuted {
            si: SiId(si),
            segment: BurstSegment::hardware(start, count, latency, 0),
            overhead: 0,
        }
    }

    #[test]
    fn metrics_observer_accounts_container_phases_to_run_end() {
        let mut m = MetricsObserver::new();
        let c = ContainerId(2);
        let a = AtomTypeId(5);
        m.on_event(&SimEvent::ContainerTransition(
            FabricJournalEntry::LoadStarted {
                container: c,
                atom: a,
                at: 100,
                finish: 400,
            },
        ));
        m.on_event(&SimEvent::ContainerTransition(
            FabricJournalEntry::LoadFinished {
                container: c,
                atom: a,
                at: 400,
            },
        ));
        m.on_event(&segment(3, 400, 10, 7));
        m.on_event(&SimEvent::RunFinished {
            total_cycles: 1_000,
            reconfigurations: 1,
            reconfiguration_cycles: 300,
        });
        let s = m.into_snapshot();
        assert_eq!(s.counter("rispp_container_idle_cycles_total{container=\"2\"}"), 100);
        assert_eq!(s.counter("rispp_container_load_cycles_total{container=\"2\"}"), 300);
        assert_eq!(s.counter("rispp_container_ready_cycles_total{container=\"2\"}"), 600);
        assert_eq!(s.counter("rispp_si_executions_total{si=\"3\"}"), 10);
        assert_eq!(s.counter("rispp_si_hardware_executions_total{si=\"3\"}"), 10);
        assert_eq!(s.counter("rispp_reconfigurations_total"), 1);
        assert_eq!(s.counter("rispp_port_busy_cycles_total"), 300);
        assert_eq!(s.counter("rispp_runs_total"), 1);
    }

    #[test]
    fn metrics_snapshots_merge_across_jobs() {
        let mut a = MetricsObserver::new();
        a.on_event(&segment(0, 0, 5, 10));
        a.on_event(&SimEvent::RunFinished {
            total_cycles: 50,
            reconfigurations: 0,
            reconfiguration_cycles: 0,
        });
        let mut b = MetricsObserver::new();
        b.on_event(&segment(0, 0, 7, 10));
        b.on_event(&SimEvent::RunFinished {
            total_cycles: 70,
            reconfigurations: 0,
            reconfiguration_cycles: 0,
        });
        let mut merged = a.into_snapshot();
        merged.merge(&b.into_snapshot());
        assert_eq!(merged.counter("rispp_si_executions_total{si=\"0\"}"), 12);
        assert_eq!(merged.counter("rispp_runs_total"), 2);
        assert_eq!(merged.counter("rispp_simulated_cycles_total"), 120);
    }

    #[test]
    fn perfetto_trace_has_container_and_si_tracks() {
        let mut p = PerfettoTraceObserver::new();
        let c = ContainerId(0);
        let a = AtomTypeId(3);
        p.on_event(&SimEvent::ContainerTransition(
            FabricJournalEntry::LoadStarted {
                container: c,
                atom: a,
                at: 0,
                finish: 500,
            },
        ));
        p.on_event(&SimEvent::ContainerTransition(
            FabricJournalEntry::LoadFinished {
                container: c,
                atom: a,
                at: 500,
            },
        ));
        p.on_event(&segment(1, 500, 100, 4));
        p.on_event(&SimEvent::Decision(Box::default()));
        p.on_event(&SimEvent::RunFinished {
            total_cycles: 2_000,
            reconfigurations: 1,
            reconfiguration_cycles: 500,
        });
        let json = p.into_json();
        let doc = JsonValue::parse(&json).expect("trace parses");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        // Load span: AC0, ts 0, dur 500.
        let load = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("load A3"))
            .expect("load span present");
        assert_eq!(load.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(load.get("dur").and_then(JsonValue::as_u64), Some(500));
        // Ready span closed at run end: 2000 - 500.
        let ready = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("A3"))
            .expect("ready span present");
        assert_eq!(ready.get("dur").and_then(JsonValue::as_u64), Some(1_500));
        // SI execution span on the SI track.
        let exec = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("v0 ×100"))
            .expect("si span present");
        assert_eq!(exec.get("dur").and_then(JsonValue::as_u64), Some(400));
        // Decision instant.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("decision")));
    }

    #[test]
    fn detector_observer_synthesizes_detected_transitions() {
        let mut log = crate::observer::TraceLogObserver::new();
        {
            let mut det = DetectorObserver::new(1_000, 1, &mut log);
            det.on_event(&SimEvent::HotSpotEntered {
                hot_spot: HotSpotId(4),
                now: 0,
                origin: HotSpotOrigin::Annotated,
            });
            for i in 0..100u64 {
                det.on_event(&segment(0, i * 100, 1, 10));
            }
            for i in 100..200u64 {
                det.on_event(&segment(6, i * 100, 1, 10));
            }
        }
        let detected: Vec<_> = log
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SimEvent::HotSpotEntered {
                        origin: HotSpotOrigin::Detected,
                        ..
                    }
                )
            })
            .collect();
        assert!(
            detected.len() >= 2,
            "initial phase and the SI0→SI6 switch must both be detected: {detected:?}"
        );
        match detected.last().unwrap() {
            SimEvent::HotSpotEntered { hot_spot, now, .. } => {
                assert_eq!(*hot_spot, HotSpotId(4), "reuses last annotated id");
                assert!(*now >= 10_000, "switch detected after the phase change");
            }
            other => panic!("expected hot-spot event, got {other:?}"),
        }
    }
}
