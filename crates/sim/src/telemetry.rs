//! Opt-in telemetry observers over the engine's event stream.
//!
//! Everything here lives in the *simulated-cycle* domain: cycles come from
//! the events themselves (each journal entry and decision carries its own
//! exact cycle), never from wall-clock time, so any two runs of the same
//! trace produce bit-identical telemetry regardless of host load or sweep
//! thread count.
//!
//! * [`NullRecorder`] — consumes nothing, allocates nothing, opts out of
//!   the per-segment stream. Attaching it is free, which the alloc-free
//!   test proves with it.
//! * [`MetricsObserver`] — folds the stream into a
//!   [`rispp_telemetry::MetricsRegistry`]: per-SI execution counts and
//!   latency histograms, per-container load/ready/idle/quarantined cycle
//!   totals, reconfiguration-port busy cycles, recovery counters and
//!   scheduler decision/upgrade counts.
//! * [`PerfettoTraceObserver`] — renders the run as Chrome trace-event
//!   JSON (openable at <https://ui.perfetto.dev>): one track per Atom
//!   Container with load/ready/quarantine spans, one track per SI with
//!   execution-burst spans, and instant events for faults and decisions.

use std::fmt::Write as _;

use rispp_core::BurstSegment;
use rispp_fabric::FabricJournalEntry;
use rispp_model::SiId;
use rispp_telemetry::{push_u64, MetricsRegistry, MetricsSnapshot, SegmentSpan, TraceBuilder};

use crate::context::TraceContext;
use crate::observer::{batch_pairs, SimEvent, SimObserver};
use crate::trace::Burst;

/// The no-op recorder. It opts out of the per-segment stream and its
/// `on_event` body is empty. No run attaches it: it is kept as the test
/// hook with which `crates/sim/tests/telemetry_alloc_free.rs` shows that
/// observer dispatch adds no allocation to the replay hot path, and which
/// `telemetry_determinism.rs` attaches beside the exporters.
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

    /// Freezes the current state into a snapshot.
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

    /// Adds one burst segment to its SI's tally.
    fn segment(&mut self, si: SiId, segment: &BurstSegment, overhead: u32) {
        let i = usize::from(si.0);
        if self.si.len() <= i {
            self.si.resize_with(i + 1, SiTally::default);
        }
        let per = u64::from(segment.latency) + u64::from(overhead);
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
            SimEvent::HotSpotEntered { .. } => {
                // Every entry is a trace annotation; the label keeps the
                // metric family's shape.
                self.registry
                    .counter_add("rispp_hot_spots_entered_total{origin=\"annotated\"}", 1);
            }
            SimEvent::SegmentExecuted {
                si,
                segment,
                overhead,
            } => self.segment(*si, segment, *overhead),
            SimEvent::LoadCompleted { completed, .. } => {
                self.registry
                    .counter_add("rispp_loads_completed_total", *completed);
            }
            SimEvent::FaultInjected {
                count, cycles_lost, ..
            } => {
                self.registry
                    .counter_add("rispp_faults_injected_total", *count);
                self.fault_cycles_lost = *cycles_lost;
            }
            SimEvent::LoadRetried { count, .. } => {
                self.registry
                    .counter_add("rispp_load_retries_total", *count);
            }
            SimEvent::ContainerQuarantined { count, .. } => {
                self.registry
                    .counter_add("rispp_containers_quarantined_total", *count);
            }
            SimEvent::DegradedToSoftware { count, .. } => {
                self.registry
                    .counter_add("rispp_degraded_to_software_total", *count);
            }
            // Multi-tenant counters carry the application as a label, so
            // the snapshot keeps the per-app breakdown.
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

    /// A batch adds each segment to its tally, as its events would.
    fn on_batch(&mut self, bursts: &[Burst], segments: &[BurstSegment]) {
        for (b, segment) in batch_pairs(bursts, segments) {
            self.segment(b.si, segment, b.overhead);
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
            numbered(&mut self.name, "AC", u64::from(container));
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
            numbered(&mut self.name, "SI", u64::from(si.0));
            self.trace.thread_name(PID_SIS, u64::from(si.0), &self.name);
        }
    }

    /// Writes one burst segment's span on its SI's track.
    fn segment(&mut self, si: SiId, segment: &BurstSegment, overhead: u32) {
        self.ensure_si(si);
        let per = u64::from(segment.latency) + u64::from(overhead);
        self.trace.segment_span(
            PID_SIS,
            u64::from(si.0),
            SegmentSpan {
                variant: segment.variant_index,
                count: segment.count,
                latency: segment.latency,
                hardware: segment.is_hardware(),
                ts: segment.start,
                dur: segment.count.saturating_mul(per),
            },
        );
    }

    /// Closes the container's open span (if any) at cycle `at`.
    fn close_span(&mut self, container: u16, at: u64) {
        let i = usize::from(container);
        let Some(span) = self.spans.get_mut(i).and_then(Option::take) else {
            return;
        };
        let tid = u64::from(container);
        match span {
            ContainerSpan::Load { atom, since } => self.atom_span(tid, "load A", atom, since, at),
            ContainerSpan::Ready { atom, since } => self.atom_span(tid, "A", atom, since, at),
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

    /// Writes a load or residency span of `atom` on container track `tid`,
    /// named `prefix` and the atom's number.
    fn atom_span(&mut self, tid: u64, prefix: &str, atom: u16, since: u64, at: u64) {
        numbered(&mut self.name, prefix, u64::from(atom));
        int_args(&mut self.args, &[("atom", u64::from(atom))]);
        self.trace.complete_with_args(
            PID_CONTAINERS,
            tid,
            &self.name,
            since,
            at.saturating_sub(since),
            Some(&self.args),
        );
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
            numbered(&mut self.name, "T", u64::from(tenant));
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
            SimEvent::HotSpotEntered { hot_spot, now } => {
                numbered(&mut self.name, "hot spot ", u64::from(hot_spot.0));
                self.trace.instant_with_args(
                    PID_DECISIONS,
                    0,
                    &self.name,
                    *now,
                    Some("{\"origin\":\"annotated\"}"),
                );
            }
            SimEvent::SegmentExecuted {
                si,
                segment,
                overhead,
            } => self.segment(*si, segment, *overhead),
            SimEvent::FaultInjected { count, now, .. } if *count > 0 => {
                int_args(&mut self.args, &[("count", *count)]);
                self.trace.instant_with_args(
                    PID_DECISIONS,
                    0,
                    "fault injected",
                    *now,
                    Some(&self.args),
                );
            }
            SimEvent::DegradedToSoftware { count, now, .. } if *count > 0 => {
                int_args(&mut self.args, &[("count", *count)]);
                self.trace.instant_with_args(
                    PID_DECISIONS,
                    0,
                    "degraded to software",
                    *now,
                    Some(&self.args),
                );
            }
            SimEvent::Decision(decision) => {
                let upgrades = decision
                    .schedule
                    .rounds
                    .iter()
                    .filter(|r| r.chosen.is_some())
                    .count();
                self.args.clear();
                self.args.push_str("{\"scheduler\":\"");
                self.args.push_str(decision.schedule.scheduler);
                self.args.push_str("\",\"containers\":");
                push_u64(&mut self.args, u64::from(decision.containers));
                self.args.push_str(",\"selected\":");
                push_u64(&mut self.args, decision.selection.selection.len() as u64);
                self.args.push_str(",\"upgrades\":");
                push_u64(&mut self.args, upgrades as u64);
                self.args.push('}');
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
                    container,
                    atom,
                    at,
                    ..
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
                FabricJournalEntry::LoadFinished {
                    container,
                    atom,
                    at,
                } => {
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
                FabricJournalEntry::LoadAborted {
                    container,
                    atom,
                    at,
                } => {
                    self.ensure_container(container.0);
                    self.close_span(container.0, at);
                    numbered(&mut self.name, "load aborted A", u64::from(atom.0));
                    self.trace
                        .instant(PID_CONTAINERS, u64::from(container.0), &self.name, at);
                }
                FabricJournalEntry::AtomCorrupted {
                    container,
                    atom,
                    at,
                } => {
                    self.ensure_container(container.0);
                    self.close_span(container.0, at);
                    numbered(&mut self.name, "SEU corrupt A", u64::from(atom.0));
                    self.trace
                        .instant(PID_CONTAINERS, u64::from(container.0), &self.name, at);
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
            SimEvent::AtomShared {
                tenant, count, now, ..
            } if *count > 0 => {
                self.ensure_tenant(*tenant);
                int_args(&mut self.args, &[("count", *count)]);
                self.trace.instant_with_args(
                    PID_TENANTS,
                    u64::from(*tenant),
                    "atoms shared",
                    *now,
                    Some(&self.args),
                );
            }
            SimEvent::EvictionContested {
                tenant, count, now, ..
            } if *count > 0 => {
                self.ensure_tenant(*tenant);
                int_args(&mut self.args, &[("count", *count)]);
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

    /// A batch writes each segment's span, as its events would.
    fn on_batch(&mut self, bursts: &[Burst], segments: &[BurstSegment]) {
        for (b, segment) in batch_pairs(bursts, segments) {
            self.segment(b.si, segment, b.overhead);
        }
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        context_args(&mut self.args, context);
        self.trace
            .instant_with_args(PID_DECISIONS, 0, "trace context", 0, Some(&self.args));
    }
}

/// Sets `out` to `prefix` followed by the decimal digits of `n`.
fn numbered(out: &mut String, prefix: &str, n: u64) {
    out.clear();
    out.push_str(prefix);
    push_u64(out, n);
}

/// Sets `out` to the args object `{"key":value,...}` of integer pairs.
fn int_args(out: &mut String, pairs: &[(&str, u64)]) {
    out.clear();
    out.push('{');
    for (i, &(key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        push_u64(out, value);
    }
    out.push('}');
}

/// Sets `out` to the args object of a trace-context instant.
pub(crate) fn context_args(out: &mut String, context: TraceContext) {
    int_args(
        out,
        &[
            ("trace_id", context.trace_id),
            ("tenant", u64::from(context.tenant)),
            ("attempt", u64::from(context.attempt)),
        ],
    );
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
        assert_eq!(
            s.counter("rispp_container_idle_cycles_total{container=\"2\"}"),
            100
        );
        assert_eq!(
            s.counter("rispp_container_load_cycles_total{container=\"2\"}"),
            300
        );
        assert_eq!(
            s.counter("rispp_container_ready_cycles_total{container=\"2\"}"),
            600
        );
        assert_eq!(s.counter("rispp_si_executions_total{si=\"3\"}"), 10);
        assert_eq!(
            s.counter("rispp_si_hardware_executions_total{si=\"3\"}"),
            10
        );
        assert_eq!(s.counter("rispp_reconfigurations_total"), 1);
        assert_eq!(s.counter("rispp_port_busy_cycles_total"), 300);
        assert_eq!(s.counter("rispp_runs_total"), 1);
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
        p.on_event(&SimEvent::Decision(std::sync::Arc::default()));
        p.on_event(&SimEvent::RunFinished {
            total_cycles: 2_000,
            reconfigurations: 1,
            reconfiguration_cycles: 500,
        });
        let json = p.into_json();
        let doc = JsonValue::parse(&json).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
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
}
