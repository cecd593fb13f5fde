//! Flight recorder: a bounded ring-buffer observer retaining the causal
//! tail of a run for post-mortem forensics.
//!
//! A [`FlightRecorder`] sits on the engine's event stream like any other
//! [`SimObserver`] but keeps only the *last* N events (plus the last K
//! scheduler decisions and fabric-journal entries) in fixed-capacity
//! rings. It is designed to be always-on in the job server: steady-state
//! recording performs **no allocation** for any event the engine emits in
//! a default run — every retained variant holds only `Copy` payloads, the
//! rings are allocated once up front and slots are overwritten in place.
//! A [`SimEvent::Decision`] is retained by sharing its payload, never by
//! copying the records. A batch of burst segments skips the ones the ring
//! would overwrite before the batch ends.
//!
//! When a job dies — panic, deadline timeout, retry exhaustion,
//! poison-listing — the server calls [`FlightRecorder::dump`] to render
//! the retained tail as a self-describing diagnostic bundle
//! ([`rispp_telemetry::bundle`]). The event rows of the bundle are
//! written through the *same* serialiser as `--log-events`
//! ([`crate::export::write_event_jsonl`]), so the bundle's tail is
//! bit-identical to the suffix of a full event log recorded with the same
//! trace context — forensics and logs never disagree.

use std::fmt;
use std::sync::Arc;

use rispp_core::{BurstSegment, DecisionExplain};
use rispp_fabric::FabricJournalEntry;
use rispp_telemetry::bundle::{
    write_bundle_header, write_end_line, write_explain_line, write_journal_line,
    write_perfetto_line, BundleMeta,
};
use rispp_telemetry::{push_u64, TraceBuilder};

use crate::context::TraceContext;
use crate::export;
use crate::observer::{batch_pairs, SimEvent, SimObserver};
use crate::telemetry::context_args;
use crate::trace::Burst;

/// Scheduler decisions retained (only populated when the run emits
/// [`SimEvent::Decision`], i.e. explain is on).
const DECISION_CAPACITY: usize = 16;

/// Fabric-journal entries retained (only populated when the run emits
/// [`SimEvent::ContainerTransition`], i.e. the journal is on).
const JOURNAL_CAPACITY: usize = 64;

/// One fixed-capacity overwrite-oldest ring. Slots are allocated up
/// front; a push beyond capacity overwrites the oldest slot in place and
/// bumps the dropped counter.
#[derive(Debug)]
struct Ring<T> {
    slots: Vec<T>,
    /// Index of the oldest retained element once the ring is full.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, value: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(value);
        } else {
            self.dropped += 1;
            self.slots[self.head] = value;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Retained elements, oldest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.slots.split_at(self.head.min(self.slots.len()));
        older.iter().chain(newer.iter())
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// Bounded ring-buffer observer retaining the tail of a run for
/// post-mortem bundles.
///
/// Three fixed-capacity rings — every event, the last decision
/// explains, the last fabric-journal entries — overwrite their oldest
/// entry when full and count what fell off. Steady state is alloc-free
/// (the rings are allocated once at construction); a
/// [`SimEvent::Decision`] payload, which exists only when explain mode is
/// on, is shared by both rings that keep it. [`FlightRecorder::dump`]
/// spills the retained tail as a self-describing diagnostic bundle.
pub struct FlightRecorder {
    events: Ring<SimEvent>,
    decisions: Ring<Arc<DecisionExplain>>,
    journal: Ring<FabricJournalEntry>,
    context: Option<TraceContext>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("events", &self.events.len())
            .field("events_dropped", &self.events.dropped)
            .field("decisions", &self.decisions.len())
            .field("journal", &self.journal.len())
            .field("context", &self.context)
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining the last 256 events.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::with_capacity(256)
    }

    /// Creates a recorder retaining the last `events` events, plus the
    /// last 16 scheduler decisions and 64 fabric-journal entries. A
    /// capacity of 0 retains no event and counts every one as dropped.
    /// All ring memory is allocated here; recording never grows it.
    #[must_use]
    pub fn with_capacity(events: usize) -> Self {
        FlightRecorder {
            events: Ring::new(events),
            decisions: Ring::new(DECISION_CAPACITY),
            journal: Ring::new(JOURNAL_CAPACITY),
            context: None,
        }
    }

    /// The trace context stamped onto dumped rows, if any.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.context
    }

    /// Retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<&SimEvent> {
        self.events.iter().collect()
    }

    /// Events that fell off the ring (capacity overflow) so far.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped
    }

    /// Clears all rings and dropped counters for reuse on the next
    /// attempt of the same job. Capacities (and their allocations) and
    /// the trace context are kept; the server re-stamps the context per
    /// attempt anyway.
    pub fn reset(&mut self) {
        self.events.clear();
        self.decisions.clear();
        self.journal.clear();
    }

    /// Renders the retained decisions and journal entries as a small
    /// Chrome trace-event fragment (instants on a single "Flight
    /// recorder" track group), loadable in Perfetto on its own.
    fn perfetto_fragment(&self) -> String {
        let mut trace = TraceBuilder::new();
        trace.process_name(1, "Flight recorder");
        trace.thread_name(1, 0, "decisions");
        trace.thread_name(1, 1, "fabric journal");
        let mut name = String::new();
        if let Some(ctx) = self.context {
            context_args(&mut name, ctx);
            trace.instant_with_args(1, 0, "trace context", 0, Some(&name));
        }
        for decision in self.decisions.iter() {
            name.clear();
            name.push_str("decision");
            if let Some(hs) = decision.hot_spot {
                name.push_str(" (hot spot ");
                push_u64(&mut name, u64::from(hs.0));
                name.push(')');
            }
            trace.instant(1, 0, &name, decision.now);
        }
        for entry in self.journal.iter() {
            let (label, container, at) = match *entry {
                FabricJournalEntry::LoadStarted { container, at, .. } => {
                    ("load started", container, at)
                }
                FabricJournalEntry::LoadFinished { container, at, .. } => {
                    ("load finished", container, at)
                }
                FabricJournalEntry::LoadAborted { container, at, .. } => {
                    ("load aborted", container, at)
                }
                FabricJournalEntry::AtomCorrupted { container, at, .. } => {
                    ("atom corrupted", container, at)
                }
                FabricJournalEntry::ContainerQuarantined { container, at } => {
                    ("quarantined", container, at)
                }
            };
            name.clear();
            name.push_str("AC");
            push_u64(&mut name, u64::from(container.0));
            name.push(' ');
            name.push_str(label);
            trace.instant(1, 1, &name, at);
        }
        trace.finish()
    }

    /// Assembles the retained tail into a self-describing diagnostic
    /// bundle (see [`rispp_telemetry::bundle`] for the format). `reason`
    /// names the failure (`panicked`, `timeout`, `poisoned`, ...);
    /// `config_hash` and the plan-cache counters come from the caller
    /// (the recorder cannot observe them). Identity fields come from the
    /// recorder's trace context (zeros when none was stamped).
    #[must_use]
    pub fn dump(
        &self,
        reason: &str,
        job_id: &str,
        config_hash: u64,
        plan_hits: u64,
        plan_misses: u64,
    ) -> String {
        let ctx = self.context.unwrap_or_default();
        let meta = BundleMeta {
            reason: reason.to_owned(),
            job_id: job_id.to_owned(),
            trace_id: ctx.trace_id,
            tenant: ctx.tenant,
            attempt: ctx.attempt,
            event_schema_version: export::EVENT_LOG_SCHEMA_VERSION,
            config_hash,
            plan_hits,
            plan_misses,
            events_dropped: self.events.dropped,
            decisions_dropped: self.decisions.dropped,
            journal_dropped: self.journal.dropped,
        };
        let mut out = String::new();
        write_bundle_header(&mut out, &meta);
        for event in self.events.iter() {
            export::write_event_jsonl(&mut out, event, self.context.as_ref());
        }
        let mut lines = 1 + self.events.len();
        for decision in self.decisions.iter() {
            write_explain_line(&mut out, decision.now, &decision.summary());
            lines += 1;
        }
        let mut row = String::new();
        for entry in self.journal.iter() {
            row.clear();
            export::write_event_jsonl(&mut row, &SimEvent::ContainerTransition(*entry), None);
            write_journal_line(&mut out, &row);
            lines += 1;
        }
        write_perfetto_line(&mut out, &self.perfetto_fragment());
        lines += 1;
        write_end_line(&mut out, lines);
        out
    }
}

impl SimObserver for FlightRecorder {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::Decision(decision) => {
                self.decisions.push(Arc::clone(decision));
            }
            SimEvent::ContainerTransition(entry) => {
                self.journal.push(*entry);
            }
            _ => {}
        }
        // Every event — including decisions and journal entries — also
        // lands in the main ring, so the dumped tail matches the full
        // event log's suffix exactly.
        self.events.push(event.clone());
    }

    /// A batch lands in the event ring as its segment events would. Only
    /// the last `capacity` of them can survive the batch, so the ones
    /// before are counted as dropped without being written.
    fn on_batch(&mut self, bursts: &[Burst], segments: &[BurstSegment]) {
        let skipped = segments.len().saturating_sub(self.events.capacity);
        self.events.dropped += skipped as u64;
        for (b, segment) in batch_pairs(bursts, segments).skip(skipped) {
            self.events.push(SimEvent::SegmentExecuted {
                si: b.si,
                segment: *segment,
                overhead: b.overhead,
            });
        }
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        self.context = Some(context);
    }
}

#[cfg(test)]
mod tests {
    use rispp_core::SchedulerKind;
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibraryBuilder};
    use rispp_monitor::HotSpotId;
    use rispp_telemetry::Bundle;

    use super::*;
    use crate::{simulate_observed_planned, Burst, Invocation, SimConfig, Trace, TraceLogObserver};

    fn tiny_run() -> (rispp_model::SiLibrary, Trace) {
        let universe = AtomUniverse::from_types([AtomTypeInfo::new("SAV")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("SAD", 680)
            .unwrap()
            .molecule(Molecule::from_counts([1]), 20)
            .unwrap();
        let library = b.build().unwrap();
        let trace = Trace::from_invocations(vec![
            Invocation {
                hot_spot: HotSpotId(0),
                prologue_cycles: 100,
                bursts: vec![Burst {
                    si: SiId(0),
                    count: 500,
                    overhead: 20,
                }],
                hints: vec![(SiId(0), 500)],
            };
            3
        ]);
        (library, trace)
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring::new(3);
        for i in 0..5u32 {
            ring.push(i);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.dropped, 2);

        let mut zero = Ring::new(0);
        zero.push(1u32);
        assert_eq!(zero.len(), 0);
        assert_eq!(zero.dropped, 1);
    }

    #[test]
    fn bundle_event_tail_is_bit_identical_to_log_suffix() {
        let (library, trace) = tiny_run();
        let ctx = TraceContext::new(31).with_tenant(1).with_attempt(2);
        let config = SimConfig::rispp(4, SchedulerKind::Hef)
            .with_explain(true)
            .with_journal(true)
            .with_trace(ctx);

        let mut log = TraceLogObserver::new();
        let mut recorder = FlightRecorder::with_capacity(8);
        {
            let mut extra: Vec<&mut (dyn SimObserver + '_)> = vec![&mut log, &mut recorder];
            let _ = simulate_observed_planned(&library, &trace, &config, None, &mut extra);
        }
        // The engine stamped the recorder (and the log) from the config.
        assert_eq!(recorder.context(), Some(ctx));
        assert!(recorder.events_dropped() > 0, "tiny ring must overflow");

        let text = recorder.dump("timeout", "job-1", 0xABCD, 3, 1);
        let bundle = Bundle::parse(&text).expect("recorder output parses");
        assert!(bundle.complete);
        assert_eq!(bundle.meta.trace_id, 31);
        assert_eq!(bundle.meta.tenant, 1);
        assert_eq!(bundle.meta.attempt, 2);
        assert_eq!(
            bundle.meta.event_schema_version,
            export::EVENT_LOG_SCHEMA_VERSION
        );
        assert_eq!(bundle.meta.config_hash, 0xABCD);
        assert_eq!(bundle.meta.events_dropped, recorder.events_dropped());
        assert!(!bundle.explains.is_empty(), "explain run retains decisions");
        assert!(
            !bundle.journal.is_empty(),
            "journal run retains transitions"
        );
        assert!(bundle.perfetto.is_some());

        // The core guarantee: the bundle's event rows are the last N lines
        // of the full event log, byte for byte (minus the schema header).
        let full = log.to_jsonl();
        let rows: Vec<&str> = full.lines().skip(1).collect();
        let tail = &rows[rows.len() - bundle.event_lines.len()..];
        assert_eq!(bundle.event_lines, tail);
    }

    #[test]
    fn reset_clears_rings_but_keeps_context() {
        let mut recorder = FlightRecorder::new();
        recorder.set_trace_context(TraceContext::new(5));
        recorder.on_event(&SimEvent::HotSpotEntered {
            hot_spot: HotSpotId(0),
            now: 0,
        });
        assert_eq!(recorder.events().len(), 1);
        recorder.reset();
        assert_eq!(recorder.events().len(), 0);
        assert_eq!(recorder.events_dropped(), 0);
        assert_eq!(recorder.context(), Some(TraceContext::new(5)));
    }
}
