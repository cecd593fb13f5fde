//! The observer side of the engine: typed [`SimEvent`]s emitted by the
//! replay loop and the [`SimObserver`] trait consuming them.
//!
//! Statistics collection is *not* welded into the replay loop: the loop
//! emits events and every observer decides what to keep. [`RunStats`] is
//! one observer among equals; [`TraceLogObserver`] records the full event
//! stream for JSONL export ([`crate::export::event_log_jsonl`]) and
//! [`ProgressObserver`] counts finished runs across a parallel sweep.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rispp_core::{BurstSegment, DecisionExplain};
use rispp_fabric::FabricJournalEntry;
use rispp_model::SiId;
use rispp_monitor::HotSpotId;

use crate::context::TraceContext;
use crate::stats::RunStats;
use crate::trace::Burst;

/// How a [`SimEvent::HotSpotEntered`] transition became known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotSpotOrigin {
    /// The trace carried an explicit hot-spot marker (the compile-time
    /// annotation path of the paper).
    Annotated,
    /// The transition was inferred from the SI execution stream by the
    /// windowed [`rispp_monitor::HotSpotDetector`] (the companion-work
    /// hardware detector), surfaced by
    /// [`DetectorObserver`](crate::DetectorObserver).
    Detected,
}

/// One typed event of a simulation run, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// The system entered a hot spot at cycle `now` (before the prologue).
    HotSpotEntered {
        /// The hot spot being entered.
        hot_spot: HotSpotId,
        /// Cycle of entry.
        now: u64,
        /// Whether the entry came from a trace annotation or was detected
        /// from the execution stream.
        origin: HotSpotOrigin,
    },
    /// One homogeneous-latency stretch of a burst finished replaying.
    SegmentExecuted {
        /// The Special Instruction executed.
        si: SiId,
        /// The segment as reported by the backend.
        segment: BurstSegment,
        /// Base-processor cycles between consecutive executions.
        overhead: u32,
    },
    /// The backend's completed-load counter advanced (observed at replay
    /// granularity: after hot-spot entries and bursts, not per load).
    LoadCompleted {
        /// Loads that completed since the previous event.
        completed: u64,
        /// Cumulative loads completed so far.
        total: u64,
        /// Replay cycle at which the advance was observed.
        now: u64,
    },
    /// The backend reported new injected faults (CRC-aborted loads, SEU
    /// upsets, permanent tile failures) since the previous poll.
    FaultInjected {
        /// Faults injected since the previous event.
        count: u64,
        /// Cumulative faults injected so far.
        total: u64,
        /// Cumulative reconfiguration-port cycles lost to faulted loads.
        cycles_lost: u64,
        /// Replay cycle at which the advance was observed.
        now: u64,
    },
    /// The backend's recovery policy re-enqueued loads (abort retries or
    /// SEU scrub reloads) since the previous poll.
    LoadRetried {
        /// Retries issued since the previous event.
        count: u64,
        /// Cumulative retries so far.
        total: u64,
        /// Replay cycle at which the advance was observed.
        now: u64,
    },
    /// Containers were taken out of service (permanent failures or
    /// retry-exhausted quarantines) since the previous poll.
    ContainerQuarantined {
        /// Containers quarantined since the previous event.
        count: u64,
        /// Cumulative containers quarantined so far.
        total: u64,
        /// Replay cycle at which the advance was observed.
        now: u64,
    },
    /// Hot-spot re-plans on the shrunken fabric came back with no hardware
    /// at all, leaving the hot spot on the cISA software path.
    DegradedToSoftware {
        /// Degradations since the previous event.
        count: u64,
        /// Cumulative degradations so far.
        total: u64,
        /// Replay cycle at which the advance was observed.
        now: u64,
    },
    /// One Molecule-selection + Atom-schedule decision of the run-time
    /// manager, with all scored candidates and the chosen winners (emitted
    /// only when [`SimConfig::explain`](crate::SimConfig) is on). Boxed:
    /// the payload is large and rare relative to segment events.
    Decision(Box<DecisionExplain>),
    /// One Atom Container state transition from the fabric's journal
    /// (emitted only when [`SimConfig::journal`](crate::SimConfig) is on).
    /// Each entry carries its own exact cycle.
    ContainerTransition(FabricJournalEntry),
    /// The multi-tenant engine switched the active tenant (emitted into
    /// the switched-to tenant's stream at the start of its slice; never
    /// emitted by single-tenant runs).
    TenantSwitched {
        /// The tenant now running.
        tenant: u16,
        /// Cycle (on that tenant's clock) at which the slice starts.
        now: u64,
    },
    /// A tenant's plan found atoms it needs already loaded by co-tenants
    /// (cross-app reuse under a shared fabric).
    AtomShared {
        /// The tenant whose plan reused foreign atoms.
        tenant: u16,
        /// Foreign atoms reused since the previous event.
        count: u64,
        /// Cumulative foreign atoms reused by this tenant.
        total: u64,
        /// Replay cycle at which the advance was observed.
        now: u64,
    },
    /// Loads evicted atoms owned by a different application (contested
    /// evictions on a shared fabric).
    EvictionContested {
        /// The tenant whose activity the evictions are attributed to.
        tenant: u16,
        /// Contested evictions since the previous event.
        count: u64,
        /// Cumulative contested evictions attributed to this tenant.
        total: u64,
        /// Replay cycle at which the advance was observed.
        now: u64,
    },
    /// The trace is fully replayed.
    RunFinished {
        /// Total execution time in cycles.
        total_cycles: u64,
        /// Completed reconfiguration loads.
        reconfigurations: u64,
        /// Cycles the reconfiguration port was busy.
        reconfiguration_cycles: u64,
    },
}

/// Consumes the engine's event stream.
///
/// Observers are driven synchronously from the replay loop in
/// registration order; they must not assume anything about the backend
/// beyond what the events carry.
///
/// # Delivery contract
///
/// Each observer sees the same events in the same order whichever way
/// the engine replays a burst. Bursts stepped one by one arrive as
/// [`SimEvent::SegmentExecuted`] events through
/// [`on_event`](SimObserver::on_event); a run of bursts the backend
/// advanced in one batched step arrives as one
/// [`on_batch`](SimObserver::on_batch) call, whose default replays the
/// same `SegmentExecuted` events one by one. Only the interleaving
/// across observers changes: an event still reaches every observer
/// before the next one is emitted, but a batch goes whole to the first
/// segment observer before the second sees any of it, so observers no
/// longer alternate segment by segment inside a batch. A wrapper that
/// inspects segments (like [`DetectorObserver`](crate::DetectorObserver))
/// keeps the default `on_batch`, so each segment passes through its
/// `on_event`.
pub trait SimObserver {
    /// Handles one event.
    fn on_event(&mut self, event: &SimEvent);

    /// Handles one batched run of bursts: `segments` holds exactly one
    /// unsplit segment per non-empty burst of `bursts`, in order, and
    /// zero-count bursts have none (the contract of
    /// [`ExecutionSystem::execute_bursts_batched`](crate::ExecutionSystem::execute_bursts_batched)).
    /// Only observers that [want segments](SimObserver::wants_segments)
    /// get this call.
    ///
    /// The default hands each pair to [`on_event`](SimObserver::on_event)
    /// as a [`SimEvent::SegmentExecuted`], exactly the events per-burst
    /// replay would emit. Override it only when the batch can be folded
    /// with the same result; [`RunStats`] does, adding the counts in one
    /// loop.
    ///
    /// # Panics
    ///
    /// The default panics if `segments` holds fewer segments than
    /// `bursts` has non-empty bursts.
    fn on_batch(&mut self, bursts: &[Burst], segments: &[BurstSegment]) {
        for (b, segment) in batch_pairs(bursts, segments) {
            self.on_event(&SimEvent::SegmentExecuted {
                si: b.si,
                segment: *segment,
                overhead: b.overhead,
            });
        }
    }

    /// Receives the run's causal [`TraceContext`] before the first event,
    /// when the driving [`SimConfig`](crate::SimConfig) carries one.
    /// Exporting observers stamp their output with it (JSONL rows, metric
    /// labels, Perfetto tracks, flight-recorder bundles); the default
    /// implementation ignores it.
    fn set_trace_context(&mut self, context: TraceContext) {
        let _ = context;
    }

    /// Whether this observer wants the per-segment stream
    /// ([`SimEvent::SegmentExecuted`] and [`on_batch`](SimObserver::on_batch))
    /// — by far the highest-frequency event of a replay (one per burst
    /// segment, millions per run).
    /// Observers that only react to coarse events (e.g. progress
    /// reporting on [`SimEvent::RunFinished`]) override this to `false`
    /// and the replay loop skips the dispatch entirely; every other
    /// event kind is still delivered.
    fn wants_segments(&self) -> bool {
        true
    }
}

/// Pairs each non-empty burst of a batch with its segment, in order (the
/// [`SimObserver::on_batch`] contract).
fn batch_pairs<'a>(
    bursts: &'a [Burst],
    segments: &'a [BurstSegment],
) -> impl Iterator<Item = (&'a Burst, &'a BurstSegment)> {
    let mut segs = segments.iter();
    bursts
        .iter()
        .filter(|b| b.count != 0)
        .map(move |b| (b, segs.next().expect("one segment per non-empty burst")))
}

impl<O: SimObserver + ?Sized> SimObserver for &mut O {
    fn on_event(&mut self, event: &SimEvent) {
        (**self).on_event(event);
    }

    fn on_batch(&mut self, bursts: &[Burst], segments: &[BurstSegment]) {
        (**self).on_batch(bursts, segments);
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        (**self).set_trace_context(context);
    }

    fn wants_segments(&self) -> bool {
        (**self).wants_segments()
    }
}

impl SimObserver for RunStats {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::SegmentExecuted {
                si,
                segment,
                overhead,
            } => {
                let per = u64::from(segment.latency) + u64::from(*overhead);
                self.record_segment(
                    *si,
                    segment.start,
                    segment.count,
                    per,
                    segment.latency,
                    segment.is_hardware(),
                );
            }
            SimEvent::RunFinished {
                total_cycles,
                reconfigurations,
                reconfiguration_cycles,
            } => {
                self.total_cycles = *total_cycles;
                self.reconfigurations = *reconfigurations;
                self.reconfiguration_cycles = *reconfiguration_cycles;
            }
            SimEvent::FaultInjected {
                total, cycles_lost, ..
            } => {
                self.faults_injected = *total;
                self.fault_cycles_lost = *cycles_lost;
            }
            SimEvent::LoadRetried { total, .. } => {
                self.load_retries = *total;
            }
            SimEvent::ContainerQuarantined { total, .. } => {
                self.containers_quarantined = *total;
            }
            SimEvent::DegradedToSoftware { total, .. } => {
                self.degraded_to_software = *total;
            }
            SimEvent::AtomShared { total, .. } => {
                self.atoms_shared = *total;
            }
            SimEvent::EvictionContested { total, .. } => {
                self.evictions_contested = *total;
            }
            SimEvent::HotSpotEntered { .. }
            | SimEvent::LoadCompleted { .. }
            | SimEvent::TenantSwitched { .. }
            | SimEvent::Decision(_)
            | SimEvent::ContainerTransition(_) => {}
        }
    }

    fn on_batch(&mut self, bursts: &[Burst], segments: &[BurstSegment]) {
        let pairs = batch_pairs(bursts, segments);
        if self.has_detail() {
            for (b, seg) in pairs {
                let per = u64::from(seg.latency) + u64::from(b.overhead);
                self.record_segment(
                    b.si,
                    seg.start,
                    seg.count,
                    per,
                    seg.latency,
                    seg.is_hardware(),
                );
            }
            return;
        }
        for (b, seg) in pairs {
            let i = b.si.index();
            self.si_executions[i] += seg.count;
            if seg.is_hardware() {
                self.hardware_executions[i] += seg.count;
            }
        }
    }
}

/// Records a run's event stream for JSONL export — either buffered in
/// memory (see [`TraceLogObserver::new`], kept for tests and small runs)
/// or **streamed** line by line into any [`io::Write`] sink
/// ([`TraceLogObserver::streaming`]), so logging a 140-frame run holds one
/// line of text in memory instead of millions of events. Opt-in, like
/// `SimConfig::detail`: attach it only when the log is wanted.
#[derive(Default)]
pub struct TraceLogObserver {
    events: Vec<SimEvent>,
    sink: Option<Box<dyn Write>>,
    line: String,
    error: Option<io::Error>,
    context: Option<TraceContext>,
}

impl fmt::Debug for TraceLogObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLogObserver")
            .field("events", &self.events.len())
            .field("streaming", &self.sink.is_some())
            .field("error", &self.error)
            .finish()
    }
}

impl TraceLogObserver {
    /// Creates an empty in-memory log.
    #[must_use]
    pub fn new() -> Self {
        TraceLogObserver::default()
    }

    /// Creates a write-through log: every event is rendered as one JSONL
    /// line (schema header first) and written to `sink` immediately, and
    /// nothing is buffered in memory. The first I/O error stops further
    /// writes and is reported by [`TraceLogObserver::finish`].
    #[must_use]
    pub fn streaming<W: Write + 'static>(sink: W) -> Self {
        let mut log = TraceLogObserver {
            events: Vec::new(),
            sink: Some(Box::new(sink)),
            line: String::new(),
            error: None,
            context: None,
        };
        crate::export::write_schema_header(&mut log.line);
        log.flush_line();
        log
    }

    /// Stamps every exported row with `context` (builder style). The
    /// engine also sets this automatically via
    /// [`SimObserver::set_trace_context`] when the driving
    /// [`SimConfig`](crate::SimConfig) carries a context.
    #[must_use]
    pub fn with_context(mut self, context: TraceContext) -> Self {
        self.context = Some(context);
        self
    }

    /// The trace context stamped onto exported rows, if any.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.context
    }

    /// Whether this log streams to a sink instead of buffering.
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        self.sink.is_some()
    }

    /// The recorded events in emission order (always empty in streaming
    /// mode — they went to the sink).
    #[must_use]
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Renders the buffered events as one JSON object per line, schema
    /// header first. Rows carry the trace-context fields when a context
    /// is attached.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        crate::export::event_log_jsonl_traced(&self.events, self.context.as_ref())
    }

    /// Flushes the sink and reports the first I/O error encountered while
    /// streaming, if any. A no-op `Ok` for in-memory logs.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match self.sink.as_mut() {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    fn flush_line(&mut self) {
        if self.error.is_some() {
            self.line.clear();
            return;
        }
        if let Some(sink) = self.sink.as_mut() {
            if let Err(e) = sink.write_all(self.line.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.line.clear();
    }
}

impl SimObserver for TraceLogObserver {
    fn on_event(&mut self, event: &SimEvent) {
        if self.sink.is_some() {
            crate::export::write_event_jsonl_traced(&mut self.line, event, self.context.as_ref());
            self.flush_line();
        } else {
            self.events.push(event.clone());
        }
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        self.context = Some(context);
    }
}

/// Reports run completions across a (possibly parallel) sweep: every
/// [`SimEvent::RunFinished`] increments the shared counter and invokes the
/// report callback with `(finished, total)`.
///
/// One observer instance is attached per job (they are cheap); the shared
/// [`AtomicUsize`] makes the count global across worker threads. Used by
/// `rispp-cli reproduce fig7` to print live progress.
#[derive(Debug)]
pub struct ProgressObserver<F: FnMut(usize, usize)> {
    total: usize,
    finished: Arc<AtomicUsize>,
    report: F,
}

impl<F: FnMut(usize, usize)> ProgressObserver<F> {
    /// Creates a progress observer over `finished` (shared across all jobs
    /// of the sweep) reporting out of `total` runs.
    #[must_use]
    pub fn new(total: usize, finished: Arc<AtomicUsize>, report: F) -> Self {
        ProgressObserver {
            total,
            finished,
            report,
        }
    }
}

impl<F: FnMut(usize, usize)> SimObserver for ProgressObserver<F> {
    fn on_event(&mut self, event: &SimEvent) {
        if matches!(event, SimEvent::RunFinished { .. }) {
            let done = self.finished.fetch_add(1, Ordering::Relaxed) + 1;
            (self.report)(done, self.total);
        }
    }

    fn wants_segments(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_observer_accumulates_segments_and_totals() {
        let mut stats = RunStats::new("x", 2, 100, false);
        stats.on_event(&SimEvent::SegmentExecuted {
            si: SiId(0),
            segment: BurstSegment::software(0, 10, 50),
            overhead: 5,
        });
        stats.on_event(&SimEvent::SegmentExecuted {
            si: SiId(1),
            segment: BurstSegment::hardware(550, 4, 20, 1),
            overhead: 5,
        });
        stats.on_event(&SimEvent::RunFinished {
            total_cycles: 650,
            reconfigurations: 3,
            reconfiguration_cycles: 90,
        });
        assert_eq!(stats.total_executions(), 14);
        assert_eq!(stats.hardware_executions[1], 4);
        assert_eq!(stats.total_cycles, 650);
        assert_eq!(stats.reconfigurations, 3);
        assert_eq!(stats.reconfiguration_cycles, 90);
    }

    #[test]
    fn trace_log_records_in_order() {
        let mut log = TraceLogObserver::new();
        let events = [
            SimEvent::HotSpotEntered {
                hot_spot: HotSpotId(0),
                now: 0,
                origin: HotSpotOrigin::Annotated,
            },
            SimEvent::RunFinished {
                total_cycles: 1,
                reconfigurations: 0,
                reconfiguration_cycles: 0,
            },
        ];
        for e in &events {
            log.on_event(e);
        }
        assert_eq!(log.events(), &events);
    }

    #[test]
    fn progress_observer_counts_run_finished_only() {
        let finished = Arc::new(AtomicUsize::new(0));
        let mut seen = Vec::new();
        {
            let mut p = ProgressObserver::new(2, Arc::clone(&finished), |d, t| seen.push((d, t)));
            p.on_event(&SimEvent::HotSpotEntered {
                hot_spot: HotSpotId(0),
                now: 0,
                origin: HotSpotOrigin::Annotated,
            });
            p.on_event(&SimEvent::RunFinished {
                total_cycles: 10,
                reconfigurations: 0,
                reconfiguration_cycles: 0,
            });
        }
        {
            let mut p = ProgressObserver::new(2, Arc::clone(&finished), |d, t| seen.push((d, t)));
            p.on_event(&SimEvent::RunFinished {
                total_cycles: 20,
                reconfigurations: 0,
                reconfiguration_cycles: 0,
            });
        }
        assert_eq!(seen, vec![(1, 2), (2, 2)]);
        assert_eq!(finished.load(Ordering::Relaxed), 2);
    }
}
