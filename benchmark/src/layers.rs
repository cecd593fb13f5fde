//! Host-time attribution for the traced run, measured from outside the
//! program: a delegating [`ExecutionSystem`] shim around the real backend,
//! observer time by difference against a reference replay, and an
//! in-memory span recorder written out as Chrome trace-event JSON when
//! the run ends.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rispp_core::{BurstSegment, PlanCacheHandle, PlanCacheStats, RecoveryStats};
use rispp_model::{SiId, SiLibrary};
use rispp_sim::{
    simulate_with, Burst, ExecutionSystem, Invocation, RunStats, SimConfig, SimEvent, SimObserver,
    Trace,
};
use rispp_telemetry::TraceBuilder;

use crate::stats::{quantile, sorted};

/// Log-linear histogram of nanosecond durations (8 sub-buckets per power
/// of two, so a reported quantile is within 12.5% of the true one). Used
/// where a layer is called too often to keep every sample.
#[derive(Debug, Clone, Default)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < 8 {
            return v as usize;
        }
        let log2 = 63 - v.leading_zeros() as usize;
        let mantissa = (v >> (log2 - 3)) as usize & 7;
        (log2 - 2) * 8 + mantissa
    }

    fn midpoint(bucket: usize) -> u64 {
        if bucket < 8 {
            return bucket as u64;
        }
        let log2 = bucket / 8 + 2;
        let width = 1u64 << (log2 - 3);
        (8 + (bucket % 8) as u64) * width + width / 2
    }

    /// Counts one sample of `ns`.
    pub fn add(&mut self, ns: u64) {
        let b = Self::bucket(ns);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile in nanoseconds (bucket midpoint); 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(b);
            }
        }
        Self::midpoint(self.counts.len() - 1)
    }
}

/// Busy time and call count of one layer.
#[derive(Debug, Clone, Default)]
pub struct Acc {
    /// Total nanoseconds inside the layer.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// Per-call durations.
    pub hist: LogHist,
}

impl Acc {
    /// Records one call of duration `d`.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.ns += ns;
        self.calls += 1;
        self.hist.add(ns);
    }

    /// Adds `other`'s calls.
    pub fn merge(&mut self, other: &Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.hist.merge(&other.hist);
    }
}

/// Everything the shim and the reference replay measured over some
/// replays (one job, or one whole pass).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `simulate_with` calls: the whole replay.
    pub replay: Acc,
    /// `enter_hot_spot`: forecast, plan-cache lookup, selection, scheduling.
    pub enter: Acc,
    /// `execute_bursts_batched`: the event-free fast path.
    pub batched: Acc,
    /// `execute_burst_into` / `execute_burst`: per-burst stepping.
    pub single: Acc,
    /// `exit_hot_spot`: the monitor's forecast update.
    pub exit: Acc,
    /// Time inside the observers' `on_event`, by difference against the
    /// reference replay; a small job's estimate can be negative.
    pub observer_ns: i64,
    /// Wall time of the reference replays, which tracing adds.
    pub reference_ns: u64,
    /// Bursts consumed by batched calls.
    pub batched_bursts: u64,
    /// Events delivered to each observer.
    pub events: u64,
    /// SI executions replayed.
    pub si_executions: u64,
    /// Plan-cache counters of the replays.
    pub plan: PlanCacheStats,
    /// Fault-injection and self-healing counters of the replays.
    pub recovery: RecoveryStats,
}

impl Layers {
    /// Observer time, clamped at zero.
    #[must_use]
    pub fn observer_us(&self) -> f64 {
        self.observer_ns.max(0) as f64 / 1e3
    }

    /// Replay time outside every measured child (the shim's layers and
    /// the observers): the engine loop itself. `None` if the children add
    /// up to more than the replay.
    #[must_use]
    pub fn engine_self_ns(&self) -> Option<u64> {
        let children = self.enter.ns
            + self.batched.ns
            + self.single.ns
            + self.exit.ns
            + self.observer_ns.max(0).unsigned_abs();
        self.replay.ns.checked_sub(children)
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Layers) {
        self.replay.merge(&other.replay);
        self.enter.merge(&other.enter);
        self.batched.merge(&other.batched);
        self.single.merge(&other.single);
        self.exit.merge(&other.exit);
        self.observer_ns += other.observer_ns;
        self.reference_ns += other.reference_ns;
        self.batched_bursts += other.batched_bursts;
        self.events += other.events;
        self.si_executions += other.si_executions;
        self.plan.merge(&other.plan);
        let (a, b) = (&mut self.recovery, &other.recovery);
        a.faults_injected += b.faults_injected;
        a.load_retries += b.load_retries;
        a.containers_quarantined += b.containers_quarantined;
        a.degraded_to_software += b.degraded_to_software;
        a.fault_cycles_lost += b.fault_cycles_lost;
    }

    /// Bursts consumed by batched calls over all non-empty bursts.
    #[must_use]
    pub fn batched_share(&self) -> f64 {
        let all = self.batched_bursts + self.single.calls;
        if all == 0 {
            0.0
        } else {
            self.batched_bursts as f64 / all as f64
        }
    }
}

/// Delegating backend shim: times every call into the backend and
/// forwards the batched-burst path and the poll gates, so the traced
/// replay takes the same fast paths as a bare backend.
struct Timed<'a> {
    inner: Box<dyn ExecutionSystem + 'a>,
    layers: Layers,
}

impl ExecutionSystem for Timed<'_> {
    fn label(&self) -> Cow<'static, str> {
        self.inner.label()
    }

    fn enter_hot_spot(&mut self, invocation: &Invocation, now: u64) {
        let t = Instant::now();
        self.inner.enter_hot_spot(invocation, now);
        self.layers.enter.record(t.elapsed());
    }

    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        let t = Instant::now();
        let segments = self.inner.execute_burst(si, count, overhead, start);
        self.layers.single.record(t.elapsed());
        segments
    }

    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        let t = Instant::now();
        self.inner
            .execute_burst_into(si, count, overhead, start, out);
        self.layers.single.record(t.elapsed());
    }

    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        let t = Instant::now();
        let consumed = self.inner.execute_bursts_batched(bursts, start, out);
        self.layers.batched.record(t.elapsed());
        self.layers.batched_bursts +=
            bursts[..consumed].iter().filter(|b| b.count > 0).count() as u64;
        consumed
    }

    fn exit_hot_spot(&mut self, now: u64) {
        let t = Instant::now();
        self.inner.exit_hot_spot(now);
        self.layers.exit.record(t.elapsed());
    }

    fn reconfiguration_stats(&self) -> (u64, u64) {
        self.inner.reconfiguration_stats()
    }

    fn recovery_stats(&self) -> RecoveryStats {
        self.inner.recovery_stats()
    }

    fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache_stats()
    }

    fn has_pending_activity(&self) -> bool {
        self.inner.has_pending_activity()
    }

    fn recovery_active(&self) -> bool {
        self.inner.recovery_active()
    }

    fn telemetry_active(&self) -> bool {
        self.inner.telemetry_active()
    }

    fn drain_decisions(&mut self, out: &mut Vec<rispp_core::DecisionExplain>) {
        self.inner.drain_decisions(out);
    }

    fn drain_fabric_journal(&mut self, out: &mut Vec<rispp_fabric::FabricJournalEntry>) {
        self.inner.drain_fabric_journal(out);
    }
}

/// Stands in for the run's observers in the reference replay: it takes
/// every event, so the engine dispatches exactly as often, and does no
/// work with it.
#[derive(Default)]
struct Inert {
    events: u64,
}

impl SimObserver for Inert {
    fn on_event(&mut self, _event: &SimEvent) {
        self.events += 1;
    }
}

/// The traced twin of `simulate_observed_planned`: the same backend from
/// `SimConfig::build_system_shared`, the same statistics observer and the
/// same engine entry point (`simulate_with`), with the backend behind the
/// timing shim. Returns the run's statistics, which must equal the
/// untraced run's, and adds what it measured to `layers`.
///
/// Observer events are too short to time one by one (tens of millions
/// per fig7 pass, each shorter than a clock read), so observer time is
/// measured by difference: the job is replayed a second time with one
/// [`Inert`] observer in place of the real ones, and the observers' time
/// is how much longer the real replay took outside `enter_hot_spot`
/// (whose plan-cache hits differ between the two replays).
pub fn simulate_traced(
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    shared: Option<&PlanCacheHandle>,
    extra: &mut [&mut dyn SimObserver],
    layers: &mut Layers,
) -> RunStats {
    let mut system = Timed {
        inner: config.build_system_shared(library, shared),
        layers: Layers::default(),
    };
    let mut stats = RunStats::new(
        system.label(),
        library.len(),
        config.bucket_cycles,
        config.detail,
    );
    let started = Instant::now();
    {
        let mut observers: Vec<&mut dyn SimObserver> = Vec::with_capacity(1 + extra.len());
        observers.push(&mut stats);
        for obs in extra.iter_mut() {
            observers.push(&mut **obs);
        }
        if let Some(ctx) = config.trace {
            for obs in &mut observers {
                obs.set_trace_context(ctx);
            }
        }
        simulate_with(&mut system, trace, &mut observers);
    }
    system.layers.replay.record(started.elapsed());
    system.layers.plan = system.plan_cache_stats();
    system.layers.recovery = system.recovery_stats();
    system.layers.si_executions = stats.total_executions();

    let reference_started = Instant::now();
    let mut reference = Timed {
        inner: config.build_system_shared(library, shared),
        layers: Layers::default(),
    };
    let mut inert = Inert::default();
    let replay_started = Instant::now();
    simulate_with(&mut reference, trace, &mut [&mut inert]);
    let reference_ns = nanos(replay_started.elapsed());
    let l = &mut system.layers;
    l.observer_ns =
        signed(l.replay.ns - l.enter.ns) - signed(reference_ns - reference.layers.enter.ns);
    l.events = inert.events;
    l.reference_ns = nanos(reference_started.elapsed());
    layers.merge(l);
    stats
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn signed(ns: u64) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

/// One recorded span: a named interval of the benchmark's own timeline.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
    /// Nanoseconds inside the span attributed to layers measured without
    /// spans of their own (the shim's accumulators).
    covered_ns: u64,
    args: Option<String>,
}

/// Total and self time of one span name.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus what children cover.
    pub self_ns: i128,
    /// Median duration.
    pub median_ns: f64,
    /// 99th-percentile duration.
    pub p99_ns: f64,
}

/// In-memory span recorder. Spans nest strictly (one thread records), so
/// a span's parent is whatever span was open when it started.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose timeline starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`] before its parent.
    pub fn open(&mut self, name: &'static str, job: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
            covered_ns: 0,
            args: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.close_with(id, 0, None);
    }

    /// Closes span `id`, noting how much of it is accounted for without
    /// spans of its own (the shim's layers, the reference replay) and
    /// attaching a JSON object of extra arguments.
    pub fn close_with(&mut self, id: usize, covered_ns: u64, args: Option<String>) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.covered_ns = covered_ns;
        span.args = args;
    }

    /// Per-name totals and self times, in first-seen order.
    #[must_use]
    pub fn rows(&self) -> Vec<SpanRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let mut durations = Vec::new();
                let mut self_ns = 0i128;
                for (i, s) in self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name == name)
                {
                    let d = s.end_ns - s.start_ns;
                    durations.push(d as f64);
                    self_ns += i128::from(d) - i128::from(child_ns[i]) - i128::from(s.covered_ns);
                }
                let total_ns = durations.iter().sum::<f64>() as u64;
                let d = sorted(&durations);
                SpanRow {
                    name,
                    calls: d.len() as u64,
                    total_ns,
                    self_ns,
                    median_ns: quantile(&d, 0.5),
                    p99_ns: quantile(&d, 0.99),
                }
            })
            .collect()
    }

    /// Renders every span as Chrome trace-event JSON (one track, spans
    /// nested by containment; timestamps in microseconds).
    #[must_use]
    pub fn chrome_json(&self, process: &str) -> String {
        let mut trace = TraceBuilder::new();
        trace.process_name(1, process);
        trace.thread_name(1, 0, "benchmark");
        let mut args = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            args.clear();
            let _ = write!(args, "{{\"span\":{i},\"job\":{}", s.job);
            if let Some(p) = s.parent {
                let _ = write!(args, ",\"parent\":{p}");
            }
            if let Some(extra) = &s.args {
                let _ = write!(args, ",\"layers\":{extra}");
            }
            args.push('}');
            trace.complete_with_args(
                1,
                0,
                s.name,
                s.start_ns / 1_000,
                (s.end_ns - s.start_ns) / 1_000,
                Some(&args),
            );
        }
        trace.finish()
    }
}

/// Renders a job's layer split as a JSON object (span arguments).
#[must_use]
pub fn layers_json(l: &Layers) -> String {
    format!(
        "{{\"replay_ns\":{},\"enter_ns\":{},\"batched_ns\":{},\"single_ns\":{},\"exit_ns\":{},\"observer_ns\":{},\"plan_hits\":{},\"plan_misses\":{}}}",
        l.replay.ns, l.enter.ns, l.batched.ns, l.single.ns, l.exit.ns, l.observer_ns, l.plan.hits, l.plan.misses
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_hist_quantiles_land_in_the_right_bucket() {
        let mut h = LogHist::default();
        for v in 1..=1_000u64 {
            h.add(v);
        }
        let median = h.quantile(0.5) as f64;
        assert!((median - 500.0).abs() / 500.0 < 0.125, "{median}");
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 990.0).abs() / 990.0 < 0.125, "{p99}");
        assert_eq!(LogHist::default().quantile(0.5), 0);
        // Buckets are contiguous and monotone across powers of two.
        let buckets: Vec<usize> = (0..4_096).map(LogHist::bucket).collect();
        assert!(buckets.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
    }

    #[test]
    fn self_time_subtracts_children_and_covered_time() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 0);
        let inner = t.open("inner", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.close(inner);
        t.close_with(outer, 0, None);
        let rows = t.rows();
        let outer_row = rows.iter().find(|r| r.name == "outer").unwrap();
        let inner_row = rows.iter().find(|r| r.name == "inner").unwrap();
        assert!(inner_row.total_ns >= 2_000_000);
        assert!(outer_row.self_ns >= 0);
        assert!(outer_row.self_ns < i128::from(inner_row.total_ns));
        let json = t.chrome_json("test");
        let doc = rispp_telemetry::JsonValue::parse(&json).expect("valid trace JSON");
        let events = doc
            .get("traceEvents")
            .and_then(rispp_telemetry::JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 4);
    }
}
