//! The open execution-backend architecture: any system that can replay a
//! [`Trace`](crate::Trace) implements [`ExecutionSystem`], and the replay
//! loop ([`simulate_with`](crate::simulate_with)) only talks to that trait.
//!
//! Built-in backends:
//!
//! * [`RisppBackend`] — one application of the full RISPP run-time system
//!   ([`rispp_core::FabricArbiter`]) behind a thin adapter, optionally in
//!   oracle (perfect-future-knowledge) mode; solo and multi-tenant runs
//!   both drive the arbiter through it;
//! * [`MolenSystem`] — the Molen/OneChip-like baselines;
//! * [`SoftwareBackend`] — pure base-processor execution (every SI traps).
//!
//! Third-party backends plug in the same way: implement the trait and hand
//! a `&mut dyn ExecutionSystem` to `simulate_with` — no engine changes
//! required (see `examples/custom_backend.rs` in the repository root).

use std::borrow::{BorrowMut, Cow};

use rispp_core::{
    BurstBlocks, BurstRun, BurstSegment, FabricArbiter, SiRate, SiTotals, Stretch, StretchWalker,
};
use rispp_model::{SiId, SiLibrary};

use crate::baseline::MolenSystem;
use crate::observer::batch_pairs;
use crate::trace::{Burst, Invocation};

/// An execution system that the engine can replay a trace against.
///
/// The replay loop drives the backend through the hot-spot lifecycle —
/// [`enter_hot_spot`](ExecutionSystem::enter_hot_spot), runs of bursts
/// through [`execute_bursts_totals`](ExecutionSystem::execute_bursts_totals)
/// (when every segment observer accepts totals) or
/// [`execute_bursts_batched`](ExecutionSystem::execute_bursts_batched), a
/// burst that neither consumed through
/// [`execute_burst_into`](ExecutionSystem::execute_burst_into), then
/// [`exit_hot_spot`](ExecutionSystem::exit_hot_spot) — and reads
/// aggregate reconfiguration counters at the end of the run.
///
/// Contract expected by the engine (checked by the backend-conformance
/// suite in `crates/sim/tests/backend_conformance.rs`):
///
/// * `execute_burst(si, count, ..)` returns segments whose counts sum to
///   `count`, with non-decreasing `start` cycles, the first at the burst's
///   `start`;
/// * a backend must execute exactly the trace — no SI executions are
///   dropped or invented;
/// * `reconfiguration_stats` is monotone over the run.
pub trait ExecutionSystem {
    /// Display label used in reports (e.g. `"HEF"`, `"Molen"`).
    fn label(&self) -> Cow<'static, str>;

    /// Enters a hot spot at cycle `now`. The full [`Invocation`] is passed
    /// so backends can choose their forecast input: the design-time
    /// `hints` (online systems) or the measured execution profile (oracle
    /// studies).
    fn enter_hot_spot(&mut self, invocation: &Invocation, now: u64);

    /// Executes a burst of `count` executions of `si` starting at `start`,
    /// each followed by `overhead` base-processor cycles. Returns the
    /// homogeneous-latency segments of the burst in time order.
    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment>;

    /// Buffer-reusing variant of
    /// [`execute_burst`](ExecutionSystem::execute_burst): clears `out` and
    /// writes the burst's segments into it. The replay loop calls this with
    /// one long-lived buffer so a multi-million-burst trace does not
    /// allocate per burst. The default forwards to `execute_burst`, so
    /// existing backends keep working unchanged; built-in backends override
    /// it to skip the intermediate `Vec`.
    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        out.clear();
        out.extend(self.execute_burst(si, count, overhead, start));
    }

    /// Batched fast path over a *run* of bursts: consumes a prefix of
    /// `bursts` (laid back-to-back from cycle `start`) that the backend
    /// can prove executes without any latency change or internal event,
    /// pushes **exactly one unsplit segment per non-empty consumed burst**
    /// onto `out` (cleared first), and returns how many bursts were
    /// consumed. Zero-count bursts must be consumed as no-ops (no
    /// segment). The replay loop falls back to
    /// [`execute_burst_into`](ExecutionSystem::execute_burst_into) for the
    /// first unconsumed burst, so returning 0 is always safe. A batch
    /// that stops short of the run is followed by that per-burst step
    /// directly, without a second batched call: a built-in backend stops
    /// only at a burst that would run into its next event, where a second
    /// call would consume nothing. The per-burst path is exact for any
    /// burst, so stopping early for any other reason is exact too.
    ///
    /// Consumed bursts must leave the backend in a state bit-identical to
    /// per-burst execution (segments, counters, usage timestamps). The
    /// default consumes nothing, keeping custom backends on the exact
    /// per-burst path; built-in backends override it to advance whole
    /// event-free burst runs in one arithmetic step each.
    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        let _ = (bursts, start, out);
        0
    }

    /// Totals-only variant of
    /// [`execute_bursts_batched`](ExecutionSystem::execute_bursts_batched),
    /// taken when no attached observer reads segments: consumes a prefix
    /// of `run`'s [remaining](BurstRun::remaining) bursts under the same
    /// contract, reports each SI's executions through `totals` instead of
    /// one segment per burst, and returns how many bursts it consumed and
    /// the cycle the last consumed non-empty burst ends at. `run` carries
    /// the invocation's block index, so a backend may consume whole blocks
    /// from their sums.
    ///
    /// The default runs `execute_bursts_batched` into `segments` (scratch
    /// the engine reuses) and folds the segments into totals, so a backend
    /// that only implements the segment path stays exact; the built-in
    /// backends override it to build no segment at all.
    fn execute_bursts_totals(
        &mut self,
        run: BurstRun<'_>,
        start: u64,
        segments: &mut Vec<BurstSegment>,
        totals: &mut dyn FnMut(SiTotals),
    ) -> Stretch {
        let bursts = run.remaining();
        let consumed = self.execute_bursts_batched(bursts, start, segments);
        let mut fold = Fold::new(totals);
        let mut end = None;
        for (b, seg) in batch_pairs(&bursts[..consumed], segments) {
            fold.add(b.si, seg);
            end = Some(seg.start + seg.count * (u64::from(seg.latency) + u64::from(b.overhead)));
        }
        fold.finish();
        Stretch { consumed, end }
    }

    /// Leaves the current hot spot at cycle `now`.
    fn exit_hot_spot(&mut self, now: u64);

    /// Completed reconfiguration loads and the cycles the reconfiguration
    /// port was busy, cumulative since the start of the run.
    fn reconfiguration_stats(&self) -> (u64, u64);

    /// Cumulative fault-injection and self-healing counters. Backends
    /// without a fault model (the baselines, software-only execution and
    /// most custom backends) keep the default: all zero.
    fn recovery_stats(&self) -> rispp_core::RecoveryStats {
        rispp_core::RecoveryStats::default()
    }

    /// Deterministic plan-cache counters of this run. Backends without a
    /// [`rispp_core::PlanCache`] (the baselines, software-only execution
    /// and most custom backends) keep the default: all zero.
    fn plan_cache_stats(&self) -> rispp_core::PlanCacheStats {
        rispp_core::PlanCacheStats::default()
    }

    /// Whether the system may still generate reconfiguration or recovery
    /// events on its own (loads queued or in flight, scheduled faults).
    /// The replay loop samples this *before* each burst and skips the
    /// per-burst counter polls while it is `false`: a system that was
    /// quiet going into a burst cannot have advanced a counter during it.
    /// The conservative default keeps custom backends polled every burst.
    fn has_pending_activity(&self) -> bool {
        true
    }

    /// Whether this backend can produce recovery events at all this run
    /// (i.e. it has a fault model attached). Sampled **once** at replay
    /// start: while `false`, the loop skips every
    /// [`recovery_stats`](ExecutionSystem::recovery_stats) poll — which is
    /// provably emission-free, since the counters of a fault-free run
    /// never advance. The conservative default keeps custom backends
    /// polled.
    fn recovery_active(&self) -> bool {
        true
    }

    /// Whether this backend can produce telemetry (decision explanations
    /// or fabric journal entries) at all this run. Sampled **once** at
    /// replay start: while `false`, the loop skips every
    /// [`drain_decisions`](ExecutionSystem::drain_decisions) /
    /// [`drain_fabric_journal`](ExecutionSystem::drain_fabric_journal)
    /// poll pair — provably emission-free while capture is disabled. The
    /// conservative default keeps custom backends polled.
    fn telemetry_active(&self) -> bool {
        true
    }

    /// Drains any scheduler/selector decision explanations captured since
    /// the last call into `out`. Backends without decision capture (the
    /// baselines and most custom backends) keep the default no-op; the
    /// replay loop turns drained entries into
    /// [`SimEvent::Decision`](crate::SimEvent::Decision) events.
    fn drain_decisions(&mut self, out: &mut Vec<rispp_core::DecisionExplain>) {
        let _ = out;
    }

    /// Drains any fabric container-lifecycle journal entries recorded since
    /// the last call into `out`. The default is a no-op; the replay loop
    /// turns drained entries into
    /// [`SimEvent::ContainerTransition`](crate::SimEvent::ContainerTransition)
    /// events.
    fn drain_fabric_journal(&mut self, out: &mut Vec<rispp_fabric::FabricJournalEntry>) {
        let _ = out;
    }
}

/// The RISPP run-time system as an [`ExecutionSystem`]: a thin adapter
/// that drives application `app` of a [`FabricArbiter`] and maps the
/// trace's hot-spot lifecycle onto its forecast/select/schedule pipeline.
///
/// `A` is how the adapter holds the arbiter. A solo run owns it
/// (`RisppBackend<FabricArbiter>`, as [`SimConfig::build_system`] builds
/// it); a shared multi-tenant run keeps one arbiter and lends it to each
/// tenant's adapter for one slice (`RisppBackend<&mut FabricArbiter>`).
/// Both are this one implementation, so a 1-tenant shared run and a solo
/// run take the same code path.
///
/// [`SimConfig::build_system`]: crate::SimConfig::build_system
#[derive(Debug)]
pub struct RisppBackend<A> {
    arbiter: A,
    app: u16,
    oracle: bool,
}

impl<A> RisppBackend<A> {
    /// Drives application `app` of `arbiter` (`0` for a solo run).
    #[must_use]
    pub fn new(arbiter: A, app: u16) -> Self {
        RisppBackend {
            arbiter,
            app,
            oracle: false,
        }
    }

    /// Enables oracle mode: each hot-spot entry feeds the *measured*
    /// per-invocation execution profile to the run-time system instead of
    /// the online forecast (perfect future knowledge, the upper bound of
    /// paper Section 4.2).
    #[must_use]
    pub fn with_oracle(mut self, oracle: bool) -> Self {
        self.oracle = oracle;
        self
    }
}

impl<'a, A: BorrowMut<FabricArbiter<'a>>> ExecutionSystem for RisppBackend<A> {
    fn label(&self) -> Cow<'static, str> {
        // The scheduler abbreviation, suffixed with `[tN]` only when the
        // arbiter holds more than one tenant, so a 1-tenant run reports
        // exactly what a solo run does.
        let arbiter = self.arbiter.borrow();
        let base = arbiter.scheduler().abbreviation();
        if arbiter.tenants() == 1 {
            Cow::Borrowed(base)
        } else {
            Cow::Owned(format!("{base}[t{}]", self.app))
        }
    }

    fn enter_hot_spot(&mut self, invocation: &Invocation, now: u64) {
        let arbiter = self.arbiter.borrow_mut();
        if self.oracle {
            let profile = invocation.execution_profile();
            arbiter
                .enter_hot_spot_with_profile(self.app, invocation.hot_spot, &profile, now)
                .expect("trace and library are consistent");
        } else {
            arbiter
                .enter_hot_spot(self.app, invocation.hot_spot, &invocation.hints, now)
                .expect("trace and library are consistent");
        }
    }

    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        let mut out = Vec::new();
        self.execute_burst_into(si, count, overhead, start, &mut out);
        out
    }

    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        self.arbiter
            .borrow_mut()
            .execute_burst_into(self.app, si, count, overhead, start, out);
    }

    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        self.arbiter
            .borrow_mut()
            .execute_bursts_batched(self.app, bursts, start, out)
    }

    fn execute_bursts_totals(
        &mut self,
        run: BurstRun<'_>,
        start: u64,
        _segments: &mut Vec<BurstSegment>,
        totals: &mut dyn FnMut(SiTotals),
    ) -> Stretch {
        self.arbiter
            .borrow_mut()
            .execute_bursts_totals(self.app, run, start, totals)
    }

    fn exit_hot_spot(&mut self, now: u64) {
        self.arbiter.borrow_mut().exit_hot_spot(self.app, now);
    }

    fn reconfiguration_stats(&self) -> (u64, u64) {
        // Per-application port accounting: with one tenant every load is
        // tagged 0, making this identical to the fabric-global counters.
        self.arbiter.borrow().app_port_stats(self.app)
    }

    fn recovery_stats(&self) -> rispp_core::RecoveryStats {
        self.arbiter.borrow().recovery_stats(self.app)
    }

    fn plan_cache_stats(&self) -> rispp_core::PlanCacheStats {
        self.arbiter.borrow().plan_cache_stats()
    }

    fn has_pending_activity(&self) -> bool {
        // Covers port completions, backoff-delayed starts, SEU upsets and
        // scheduled tile failures alike: any future internal fabric event.
        self.arbiter.borrow().fabric().next_event_at().is_some()
    }

    fn recovery_active(&self) -> bool {
        self.arbiter.borrow().fabric().fault_model().is_some()
    }

    fn telemetry_active(&self) -> bool {
        let arbiter = self.arbiter.borrow();
        arbiter.explain_enabled() || arbiter.fabric().journal_enabled()
    }

    fn drain_decisions(&mut self, out: &mut Vec<rispp_core::DecisionExplain>) {
        self.arbiter.borrow_mut().take_decisions(self.app, out);
    }

    fn drain_fabric_journal(&mut self, out: &mut Vec<rispp_fabric::FabricJournalEntry>) {
        self.arbiter.borrow_mut().drain_fabric_journal(out);
    }
}

impl ExecutionSystem for MolenSystem<'_> {
    fn label(&self) -> Cow<'static, str> {
        Cow::Borrowed(MolenSystem::label(self))
    }

    fn enter_hot_spot(&mut self, invocation: &Invocation, now: u64) {
        MolenSystem::enter_hot_spot(self, invocation.hot_spot, &invocation.hints, now);
    }

    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        MolenSystem::execute_burst(self, si, count, overhead, start)
    }

    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        MolenSystem::execute_burst_into(self, si, count, overhead, start, out);
    }

    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        out.clear();
        let run = BurstRun::new(bursts, 0, BurstBlocks::EMPTY);
        self.walk_stretch(run, start, |segment| out.push(segment), |_| {})
            .consumed
    }

    fn execute_bursts_totals(
        &mut self,
        run: BurstRun<'_>,
        start: u64,
        _segments: &mut Vec<BurstSegment>,
        totals: &mut dyn FnMut(SiTotals),
    ) -> Stretch {
        self.walk_stretch(run, start, |_| {}, totals)
    }

    fn exit_hot_spot(&mut self, now: u64) {
        MolenSystem::exit_hot_spot(self, now);
    }

    fn reconfiguration_stats(&self) -> (u64, u64) {
        MolenSystem::reconfiguration_stats(self)
    }

    fn has_pending_activity(&self) -> bool {
        // Molen counts its loads at hot-spot entry (caught by the
        // unconditional post-prologue poll); nothing advances a counter
        // during a burst, so the per-burst polls can always be skipped.
        false
    }

    fn recovery_active(&self) -> bool {
        false
    }

    fn telemetry_active(&self) -> bool {
        false
    }
}

/// SIs whose executions [`Fold`] sums on the stack; the paper's libraries
/// have at most nine.
const FOLD_SIS: usize = 16;

/// Folds one batch's segments into per-SI totals without touching the
/// heap: SIs below [`FOLD_SIS`] are summed and reported once each, in SI
/// order, when the batch ends; any other SI is reported as it comes.
struct Fold<'t> {
    sums: [(u64, u64); FOLD_SIS],
    totals: &'t mut dyn FnMut(SiTotals),
}

impl<'t> Fold<'t> {
    fn new(totals: &'t mut dyn FnMut(SiTotals)) -> Self {
        Fold {
            sums: [(0, 0); FOLD_SIS],
            totals,
        }
    }

    fn add(&mut self, si: SiId, segment: &BurstSegment) {
        let hardware = if segment.is_hardware() {
            segment.count
        } else {
            0
        };
        match self.sums.get_mut(si.index()) {
            Some((executions, hardware_executions)) => {
                *executions += segment.count;
                *hardware_executions += hardware;
            }
            None => (self.totals)(SiTotals {
                si,
                executions: segment.count,
                hardware_executions: hardware,
            }),
        }
    }

    fn finish(self) {
        for (si, &(executions, hardware_executions)) in (0u16..).zip(&self.sums) {
            if executions > 0 {
                (self.totals)(SiTotals {
                    si: SiId(si),
                    executions,
                    hardware_executions,
                });
            }
        }
    }
}

/// Pure base-processor execution: every SI traps to its software latency,
/// nothing is ever reconfigured. The paper's 0-AC reference point.
#[derive(Debug, Clone)]
pub struct SoftwareBackend<'a> {
    library: &'a SiLibrary,
    walker: StretchWalker,
}

impl<'a> SoftwareBackend<'a> {
    /// Creates a software-only backend over `library`.
    #[must_use]
    pub fn new(library: &'a SiLibrary) -> Self {
        SoftwareBackend {
            library,
            walker: StretchWalker::default(),
        }
    }

    /// The trap rate of `si`.
    fn rate(library: &SiLibrary, si: SiId) -> SiRate {
        SiRate {
            latency: library
                .si(si)
                .expect("si within library")
                .software_latency(),
            variant: None,
            until: None,
        }
    }

    /// The trap segment of `count` executions of `si` from `start`.
    fn segment(&self, si: SiId, count: u32, start: u64) -> BurstSegment {
        let latency = Self::rate(self.library, si).latency;
        BurstSegment::software(start, u64::from(count), latency)
    }

    /// Walks all of `run`: software latencies never change, so no rate
    /// has a limit.
    fn walk_stretch(
        &mut self,
        run: BurstRun<'_>,
        start: u64,
        segment: impl FnMut(BurstSegment),
        totals: impl FnMut(SiTotals),
    ) -> Stretch {
        let library = self.library;
        let stretch = self
            .walker
            .walk(run, start, |si| Self::rate(library, si), segment);
        self.walker.report(totals);
        stretch
    }
}

impl ExecutionSystem for SoftwareBackend<'_> {
    fn label(&self) -> Cow<'static, str> {
        Cow::Borrowed("Software")
    }

    fn enter_hot_spot(&mut self, _invocation: &Invocation, _now: u64) {}

    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        _overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        vec![self.segment(si, count, start)]
    }

    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        _overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        out.clear();
        out.push(self.segment(si, count, start));
    }

    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        out.clear();
        let run = BurstRun::new(bursts, 0, BurstBlocks::EMPTY);
        self.walk_stretch(run, start, |segment| out.push(segment), |_| {})
            .consumed
    }

    fn execute_bursts_totals(
        &mut self,
        run: BurstRun<'_>,
        start: u64,
        _segments: &mut Vec<BurstSegment>,
        totals: &mut dyn FnMut(SiTotals),
    ) -> Stretch {
        self.walk_stretch(run, start, |_| {}, totals)
    }

    fn exit_hot_spot(&mut self, _now: u64) {}

    fn reconfiguration_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    fn has_pending_activity(&self) -> bool {
        false
    }

    fn recovery_active(&self) -> bool {
        false
    }

    fn telemetry_active(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_sums_small_sis_once_and_passes_the_rest_through() {
        let mut seen = Vec::new();
        let mut sink = |t: SiTotals| seen.push(t);
        let mut fold = Fold::new(&mut sink);
        fold.add(SiId(3), &BurstSegment::hardware(0, 5, 10, 0));
        fold.add(SiId(40), &BurstSegment::software(50, 2, 99));
        fold.add(SiId(3), &BurstSegment::software(250, 7, 30));
        fold.add(SiId(1), &BurstSegment::software(500, 1, 30));
        fold.finish();
        let totals = |si, executions, hardware_executions| SiTotals {
            si: SiId(si),
            executions,
            hardware_executions,
        };
        assert_eq!(
            seen,
            vec![totals(40, 2, 0), totals(1, 1, 0), totals(3, 12, 5)]
        );
    }
}
