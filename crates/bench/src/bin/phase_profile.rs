//! Phase profiler: splits one fig7-style run into time spent in
//! `enter_hot_spot` (selection + scheduling) vs burst execution (fabric
//! stepping, batched + per-burst) vs engine overhead, by wrapping the
//! backend in a timing shim. The shim delegates the buffer-reusing and
//! batched entry points (and the poll gates) so the profiled run takes
//! exactly the hot paths a bare backend would. Wall-clock based — use it
//! to find which phase to optimise, not for absolute numbers.
//! `gprofng`-class profilers are unreliable in this container; this
//! binary is the substitute.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use rispp_bench::experiments::quick_workload;
use rispp_core::{BurstSegment, SchedulerKind};
use rispp_model::SiId;
use rispp_sim::{simulate_with, Burst, ExecutionSystem, SimConfig};

struct Timed<'a> {
    inner: Box<dyn ExecutionSystem + 'a>,
    enter: Duration,
    burst: Duration,
    burst_single: Duration,
    exit: Duration,
    calls: u64,
    batched_calls: u64,
    batched_bursts: u64,
    segments: u64,
    enters: u64,
}

impl ExecutionSystem for Timed<'_> {
    fn label(&self) -> Cow<'static, str> {
        self.inner.label()
    }
    fn enter_hot_spot(&mut self, invocation: &rispp_sim::Invocation, now: u64) {
        let t = Instant::now();
        self.inner.enter_hot_spot(invocation, now);
        self.enter += t.elapsed();
        self.enters += 1;
    }
    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        let t = Instant::now();
        let r = self.inner.execute_burst(si, count, overhead, start);
        self.burst += t.elapsed();
        self.calls += 1;
        self.segments += r.len() as u64;
        r
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
        self.inner.execute_burst_into(si, count, overhead, start, out);
        let dt = t.elapsed();
        self.burst += dt;
        self.burst_single += dt;
        self.calls += 1;
        self.segments += out.len() as u64;
    }
    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        let t = Instant::now();
        let consumed = self.inner.execute_bursts_batched(bursts, start, out);
        self.burst += t.elapsed();
        self.batched_calls += 1;
        self.batched_bursts += consumed as u64;
        self.segments += out.len() as u64;
        consumed
    }
    fn exit_hot_spot(&mut self, now: u64) {
        let t = Instant::now();
        self.inner.exit_hot_spot(now);
        self.exit += t.elapsed();
    }
    fn reconfiguration_stats(&self) -> (u64, u64) {
        self.inner.reconfiguration_stats()
    }
    fn recovery_stats(&self) -> rispp_core::RecoveryStats {
        self.inner.recovery_stats()
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

fn main() {
    let frames: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(40);
    let workload = quick_workload(frames);
    let trace = workload.trace();
    let library = rispp_h264::h264_si_library();

    for kind in SchedulerKind::ALL {
        let mut enter = Duration::ZERO;
        let mut burst = Duration::ZERO;
        let mut burst_single = Duration::ZERO;
        let mut exit = Duration::ZERO;
        let mut total = Duration::ZERO;
        for ac in 5..=24u16 {
            let config = SimConfig::rispp(ac, kind);
            let mut sys = Timed {
                inner: config.build_system(&library),
                enter: Duration::ZERO,
                burst: Duration::ZERO,
                burst_single: Duration::ZERO,
                exit: Duration::ZERO,
                calls: 0,
                batched_calls: 0,
                batched_bursts: 0,
                segments: 0,
                enters: 0,
            };
            let t = Instant::now();
            simulate_with(&mut sys, trace, &mut []);
            total += t.elapsed();
            enter += sys.enter;
            burst += sys.burst;
            burst_single += sys.burst_single;
            exit += sys.exit;
            if ac == 20 {
                eprintln!(
                    "  ac=20 {}: {} enters, {} batched calls ({} bursts), {} per-burst calls, {} segments",
                    kind.abbreviation(),
                    sys.enters,
                    sys.batched_calls,
                    sys.batched_bursts,
                    sys.calls,
                    sys.segments
                );
            }
        }
        println!(
            "{:5} total {:8.1}ms  enter {:8.1}ms ({:4.1}%)  burst {:8.1}ms ({:4.1}%, single {:6.1}ms)  exit {:6.1}ms  engine {:6.1}ms",
            kind.abbreviation(),
            total.as_secs_f64() * 1e3,
            enter.as_secs_f64() * 1e3,
            enter.as_secs_f64() / total.as_secs_f64() * 100.0,
            burst.as_secs_f64() * 1e3,
            burst.as_secs_f64() / total.as_secs_f64() * 100.0,
            burst_single.as_secs_f64() * 1e3,
            exit.as_secs_f64() * 1e3,
            (total - enter - burst - exit).as_secs_f64() * 1e3,
        );
    }
    // Molen baseline for reference.
    let mut total = Duration::ZERO;
    for ac in 5..=24u16 {
        let config = SimConfig::molen(ac);
        let mut sys = config.build_system(&library);
        let t = Instant::now();
        simulate_with(sys.as_mut(), trace, &mut []);
        total += t.elapsed();
    }
    println!("Molen total {:8.1}ms", total.as_secs_f64() * 1e3);
}
