//! The daemon's plan-cache occupancy gauge: `rispp_serve_plan_cache_entries`
//! reports how many decisions the warm cross-request cache holds. It is
//! above zero once a job has planned, and it never exceeds the cache's
//! capacity, even when one job needs more distinct plans than that: the
//! cache then sits at its bound and counts an eviction per new plan.

use std::time::Duration;

use rispp_core::{PlanCache, SchedulerKind};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_serve::{encode_trace, JobSpec, JobStatus, Server, ServerConfig, SubmitResult};
use rispp_sim::{Burst, Invocation, SimConfig, Trace};
use rispp_telemetry::MetricsSnapshot;

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1]), 50)
        .unwrap();
    b.build().unwrap()
}

/// An inline trace of `invocations` entries into hot spot `hot_spot(i)`,
/// each hinting `hint(i)` executions. A first visit plans with its hint,
/// so fresh hot spots with distinct hints make distinct plans.
fn payload(invocations: u16, hot_spot: fn(u16) -> u16, hint: fn(u16) -> u64) -> String {
    encode_trace(&Trace::from_invocations(
        (0..invocations)
            .map(|i| Invocation {
                hot_spot: HotSpotId(hot_spot(i)),
                prologue_cycles: 10,
                bursts: vec![Burst {
                    si: SiId(0),
                    count: 1,
                    overhead: 2,
                }],
                hints: vec![(SiId(0), hint(i))],
            })
            .collect(),
    ))
}

/// Runs one job to completion and returns the metrics snapshot after it.
fn complete(server: &Server, id: &str, trace_payload: String) -> MetricsSnapshot {
    let spec = JobSpec {
        id: id.to_owned(),
        config: SimConfig::rispp(2, SchedulerKind::Hef),
        trace_payload,
        deadline_ms: None,
        chaos_panics: 0,
    };
    let SubmitResult::Enqueued(ticket) = server.submit(spec) else {
        panic!("{id} refused");
    };
    let outcome = ticket
        .outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("job outcome");
    assert_eq!(outcome.status, JobStatus::Completed, "{id}");
    server.metrics_snapshot()
}

#[test]
fn plan_cache_entries_gauge_stays_within_capacity() {
    let capacity = i64::try_from(PlanCache::default().capacity()).unwrap();
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let idle = server.metrics_snapshot();
    assert_eq!(idle.gauge("rispp_serve_plan_cache_entries"), 0);

    let small = complete(&server, "small", payload(5, |_| 0, |_| 40));
    let entries = small.gauge("rispp_serve_plan_cache_entries");
    assert!(entries > 0 && entries <= capacity, "{entries} entries");

    // More distinct plans than the cache holds: it fills to its bound and
    // evicts one entry per further plan, never growing past it.
    let over = u16::try_from(capacity).unwrap() + 1_000;
    let large = complete(
        &server,
        "large",
        payload(over, |i| i, |i| 100 + u64::from(i)),
    );
    let entries = large.gauge("rispp_serve_plan_cache_entries");
    assert!(entries <= capacity, "{entries} entries above {capacity}");
    assert!(
        large.gauge("rispp_serve_plan_cache_evictions") > 0,
        "a working set over the bound must evict"
    );
    server.await_drained();
}
