//! CSV and JSONL export of simulation results, for tabulating sweeps and
//! inspecting event logs with external tools.

use std::fmt::Write as _;

use crate::context::TraceContext;
use crate::observer::SimEvent;
use crate::stats::RunStats;

/// One-line CSV summary of a run:
/// `system,total_cycles,executions,hardware_fraction,reconfigurations,reconfiguration_cycles`.
#[must_use]
pub fn summary_csv_row(stats: &RunStats) -> String {
    format!(
        "{},{},{},{:.4},{},{}",
        stats.system,
        stats.total_cycles,
        stats.total_executions(),
        stats.hardware_fraction(),
        stats.reconfigurations,
        stats.reconfiguration_cycles
    )
}

/// CSV header matching [`summary_csv_row`].
#[must_use]
pub fn summary_csv_header() -> &'static str {
    "system,total_cycles,executions,hardware_fraction,reconfigurations,reconfiguration_cycles"
}

/// Version of the JSONL event-log schema emitted by [`event_log_jsonl`].
/// Bumped whenever a field or variant changes shape; consumers check the
/// `{"event":"schema","schema_version":N}` header line and must reject
/// versions they do not understand — failing loudly on the header, not
/// silently on rows.
///
/// v4: every row may carry the optional causal-trace fields `trace_id`,
/// `trace_tenant` and `attempt` (present on all rows of a log whose run
/// had a [`TraceContext`] attached, absent
/// otherwise). The tenant field is prefixed because tenant events
/// (`tenant_switched`, `atom_shared`, `eviction_contested`) already carry
/// a payload `tenant` key that may legitimately differ from the job's.
pub const EVENT_LOG_SCHEMA_VERSION: u32 = 4;

/// Appends the JSONL schema-header line (the first line of every event
/// log) to `out`.
pub fn write_schema_header(out: &mut String) {
    let _ = writeln!(
        out,
        r#"{{"event":"schema","schema_version":{EVENT_LOG_SCHEMA_VERSION}}}"#
    );
}

/// Renders a recorded event stream as a JSONL log: a schema-header line
/// followed by one JSON object per event, each with an `"event"`
/// discriminator — the serialisation behind
/// [`TraceLogObserver::to_jsonl`](crate::TraceLogObserver::to_jsonl).
/// With a `context`, every row carries the schema-v4 `trace_id`,
/// `trace_tenant` and `attempt` fields.
#[must_use]
pub fn event_log_jsonl(events: &[SimEvent], context: Option<&TraceContext>) -> String {
    let mut out = String::new();
    write_schema_header(&mut out);
    for event in events {
        write_event_jsonl(&mut out, event, context);
    }
    out
}

/// Appends one event as a single JSONL line to `out` — the streaming
/// building block behind [`event_log_jsonl`], the CLI's `--log-events`
/// ([`TraceLogObserver::streaming`](crate::TraceLogObserver::streaming))
/// and the flight recorder, which is what makes a flight-recorder bundle
/// tail bit-identical to the suffix of a `--log-events` file recorded
/// with the same context. With a `context` the row gains the trailing
/// `trace_id`, `trace_tenant` and `attempt` fields (schema v4).
pub fn write_event_jsonl(out: &mut String, event: &SimEvent, context: Option<&TraceContext>) {
    use rispp_fabric::FabricJournalEntry;

    match event {
        SimEvent::HotSpotEntered { hot_spot, now } => {
            // Every entry comes from a trace annotation; the field keeps
            // schema v4's shape.
            let _ = writeln!(
                out,
                r#"{{"event":"hot_spot_entered","hot_spot":{},"now":{now},"origin":"annotated"}}"#,
                hot_spot.0
            );
        }
        SimEvent::SegmentExecuted {
            si,
            segment,
            overhead,
        } => {
            let _ = write!(
                out,
                r#"{{"event":"segment_executed","si":{},"start":{},"count":{},"latency":{},"overhead":{overhead},"#,
                si.index(),
                segment.start,
                segment.count,
                segment.latency,
            );
            match segment.variant_index {
                Some(v) => {
                    let _ = writeln!(out, r#""variant":{v}}}"#);
                }
                None => {
                    let _ = writeln!(out, r#""variant":null}}"#);
                }
            }
        }
        SimEvent::LoadCompleted {
            completed,
            total,
            now,
        } => {
            let _ = writeln!(
                out,
                r#"{{"event":"load_completed","completed":{completed},"total":{total},"now":{now}}}"#
            );
        }
        SimEvent::FaultInjected {
            count,
            total,
            cycles_lost,
            now,
        } => {
            let _ = writeln!(
                out,
                r#"{{"event":"fault_injected","count":{count},"total":{total},"cycles_lost":{cycles_lost},"now":{now}}}"#
            );
        }
        SimEvent::LoadRetried { count, total, now } => {
            let _ = writeln!(
                out,
                r#"{{"event":"load_retried","count":{count},"total":{total},"now":{now}}}"#
            );
        }
        SimEvent::ContainerQuarantined { count, total, now } => {
            let _ = writeln!(
                out,
                r#"{{"event":"container_quarantined","count":{count},"total":{total},"now":{now}}}"#
            );
        }
        SimEvent::DegradedToSoftware { count, total, now } => {
            let _ = writeln!(
                out,
                r#"{{"event":"degraded_to_software","count":{count},"total":{total},"now":{now}}}"#
            );
        }
        SimEvent::TenantSwitched { tenant, now } => {
            let _ = writeln!(
                out,
                r#"{{"event":"tenant_switched","tenant":{tenant},"now":{now}}}"#
            );
        }
        SimEvent::AtomShared {
            tenant,
            count,
            total,
            now,
        } => {
            let _ = writeln!(
                out,
                r#"{{"event":"atom_shared","tenant":{tenant},"count":{count},"total":{total},"now":{now}}}"#
            );
        }
        SimEvent::EvictionContested {
            tenant,
            count,
            total,
            now,
        } => {
            let _ = writeln!(
                out,
                r#"{{"event":"eviction_contested","tenant":{tenant},"count":{count},"total":{total},"now":{now}}}"#
            );
        }
        SimEvent::Decision(d) => {
            let upgrades = d
                .schedule
                .rounds
                .iter()
                .filter(|r| r.chosen.is_some())
                .count();
            let _ = write!(
                out,
                r#"{{"event":"decision","now":{},"containers":{},"scheduler":"{}","selected":{},"rejected":{},"selection_rounds":{},"schedule_rounds":{},"upgrades":{},"hot_spot":"#,
                d.now,
                d.containers,
                d.schedule.scheduler,
                d.selection.selection.len(),
                d.selection.rejected.len(),
                d.selection.rounds.len(),
                d.schedule.rounds.len(),
                upgrades,
            );
            match d.hot_spot {
                Some(hs) => {
                    let _ = writeln!(out, "{}}}", hs.0);
                }
                None => {
                    let _ = writeln!(out, "null}}");
                }
            }
        }
        SimEvent::ContainerTransition(entry) => match entry {
            FabricJournalEntry::LoadStarted {
                container,
                atom,
                at,
                finish,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"event":"container_transition","kind":"load_started","container":{},"atom":{},"at":{at},"finish":{finish}}}"#,
                    container.index(),
                    atom.index()
                );
            }
            FabricJournalEntry::LoadFinished {
                container,
                atom,
                at,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"event":"container_transition","kind":"load_finished","container":{},"atom":{},"at":{at}}}"#,
                    container.index(),
                    atom.index()
                );
            }
            FabricJournalEntry::LoadAborted {
                container,
                atom,
                at,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"event":"container_transition","kind":"load_aborted","container":{},"atom":{},"at":{at}}}"#,
                    container.index(),
                    atom.index()
                );
            }
            FabricJournalEntry::AtomCorrupted {
                container,
                atom,
                at,
            } => {
                let _ = writeln!(
                    out,
                    r#"{{"event":"container_transition","kind":"atom_corrupted","container":{},"atom":{},"at":{at}}}"#,
                    container.index(),
                    atom.index()
                );
            }
            FabricJournalEntry::ContainerQuarantined { container, at } => {
                let _ = writeln!(
                    out,
                    r#"{{"event":"container_transition","kind":"container_quarantined","container":{},"at":{at}}}"#,
                    container.index()
                );
            }
        },
        SimEvent::RunFinished {
            total_cycles,
            reconfigurations,
            reconfiguration_cycles,
        } => {
            let _ = writeln!(
                out,
                r#"{{"event":"run_finished","total_cycles":{total_cycles},"reconfigurations":{reconfigurations},"reconfiguration_cycles":{reconfiguration_cycles}}}"#
            );
        }
    }
    if let Some(ctx) = context {
        // Every row above is exactly one `…}\n` line; splice the trace
        // fields in front of the closing brace.
        debug_assert!(out.ends_with("}\n"));
        out.truncate(out.len() - 2);
        let _ = writeln!(
            out,
            r#","trace_id":{},"trace_tenant":{},"attempt":{}}}"#,
            ctx.trace_id, ctx.tenant, ctx.attempt
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::trace::{Burst, Invocation, Trace};
    use rispp_core::SchedulerKind;
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
    use rispp_monitor::HotSpotId;

    fn library() -> SiLibrary {
        let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("X", 1_000)
            .unwrap()
            .molecule(Molecule::from_counts([1]), 50)
            .unwrap();
        b.build().unwrap()
    }

    fn run() -> RunStats {
        let lib = library();
        let trace = Trace::from_invocations(vec![Invocation {
            hot_spot: HotSpotId(0),
            prologue_cycles: 100,
            bursts: vec![Burst {
                si: SiId(0),
                count: 2_000,
                overhead: 10,
            }],
            hints: vec![(SiId(0), 2_000)],
        }]);
        simulate(&lib, &trace, &SimConfig::rispp(2, SchedulerKind::Hef))
    }

    #[test]
    fn summary_row_has_all_fields() {
        let stats = run();
        let row = summary_csv_row(&stats);
        assert_eq!(
            row.split(',').count(),
            summary_csv_header().split(',').count()
        );
        assert!(row.starts_with("HEF,"));
    }

    #[test]
    fn event_log_jsonl_one_object_per_event() {
        use crate::engine::simulate_observed;
        use crate::observer::{SimObserver, TraceLogObserver};

        let lib = library();
        let trace = Trace::from_invocations(vec![Invocation {
            hot_spot: HotSpotId(0),
            prologue_cycles: 100,
            bursts: vec![Burst {
                si: SiId(0),
                count: 2_000,
                overhead: 10,
            }],
            hints: vec![(SiId(0), 2_000)],
        }]);
        let mut log = TraceLogObserver::new();
        {
            let mut extra: [&mut dyn SimObserver; 1] = [&mut log];
            let _ = simulate_observed(
                &lib,
                &trace,
                &SimConfig::rispp(2, SchedulerKind::Hef),
                &mut extra,
            );
        }
        let jsonl = log.to_jsonl();
        // One line per event plus the schema header.
        assert_eq!(jsonl.lines().count(), log.events().len() + 1);
        assert!(jsonl.starts_with(&format!(
            r#"{{"event":"schema","schema_version":{EVENT_LOG_SCHEMA_VERSION}}}"#
        )));
        assert!(jsonl
            .lines()
            .nth(1)
            .unwrap()
            .starts_with(r#"{"event":"hot_spot_entered""#));
        assert!(jsonl
            .lines()
            .last()
            .unwrap()
            .starts_with(r#"{"event":"run_finished""#));
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            // Crude JSON sanity: balanced braces and quoted keys.
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
        // The log must contain the executed segments and at least one load.
        assert!(jsonl.contains(r#""event":"segment_executed""#));
        assert!(jsonl.contains(r#""event":"load_completed""#));
    }

    /// Every [`SimEvent`] variant must serialise to one parseable JSON
    /// object carrying its discriminator and every field a consumer needs.
    #[test]
    fn every_event_variant_round_trips_with_all_fields() {
        use crate::observer::SimEvent;
        use rispp_core::{BurstSegment, DecisionExplain};
        use rispp_fabric::{ContainerId, FabricJournalEntry};
        use rispp_model::AtomTypeId;
        use rispp_telemetry::JsonValue;

        let decision = DecisionExplain {
            now: 77,
            hot_spot: Some(HotSpotId(3)),
            containers: 9,
            ..DecisionExplain::default()
        };
        // (event, discriminator, required fields) — one row per variant.
        let cases: Vec<(SimEvent, &str, &[&str])> = vec![
            (
                SimEvent::HotSpotEntered {
                    hot_spot: HotSpotId(1),
                    now: 10,
                },
                "hot_spot_entered",
                &["hot_spot", "now", "origin"],
            ),
            (
                SimEvent::SegmentExecuted {
                    si: SiId(2),
                    segment: BurstSegment::hardware(20, 5, 30, 1),
                    overhead: 4,
                },
                "segment_executed",
                &["si", "start", "count", "latency", "overhead", "variant"],
            ),
            (
                SimEvent::LoadCompleted {
                    completed: 1,
                    total: 2,
                    now: 30,
                },
                "load_completed",
                &["completed", "total", "now"],
            ),
            (
                SimEvent::FaultInjected {
                    count: 1,
                    total: 3,
                    cycles_lost: 500,
                    now: 40,
                },
                "fault_injected",
                &["count", "total", "cycles_lost", "now"],
            ),
            (
                SimEvent::LoadRetried {
                    count: 1,
                    total: 4,
                    now: 50,
                },
                "load_retried",
                &["count", "total", "now"],
            ),
            (
                SimEvent::ContainerQuarantined {
                    count: 1,
                    total: 5,
                    now: 60,
                },
                "container_quarantined",
                &["count", "total", "now"],
            ),
            (
                SimEvent::DegradedToSoftware {
                    count: 1,
                    total: 6,
                    now: 70,
                },
                "degraded_to_software",
                &["count", "total", "now"],
            ),
            (
                SimEvent::Decision(std::sync::Arc::new(decision)),
                "decision",
                &[
                    "now",
                    "containers",
                    "scheduler",
                    "selected",
                    "rejected",
                    "selection_rounds",
                    "schedule_rounds",
                    "upgrades",
                    "hot_spot",
                ],
            ),
            (
                SimEvent::ContainerTransition(FabricJournalEntry::LoadStarted {
                    container: ContainerId(0),
                    atom: AtomTypeId(1),
                    at: 80,
                    finish: 90,
                }),
                "container_transition",
                &["kind", "container", "atom", "at", "finish"],
            ),
            (
                SimEvent::ContainerTransition(FabricJournalEntry::LoadFinished {
                    container: ContainerId(0),
                    atom: AtomTypeId(1),
                    at: 90,
                }),
                "container_transition",
                &["kind", "container", "atom", "at"],
            ),
            (
                SimEvent::ContainerTransition(FabricJournalEntry::LoadAborted {
                    container: ContainerId(0),
                    atom: AtomTypeId(1),
                    at: 91,
                }),
                "container_transition",
                &["kind", "container", "atom", "at"],
            ),
            (
                SimEvent::ContainerTransition(FabricJournalEntry::AtomCorrupted {
                    container: ContainerId(0),
                    atom: AtomTypeId(1),
                    at: 92,
                }),
                "container_transition",
                &["kind", "container", "atom", "at"],
            ),
            (
                SimEvent::ContainerTransition(FabricJournalEntry::ContainerQuarantined {
                    container: ContainerId(0),
                    at: 93,
                }),
                "container_transition",
                &["kind", "container", "at"],
            ),
            (
                SimEvent::TenantSwitched { tenant: 1, now: 94 },
                "tenant_switched",
                &["tenant", "now"],
            ),
            (
                SimEvent::AtomShared {
                    tenant: 1,
                    count: 2,
                    total: 5,
                    now: 95,
                },
                "atom_shared",
                &["tenant", "count", "total", "now"],
            ),
            (
                SimEvent::EvictionContested {
                    tenant: 0,
                    count: 1,
                    total: 3,
                    now: 96,
                },
                "eviction_contested",
                &["tenant", "count", "total", "now"],
            ),
            (
                SimEvent::RunFinished {
                    total_cycles: 100,
                    reconfigurations: 7,
                    reconfiguration_cycles: 800,
                },
                "run_finished",
                &["total_cycles", "reconfigurations", "reconfiguration_cycles"],
            ),
        ];

        let events: Vec<SimEvent> = cases.iter().map(|(e, _, _)| e.clone()).collect();
        let jsonl = event_log_jsonl(&events, None);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), cases.len() + 1);

        let header = JsonValue::parse(lines[0]).expect("schema header parses");
        assert_eq!(
            header.get("event").and_then(JsonValue::as_str),
            Some("schema")
        );
        assert_eq!(
            header.get("schema_version").and_then(JsonValue::as_u64),
            Some(u64::from(EVENT_LOG_SCHEMA_VERSION))
        );

        for ((_, discriminator, fields), line) in cases.iter().zip(&lines[1..]) {
            let value = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                value.get("event").and_then(JsonValue::as_str),
                Some(*discriminator),
                "{line}"
            );
            for field in *fields {
                assert!(
                    value.get(field).is_some(),
                    "field `{field}` missing from {line}"
                );
            }
            // Untraced logs must not invent trace fields.
            for field in ["trace_id", "trace_tenant", "attempt"] {
                assert!(
                    value.get(field).is_none(),
                    "unexpected trace field `{field}` in untraced {line}"
                );
            }
        }

        // The same stream rendered with a trace context must carry the
        // schema-v4 trace fields on *every* variant, with the exact
        // values handed in.
        let ctx = crate::TraceContext::new(9_001)
            .with_tenant(2)
            .with_attempt(3);
        let traced = event_log_jsonl(&events, Some(&ctx));
        let traced_lines: Vec<&str> = traced.lines().collect();
        assert_eq!(traced_lines.len(), cases.len() + 1);
        for line in &traced_lines[1..] {
            let value = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                value.get("trace_id").and_then(JsonValue::as_u64),
                Some(9_001),
                "{line}"
            );
            assert_eq!(
                value.get("trace_tenant").and_then(JsonValue::as_u64),
                Some(2),
                "{line}"
            );
            assert_eq!(
                value.get("attempt").and_then(JsonValue::as_u64),
                Some(3),
                "{line}"
            );
        }
    }
}
