//! Telemetry must be a pure observer: attaching recorders, enabling
//! decision capture (`explain`) or the fabric journal must never perturb
//! the simulated timeline. These tests pin that guarantee — plus the
//! determinism of the merged metrics snapshot across sweep thread counts,
//! the validity of the exported Perfetto trace on a real run, and that the
//! cheap paths behind the exports write what the plain ones did.

use proptest::prelude::*;

use rispp_core::{BurstSegment, SchedulerKind};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{
    simulate, simulate_multi_observed, simulate_observed, Burst, FaultConfig, Invocation,
    MetricsObserver, NullRecorder, PerfettoTraceObserver, SimConfig, SimEvent, SimObserver,
    SweepJob, SweepRunner, TenancyConfig, TenantArbitration, TenantPolicy, Trace, TraceContext,
};
use rispp_telemetry::{push_u64, JsonValue, Metric, MetricsRegistry, MetricsSnapshot};

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("A1"),
        AtomTypeInfo::new("A2"),
        AtomTypeInfo::new("A3"),
    ])
    .unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0, 0]), 100)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1, 0]), 30)
        .unwrap();
    b.special_instruction("Y", 800)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1, 0]), 90)
        .unwrap()
        .molecule(Molecule::from_counts([0, 2, 1]), 40)
        .unwrap();
    b.build().unwrap()
}

fn trace(frames: usize) -> Trace {
    (0..frames)
        .map(|f| Invocation {
            hot_spot: HotSpotId((f % 2) as u16),
            prologue_cycles: 1_000,
            bursts: vec![
                Burst {
                    si: SiId(0),
                    count: 300 + (f as u32 % 3) * 40,
                    overhead: 20,
                },
                Burst {
                    si: SiId(1),
                    count: 120,
                    overhead: 15,
                },
            ],
            hints: vec![(SiId(0), 300), (SiId(1), 120)],
        })
        .collect()
}

/// Runs `config` with the full telemetry stack attached (metrics, trace,
/// null recorder) and capture enabled, returning the stats.
fn run_with_telemetry(library: &SiLibrary, t: &Trace, config: &SimConfig) -> rispp_sim::RunStats {
    let telemetry_config = config.with_explain(true).with_journal(true);
    let mut metrics = MetricsObserver::new();
    let mut perfetto = PerfettoTraceObserver::new();
    let mut null = NullRecorder::new();
    let mut extra: [&mut dyn SimObserver; 3] = [&mut metrics, &mut perfetto, &mut null];
    simulate_observed(library, t, &telemetry_config, &mut extra)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The simulated timeline with full telemetry (explain + journal +
    /// recorders) is bit-identical to the bare run, across schedulers,
    /// container budgets and fault seeds. A `rate_ppm` of zero means the
    /// fault fabric stays disabled for that case.
    #[test]
    fn telemetry_never_perturbs_the_timeline(
        frames in 1usize..6,
        containers in 1u16..5,
        scheduler in any::<prop::sample::Index>(),
        rate_ppm in 0u32..200_000,
        seed in 0u64..1_000,
    ) {
        let lib = library();
        let t = trace(frames);
        let kind = SchedulerKind::ALL[scheduler.index(SchedulerKind::ALL.len())];
        let mut config = SimConfig::rispp(containers, kind);
        if rate_ppm > 0 {
            config = config.with_fault(FaultConfig { rate_ppm, seed, max_retries: 2 });
        }
        let bare = simulate(&lib, &t, &config);
        let instrumented = run_with_telemetry(&lib, &t, &config);
        prop_assert_eq!(bare, instrumented);
    }
}

/// Writes every burst segment to a registry as it arrives — name
/// formatted, counters added, latency observed — the way
/// [`MetricsObserver`] did before it kept per-SI tallies: the reference
/// its `rispp_si_*` series must equal.
#[derive(Default)]
struct PerSegmentMetrics {
    registry: MetricsRegistry,
}

impl SimObserver for PerSegmentMetrics {
    fn on_event(&mut self, event: &SimEvent) {
        if let SimEvent::SegmentExecuted {
            si,
            segment,
            overhead,
        } = event
        {
            let id = si.0;
            self.registry.counter_add(
                &format!("rispp_si_executions_total{{si=\"{id}\"}}"),
                segment.count,
            );
            if segment.is_hardware() {
                self.registry.counter_add(
                    &format!("rispp_si_hardware_executions_total{{si=\"{id}\"}}"),
                    segment.count,
                );
            }
            let per = u64::from(segment.latency) + u64::from(*overhead);
            self.registry.observe_n(
                &format!("rispp_si_latency_cycles{{si=\"{id}\"}}"),
                per,
                segment.count,
            );
        }
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        self.registry.set_base_labels(&format!(
            "trace_id=\"{}\",trace_tenant=\"{}\",attempt=\"{}\"",
            context.trace_id, context.tenant, context.attempt
        ));
    }
}

/// The `rispp_si_*` series of a snapshot, in name order.
fn si_series(snapshot: &MetricsSnapshot) -> Vec<(String, Metric)> {
    snapshot
        .iter()
        .filter(|(name, _)| name.starts_with("rispp_si_"))
        .map(|(name, metric)| (name.to_owned(), metric.clone()))
        .collect()
}

/// One step of a generated observer input.
#[derive(Debug)]
enum Step {
    Event(SimEvent),
    Context(TraceContext),
    Snapshot,
}

/// A random step: mostly burst segments — half of them on SI 0 so its
/// distinct latencies pile up, some with counts near 2^40 or latencies
/// near `u32::MAX` so histogram sums saturate — with trace-context
/// changes, snapshots and run ends mixed in.
fn step() -> impl Strategy<Value = Step> {
    (
        (0u8..24, 0u16..24, 0u64..1_000),
        (0u8..8, 0u32..300, 0u8..5, 0u32..40),
    )
        .prop_map(
            |((kind, si, count), (big, latency, variant, overhead))| match kind {
                0 => Step::Event(SimEvent::RunFinished {
                    total_cycles: count,
                    reconfigurations: 0,
                    reconfiguration_cycles: 0,
                }),
                1 => Step::Context(
                    TraceContext::new(count)
                        .with_tenant(si)
                        .with_attempt(latency),
                ),
                2 => Step::Snapshot,
                _ => Step::Event(SimEvent::SegmentExecuted {
                    si: SiId(if si < 12 { si } else { 0 }),
                    segment: BurstSegment {
                        start: 0,
                        count: if big == 0 { count << 30 } else { count },
                        latency: if big == 1 {
                            u32::MAX - latency
                        } else {
                            latency
                        },
                        variant_index: (variant < 4).then_some(usize::from(variant)),
                    },
                    overhead,
                }),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MetricsObserver` folds per-SI tallies into its registry at run
    /// end, on a trace-context change and on every snapshot; each of its
    /// `rispp_si_*` series must equal what writing every segment to the
    /// registry as it arrived gives, at every snapshot and at the end.
    #[test]
    fn folded_si_metrics_equal_per_segment_writes(
        steps in prop::collection::vec(step(), 1..300),
    ) {
        let mut observer = MetricsObserver::new();
        let mut reference = PerSegmentMetrics::default();
        for step in &steps {
            match step {
                Step::Event(event) => {
                    observer.on_event(event);
                    reference.on_event(event);
                }
                Step::Context(context) => {
                    observer.set_trace_context(*context);
                    reference.set_trace_context(*context);
                }
                Step::Snapshot => prop_assert_eq!(
                    si_series(&observer.snapshot()),
                    si_series(&reference.registry.snapshot())
                ),
            }
        }
        prop_assert_eq!(
            si_series(&observer.into_snapshot()),
            si_series(&reference.registry.snapshot())
        );
    }

    /// `push_u64` appends exactly the text `to_string` gives, at every
    /// digit count.
    #[test]
    fn push_u64_writes_what_to_string_does(value in any::<u64>(), shift in 0u32..64) {
        let value = value >> shift;
        let mut out = String::from("x");
        push_u64(&mut out, value);
        prop_assert_eq!(out, format!("x{value}"));
    }
}

#[test]
fn merged_metrics_snapshot_is_identical_across_thread_counts() {
    let lib = library();
    let small = trace(2);
    let large = trace(8);
    let mut jobs = Vec::new();
    for t in [&small, &large] {
        for kind in SchedulerKind::ALL {
            jobs.push(SweepJob::new(
                SimConfig::rispp(3, kind).with_explain(true).with_journal(true),
                t,
            ));
        }
        jobs.push(SweepJob::new(
            SimConfig::rispp(3, SchedulerKind::Hef)
                .with_explain(true)
                .with_journal(true)
                .with_fault(FaultConfig {
                    rate_ppm: 150_000,
                    seed: 0xDA7E,
                    max_retries: 2,
                }),
            t,
        ));
    }

    let (base_stats, base_snapshot) = SweepRunner::with_threads(1).run_metered(&lib, &jobs);
    assert!(!base_snapshot.is_empty());
    assert_eq!(
        base_snapshot.counter("rispp_runs_total"),
        jobs.len() as u64
    );
    let total: u64 = base_stats.iter().map(|s| s.total_cycles).sum();
    assert_eq!(base_snapshot.counter("rispp_simulated_cycles_total"), total);

    for threads in [2usize, 4, 8] {
        let (stats, snapshot) = SweepRunner::with_threads(threads).run_metered(&lib, &jobs);
        assert_eq!(stats, base_stats, "stats diverged at {threads} thread(s)");
        assert_eq!(
            snapshot, base_snapshot,
            "merged metrics diverged at {threads} thread(s)"
        );
        assert_eq!(
            snapshot.to_json(),
            base_snapshot.to_json(),
            "JSON exposition diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn exported_perfetto_trace_is_valid_and_complete() {
    let lib = library();
    let t = trace(4);
    let config = SimConfig::rispp(3, SchedulerKind::Hef)
        .with_explain(true)
        .with_journal(true);
    let mut perfetto = PerfettoTraceObserver::new();
    let stats = {
        let mut extra: [&mut dyn SimObserver; 1] = [&mut perfetto];
        simulate_observed(&lib, &t, &config, &mut extra)
    };
    let json = perfetto.into_json();
    let doc = JsonValue::parse(&json).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");

    // At least one named Atom Container track (pid 1 thread metadata).
    let container_tracks = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("M")
                && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
                && e.get("pid").and_then(JsonValue::as_u64) == Some(1)
        })
        .count();
    assert!(container_tracks >= 1, "no container tracks: {json}");

    // Load spans appear on container tracks, and no span outlives the run.
    let mut load_spans = 0;
    for e in events {
        if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let ts = e.get("ts").and_then(JsonValue::as_u64).expect("span ts");
        let dur = e.get("dur").and_then(JsonValue::as_u64).expect("span dur");
        assert!(
            ts + dur <= stats.total_cycles,
            "span ends after the run: {e:?}"
        );
        if e.get("pid").and_then(JsonValue::as_u64) == Some(1)
            && e.get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| n.starts_with("load "))
        {
            load_spans += 1;
        }
    }
    assert!(load_spans >= 1, "no load spans on container tracks");

    // At least one scheduler decision instant.
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("decision")),
        "no decision events"
    );
}

/// The label names of one exposition sample line, in order.
fn label_names(sample: &str) -> Vec<&str> {
    let Some((_, rest)) = sample.split_once('{') else {
        return Vec::new();
    };
    let mut labels = rest.rsplit_once('}').map_or("", |(labels, _)| labels);
    let mut names = Vec::new();
    while let Some((name, value)) = labels.split_once("=\"") {
        names.push(name);
        let close = value.find('"').expect("quoted label value");
        labels = value[close + 1..].strip_prefix(',').unwrap_or("");
    }
    names
}

/// A traced two-tenant shared run stamps the trace context onto every
/// tenant's metrics. The per-tenant families carry their own `tenant`
/// label, so the context's tenant goes in as `trace_tenant` and no sample
/// repeats a label name (OpenMetrics requires them unique).
#[test]
fn traced_multi_tenant_samples_repeat_no_label_name() {
    let lib = library();
    let traces = [trace(4), trace(4)];
    let config = SimConfig::rispp(4, SchedulerKind::Hef)
        .with_tenants(TenancyConfig {
            count: 2,
            policy: TenantPolicy::Shared,
            arbitration: TenantArbitration::RoundRobin,
        })
        .with_trace(TraceContext::new(7));
    let mut metrics = [MetricsObserver::new(), MetricsObserver::new()];
    let [first, second] = &mut metrics;
    let multi = simulate_multi_observed(&lib, &traces, &config, &mut [first, second]);
    assert!(multi.atoms_shared > 0, "the run must share atoms");
    for (tenant, observer) in metrics.iter().enumerate() {
        let text = observer.snapshot().to_prometheus_text();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let names = label_names(line);
            for (i, name) in names.iter().enumerate() {
                assert!(
                    !names[..i].contains(name),
                    "tenant {tenant}: `{line}` repeats label `{name}`"
                );
            }
        }
        let base = r#"trace_id="7",trace_tenant="0",attempt="0""#;
        let switches = format!(r#"rispp_tenant_switches_total{{tenant="{tenant}",{base}}}"#);
        assert!(text.contains(&switches), "tenant {tenant}: no {switches}");
    }
}
