//! Fuzzes `rispp_telemetry::Bundle::parse`, the reader behind `rispp-cli
//! forensics`. Bundles that `FlightRecorder::dump` writes for random runs
//! must parse and give back their header and event lines, and those lines
//! must be the tail of a full `TraceLogObserver` log of the same run;
//! truncated, byte-mutated and arbitrary input must come back as `Ok` or
//! `Err`, never as a panic.

use proptest::prelude::*;

use rispp_core::SchedulerKind;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::export::EVENT_LOG_SCHEMA_VERSION;
use rispp_sim::{
    simulate_observed, Burst, FaultConfig, FlightRecorder, Invocation, SimConfig, SimEvent, Trace,
    TraceContext, TraceLogObserver,
};
use rispp_telemetry::{Bundle, BundleMeta};

/// Decisions and journal entries the recorder keeps (its fixed rings).
const DECISIONS_KEPT: usize = 16;
const JOURNAL_KEPT: usize = 64;

fn library() -> SiLibrary {
    let universe =
        AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 900)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0]), 90)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1]), 25)
        .unwrap();
    b.special_instruction("Y", 700)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1]), 80)
        .unwrap();
    b.build().unwrap()
}

/// One to five invocations of up to 30 bursts on either SI.
fn trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (
            0u16..3,
            prop::collection::vec((0u16..2, 0u32..200, 0u32..20), 1..30),
        ),
        1..6,
    )
    .prop_map(|invocations| {
        Trace::from_invocations(
            invocations
                .into_iter()
                .map(|(hot_spot, bursts)| Invocation {
                    hot_spot: HotSpotId(hot_spot),
                    prologue_cycles: 300,
                    bursts: bursts
                        .into_iter()
                        .map(|(si, count, overhead)| Burst {
                            si: SiId(si),
                            count,
                            overhead,
                        })
                        .collect(),
                    hints: vec![(SiId(0), 500), (SiId(1), 200)],
                })
                .collect(),
        )
    })
}

/// Characters a reason or job id may hold: plain, JSON-escaped, control
/// and multi-byte.
const PALETTE: [char; 9] = ['a', 'Z', '-', '"', '\\', '\n', '\u{1}', 'é', '😀'];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..PALETTE.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

/// A recorded run's bundle, the metadata it must carry and the event
/// rows it must hold: the last rows of the run's full event log.
struct Dumped {
    text: String,
    meta: BundleMeta,
    event_rows: Vec<String>,
    decisions: usize,
    journal: usize,
}

/// Runs `t` at HEF on `containers` (faulty or not) under `context` with
/// a recorder of `ring` events, and dumps it with `reason`, `job_id` and
/// the config hash and plan-cache counters in `counters`.
fn dump(
    t: &Trace,
    (containers, faulty, ring): (u16, bool, usize),
    context: TraceContext,
    (reason, job_id): (&str, &str),
    counters: (u64, u64, u64),
) -> Dumped {
    let mut config = SimConfig::rispp(containers, SchedulerKind::Hef)
        .with_explain(true)
        .with_journal(true)
        .with_trace(context);
    if faulty {
        config = config.with_fault(FaultConfig {
            rate_ppm: 150_000,
            seed: context.trace_id,
            max_retries: 2,
        });
    }
    let mut recorder = FlightRecorder::with_capacity(ring);
    let mut log = TraceLogObserver::new();
    let _ = simulate_observed(&library(), t, &config, &mut [&mut recorder, &mut log]);
    let count = |f: fn(&SimEvent) -> bool| log.events().iter().filter(|e| f(e)).count();
    let decisions = count(|e| matches!(e, SimEvent::Decision(_)));
    let journal = count(|e| matches!(e, SimEvent::ContainerTransition(_)));
    let full = log.to_jsonl();
    let rows: Vec<&str> = full.lines().skip(1).collect();
    let event_rows = rows[rows.len().saturating_sub(ring)..]
        .iter()
        .map(|row| (*row).to_owned())
        .collect();
    let (config_hash, plan_hits, plan_misses) = counters;
    let meta = BundleMeta {
        reason: reason.to_owned(),
        job_id: job_id.to_owned(),
        trace_id: context.trace_id,
        tenant: context.tenant,
        attempt: context.attempt,
        event_schema_version: EVENT_LOG_SCHEMA_VERSION,
        config_hash,
        plan_hits,
        plan_misses,
        events_dropped: log.events().len().saturating_sub(ring) as u64,
        decisions_dropped: decisions.saturating_sub(DECISIONS_KEPT) as u64,
        journal_dropped: journal.saturating_sub(JOURNAL_KEPT) as u64,
    };
    Dumped {
        text: recorder.dump(reason, job_id, config_hash, plan_hits, plan_misses),
        meta,
        event_rows,
        decisions: decisions.min(DECISIONS_KEPT),
        journal: journal.min(JOURNAL_KEPT),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A dumped bundle parses complete, with the header it was written
    /// with, the event log's last rows byte for byte, and one section
    /// line per kept decision and journal entry. Cutting it at any line boundary before
    /// the end line still parses, as an incomplete prefix; cutting it
    /// anywhere, or changing any one byte, never panics.
    #[test]
    fn dumped_bundles_round_trip_and_damage_never_panics(
        t in trace(),
        setup in (1u16..5, any::<bool>(), 0usize..48),
        (trace_id, tenant, attempt) in (any::<u64>(), any::<u16>(), any::<u32>()),
        (reason, job_id) in (text(), text()),
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        (cut, at, byte) in (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<u8>()),
    ) {
        let context = TraceContext::new(trace_id)
            .with_tenant(tenant)
            .with_attempt(attempt);
        let d = dump(&t, setup, context, (&reason, &job_id), counters);
        let bundle = Bundle::parse(&d.text).expect("a dumped bundle parses");
        prop_assert!(bundle.complete);
        prop_assert_eq!(&bundle.meta, &d.meta);
        prop_assert_eq!(&bundle.event_lines, &d.event_rows);
        prop_assert_eq!(bundle.events.len(), d.event_rows.len());
        prop_assert_eq!(bundle.explains.len(), d.decisions);
        prop_assert_eq!(bundle.journal.len(), d.journal);
        prop_assert!(bundle.perfetto.is_some());

        // Every line boundary before the end line: an incomplete prefix.
        let ends: Vec<usize> = d
            .text
            .match_indices('\n')
            .map(|(i, _)| i + 1)
            .collect();
        let (&end_line, boundaries) = ends.split_last().expect("lines");
        for &boundary in boundaries {
            let prefix = Bundle::parse(&d.text[..boundary]).expect("a line prefix parses");
            prop_assert!(!prefix.complete);
            prop_assert_eq!(&prefix.meta, &d.meta);
            prop_assert!(bundle.event_lines.starts_with(&prefix.event_lines));
        }
        prop_assert_eq!(end_line, d.text.len());

        // Any cut and any single-byte change: a result, not a panic.
        let bytes = d.text.as_bytes();
        let _ = Bundle::parse(&String::from_utf8_lossy(&bytes[..cut.index(bytes.len())]));
        let mut mutated = bytes.to_vec();
        mutated[at.index(bytes.len())] = byte;
        let _ = Bundle::parse(&String::from_utf8_lossy(&mutated));
    }

    /// Arbitrary bytes, and arbitrary lines behind a valid header, come
    /// back as a result.
    #[test]
    fn arbitrary_input_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..400),
        json_ish in prop::collection::vec(0usize..12, 0..200),
    ) {
        let _ = Bundle::parse(&String::from_utf8_lossy(&noise));
        const PIECES: [&str; 12] = [
            "{", "}", "[", "]", "\"bundle_section\"", ":", ",", "\"end\"",
            "\"lines\"", "1", "\n", "\"event\"",
        ];
        let mut header = String::new();
        rispp_telemetry::bundle::write_bundle_header(&mut header, &BundleMeta::default());
        let body: String = json_ish.into_iter().map(|i| PIECES[i]).collect();
        let _ = Bundle::parse(&format!("{header}{body}"));
        let _ = Bundle::parse(&format!("{header}{}", String::from_utf8_lossy(&noise)));
    }
}
