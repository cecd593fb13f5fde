//! Cross-crate integration tests: the full pipeline from encoder to
//! execution engine, validating the paper's headline claims on a reduced
//! workload.

use rispp::core::SchedulerKind;
use rispp::h264::{h264_si_library, EncoderConfig, EncoderWorkload, HotSpot, SiKind};
use rispp::sim::{
    simulate, simulate_multi, simulate_observed, simulate_observed_planned, FlightRecorder,
    MetricsObserver, PerfettoTraceObserver, SimConfig, SimEvent, SimObserver, SystemKind,
    TenancyConfig, TenantArbitration, TenantPolicy, Trace, TraceContext,
};

fn small_workload() -> EncoderWorkload {
    let mut config = EncoderConfig::paper_cif();
    config.frames = 6;
    EncoderWorkload::generate(&config)
}

/// FNV-1a's offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the FNV-1a digest `digest` over `bytes`.
fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |digest, &byte| {
        (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn small_workload_trace_is_pinned() {
    // The 6-frame CIF prefix as the per-sample reference encoder produced
    // it: SI totals, mean luma PSNR bits and an FNV-1a digest of every
    // (hot spot, SI, count) burst in trace order. Any change to the
    // encoder's arithmetic or burst order moves one of them.
    let workload = small_workload();
    let summary = workload.summary();
    assert_eq!(
        summary.per_si,
        vec![
            (SiKind::Sad, 51_575),
            (SiKind::Satd, 49_500),
            (SiKind::Dct, 57_024),
            (SiKind::Ht2x2, 4_752),
            (SiKind::Ht4x4, 396),
            (SiKind::Mc, 1_980),
            (SiKind::IPredHdc, 178),
            (SiKind::IPredVdc, 218),
            (SiKind::LfBs4, 17_582),
        ]
    );
    assert_eq!(workload.trace().total_si_executions(), 183_205);
    assert_eq!(summary.mean_psnr_y.to_bits(), 0x4044_0a0c_ede8_5b79);

    let mut digest = FNV_OFFSET;
    for inv in workload.trace().invocations() {
        for burst in &inv.bursts {
            let si = u16::try_from(burst.si.index()).expect("nine SIs");
            digest = fnv1a(digest, &inv.hot_spot.0.to_le_bytes());
            digest = fnv1a(digest, &si.to_le_bytes());
            digest = fnv1a(digest, &burst.count.to_le_bytes());
        }
    }
    assert_eq!(digest, 0x5209_d1fa_c14c_04e6);
}

#[test]
fn rispp_is_much_faster_than_pure_software() {
    let library = h264_si_library();
    let workload = small_workload();
    let software = simulate(&library, workload.trace(), &SimConfig::software_only());
    let hef = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(15, SchedulerKind::Hef),
    );
    let speedup = software.total_cycles as f64 / hef.total_cycles as f64;
    // The paper's 0-AC point is 7,403M vs ~300M accelerated (~25x); even
    // the 6-frame prefix with cold-start overhead must exceed 5x.
    assert!(speedup > 5.0, "speedup only {speedup:.2}x");
}

#[test]
fn hef_is_never_slower_than_the_other_schedulers() {
    // The paper: "it is noteworthy that it never performed slower than
    // Molen or any of the other schedulers". HEF is a greedy heuristic, so
    // on a short 6-frame prefix another scheduler can edge it out by a
    // fraction of a percent; allow 1% (on the 140-frame run HEF is fastest
    // at 19 of the 20 AC counts, and ASF is 0.47% faster at 11 ACs, see
    // EXPERIMENTS.md).
    let library = h264_si_library();
    let workload = small_workload();
    for containers in [6u16, 10, 15, 20, 24] {
        let hef = simulate(
            &library,
            workload.trace(),
            &SimConfig::rispp(containers, SchedulerKind::Hef),
        )
        .total_cycles;
        for kind in SchedulerKind::ALL {
            let other = simulate(
                &library,
                workload.trace(),
                &SimConfig::rispp(containers, kind),
            )
            .total_cycles;
            assert!(
                hef as f64 <= other as f64 * 1.01,
                "HEF ({hef}) slower than {kind} ({other}) at {containers} ACs"
            );
        }
    }
}

#[test]
fn hef_beats_the_molen_baseline_everywhere() {
    let library = h264_si_library();
    let workload = small_workload();
    for containers in [8u16, 16, 24] {
        let hef = simulate(
            &library,
            workload.trace(),
            &SimConfig::rispp(containers, SchedulerKind::Hef),
        )
        .total_cycles;
        let molen =
            simulate(&library, workload.trace(), &SimConfig::molen(containers)).total_cycles;
        assert!(
            hef < molen,
            "HEF ({hef}) not faster than Molen ({molen}) at {containers} ACs"
        );
    }
}

#[test]
fn more_atom_containers_reduce_execution_time() {
    let library = h264_si_library();
    let workload = small_workload();
    let few = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(5, SchedulerKind::Hef),
    )
    .total_cycles;
    let many = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(24, SchedulerKind::Hef),
    )
    .total_cycles;
    assert!(
        (many as f64) < few as f64 * 0.75,
        "24 ACs ({many}) should be well below 5 ACs ({few})"
    );
}

#[test]
fn execution_counts_are_identical_across_systems() {
    // Every system must execute exactly the trace, nothing more or less.
    let library = h264_si_library();
    let workload = small_workload();
    let want = workload.trace().total_si_executions();
    let configs = [
        SimConfig::software_only(),
        SimConfig::molen(12),
        SimConfig::rispp(12, SchedulerKind::Hef),
        SimConfig::rispp(12, SchedulerKind::Fsfr),
        SimConfig::rispp(12, SchedulerKind::Hef).with_oracle(true),
    ];
    for config in configs {
        let stats = simulate(&library, workload.trace(), &config);
        assert_eq!(stats.total_executions(), want, "{}", stats.system);
    }
}

#[test]
fn oracle_forecast_is_at_least_as_good_as_online_monitoring() {
    let library = h264_si_library();
    let workload = small_workload();
    let online = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(15, SchedulerKind::Hef),
    )
    .total_cycles;
    let oracle = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(15, SchedulerKind::Hef).with_oracle(true),
    )
    .total_cycles;
    // Perfect future knowledge is the paper's optimal-schedule bound; the
    // online monitor pays cold-start mispredictions on this short prefix
    // but must stay within 25% and never beat the oracle by more than
    // noise.
    assert!(oracle as f64 <= online as f64 * 1.01);
    assert!((online as f64) < oracle as f64 * 1.25);
}

#[test]
fn faster_reconfiguration_port_reduces_execution_time() {
    let library = h264_si_library();
    let workload = small_workload();
    let slow = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(15, SchedulerKind::Hef).with_port_bandwidth(33_000_000),
    )
    .total_cycles;
    let fast = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(15, SchedulerKind::Hef).with_port_bandwidth(264_000_000),
    )
    .total_cycles;
    assert!(fast < slow);
}

#[test]
fn atom_load_cycles_are_pinned() {
    // Cycles to load each Atom of the three universes at the prototype
    // port and at the E10 ICAP bandwidths (33, 66, 132, 264, 800 MB/s):
    // the transfer time in cycles of the 100 MHz clock, rounded up. The
    // f64 rounding of each step shows: scaling seconds by 1e8 in one step
    // instead of via microseconds loads CollapseAdd at 800 MB/s in 8,001.
    use rispp::apps::audio::audio_si_library;
    use rispp::apps::crypto::crypto_si_library;
    use rispp::fabric::ReconfigPortConfig;

    /// Atom name, bitstream bytes, and cycles at each port below.
    type Pin = (&'static str, u32, [u64; 6]);
    #[rustfmt::skip]
    const PINNED: [(&str, &[Pin]); 3] = [
        ("h264", &[
            ("SAV", 58_000, [83_808, 175_758, 87_879, 43_940, 21_970, 7_250]),
            ("QSub", 52_000, [75_138, 157_576, 78_788, 39_394, 19_697, 6_500]),
            ("HTrans", 66_000, [95_368, 200_000, 100_000, 50_000, 25_000, 8_250]),
            ("Repack", 48_000, [69_359, 145_455, 72_728, 36_364, 18_182, 6_000]),
            ("ITrans", 70_000, [101_148, 212_122, 106_061, 53_031, 26_516, 8_750]),
            ("QuantRescale", 54_000, [78_028, 163_637, 81_819, 40_910, 20_455, 6_750]),
            ("PointFilter", 82_000, [118_487, 248_485, 124_243, 62_122, 31_061, 10_250]),
            ("BytePack", 56_000, [80_918, 169_697, 84_849, 42_425, 21_213, 7_000]),
            ("Clip3", 46_000, [66_469, 139_394, 69_697, 34_849, 17_425, 5_750]),
            ("CollapseAdd", 64_000, [92_478, 193_940, 96_970, 48_485, 24_243, 8_000]),
            ("CondSub", 69_368, [100_235, 210_207, 105_104, 52_552, 26_276, 8_671]),
        ]),
        ("aes", &[
            ("SubBytes", 62_000, [89_588, 187_879, 93_940, 46_970, 23_485, 7_750]),
            ("MixColumns", 70_000, [101_148, 212_122, 106_061, 53_031, 26_516, 8_750]),
            ("XorKey", 44_000, [63_579, 133_334, 66_667, 33_334, 16_667, 5_500]),
            ("SboxMul", 58_000, [83_808, 175_758, 87_879, 43_940, 21_970, 7_250]),
            ("CrcUnit", 52_000, [75_138, 157_576, 78_788, 39_394, 19_697, 6_500]),
            ("FieldExtract", 40_000, [57_799, 121_213, 60_607, 30_304, 15_152, 5_000]),
        ]),
        ("filterbank", &[
            ("MacUnit", 56_000, [80_918, 169_697, 84_849, 42_425, 21_213, 7_000]),
            ("DelayLine", 48_000, [69_359, 145_455, 72_728, 36_364, 18_182, 6_000]),
            ("CoeffBank", 52_000, [75_138, 157_576, 78_788, 39_394, 19_697, 6_500]),
            ("Repacker", 42_000, [60_689, 127_273, 63_637, 31_819, 15_910, 5_250]),
        ]),
    ];
    let ports = [
        ReconfigPortConfig::prototype(),
        ReconfigPortConfig::with_bandwidth(33_000_000),
        ReconfigPortConfig::with_bandwidth(66_000_000),
        ReconfigPortConfig::with_bandwidth(132_000_000),
        ReconfigPortConfig::with_bandwidth(264_000_000),
        ReconfigPortConfig::with_bandwidth(800_000_000),
    ];
    let libraries = [h264_si_library(), crypto_si_library(), audio_si_library()];
    for ((name, pinned), library) in PINNED.iter().zip(&libraries) {
        let atoms: Vec<_> = library.universe().iter().map(|(_, info)| info).collect();
        assert_eq!(atoms.len(), pinned.len(), "{name}: atom count");
        for (info, &(atom, bytes, cycles)) in atoms.iter().zip(pinned.iter()) {
            assert_eq!(
                (info.name.as_str(), info.bitstream_bytes),
                (atom, bytes),
                "{name}"
            );
            let measured = ports.map(|port| port.load_cycles(bytes).expect("positive bandwidth"));
            assert_eq!(measured, cycles, "{name} {atom}");
        }
    }
}

#[test]
fn plan_cache_is_bit_identical_to_planning_from_scratch() {
    // The plan cache is pure memoisation: every scheduler must produce the
    // same statistics with it on (the default) as with it off. On the
    // 6-frame trace the online forecast never repeats a demand vector, so
    // that run only checks that recording plans changes nothing; the
    // periodic trace (one inter frame's hot spots six times, last-value
    // forecast) repeats its plans, so there the cached run replays them.
    use rispp::monitor::ForecastPolicy;

    let library = h264_si_library();
    let workload = small_workload();
    let frame = &workload.trace().invocations()[3..6];
    let periodic: Trace = frame
        .iter()
        .cycle()
        .take(6 * frame.len())
        .cloned()
        .collect();
    for kind in SchedulerKind::ALL {
        let config = SimConfig::rispp(8, kind);
        let cached = simulate(&library, workload.trace(), &config);
        let planned = simulate(&library, workload.trace(), &config.with_plan_cache(false));
        assert_eq!(cached, planned, "{kind}: the plan cache changed the result");

        let config = config.with_forecast(ForecastPolicy::LastValue);
        let (cached, plan) = simulate_observed_planned(&library, &periodic, &config, None, &mut []);
        let planned = simulate(&library, &periodic, &config.with_plan_cache(false));
        assert_eq!(
            cached, planned,
            "{kind}: the plan cache changed the periodic result"
        );
        assert!(
            plan.hits > 0,
            "{kind}: the periodic run never hit: {plan:?}"
        );
    }
}

#[test]
fn plan_cache_hits_in_the_steady_state() {
    // One pinned-profile hot spot (the oracle path, so no evolving forecast
    // perturbs the plan key) re-entered with a dwell long enough for every
    // scheduled Atom load to complete: after the first entries the fabric
    // state cycles exactly, so each further entry must replay the memoised
    // plan. 441 entries hit 439 times; the floor is 70%.
    use rispp::core::{FabricArbiter, PlanCacheHandle};

    let library = h264_si_library();
    let mb = 396u64; // CIF macroblocks per frame
    let demands = [
        (SiKind::Sad.id(), 45 * mb),
        (SiKind::Satd.id(), 25 * mb),
        (SiKind::Dct.id(), 24 * mb),
        (SiKind::Ht2x2.id(), 2 * mb),
        (SiKind::Ht4x4.id(), mb / 4),
        (SiKind::Mc.id(), mb),
        (SiKind::IPredHdc.id(), mb / 8),
        (SiKind::IPredVdc.id(), mb / 8),
        (SiKind::LfBs4.id(), 6 * mb),
    ];
    let mut arbiter = FabricArbiter::builder(&library)
        .containers(20)
        .plan_cache(PlanCacheHandle::default())
        .build();
    let hot_spot = HotSpot::MotionEstimation.id();
    let mut now = 0u64;
    for _ in 0..441 {
        arbiter
            .enter_hot_spot_with_profile(0, hot_spot, &demands, now)
            .expect("valid profile");
        now += 10_000_000;
        arbiter.exit_hot_spot(0, now);
        now += 100;
    }
    let stats = arbiter.plan_cache_stats();
    let lookups = stats.hits + stats.misses;
    assert!(
        lookups > 0 && stats.hits * 10 >= lookups * 7,
        "steady-state hit rate below 70%: {stats:?}"
    );
}

#[test]
fn a_shared_cache_smaller_than_its_working_set_keeps_hitting() {
    // The 6-frame trace under all four schedulers at 5..=20 ACs, run
    // twice in order through one shared cache bounded at 70 % of the
    // W = 1,152 distinct plans the job list needs (counted with an
    // unbounded cache). Pass 2 re-derives pass 1's keys in the same order:
    // a cyclic working set 1.43 times the bound. Evicting one entry per
    // new key keeps 600 of pass 2's 1,152 lookups hitting (52 %; the floor
    // is 40 %). Every run equals planning from scratch.
    use rispp::core::{PlanCache, PlanCacheHandle, PlanCacheStats};
    use std::sync::Arc;

    let library = h264_si_library();
    let workload = small_workload();
    let jobs: Vec<SimConfig> = SchedulerKind::ALL
        .into_iter()
        .flat_map(|kind| (5u16..=20).map(move |acs| SimConfig::rispp(acs, kind)))
        .collect();
    let planned: Vec<_> = jobs
        .iter()
        .map(|job| simulate(&library, workload.trace(), &job.with_plan_cache(false)))
        .collect();
    let run_jobs = |cache: &Arc<PlanCache>| {
        let handle = PlanCacheHandle::new(Arc::clone(cache));
        let mut total = PlanCacheStats::default();
        for (job, planned) in jobs.iter().zip(&planned) {
            let (stats, plan) =
                simulate_observed_planned(&library, workload.trace(), job, Some(&handle), &mut []);
            assert_eq!(
                &stats, planned,
                "{job:?}: the shared cache changed the result"
            );
            total.merge(&plan);
        }
        total
    };

    let unbounded = Arc::new(PlanCache::new(usize::MAX));
    run_jobs(&unbounded);
    let working_set = unbounded.len();
    let capacity = working_set * 7 / 10;
    let bounded = Arc::new(PlanCache::new(capacity));
    let first = run_jobs(&bounded);
    let second = run_jobs(&bounded);
    assert_eq!(first.lookups(), second.lookups());
    assert!(bounded.len() <= bounded.capacity());
    assert!(
        second.hits * 10 >= second.lookups() * 4,
        "pass 2 below a 40 % hit rate: {second:?} (W = {working_set}, bound {capacity})"
    );
}

#[test]
fn two_tenant_results_are_pinned() {
    // Exact results of the arbitrated multi-tenant path: the 6-frame trace
    // against a copy rotated by half its invocations, HEF at 8 ACs.
    let library = h264_si_library();
    let workload = small_workload();
    let inv = workload.trace().invocations();
    let half = inv.len() / 2;
    let rotated: Trace = inv[half..].iter().chain(&inv[..half]).cloned().collect();
    let traces = [workload.trace().clone(), rotated];
    // (policy, arbitration, aggregate, atoms shared, contested, per tenant)
    let pins = [
        (
            TenantPolicy::Shared,
            TenantArbitration::RoundRobin,
            110_339_290,
            132,
            28,
            [60_577_198, 49_762_092],
        ),
        (
            TenantPolicy::Shared,
            TenantArbitration::CycleInterleaved,
            114_477_178,
            102,
            81,
            [57_852_168, 56_625_010],
        ),
        (
            TenantPolicy::Partitioned,
            TenantArbitration::RoundRobin,
            189_554_000,
            0,
            0,
            [94_777_000, 94_777_000],
        ),
    ];
    for (policy, arbitration, aggregate, shared, contested, per_tenant) in pins {
        let tenancy = TenancyConfig {
            count: 2,
            policy,
            arbitration,
        };
        let config = SimConfig::rispp(8, SchedulerKind::Hef).with_tenants(tenancy);
        let run = simulate_multi(&library, &traces, &config);
        let cycles: Vec<u64> = run.per_tenant.iter().map(|s| s.total_cycles).collect();
        assert_eq!(
            run.aggregate_cycles, aggregate,
            "{policy:?}/{arbitration:?}"
        );
        assert_eq!(run.atoms_shared, shared, "{policy:?}/{arbitration:?}");
        assert_eq!(
            run.evictions_contested, contested,
            "{policy:?}/{arbitration:?}"
        );
        assert_eq!(cycles, per_tenant, "{policy:?}/{arbitration:?}");
    }
}

#[test]
fn telemetry_exports_are_pinned() {
    // Every byte the exporters write for one traced 6-frame run, HEF at 8
    // ACs with explain and journal on: the metrics snapshot as JSON and as
    // Prometheus text, the Perfetto trace and a flight bundle, each pinned
    // by length and FNV-1a digest. Making telemetry cheaper must not move
    // any of them. (The Prometheus pin is that of labelled histograms
    // rendered as `family_bucket{si="N",...,le="..."}`, and both metrics
    // pins carry the trace context's tenant as `trace_tenant`.)
    let library = h264_si_library();
    let workload = small_workload();
    let config = SimConfig::rispp(8, SchedulerKind::Hef)
        .with_explain(true)
        .with_journal(true)
        .with_trace(TraceContext::new(7));
    let mut metrics = MetricsObserver::new();
    let mut perfetto = PerfettoTraceObserver::new();
    let mut recorder = FlightRecorder::new();
    let (_, plan) = simulate_observed_planned(
        &library,
        workload.trace(),
        &config,
        None,
        &mut [&mut metrics, &mut perfetto, &mut recorder],
    );
    metrics.record_plan_cache(&plan);
    let snapshot = metrics.into_snapshot();
    let exports = [
        ("metrics JSON", snapshot.to_json()),
        ("Prometheus text", snapshot.to_prometheus_text()),
        ("Perfetto JSON", perfetto.into_json()),
        (
            "flight bundle",
            recorder.dump("pinned", "job-7", 7, plan.hits, plan.misses),
        ),
    ];
    let pins = [
        (10_770, 0x93fb_08c7_d505_4f54),
        (17_690, 0x0294_6a1b_40a0_4d90),
        (1_928_286, 0x648c_5ffb_459e_8013),
        (55_341, 0xa090_9c26_03e4_3d46),
    ];
    for ((what, text), pin) in exports.iter().zip(pins) {
        assert_eq!(
            (text.len(), fnv1a(FNV_OFFSET, text.as_bytes())),
            pin,
            "{what}"
        );
    }
}

#[test]
fn workload_structure_matches_the_paper() {
    let workload = small_workload();
    // Three hot spots per frame in ME -> EE -> LF order.
    assert_eq!(workload.trace().len(), 6 * 3);
    let first: Vec<u16> = workload
        .trace()
        .invocations()
        .iter()
        .take(3)
        .map(|i| i.hot_spot.0)
        .collect();
    assert_eq!(
        first,
        vec![
            HotSpot::MotionEstimation.id().0,
            HotSpot::EncodingEngine.id().0,
            HotSpot::LoopFilter.id().0
        ]
    );
    // ME executions per inter frame in the right ballpark (paper 31,977;
    // our encoder produces the same order of magnitude).
    let me = workload.summary().me_executions_per_frame;
    assert!(
        (8_000.0..60_000.0).contains(&me),
        "ME executions/frame {me}"
    );
}

#[test]
fn library_is_the_paper_inventory() {
    let library = h264_si_library();
    assert_eq!(library.len(), 9);
    let satd = library.si(SiKind::Satd.id()).expect("nine SIs");
    assert_eq!(satd.molecule_count(), 20);
    assert_eq!(satd.atom_type_count(), 4);
    assert_eq!(library.universe().average_bitstream_bytes(), 60_488);
}

#[test]
fn totals_replay_equals_segment_replay() {
    // `simulate` attaches only a detail-off RunStats, which accepts per-SI
    // totals, so the engine replays event-free stretches as totals, whole
    // index blocks at a time. One more observer that reads segments puts
    // the same run on the segment path; both must agree for every system.
    struct ReadsSegments;
    impl SimObserver for ReadsSegments {
        fn on_event(&mut self, _event: &SimEvent) {}
    }
    let library = h264_si_library();
    let workload = small_workload();
    let trace = workload.trace();
    let mut systems: Vec<SystemKind> = SchedulerKind::ALL
        .into_iter()
        .map(SystemKind::Rispp)
        .collect();
    systems.extend([
        SystemKind::Molen,
        SystemKind::OneChip,
        SystemKind::SoftwareOnly,
    ]);
    for system in systems {
        let config = SimConfig {
            system,
            ..SimConfig::rispp(10, SchedulerKind::Hef)
        };
        let totals = simulate(&library, trace, &config);
        let segments = simulate_observed(&library, trace, &config, &mut [&mut ReadsSegments]);
        assert_eq!(totals, segments, "{}", system.label());
    }

    // The block index is built on first replay and dropped by `push`: a
    // trace replayed, extended and replayed again equals a fresh trace of
    // the same invocations.
    let invocations = trace.invocations();
    let (last, first) = invocations.split_last().expect("six frames");
    let config = SimConfig::rispp(10, SchedulerKind::Hef);
    let mut grown = Trace::from_invocations(first.to_vec());
    let shorter = simulate(&library, &grown, &config);
    grown.push(last.clone());
    let fresh = Trace::from_invocations(invocations.to_vec());
    let replayed = simulate(&library, &grown, &config);
    assert!(replayed.total_cycles > shorter.total_cycles);
    assert_eq!(replayed, simulate(&library, &fresh, &config));
}

#[test]
fn detailed_stats_are_consistent_with_totals() {
    let library = h264_si_library();
    let workload = small_workload();
    let stats = simulate(
        &library,
        workload.trace(),
        &SimConfig::rispp(10, SchedulerKind::Hef).with_detail(true),
    );
    let bucket_sum: u64 = stats.combined_buckets().iter().map(|&c| u64::from(c)).sum();
    assert_eq!(bucket_sum, stats.total_executions());
    // Latency timelines must be monotone non-increasing within a hot spot
    // visit; across visits they can rise again (evictions), so just check
    // they exist for the busy SIs and start at software latency.
    let satd = SiKind::Satd.id();
    let timeline = &stats.latency_timeline[satd.index()];
    assert!(!timeline.is_empty());
    assert_eq!(
        timeline[0].latency,
        library.si(satd).expect("satd").software_latency()
    );
}

#[test]
fn the_concept_generalises_beyond_video() {
    // The paper: "the concept is by no means limited to" the H.264
    // encoder. Run the AES gateway and the audio filterbank through the
    // unmodified run-time system.
    use rispp::apps::audio::{audio_si_library, generate_filterbank_workload, FilterbankConfig};
    use rispp::apps::crypto::{crypto_si_library, generate_gateway_workload, GatewayConfig};

    let gateway_lib = crypto_si_library();
    let (gateway_trace, _) = generate_gateway_workload(&GatewayConfig::tiny());
    let sw = simulate(&gateway_lib, &gateway_trace, &SimConfig::software_only());
    let hef = simulate(
        &gateway_lib,
        &gateway_trace,
        &SimConfig::rispp(8, SchedulerKind::Hef),
    );
    assert!(hef.total_cycles < sw.total_cycles);

    let audio_lib = audio_si_library();
    let (audio_trace, _) = generate_filterbank_workload(&FilterbankConfig::tiny());
    let sw = simulate(&audio_lib, &audio_trace, &SimConfig::software_only());
    let hef = simulate(
        &audio_lib,
        &audio_trace,
        &SimConfig::rispp(5, SchedulerKind::Hef),
    );
    assert!(hef.total_cycles < sw.total_cycles);
}

#[test]
fn hot_spot_detector_recovers_the_encoder_phases() {
    // Feed the detector the raw SI stream of one frame's trace and check
    // it finds the ME -> EE -> LF migration without being told.
    use rispp::monitor::HotSpotDetector;

    let workload = small_workload();
    let mut detector = HotSpotDetector::new(200_000, 1);
    let mut now = 0u64;
    for inv in workload.trace().invocations().iter().skip(3).take(3) {
        now += inv.prologue_cycles;
        for b in &inv.bursts {
            for _ in 0..b.count.min(200) {
                detector.observe(b.si, now);
                now += 1_000; // coarse pacing is enough for the signature
            }
        }
    }
    let transitions = detector.transitions();
    assert!(
        transitions.len() >= 3,
        "expected ME/EE/LF phases, got {transitions:?}"
    );
    // The first phase is ME: SAD and/or SATD dominate.
    let me = &transitions[0].signature;
    assert!(me.contains(&SiKind::Sad.id()) || me.contains(&SiKind::Satd.id()));
}
