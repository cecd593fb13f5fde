//! Cross-crate integration tests: the full pipeline from encoder to
//! execution engine, validating the paper's headline claims on a reduced
//! workload.

use rispp::core::SchedulerKind;
use rispp::h264::{h264_si_library, EncoderConfig, EncoderWorkload, HotSpot, SiKind};
use rispp::sim::{simulate, SimConfig};

fn small_workload() -> EncoderWorkload {
    let mut config = EncoderConfig::paper_cif();
    config.frames = 6;
    EncoderWorkload::generate(&config)
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

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut hash = |bytes: &[u8]| {
        for &byte in bytes {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for inv in workload.trace().invocations() {
        for burst in &inv.bursts {
            let si = u16::try_from(burst.si.index()).expect("nine SIs");
            hash(&inv.hot_spot.0.to_le_bytes());
            hash(&si.to_le_bytes());
            hash(&burst.count.to_le_bytes());
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
    // fraction of a percent; allow 1% (the 140-frame benchmark run shows
    // HEF strictly fastest, see EXPERIMENTS.md).
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
        let molen = simulate(&library, workload.trace(), &SimConfig::molen(containers))
            .total_cycles;
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
