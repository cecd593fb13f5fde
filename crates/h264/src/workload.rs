//! Conversion of encoder runs into execution-engine traces.

use rispp_model::SiId;
use rispp_monitor::HotSpotId;
use rispp_sim::{Burst, Invocation, Trace};

use crate::encoder::{Encoder, EncoderConfig, FrameReport};
use crate::si_library::SiKind;

/// The three computational hot spots of the H.264 encoder (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum HotSpot {
    /// Motion Estimation (SAD, SATD).
    MotionEstimation = 0,
    /// Encoding Engine (MC, (I)DCT, (I)HT, IPred).
    EncodingEngine = 1,
    /// Loop Filter (LF_BS4).
    LoopFilter = 2,
}

impl HotSpot {
    /// All hot spots in per-frame execution order.
    pub const ALL: [HotSpot; 3] = [
        HotSpot::MotionEstimation,
        HotSpot::EncodingEngine,
        HotSpot::LoopFilter,
    ];

    /// The engine-level hot spot id.
    #[must_use]
    pub fn id(self) -> HotSpotId {
        HotSpotId(self as u16)
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HotSpot::MotionEstimation => "Motion Estimation",
            HotSpot::EncodingEngine => "Encoding Engine",
            HotSpot::LoopFilter => "Loop Filter",
        }
    }
}

/// Base-processor cycles spent per SI execution on loop control and
/// operand staging.
pub const SI_OVERHEAD_CYCLES: u32 = 10;

/// Base-processor cycles at each hot-spot entry (control code, parameter
/// blocks, entropy-coding work folded into the EE prologue).
const PROLOGUE_CYCLES: [u64; 3] = [40_000, 90_000, 25_000];

/// Aggregate statistics of a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Encoded frames.
    pub frames: u32,
    /// Macroblocks per frame.
    pub mb_per_frame: u32,
    /// Total executions per SI.
    pub per_si: Vec<(SiKind, u64)>,
    /// Mean luma PSNR of the reconstruction.
    pub mean_psnr_y: f64,
    /// Fraction of intra-coded macroblocks (over inter frames).
    pub intra_mb_fraction: f64,
    /// Mean ME hot-spot SI executions per inter frame (the paper reports
    /// 31,977 SAD+SATD executions for an ME hot spot).
    pub me_executions_per_frame: f64,
    /// Mean estimated coded luma bits per frame (rate sanity check).
    pub mean_kbits_per_frame: f64,
}

/// An encoder run converted into a [`Trace`] plus summary statistics.
#[derive(Debug, Clone)]
pub struct EncoderWorkload {
    trace: Trace,
    summary: WorkloadSummary,
}

impl EncoderWorkload {
    /// Runs the encoder with `config` and converts the result.
    #[must_use]
    pub fn generate(config: &EncoderConfig) -> Self {
        let reports = Encoder::new(*config).encode_sequence();
        EncoderWorkload::from_reports(config, &reports)
    }

    /// The paper's 140-frame CIF benchmark workload. It encodes ~55 K
    /// macroblocks, about 0.3 s in a release build on two CPUs
    /// (DESIGN.md §17) and still far more than one replay of its trace,
    /// so generate it once and reuse it across simulations.
    #[must_use]
    pub fn paper_cif() -> Self {
        EncoderWorkload::generate(&EncoderConfig::paper_cif())
    }

    /// Converts existing frame reports (e.g. from a custom encoder run).
    #[must_use]
    pub fn from_reports(config: &EncoderConfig, reports: &[FrameReport]) -> Self {
        let mb = ((config.width / 16) * (config.height / 16)) as u64;
        // Design-time hints: static per-MB estimates scaled by MB count.
        let me_hints = vec![(SiKind::Sad.id(), 45 * mb), (SiKind::Satd.id(), 25 * mb)];
        let ee_hints = vec![
            (SiKind::Dct.id(), 24 * mb),
            (SiKind::Ht2x2.id(), 2 * mb),
            (SiKind::Ht4x4.id(), mb / 4),
            (SiKind::Mc.id(), mb),
            (SiKind::IPredHdc.id(), mb / 8),
            (SiKind::IPredVdc.id(), mb / 8),
        ];
        let lf_hints = vec![(SiKind::LfBs4.id(), 6 * mb)];

        let mut trace = Trace::default();
        let mut per_si = vec![0u64; SiKind::ALL.len()];
        let mut psnr_sum = 0.0;
        let mut intra = 0u64;
        let mut inter_frames = 0u64;
        let mut me_exec_sum = 0u64;
        let mut bits_sum = 0u64;

        for report in reports {
            psnr_sum += report.psnr_y;
            bits_sum += report.estimated_bits;
            if !report.me_bursts.is_empty() {
                inter_frames += 1;
                me_exec_sum += report.me_executions();
                intra += u64::from(report.intra_mbs);
            }
            // Hot-spot phase: per-MB burst lists plus its design-time hints.
            type Phase<'a> = (&'a HotSpot, &'a Vec<Vec<(SiKind, u32)>>, &'a [(SiId, u64)]);
            let phases: [Phase<'_>; 3] = [
                (&HotSpot::MotionEstimation, &report.me_bursts, &me_hints),
                (&HotSpot::EncodingEngine, &report.ee_bursts, &ee_hints),
                (&HotSpot::LoopFilter, &report.lf_bursts, &lf_hints),
            ];
            for (hot_spot, mb_bursts, hints) in phases {
                let bursts: Vec<Burst> = mb_bursts
                    .iter()
                    .flatten()
                    .filter(|&&(_, n)| n > 0)
                    .map(|&(kind, n)| {
                        per_si[kind.id().index()] += u64::from(n);
                        Burst {
                            si: kind.id(),
                            count: n,
                            overhead: SI_OVERHEAD_CYCLES,
                        }
                    })
                    .collect();
                trace.push(Invocation {
                    hot_spot: hot_spot.id(),
                    prologue_cycles: PROLOGUE_CYCLES[hot_spot.id().index()],
                    bursts,
                    hints: hints.to_vec(),
                });
            }
        }

        let summary = WorkloadSummary {
            frames: reports.len() as u32,
            mb_per_frame: mb as u32,
            per_si: SiKind::ALL
                .iter()
                .map(|&k| (k, per_si[k.id().index()]))
                .collect(),
            mean_psnr_y: if reports.is_empty() {
                0.0
            } else {
                psnr_sum / reports.len() as f64
            },
            intra_mb_fraction: if inter_frames == 0 {
                0.0
            } else {
                intra as f64 / (inter_frames * mb) as f64
            },
            me_executions_per_frame: if inter_frames == 0 {
                0.0
            } else {
                me_exec_sum as f64 / inter_frames as f64
            },
            mean_kbits_per_frame: if reports.is_empty() {
                0.0
            } else {
                bits_sum as f64 / 1_000.0 / reports.len() as f64
            },
        };
        EncoderWorkload { trace, summary }
    }

    /// The execution-engine trace (three hot-spot invocations per frame).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Aggregate workload statistics.
    #[must_use]
    pub fn summary(&self) -> &WorkloadSummary {
        &self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_three_hot_spots_per_frame() {
        let w = EncoderWorkload::generate(&EncoderConfig::tiny(4));
        assert_eq!(w.trace().len(), 12);
        let hs: Vec<u16> = w
            .trace()
            .invocations()
            .iter()
            .map(|i| i.hot_spot.0)
            .collect();
        assert_eq!(&hs[..6], &[0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn summary_counts_match_trace() {
        let w = EncoderWorkload::generate(&EncoderConfig::tiny(3));
        let total: u64 = w.summary().per_si.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, w.trace().total_si_executions());
        assert!(total > 0);
    }

    #[test]
    fn hints_cover_every_executed_si() {
        let w = EncoderWorkload::generate(&EncoderConfig::tiny(2));
        for inv in w.trace().invocations() {
            for b in &inv.bursts {
                assert!(
                    inv.hints.iter().any(|&(si, _)| si == b.si),
                    "burst SI {:?} missing from hints",
                    b.si
                );
            }
        }
    }

    #[test]
    fn summary_reports_quality_and_intra_stats() {
        let w = EncoderWorkload::generate(&EncoderConfig::tiny(4));
        assert!(w.summary().mean_psnr_y > 25.0);
        assert!(w.summary().intra_mb_fraction <= 1.0);
        assert!(w.summary().me_executions_per_frame > 0.0);
        assert!(w.summary().mean_kbits_per_frame > 0.0);
        assert_eq!(w.summary().frames, 4);
        assert_eq!(w.summary().mb_per_frame, 12);
    }

    #[test]
    fn hot_spot_metadata() {
        assert_eq!(HotSpot::MotionEstimation.id().index(), 0);
        assert_eq!(HotSpot::LoopFilter.name(), "Loop Filter");
        assert_eq!(HotSpot::ALL.len(), 3);
    }
}
