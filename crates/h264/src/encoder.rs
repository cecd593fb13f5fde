//! The macroblock encoding pipeline: ME → mode decision → transform /
//! quantisation → reconstruction → deblocking, with Special Instruction
//! accounting per hot spot.
//!
//! The encoder actually computes every kernel on real pixels, so the SI
//! execution counts it reports are *measured*, content-dependent values —
//! the property the RISPP monitor and scheduler react to.

use crate::frame::{Frame, MB_SIZE};
use crate::kernels::dct::{forward_quantised, reconstruct_residual};
use crate::kernels::deblock::{filter_horizontal_edge_bs4, filter_vertical_edge_bs4, Thresholds};
use crate::kernels::entropy::estimate_block_bits;
use crate::kernels::hadamard::{forward_ht2x2, forward_ht4x4, inverse_ht2x2, inverse_ht4x4};
use crate::kernels::intra::{predict_dc_16x16, predict_h_16x16, predict_v_16x16, Neighbours};
use crate::kernels::mc::InterpolatedRef;
use crate::kernels::sad::sad_block;
use crate::me::{HelperClaim, MotionEstimator, MotionVector};
use crate::si_library::SiKind;
use crate::video::SyntheticVideo;

/// Encoder parameters.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    /// Luma width (multiple of 16).
    pub width: usize,
    /// Luma height (multiple of 16).
    pub height: usize,
    /// Number of frames to encode.
    pub frames: u32,
    /// Synthetic-video seed.
    pub seed: u64,
    /// Quantisation parameter (0–51).
    pub qp: u8,
    /// Lagrangian-style bias added to intra cost to prefer inter coding.
    pub intra_bias: u32,
    /// Motion estimator settings.
    pub me: MotionEstimator,
}

impl EncoderConfig {
    /// The paper's benchmark: 140 CIF (352×288) frames.
    #[must_use]
    pub fn paper_cif() -> Self {
        EncoderConfig {
            width: 352,
            height: 288,
            frames: 140,
            seed: 2008,
            qp: 28,
            intra_bias: 150,
            me: MotionEstimator::default(),
        }
    }

    /// A tiny 64×48 configuration for fast tests.
    #[must_use]
    pub fn tiny(frames: u32) -> Self {
        EncoderConfig {
            width: 64,
            height: 48,
            frames,
            seed: 7,
            qp: 28,
            intra_bias: 600,
            me: MotionEstimator::default(),
        }
    }
}

/// Coding mode chosen for a macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbMode {
    /// Motion-compensated from the previous reconstructed frame.
    Inter,
    /// Intra, horizontal/DC prediction (`IPred HDC` SI).
    IntraHdc,
    /// Intra, vertical/DC prediction (`IPred VDC` SI).
    IntraVdc,
}

/// Per-frame encoding outcome: the SI executions of each hot spot, broken
/// down per macroblock (so the trace keeps the per-MB interleaving), plus
/// quality metrics.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// Frame index.
    pub index: u32,
    /// ME hot spot: per MB, `(si, executions)` bursts in program order.
    pub me_bursts: Vec<Vec<(SiKind, u32)>>,
    /// EE hot spot: per MB bursts.
    pub ee_bursts: Vec<Vec<(SiKind, u32)>>,
    /// LF hot spot: per MB bursts.
    pub lf_bursts: Vec<Vec<(SiKind, u32)>>,
    /// Number of intra-coded macroblocks.
    pub intra_mbs: u32,
    /// Luma PSNR of the reconstructed frame against the source.
    pub psnr_y: f64,
    /// CAVLC-flavoured estimate of the coded luma residual bits.
    pub estimated_bits: u64,
}

impl FrameReport {
    /// Total executions of `si` in this frame, over all hot spots.
    #[must_use]
    pub fn executions(&self, si: SiKind) -> u64 {
        [&self.me_bursts, &self.ee_bursts, &self.lf_bursts]
            .iter()
            .flat_map(|phase| phase.iter().flatten())
            .filter(|&&(kind, _)| kind == si)
            .map(|&(_, n)| u64::from(n))
            .sum()
    }

    /// Total SI executions of the ME hot spot (Figure 2 reports ~32 K per
    /// CIF frame).
    #[must_use]
    pub fn me_executions(&self) -> u64 {
        self.me_bursts
            .iter()
            .flatten()
            .map(|&(_, n)| u64::from(n))
            .sum()
    }
}

/// The H.264 encoder over synthetic video.
#[derive(Debug)]
pub struct Encoder {
    config: EncoderConfig,
    video: SyntheticVideo,
    /// The previous reconstruction's luma, interpolated once per frame
    /// (`None` before the first frame).
    reference: Option<InterpolatedRef>,
    mv_predictors: Vec<MotionVector>,
}

impl Encoder {
    /// Creates an encoder for the given configuration.
    #[must_use]
    pub fn new(config: EncoderConfig) -> Self {
        let mbs = (config.width / MB_SIZE) * (config.height / MB_SIZE);
        Encoder {
            config,
            video: SyntheticVideo::new(config.width, config.height, config.seed),
            reference: None,
            mv_predictors: vec![MotionVector::default(); mbs],
        }
    }

    /// The encoder configuration.
    #[must_use]
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Encodes the next frame, returning its report, and keeps the
    /// reconstructed frame as the reference for the next one. Motion
    /// estimation searches macroblock rows on this thread and on helper
    /// threads drawn from a process-wide budget of one fewer than the
    /// available CPUs; the report does not depend on how many it gets.
    pub fn encode_next_frame(&mut self) -> FrameReport {
        self.encode_frame(None)
    }

    /// [`Self::encode_next_frame`], searching with exactly `helpers`
    /// helper threads outside the budget, or with what the budget grants
    /// when `None`.
    pub(crate) fn encode_frame(&mut self, helpers: Option<usize>) -> FrameReport {
        let source = self.video.next_frame();
        let index = self.video.frame_index() - 1;
        let mb_cols = source.mb_cols();
        let mb_rows = source.mb_rows();
        let mut recon = Frame::new(source.width(), source.height());
        let mut modes = vec![MbMode::IntraVdc; mb_cols * mb_rows];

        let mut me_bursts = Vec::with_capacity(mb_cols * mb_rows);
        let mut ee_bursts = Vec::with_capacity(mb_cols * mb_rows);
        let mut lf_bursts = Vec::with_capacity(mb_cols * mb_rows);
        let mut intra_mbs = 0u32;
        let mut estimated_bits = 0u64;

        // --- Hot spot 1: Motion Estimation ------------------------------
        let mut searches = Vec::new();
        if let Some(reference) = &self.reference {
            // A row per thread at most; a count the caller sets bypasses
            // the budget. The claim is returned as soon as the search ends.
            let claim = match helpers {
                Some(_) => HelperClaim::up_to(0),
                None => HelperClaim::up_to(mb_rows.saturating_sub(1)),
            };
            searches = self.config.me.search_frame(
                &source.y,
                reference,
                &self.mv_predictors,
                helpers.unwrap_or(claim.count()),
            );
            drop(claim);
            // Predictors change only now, after every search read its own.
            for (predictor, out) in self.mv_predictors.iter_mut().zip(&searches) {
                me_bursts.push(vec![
                    (SiKind::Sad, out.sad_count),
                    (SiKind::Satd, out.satd_count),
                ]);
                *predictor = out.mv;
            }
        }

        // --- Hot spot 2: Encoding Engine ---------------------------------
        let mut src_block = [0u8; 256];
        let mut pred = [0u8; 256];
        for mb_y in 0..mb_rows {
            for mb_x in 0..mb_cols {
                let mb = mb_y * mb_cols + mb_x;
                let x = mb_x * MB_SIZE;
                let y = mb_y * MB_SIZE;
                source
                    .y
                    .read_block(x as isize, y as isize, MB_SIZE, &mut src_block);

                let neighbours = Neighbours {
                    above: mb_y > 0,
                    left: mb_x > 0,
                };
                // Candidate intra predictions (from the reconstruction in
                // progress, as a real encoder does).
                let mut pred_h = [0u8; 256];
                let mut pred_v = [0u8; 256];
                predict_h_16x16(&recon.y, x, y, neighbours, &mut pred_h);
                predict_v_16x16(&recon.y, x, y, neighbours, &mut pred_v);
                let dc = predict_dc_16x16(&recon.y, x, y, neighbours);
                let cost_h = sad_block(&src_block, &pred_h, MB_SIZE);
                let cost_v = sad_block(&src_block, &pred_v, MB_SIZE);
                let pred_dc = [dc; 256];
                let cost_dc = sad_block(&src_block, &pred_dc, MB_SIZE);
                let (intra_mode, intra_pred, intra_cost) = if cost_h <= cost_v.min(cost_dc) {
                    (MbMode::IntraHdc, pred_h, cost_h)
                } else if cost_v <= cost_dc {
                    (MbMode::IntraVdc, pred_v, cost_v)
                } else {
                    // DC belongs to both SI groups; attribute to VDC.
                    (MbMode::IntraVdc, pred_dc, cost_dc)
                };

                // Inter candidate (when a reference exists).
                let mut bursts: Vec<(SiKind, u32)> = Vec::with_capacity(5);
                let mode = match (&self.reference, searches.get(mb)) {
                    (Some(reference), Some(sr)) => {
                        reference.compensate_16x16(x, y, sr.mv.x4, sr.mv.y4, &mut pred);
                        let inter_cost = sad_block(&src_block, &pred, MB_SIZE);
                        if intra_cost + self.config.intra_bias < inter_cost {
                            pred = intra_pred;
                            intra_mode
                        } else {
                            MbMode::Inter
                        }
                    }
                    _ => {
                        pred = intra_pred;
                        intra_mode
                    }
                };
                modes[mb] = mode;
                match mode {
                    MbMode::Inter => bursts.push((SiKind::Mc, 1)),
                    MbMode::IntraHdc => {
                        intra_mbs += 1;
                        bursts.push((SiKind::IPredHdc, 1));
                    }
                    MbMode::IntraVdc => {
                        intra_mbs += 1;
                        bursts.push((SiKind::IPredVdc, 1));
                    }
                }

                // Residual coding: 16 luma 4×4 blocks + 8 chroma 4×4
                // blocks = 24 (I)DCT SI executions.
                let mut recon_block = [0u8; 256];
                let mut luma_dc = [0i32; 16];
                for by in 0..4 {
                    for bx in 0..4 {
                        let mut residual = [0i32; 16];
                        for r in 0..4 {
                            for c in 0..4 {
                                let i = (4 * by + r) * 16 + (4 * bx + c);
                                residual[4 * r + c] = i32::from(src_block[i]) - i32::from(pred[i]);
                            }
                        }
                        luma_dc[4 * by + bx] = residual.iter().sum::<i32>() / 16;
                        let quantised = forward_quantised(&residual, self.config.qp);
                        estimated_bits += u64::from(estimate_block_bits(&quantised));
                        let rec = reconstruct_residual(&quantised, self.config.qp);
                        for r in 0..4 {
                            for c in 0..4 {
                                let i = (4 * by + r) * 16 + (4 * bx + c);
                                recon_block[i] =
                                    (i32::from(pred[i]) + rec[4 * r + c]).clamp(0, 255) as u8;
                            }
                        }
                    }
                }
                bursts.push((SiKind::Dct, 24));

                // Secondary DC transforms: 4×4 luma DC for intra 16×16
                // MBs, 2×2 chroma DC for every MB.
                if mode != MbMode::Inter {
                    let fwd = forward_ht4x4(&luma_dc);
                    let _inv = inverse_ht4x4(&fwd);
                    bursts.push((SiKind::Ht4x4, 1));
                }
                let chroma_dc = [
                    i32::from(source.cb.sample(x / 2, y / 2)),
                    i32::from(source.cb.sample(x / 2 + 4, y / 2)),
                    i32::from(source.cb.sample(x / 2, y / 2 + 4)),
                    i32::from(source.cb.sample(x / 2 + 4, y / 2 + 4)),
                ];
                let _ = inverse_ht2x2(&forward_ht2x2(&chroma_dc));
                bursts.push((SiKind::Ht2x2, 2));

                recon.y.write_block(x, y, MB_SIZE, &recon_block);
                ee_bursts.push(bursts);
            }
        }

        // --- Hot spot 3: Loop Filter -------------------------------------
        // BS4 strong filtering of macroblock boundary edges; one SI
        // execution covers four edge lines.
        let thresholds = Thresholds::for_qp(self.config.qp);
        for mb_y in 0..mb_rows {
            for mb_x in 0..mb_cols {
                let x = mb_x * MB_SIZE;
                let y = mb_y * MB_SIZE;
                let mut bursts = Vec::with_capacity(2);
                if mb_x > 0 {
                    let lines = filter_vertical_edge_bs4(&mut recon.y, x, y, thresholds);
                    if lines > 0 {
                        bursts.push((SiKind::LfBs4, lines.div_ceil(4)));
                    }
                }
                if mb_y > 0 {
                    let lines = filter_horizontal_edge_bs4(&mut recon.y, x, y, thresholds);
                    if lines > 0 {
                        bursts.push((SiKind::LfBs4, lines.div_ceil(4)));
                    }
                }
                lf_bursts.push(bursts);
            }
        }

        let psnr_y = recon.psnr_y(&source);
        match &mut self.reference {
            Some(reference) => reference.rebuild(&recon.y),
            None => self.reference = Some(InterpolatedRef::new(&recon.y)),
        }
        FrameReport {
            index,
            me_bursts,
            ee_bursts,
            lf_bursts,
            intra_mbs,
            psnr_y,
            estimated_bits,
        }
    }

    /// Encodes the configured number of frames.
    #[must_use]
    pub fn encode_sequence(mut self) -> Vec<FrameReport> {
        (0..self.config.frames)
            .map(|_| self.encode_next_frame())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_is_all_intra() {
        let mut enc = Encoder::new(EncoderConfig::tiny(1));
        let report = enc.encode_next_frame();
        assert_eq!(report.intra_mbs, 12);
        assert!(report.me_bursts.is_empty());
        assert_eq!(report.executions(SiKind::Mc), 0);
        assert_eq!(report.executions(SiKind::Dct), 24 * 12);
    }

    #[test]
    fn inter_frames_run_motion_estimation() {
        let mut enc = Encoder::new(EncoderConfig::tiny(2));
        let _ = enc.encode_next_frame();
        let p = enc.encode_next_frame();
        assert_eq!(p.me_bursts.len(), 12);
        assert!(p.executions(SiKind::Sad) > 0);
        assert!(p.executions(SiKind::Satd) > 0);
        assert!(p.executions(SiKind::Mc) > 0, "most MBs should be inter");
        assert!(p.intra_mbs < 12);
    }

    #[test]
    fn reconstruction_quality_is_reasonable() {
        let mut enc = Encoder::new(EncoderConfig::tiny(3));
        for _ in 0..2 {
            let _ = enc.encode_next_frame();
        }
        let p = enc.encode_next_frame();
        assert!(
            p.psnr_y > 28.0,
            "QP 28 reconstruction should exceed 28 dB, got {:.1}",
            p.psnr_y
        );
    }

    #[test]
    fn loop_filter_runs_on_internal_boundaries() {
        let mut enc = Encoder::new(EncoderConfig::tiny(1));
        let p = enc.encode_next_frame();
        let lf = p.executions(SiKind::LfBs4);
        // 12 MBs, interior edges only; each filtered edge is ≥1 execution.
        assert!(lf > 0, "BS4 must fire on blocking artefacts");
        // Upper bound: 2 edges × 4 executions × 12 MBs.
        assert!(lf <= 96);
    }

    #[test]
    fn chroma_dc_transform_counted_per_mb() {
        let mut enc = Encoder::new(EncoderConfig::tiny(1));
        let p = enc.encode_next_frame();
        assert_eq!(p.executions(SiKind::Ht2x2), 2 * 12);
        // All-intra frame: one HT4x4 per MB.
        assert_eq!(p.executions(SiKind::Ht4x4), 12);
    }

    #[test]
    fn higher_qp_spends_fewer_bits() {
        let mut low = EncoderConfig::tiny(2);
        low.qp = 20;
        let mut high = EncoderConfig::tiny(2);
        high.qp = 40;
        let bits_low: u64 = Encoder::new(low)
            .encode_sequence()
            .iter()
            .map(|r| r.estimated_bits)
            .sum();
        let bits_high: u64 = Encoder::new(high)
            .encode_sequence()
            .iter()
            .map(|r| r.estimated_bits)
            .sum();
        assert!(bits_high < bits_low, "{bits_high} !< {bits_low}");
    }

    #[test]
    fn encoding_is_deterministic() {
        let a: Vec<u64> = Encoder::new(EncoderConfig::tiny(3))
            .encode_sequence()
            .iter()
            .map(|r| r.executions(SiKind::Sad))
            .collect();
        let b: Vec<u64> = Encoder::new(EncoderConfig::tiny(3))
            .encode_sequence()
            .iter()
            .map(|r| r.executions(SiKind::Sad))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn reports_do_not_depend_on_the_helper_count() {
        let mut config = EncoderConfig::paper_cif();
        config.frames = 4;
        // Every field, PSNR as bits; a new field fails to compile here.
        let fields = |report: &FrameReport| {
            let FrameReport {
                index,
                me_bursts,
                ee_bursts,
                lf_bursts,
                intra_mbs,
                psnr_y,
                estimated_bits,
            } = report.clone();
            let bursts = (me_bursts, ee_bursts, lf_bursts);
            (index, bursts, intra_mbs, psnr_y.to_bits(), estimated_bits)
        };
        let encode = |helpers: usize| -> Vec<FrameReport> {
            let mut encoder = Encoder::new(config);
            (0..config.frames)
                .map(|_| encoder.encode_frame(Some(helpers)))
                .collect()
        };
        let alone = encode(0);
        for helpers in [1, 3] {
            for (a, b) in alone.iter().zip(&encode(helpers)) {
                assert_eq!(fields(a), fields(b), "frame {}, {helpers} helpers", a.index);
            }
        }
    }

    #[test]
    fn me_executions_are_content_dependent() {
        let reports = Encoder::new(EncoderConfig::tiny(6)).encode_sequence();
        let counts: Vec<u64> = reports[1..]
            .iter()
            .map(FrameReport::me_executions)
            .collect();
        // Not all frames issue identical ME work.
        assert!(counts.windows(2).any(|w| w[0] != w[1]), "{counts:?}");
    }
}
