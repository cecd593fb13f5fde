//! Motion estimation for 16×16 macroblocks: a UMHexagonS-flavoured
//! integer-pel search (SAD-based, with early termination) followed by
//! half/quarter-pel refinement (SATD-based) — the paper's ME hot spot,
//! whose two SIs execute ~32 K times per CIF frame (Figure 2 reports
//! 31,977 for one run of the hot spot).

use crate::frame::Plane;
use crate::kernels::mc::InterpolatedRef;
use crate::kernels::satd::satd_nxn;

/// A motion vector in quarter-pel units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    /// Horizontal component (quarter-pel).
    pub x4: isize,
    /// Vertical component (quarter-pel).
    pub y4: isize,
}

/// Result of estimating one macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Best motion vector found (quarter-pel units).
    pub mv: MotionVector,
    /// SATD cost of the best sub-pel candidate.
    pub best_cost: u32,
    /// Integer-pel SAD evaluations performed (executions of the SAD SI).
    pub sad_count: u32,
    /// Sub-pel SATD evaluations performed (executions of the SATD SI).
    pub satd_count: u32,
}

/// Configurable motion estimator.
#[derive(Debug, Clone, Copy)]
pub struct MotionEstimator {
    /// Integer search range in pel: the diamond rounds skip candidates
    /// whose components exceed `±range` around the zero vector. The
    /// predictor candidate is evaluated unchecked and the sub-pel rings
    /// refine past the bound, so a returned vector can lie outside it.
    pub range: isize,
    /// Early-termination SAD threshold: a candidate below this stops the
    /// integer search (static background terminates quickly, which makes
    /// the SI execution counts content-dependent as in the paper).
    pub early_exit_sad: u32,
}

impl Default for MotionEstimator {
    fn default() -> Self {
        MotionEstimator {
            range: 16,
            early_exit_sad: 380,
        }
    }
}

/// Square/diamond pattern offsets for the coarse search rounds.
const DIAMOND_LARGE: [(isize, isize); 12] = [
    (-2, 0),
    (2, 0),
    (0, -2),
    (0, 2),
    (-1, -1),
    (1, -1),
    (-1, 1),
    (1, 1),
    (-4, 0),
    (4, 0),
    (0, -4),
    (0, 4),
];
const DIAMOND_SMALL: [(isize, isize); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];

impl MotionEstimator {
    /// Estimates the MB at `(mb_x, mb_y)` (sample coordinates) of `cur`
    /// against the interpolated `reference`, starting from `predictor`
    /// (quarter-pel).
    #[must_use]
    pub fn search(
        &self,
        cur: &Plane,
        reference: &InterpolatedRef,
        mb_x: usize,
        mb_y: usize,
        predictor: MotionVector,
    ) -> SearchOutcome {
        let mut cur_block = [0u8; 256];
        cur.read_block(mb_x as isize, mb_y as isize, 16, &mut cur_block);
        let mut sad_count = 0u32;
        let eval = |mx: isize, my: isize, counter: &mut u32| -> u32 {
            *counter += 1;
            reference.sad_16x16(&cur_block, mb_x, mb_y, mx, my)
        };

        // Integer-pel: start at predictor and (0,0), then diamond rounds.
        let pred_int = (predictor.x4 >> 2, predictor.y4 >> 2);
        let mut best_mv = (0isize, 0isize);
        let mut best = eval(0, 0, &mut sad_count);
        if pred_int != (0, 0) {
            let c = eval(pred_int.0, pred_int.1, &mut sad_count);
            if c < best {
                best = c;
                best_mv = pred_int;
            }
        }
        if best >= self.early_exit_sad {
            // Large-diamond rounds until no improvement or range exhausted.
            let mut rounds = 0;
            loop {
                let mut improved = false;
                for &(dx, dy) in &DIAMOND_LARGE {
                    let cand = (best_mv.0 + dx, best_mv.1 + dy);
                    if cand.0.abs() > self.range || cand.1.abs() > self.range {
                        continue;
                    }
                    let c = eval(cand.0, cand.1, &mut sad_count);
                    if c < best {
                        best = c;
                        best_mv = cand;
                        improved = true;
                    }
                }
                rounds += 1;
                if !improved || best < self.early_exit_sad || rounds >= 8 {
                    break;
                }
            }
            // Small-diamond polish.
            for &(dx, dy) in &DIAMOND_SMALL {
                let cand = (best_mv.0 + dx, best_mv.1 + dy);
                if cand.0.abs() > self.range || cand.1.abs() > self.range {
                    continue;
                }
                let c = eval(cand.0, cand.1, &mut sad_count);
                if c < best {
                    best = c;
                    best_mv = cand;
                }
            }
        }

        // Sub-pel refinement with SATD: half-pel ring, then two quarter-pel
        // polish rings around the running best (8 + 8 + 8 positions +
        // centre).
        let mut satd_count = 0u32;
        let mut pred_block = [0u8; 256];
        let mut best_q = (best_mv.0 * 4, best_mv.1 * 4);
        let mut eval_q = |x4: isize, y4: isize, counter: &mut u32| -> u32 {
            *counter += 1;
            reference.compensate_16x16(mb_x, mb_y, x4, y4, &mut pred_block);
            satd_nxn(&cur_block, &pred_block, 16)
        };
        let mut best_cost = eval_q(best_q.0, best_q.1, &mut satd_count);
        for step in [2isize, 1, 1] {
            let centre = best_q;
            for dy in [-step, 0, step] {
                for dx in [-step, 0, step] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let c = eval_q(centre.0 + dx, centre.1 + dy, &mut satd_count);
                    if c < best_cost {
                        best_cost = c;
                        best_q = (centre.0 + dx, centre.1 + dy);
                    }
                }
            }
        }

        SearchOutcome {
            mv: MotionVector {
                x4: best_q.0,
                y4: best_q.1,
            },
            best_cost,
            sad_count,
            satd_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Plane;

    /// Builds the current plane and interpolated reference where the
    /// current frame's content sits at offset `(dx, dy)` in the reference
    /// (i.e. the true motion vector is `(dx, dy)` integer pel). The
    /// texture is a smooth, non-periodic sum of sinusoids so the SAD
    /// surface has a unique minimum that a diamond search can descend to.
    fn shifted_pair(dx: isize, dy: isize) -> (Plane, InterpolatedRef) {
        let w = 96;
        let h = 96;
        let tex = |x: f64, y: f64| -> u8 {
            let v = 128.0
                + 60.0 * (x * 0.35).sin()
                + 40.0 * (y * 0.28).cos()
                + 20.0 * ((x + y) * 0.11).sin();
            v.clamp(0.0, 255.0) as u8
        };
        let mut reference = Plane::filled(w, h, 0);
        for y in 0..h {
            for x in 0..w {
                reference.set_sample(x, y, tex(x as f64, y as f64));
            }
        }
        let mut cur = Plane::filled(w, h, 0);
        for y in 0..h {
            for x in 0..w {
                cur.set_sample(
                    x,
                    y,
                    reference.sample_clamped(x as isize + dx, y as isize + dy),
                );
            }
        }
        (cur, InterpolatedRef::new(&reference))
    }

    #[test]
    fn finds_integer_translation() {
        let (cur, reference) = shifted_pair(2, -1);
        let me = MotionEstimator::default();
        let out = me.search(&cur, &reference, 32, 32, MotionVector::default());
        assert_eq!(out.mv.x4, 2 * 4, "mv {:?}", out.mv);
        assert_eq!(out.mv.y4, -4);
        assert_eq!(out.best_cost, 0);
    }

    #[test]
    fn static_content_terminates_early() {
        let (cur, reference) = shifted_pair(0, 0);
        let me = MotionEstimator::default();
        let out = me.search(&cur, &reference, 32, 32, MotionVector::default());
        // Perfect match at (0,0): only the initial probe(s) + subpel ring.
        assert!(out.sad_count <= 2, "sad_count {}", out.sad_count);
        assert_eq!(out.mv, MotionVector::default());
    }

    #[test]
    fn moving_content_searches_more() {
        let (cur_static, ref_static) = shifted_pair(0, 0);
        let (cur_moving, ref_moving) = shifted_pair(6, 4);
        let me = MotionEstimator::default();
        let s = me.search(&cur_static, &ref_static, 32, 32, MotionVector::default());
        let m = me.search(&cur_moving, &ref_moving, 32, 32, MotionVector::default());
        assert!(m.sad_count > s.sad_count);
    }

    #[test]
    fn predictor_accelerates_search() {
        let (cur, reference) = shifted_pair(8, 0);
        let me = MotionEstimator::default();
        let cold = me.search(&cur, &reference, 32, 32, MotionVector::default());
        let hot = me.search(&cur, &reference, 32, 32, MotionVector { x4: 32, y4: 0 });
        assert!(hot.sad_count <= cold.sad_count);
        assert_eq!(hot.mv.x4, 32);
    }

    #[test]
    fn predictor_outside_the_range_is_returned() {
        // `range` bounds only the diamond rounds: the predictor candidate
        // is evaluated unchecked, so a vector beyond ±range pel can win.
        let (cur, reference) = shifted_pair(20, 0);
        let me = MotionEstimator::default();
        let predictor = MotionVector { x4: 80, y4: 0 };
        let out = me.search(&cur, &reference, 32, 32, predictor);
        assert_eq!(out.mv, predictor);
        assert!(out.mv.x4 > 4 * me.range);
    }

    #[test]
    fn satd_count_is_bounded_by_rings() {
        let (cur, reference) = shifted_pair(1, 1);
        let me = MotionEstimator::default();
        let out = me.search(&cur, &reference, 32, 32, MotionVector::default());
        // 1 centre + 3 rings × 8 = 25 max.
        assert!(out.satd_count >= 1 && out.satd_count <= 25);
    }
}
