//! Motion estimation for 16×16 macroblocks: a UMHexagonS-flavoured
//! integer-pel search (SAD-based, with early termination) followed by
//! half/quarter-pel refinement (SATD-based) — the paper's ME hot spot,
//! whose two SIs execute ~32 K times per CIF frame (Figure 2 reports
//! 31,977 for one run of the hot spot).
//!
//! A search scores each candidate position once and reuses the score
//! when the pattern returns to it, while still counting every
//! evaluation as an SI execution. A frame's macroblock rows are searched
//! on scoped threads drawn from one process-wide budget (DESIGN.md §17).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

use crate::frame::{Plane, MB_SIZE};
use crate::kernels::mc::InterpolatedRef;
use crate::kernels::satd::satd_16x16;

/// A motion vector in quarter-pel units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    /// Horizontal component (quarter-pel).
    pub x4: isize,
    /// Vertical component (quarter-pel).
    pub y4: isize,
}

/// Result of estimating one macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// Slots of a [`SadMemo`]: more than the 2 + 8·12 + 4 = 102 integer
/// positions one search can score (zero vector, predictor, eight
/// large-diamond rounds, small diamond), so a probe always ends.
const SAD_SLOTS: usize = 128;

/// The integer-pel positions one search has scored, open-addressed on
/// the low bits of the vector: distinct positions within an 8×16 window
/// take distinct slots.
struct SadMemo {
    keys: [(isize, isize); SAD_SLOTS],
    /// `u32::MAX` marks an empty slot (a SAD is at most 256 · 255).
    sads: [u32; SAD_SLOTS],
}

impl SadMemo {
    fn new() -> Self {
        SadMemo {
            keys: [(0, 0); SAD_SLOTS],
            sads: [u32::MAX; SAD_SLOTS],
        }
    }

    /// The SAD at `(mx, my)`, computed by `sad` the first time.
    fn score(&mut self, mx: isize, my: isize, sad: impl FnOnce() -> u32) -> u32 {
        let mut slot = ((mx as usize & 7) << 4) | (my as usize & 15);
        loop {
            if self.sads[slot] == u32::MAX {
                self.keys[slot] = (mx, my);
                self.sads[slot] = sad();
                return self.sads[slot];
            }
            if self.keys[slot] == (mx, my) {
                return self.sads[slot];
            }
            slot = (slot + 1) % SAD_SLOTS;
        }
    }
}

/// Half-width of the quarter-pel window sub-pel refinement can reach: a
/// step-2 ring, then two step-1 rings, each around the running best.
const SUBPEL_REACH: isize = 4;
const SUBPEL_SIDE: usize = 2 * SUBPEL_REACH as usize + 1;

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
        // Every evaluation counts as an SAD execution; a position the
        // pattern returns to is scored once.
        let mut sad_count = 0u32;
        let mut sads = SadMemo::new();
        let mut eval = |mx: isize, my: isize| -> u32 {
            sad_count += 1;
            sads.score(mx, my, || {
                reference.sad_16x16(&cur_block, mb_x, mb_y, mx, my)
            })
        };

        // Integer-pel: start at predictor and (0,0), then diamond rounds.
        let pred_int = (predictor.x4 >> 2, predictor.y4 >> 2);
        let mut best_mv = (0isize, 0isize);
        let mut best = eval(0, 0);
        if pred_int != (0, 0) {
            let c = eval(pred_int.0, pred_int.1);
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
                    let c = eval(cand.0, cand.1);
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
                let c = eval(cand.0, cand.1);
                if c < best {
                    best = c;
                    best_mv = cand;
                }
            }
        }

        // Sub-pel refinement with SATD: half-pel ring, then two quarter-pel
        // polish rings around the running best (8 + 8 + 8 positions +
        // centre). The rings stay within ±SUBPEL_REACH of the start, so
        // a window of that size memoises every score.
        let mut satd_count = 0u32;
        let mut pred_block = [0u8; 256];
        let start = (best_mv.0 * 4, best_mv.1 * 4);
        let mut satds = [u32::MAX; SUBPEL_SIDE * SUBPEL_SIDE];
        let mut eval_q = |x4: isize, y4: isize| -> u32 {
            satd_count += 1;
            let (dx, dy) = (x4 - start.0 + SUBPEL_REACH, y4 - start.1 + SUBPEL_REACH);
            let memo = &mut satds[dy as usize * SUBPEL_SIDE + dx as usize];
            if *memo == u32::MAX {
                reference.compensate_16x16(mb_x, mb_y, x4, y4, &mut pred_block);
                *memo = satd_16x16(&cur_block, &pred_block);
            }
            *memo
        };
        let mut best_q = start;
        let mut best_cost = eval_q(best_q.0, best_q.1);
        for step in [2isize, 1, 1] {
            let centre = best_q;
            for dy in [-step, 0, step] {
                for dx in [-step, 0, step] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let c = eval_q(centre.0 + dx, centre.1 + dy);
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

    /// Searches every macroblock of `cur`, macroblock `mb` (row-major)
    /// from `predictors[mb]`, and returns the outcomes in macroblock
    /// order. The calling thread and `helpers` scoped threads claim rows
    /// one at a time. Each search reads only `cur`, `reference` and its
    /// own predictor, so the outcomes do not depend on `helpers`.
    pub(crate) fn search_frame(
        &self,
        cur: &Plane,
        reference: &InterpolatedRef,
        predictors: &[MotionVector],
        helpers: usize,
    ) -> Vec<SearchOutcome> {
        // `chunks` refuses a width of 0; a plane narrower than a
        // macroblock has no macroblocks to search.
        let mb_cols = (cur.width() / MB_SIZE).max(1);
        let mut outcomes = vec![SearchOutcome::default(); predictors.len()];
        let rows = Mutex::new(
            outcomes
                .chunks_mut(mb_cols)
                .zip(predictors.chunks(mb_cols))
                .enumerate(),
        );
        let search_rows = || loop {
            let next = rows.lock().expect("claiming a row never panics").next();
            let Some((row, (outcomes, predictors))) = next else {
                return;
            };
            for (col, (outcome, &predictor)) in outcomes.iter_mut().zip(predictors).enumerate() {
                *outcome = self.search(cur, reference, col * MB_SIZE, row * MB_SIZE, predictor);
            }
        };
        thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(search_rows);
            }
            search_rows();
        });
        outcomes
    }
}

/// Helper threads the process may run at once: one fewer than the CPUs
/// it may use, read once.
fn helper_capacity() -> usize {
    static CAPACITY: OnceLock<usize> = OnceLock::new();
    *CAPACITY.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1)
}

/// Helpers claimed from the budget right now, over every encoder. It
/// publishes no other data, so its operations are `Relaxed`.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// The most helpers ever claimed at once.
#[cfg(test)]
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Helper threads claimed from the process-wide budget, returned when
/// the claim drops. Concurrent encodes share the budget, so together
/// they never run more helpers than [`helper_capacity`].
pub(crate) struct HelperClaim(usize);

impl HelperClaim {
    /// Claims up to `wanted` helpers: as many as the budget has left.
    pub(crate) fn up_to(wanted: usize) -> Self {
        let capacity = helper_capacity();
        let mut claimed = CLAIMED.load(Ordering::Relaxed);
        loop {
            let take = wanted.min(capacity.saturating_sub(claimed));
            if take == 0 {
                return HelperClaim(0);
            }
            match CLAIMED.compare_exchange_weak(
                claimed,
                claimed + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    #[cfg(test)]
                    HIGH_WATER.fetch_max(claimed + take, Ordering::Relaxed);
                    return HelperClaim(take);
                }
                Err(now) => claimed = now,
            }
        }
    }

    /// The number of helpers claimed.
    pub(crate) fn count(&self) -> usize {
        self.0
    }
}

impl Drop for HelperClaim {
    fn drop(&mut self) {
        CLAIMED.fetch_sub(self.0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Plane;
    use crate::{Encoder, EncoderConfig};
    use std::sync::Barrier;

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
    fn concurrent_encodes_share_one_helper_budget() {
        // Three encoders at once, each wanting a helper per row but one:
        // between them they never claim more than the budget.
        let mut config = EncoderConfig::paper_cif();
        config.frames = 3;
        let start = Barrier::new(3);
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let encoder = Encoder::new(config);
                    start.wait();
                    encoder.encode_sequence()
                });
            }
        });
        let high_water = HIGH_WATER.load(Ordering::Relaxed);
        assert!(
            high_water <= helper_capacity(),
            "{high_water} helpers at once, budget {}",
            helper_capacity()
        );
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
