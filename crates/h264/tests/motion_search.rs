//! The motion search against its first formulation: `reference_search`
//! recomputes every candidate it evaluates and scores sub-pel
//! candidates with the per-tile `satd_nxn`. The production search scores
//! each position once per macroblock with the lane-parallel SATD, so all
//! four `SearchOutcome` fields must still agree exactly.

use proptest::prelude::*;
use rispp_h264::kernels::mc::InterpolatedRef;
use rispp_h264::kernels::satd::satd_nxn;
use rispp_h264::{MotionEstimator, MotionVector, Plane, SearchOutcome};

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

/// `MotionEstimator::search` as first written, one kernel call per
/// evaluation.
fn reference_search(
    me: &MotionEstimator,
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
    if best >= me.early_exit_sad {
        let mut rounds = 0;
        loop {
            let mut improved = false;
            for &(dx, dy) in &DIAMOND_LARGE {
                let cand = (best_mv.0 + dx, best_mv.1 + dy);
                if cand.0.abs() > me.range || cand.1.abs() > me.range {
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
            if !improved || best < me.early_exit_sad || rounds >= 8 {
                break;
            }
        }
        for &(dx, dy) in &DIAMOND_SMALL {
            let cand = (best_mv.0 + dx, best_mv.1 + dy);
            if cand.0.abs() > me.range || cand.1.abs() > me.range {
                continue;
            }
            let c = eval(cand.0, cand.1, &mut sad_count);
            if c < best {
                best = c;
                best_mv = cand;
            }
        }
    }

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

/// Texture parameters: horizontal and vertical wavelengths in tenths of
/// a sample, the noise amplitude, and the noise bytes.
type Texture = (u32, u32, u8, Vec<u8>);

/// A smooth sinusoidal texture plus seeded noise, `w×h`, shifted by
/// `(dx, dy)` samples: the diamond rounds walk down its SAD surface,
/// and the noise keeps ties and plateaus rare.
fn textured_plane(
    w: usize,
    h: usize,
    (wx, wy, amp, noise): &Texture,
    dx: isize,
    dy: isize,
) -> Plane {
    let samples = (0..w * h)
        .map(|i| {
            let (x, y) = ((i % w) as isize + dx, (i / w) as isize + dy);
            let base = 128.0
                + 70.0 * (x as f64 * 10.0 / f64::from(*wx)).sin()
                + 50.0 * (y as f64 * 10.0 / f64::from(*wy)).cos();
            let jitter = (i32::from(noise[i % noise.len()]) - 128) * i32::from(*amp) / 128;
            (base as i32 + jitter).clamp(0, 255) as u8
        })
        .collect();
    Plane::from_samples(w, h, samples)
}

fn texture() -> impl Strategy<Value = Texture> {
    (
        40u32..=300,
        40u32..=300,
        0u8..=60,
        proptest::collection::vec(any::<u8>(), 97),
    )
}

/// Estimator settings: the range from 1 to 16 pel, and an early-exit
/// threshold that stops at once, sometimes or never.
fn estimator() -> impl Strategy<Value = MotionEstimator> {
    (1isize..=16, 0usize..3).prop_map(|(range, exit)| MotionEstimator {
        range,
        early_exit_sad: [0, 380, u32::MAX][exit],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_memoised_search_equals_the_reference_search(
        (w, h, tex, (dx, dy)) in (48usize..=80, 48usize..=80, texture(), (-20isize..=20, -20isize..=20)),
        me in estimator(),
        (mb_x, mb_y) in (0usize..=32, 0usize..=32),
        // Quarter-pel predictors up to 24 pel out: inside and outside ±range.
        (px, py) in (-96isize..=96, -96isize..=96),
    ) {
        let reference = InterpolatedRef::new(&textured_plane(w, h, &tex, 0, 0));
        let cur = textured_plane(w, h, &tex, dx, dy);
        let (mb_x, mb_y) = (mb_x.min(w - 16), mb_y.min(h - 16));
        for predictor in [MotionVector { x4: px, y4: py }, MotionVector::default()] {
            prop_assert_eq!(
                me.search(&cur, &reference, mb_x, mb_y, predictor),
                reference_search(&me, &cur, &reference, mb_x, mb_y, predictor),
                "{:?} at ({}, {}) from {:?}, {}x{} shifted ({}, {})",
                me, mb_x, mb_y, predictor, w, h, dx, dy
            );
        }
    }
}
