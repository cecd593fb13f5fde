//! Sum of Absolute Differences — the `SAD` Special Instruction
//! (Table 1: 1 Atom type `SAV`, 3 Molecules).

use crate::frame::Plane;

/// SAD between two `n×n` row-major blocks.
///
/// # Panics
///
/// Panics (debug) if the slices are shorter than `n*n`.
#[must_use]
pub fn sad_block(a: &[u8], b: &[u8], n: usize) -> u32 {
    debug_assert!(a.len() >= n * n && b.len() >= n * n);
    let mut acc = 0u32;
    for i in 0..n * n {
        acc += u32::from(a[i].abs_diff(b[i]));
    }
    acc
}

/// SAD of the 16×16 block at `(x, y)` in `cur` against the block at
/// `(x + mvx, y + mvy)` in `reference` (border-clamped). The encoder
/// searches through `InterpolatedRef::sad_16x16`; this is the per-sample
/// reference that `kernel_properties.rs` checks it against.
#[must_use]
pub fn sad_16x16(
    cur: &Plane,
    reference: &Plane,
    x: usize,
    y: usize,
    mvx: isize,
    mvy: isize,
) -> u32 {
    let mut acc = 0u32;
    for row in 0..16 {
        for col in 0..16 {
            let c = cur.sample(x + col, y + row);
            let r = reference.sample_clamped(
                x as isize + col as isize + mvx,
                y as isize + row as isize + mvy,
            );
            acc += u32::from(c.abs_diff(r));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_blocks_have_zero_sad() {
        let a = vec![37u8; 256];
        assert_eq!(sad_block(&a, &a, 16), 0);
    }

    #[test]
    fn sad_counts_absolute_differences() {
        let a = [10u8, 20, 30, 40];
        let b = [12u8, 18, 35, 40];
        assert_eq!(sad_block(&a, &b, 2), 2 + 2 + 5);
    }

    #[test]
    fn sad_is_symmetric() {
        let a = [0u8, 255, 17, 200];
        let b = [255u8, 0, 18, 100];
        assert_eq!(sad_block(&a, &b, 2), sad_block(&b, &a, 2));
    }

    #[test]
    fn plane_sad_with_zero_mv_matches_block_sad() {
        let mut cur = Plane::filled(32, 32, 0);
        let mut rf = Plane::filled(32, 32, 0);
        for i in 0..16 {
            cur.set_sample(i, 0, 100);
            rf.set_sample(i, 0, 90);
        }
        assert_eq!(sad_16x16(&cur, &rf, 0, 0, 0, 0), 16 * 10);
    }

    #[test]
    fn plane_sad_clamps_out_of_range_mv() {
        let cur = Plane::filled(32, 32, 50);
        let rf = Plane::filled(32, 32, 50);
        // Large MV reads clamped border samples: still all 50 -> SAD 0.
        assert_eq!(sad_16x16(&cur, &rf, 16, 16, 1000, -1000), 0);
    }

    #[test]
    fn max_sad_is_bounded() {
        let a = vec![0u8; 256];
        let b = vec![255u8; 256];
        assert_eq!(sad_block(&a, &b, 16), 256 * 255);
    }
}
