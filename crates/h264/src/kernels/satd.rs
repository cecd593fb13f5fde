//! Sum of Absolute Transformed Differences — the `SATD` Special
//! Instruction (Table 1: 4 Atom types `QSub`, `Transform`, `SAV`,
//! `Repack`; 20 Molecules).
//!
//! SATD applies a 4×4 Hadamard transform to the residual block and sums the
//! absolute transform coefficients; H.264 encoders use it for sub-pel
//! refinement and mode decision because it approximates the post-transform
//! bit cost better than SAD.

/// In-place 4-point Hadamard butterfly.
fn hadamard4(a: &mut [i32; 4]) {
    let s0 = a[0] + a[2];
    let s1 = a[1] + a[3];
    let d0 = a[0] - a[2];
    let d1 = a[1] - a[3];
    a[0] = s0 + s1;
    a[1] = s0 - s1;
    a[2] = d0 + d1;
    a[3] = d0 - d1;
}

/// 2-D 4×4 Hadamard transform of a residual block (row-major, in place).
pub fn hadamard_4x4(block: &mut [i32; 16]) {
    for r in 0..4 {
        let mut row = [
            block[4 * r],
            block[4 * r + 1],
            block[4 * r + 2],
            block[4 * r + 3],
        ];
        hadamard4(&mut row);
        block[4 * r..4 * r + 4].copy_from_slice(&row);
    }
    for c in 0..4 {
        let mut col = [block[c], block[c + 4], block[c + 8], block[c + 12]];
        hadamard4(&mut col);
        block[c] = col[0];
        block[c + 4] = col[1];
        block[c + 8] = col[2];
        block[c + 12] = col[3];
    }
}

/// SATD of a 4×4 residual between blocks `a` and `b` (row-major, stride
/// `stride`), using the standard `(Σ|H(a−b)|)/2` normalisation.
#[must_use]
pub fn satd_4x4(a: &[u8], b: &[u8], stride: usize) -> u32 {
    let mut diff = [0i32; 16];
    for r in 0..4 {
        for c in 0..4 {
            diff[4 * r + c] = i32::from(a[r * stride + c]) - i32::from(b[r * stride + c]);
        }
    }
    hadamard_4x4(&mut diff);
    let sum: i32 = diff.iter().map(|&v| v.abs()).sum();
    (sum as u32).div_ceil(2)
}

/// SATD of an `n×n` region (n multiple of 4) as the sum of its 4×4 tiles.
///
/// # Panics
///
/// Panics (debug) if `n` is not a multiple of 4 or the slices are short.
#[must_use]
pub fn satd_nxn(a: &[u8], b: &[u8], n: usize) -> u32 {
    debug_assert_eq!(n % 4, 0);
    debug_assert!(a.len() >= n * n && b.len() >= n * n);
    let mut acc = 0u32;
    for ty in (0..n).step_by(4) {
        for tx in (0..n).step_by(4) {
            let off = ty * n + tx;
            acc += satd_4x4(&a[off..], &b[off..], n);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_blocks_have_zero_satd() {
        let a = [100u8; 16];
        assert_eq!(satd_4x4(&a, &a, 4), 0);
    }

    #[test]
    fn hadamard_is_involutive_up_to_scale() {
        // H(H(x)) = 16·x for the unnormalised 2-D transform.
        let original: [i32; 16] = core::array::from_fn(|i| i as i32 * 3 - 20);
        let mut block = original;
        hadamard_4x4(&mut block);
        hadamard_4x4(&mut block);
        for (o, t) in original.iter().zip(&block) {
            assert_eq!(*t, o * 16);
        }
    }

    #[test]
    fn dc_difference_transforms_to_single_coefficient() {
        // A constant residual of +4 has all energy in the DC coefficient:
        // |H| sums to 16·4 = 64, SATD = 32.
        let a = [60u8; 16];
        let b = [56u8; 16];
        assert_eq!(satd_4x4(&a, &b, 4), 32);
    }

    #[test]
    fn satd_upper_bounds_scaled_sad() {
        // Parseval-style sanity: SATD ≥ SAD/2 for random-ish content.
        let a: Vec<u8> = (0..16).map(|i| (i * 13 % 251) as u8).collect();
        let b: Vec<u8> = (0..16).map(|i| (i * 7 % 241) as u8).collect();
        let sad: u32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| u32::from(x.abs_diff(y)))
            .sum();
        assert!(satd_4x4(&a, &b, 4) >= sad / 2);
    }

    #[test]
    fn tiled_satd_sums_tiles() {
        let a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        // Put a +8 constant difference in exactly one 4×4 tile.
        for r in 0..4 {
            for c in 0..4 {
                b[r * 8 + c] = 8;
            }
        }
        assert_eq!(satd_nxn(&a, &b, 8), satd_4x4(&a, &b, 8));
        assert_eq!(satd_nxn(&a, &b, 8), 64);
    }

    #[test]
    fn satd_is_symmetric() {
        let a: Vec<u8> = (0..16).map(|i| (i * 31 % 256) as u8).collect();
        let b: Vec<u8> = (0..16).map(|i| (255 - i * 9 % 256) as u8).collect();
        assert_eq!(satd_4x4(&a, &b, 4), satd_4x4(&b, &a, 4));
    }
}
