//! Sum of Absolute Transformed Differences — the `SATD` Special
//! Instruction (Table 1: 4 Atom types `QSub`, `Transform`, `SAV`,
//! `Repack`; 20 Molecules).
//!
//! SATD applies a 4×4 Hadamard transform to the residual block and sums the
//! absolute transform coefficients; H.264 encoders use it for sub-pel
//! refinement and mode decision because it approximates the post-transform
//! bit cost better than SAD.
//!
//! [`satd_4x4`] and [`satd_nxn`] are the definition. The motion search
//! calls [`satd_16x16`], which has the SI's shape — subtract (`QSub`),
//! transform across lanes (`Transform`), regroup (`Repack`), sum absolute
//! values (`SAV`) — and equals `satd_nxn(a, b, 16)` exactly.

use std::array;

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

/// SATD of two 16×16 row-major blocks: the same value as
/// `satd_nxn(a, b, 16)`, in plain `i16` lane loops that LLVM vectorises.
///
/// Each 4-row strip is differenced and transformed vertically across all
/// 16 columns at once, then regrouped so that the horizontal butterflies
/// also run lane-wise. Every value fits `i16`: a difference is at most
/// 255 in magnitude, and each of the three butterfly stages at most
/// doubles it, to 2,040. The last stage is never computed, because
/// `|s + t| + |s − t| = 2·max(|s|, |t|)`: a tile's `Σ|coef|` is twice
/// the sum of those maxima. [`satd_4x4`] halves `Σ|coef|` rounding up,
/// and that never rounds: each coefficient is a ±1 combination of the
/// tile's 16 differences, so all 16 share the parity of their sum, and
/// `Σ|coef|` is even. The maxima therefore add up to each tile's SATD,
/// and their total to the block's.
#[must_use]
pub fn satd_16x16(a: &[u8; 256], b: &[u8; 256]) -> u32 {
    // Per lane at most 4 strips × 2 maxima × 2,040 = 16,320.
    let mut acc = [0u16; 16];
    for (sa, sb) in a.chunks_exact(64).zip(b.chunks_exact(64)) {
        let d: [[i16; 16]; 4] = array::from_fn(|r| {
            array::from_fn(|c| i16::from(sa[16 * r + c]) - i16::from(sb[16 * r + c]))
        });
        // Vertical transform: row k of every tile in the strip.
        let mut v = [[0i16; 16]; 4];
        for c in 0..16 {
            let (s0, s1) = (d[0][c] + d[2][c], d[1][c] + d[3][c]);
            let (t0, t1) = (d[0][c] - d[2][c], d[1][c] - d[3][c]);
            v[0][c] = s0 + s1;
            v[1][c] = s0 - s1;
            v[2][c] = t0 + t1;
            v[3][c] = t0 - t1;
        }
        // Regroup: lane 4k + g of `col[m]` is column m of tile g, row k.
        let col: [[i16; 16]; 4] = array::from_fn(|m| array::from_fn(|i| v[i / 4][4 * (i % 4) + m]));
        // Horizontal transform's first stage, then the last stage as maxima.
        for (i, sum) in acc.iter_mut().enumerate() {
            let (p0, p1) = (col[0][i] + col[2][i], col[1][i] + col[3][i]);
            let (q0, q1) = (col[0][i] - col[2][i], col[1][i] - col[3][i]);
            *sum +=
                p0.unsigned_abs().max(p1.unsigned_abs()) + q0.unsigned_abs().max(q1.unsigned_abs());
        }
    }
    acc.iter().map(|&s| u32::from(s)).sum()
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
    fn the_sum_before_halving_is_always_even() {
        // Every coefficient is a ±1 combination of the 16 differences, so
        // each has the parity of their sum, and `satd_4x4`'s `div_ceil(2)`
        // never rounds.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            let mut block: [i32; 16] = core::array::from_fn(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 511) as i32 - 255
            });
            let parity = block.iter().sum::<i32>() & 1;
            hadamard_4x4(&mut block);
            assert!(block.iter().all(|&c| c & 1 == parity), "{block:?}");
            assert_eq!(block.iter().map(|c| c.abs()).sum::<i32>() % 2, 0);
        }
    }

    #[test]
    fn satd_is_symmetric() {
        let a: Vec<u8> = (0..16).map(|i| (i * 31 % 256) as u8).collect();
        let b: Vec<u8> = (0..16).map(|i| (255 - i * 9 % 256) as u8).collect();
        assert_eq!(satd_4x4(&a, &b, 4), satd_4x4(&b, &a, 4));
    }
}
