//! The H.264 4×4 integer transform with quantisation — the `(I)DCT`
//! Special Instruction (Table 1: 3 Atom types, 12 Molecules).
//!
//! Forward: `W = C·X·Cᵀ` with the integer core matrix
//! `[[1,1,1,1],[2,1,-1,-2],[1,-1,-1,1],[1,-2,2,-1]]`; quantisation and
//! rescaling follow the standard's V/M tables (simplified to the QP%6
//! structure with the post-scaling folded in, which is bit-faithful for the
//! round trip used here).

/// Forward 4×4 integer core transform (in place, row-major).
pub fn forward_4x4(block: &mut [i32; 16]) {
    for r in 0..4 {
        let o = 4 * r;
        let (a, b, c, d) = (block[o], block[o + 1], block[o + 2], block[o + 3]);
        let s0 = a + d;
        let s1 = b + c;
        let s2 = b - c;
        let s3 = a - d;
        block[o] = s0 + s1;
        block[o + 1] = 2 * s3 + s2;
        block[o + 2] = s0 - s1;
        block[o + 3] = s3 - 2 * s2;
    }
    for c in 0..4 {
        let (a, b, x, d) = (block[c], block[c + 4], block[c + 8], block[c + 12]);
        let s0 = a + d;
        let s1 = b + x;
        let s2 = b - x;
        let s3 = a - d;
        block[c] = s0 + s1;
        block[c + 4] = 2 * s3 + s2;
        block[c + 8] = s0 - s1;
        block[c + 12] = s3 - 2 * s2;
    }
}

/// Inverse 4×4 integer core transform (in place), including the final
/// `(x + 32) >> 6` rounding of the standard.
pub fn inverse_4x4(block: &mut [i32; 16]) {
    for r in 0..4 {
        let o = 4 * r;
        let (a, b, c, d) = (block[o], block[o + 1], block[o + 2], block[o + 3]);
        let e0 = a + c;
        let e1 = a - c;
        let e2 = (b >> 1) - d;
        let e3 = b + (d >> 1);
        block[o] = e0 + e3;
        block[o + 1] = e1 + e2;
        block[o + 2] = e1 - e2;
        block[o + 3] = e0 - e3;
    }
    for c in 0..4 {
        let (a, b, x, d) = (block[c], block[c + 4], block[c + 8], block[c + 12]);
        let e0 = a + x;
        let e1 = a - x;
        let e2 = (b >> 1) - d;
        let e3 = b + (d >> 1);
        block[c] = (e0 + e3 + 32) >> 6;
        block[c + 4] = (e1 + e2 + 32) >> 6;
        block[c + 8] = (e1 - e2 + 32) >> 6;
        block[c + 12] = (e0 - e3 + 32) >> 6;
    }
}

/// H.264 quantisation multiplier table `MF` for QP%6 (positions 0: DC-ish,
/// 1: off-diagonal, 2: corner), scaled for the forward path.
const MF: [[i32; 3]; 6] = [
    [13107, 5243, 8066],
    [11916, 4660, 7490],
    [10082, 4194, 6554],
    [9362, 3647, 5825],
    [8192, 3355, 5243],
    [7282, 2893, 4559],
];

/// Rescale table `V` for QP%6.
const V: [[i32; 3]; 6] = [
    [10, 16, 13],
    [11, 18, 14],
    [13, 20, 16],
    [14, 23, 18],
    [16, 25, 20],
    [18, 29, 23],
];

fn position_class(r: usize, c: usize) -> usize {
    match (r % 2, c % 2) {
        (0, 0) => 0,
        (1, 1) => 1,
        _ => 2,
    }
}

/// Quantises transform coefficients at quantisation parameter `qp`
/// (0..=51), in place.
pub fn quantise(block: &mut [i32; 16], qp: u8) {
    let qp = usize::from(qp.min(51));
    let shift = 15 + qp / 6;
    let round = (1i64 << shift) / 3;
    for r in 0..4 {
        for c in 0..4 {
            let i = 4 * r + c;
            let m = i64::from(MF[qp % 6][position_class(r, c)]);
            let v = i64::from(block[i]);
            let q = (v.abs() * m + round) >> shift;
            block[i] = (if v < 0 { -q } else { q }) as i32;
        }
    }
}

/// Rescales (dequantises) coefficients at `qp`, in place.
pub fn dequantise(block: &mut [i32; 16], qp: u8) {
    let qp = usize::from(qp.min(51));
    let scale = qp / 6;
    for r in 0..4 {
        for c in 0..4 {
            let i = 4 * r + c;
            block[i] = (block[i] * V[qp % 6][position_class(r, c)]) << scale;
        }
    }
}

/// Forward transform + quantisation: the coefficients an entropy coder
/// would see.
#[must_use]
pub fn forward_quantised(residual: &[i32; 16], qp: u8) -> [i32; 16] {
    let mut block = *residual;
    forward_4x4(&mut block);
    quantise(&mut block, qp);
    block
}

/// Rescales and inverse-transforms quantised coefficients back into a
/// reconstructed residual.
#[must_use]
pub fn reconstruct_residual(quantised: &[i32; 16], qp: u8) -> [i32; 16] {
    let mut block = *quantised;
    dequantise(&mut block, qp);
    inverse_4x4(&mut block);
    block
}

/// Full residual round trip at `qp`: forward transform, quantise,
/// dequantise, inverse transform. Returns the reconstructed residual.
/// The encoder runs the two halves apart; this composition is what the
/// round-trip unit tests and `kernel_properties.rs` bound.
#[must_use]
pub fn transform_roundtrip(residual: &[i32; 16], qp: u8) -> [i32; 16] {
    reconstruct_residual(&forward_quantised(residual, qp), qp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_of_zero_is_zero() {
        let mut b = [0i32; 16];
        forward_4x4(&mut b);
        assert_eq!(b, [0i32; 16]);
        inverse_4x4(&mut b);
        assert_eq!(b, [0i32; 16]);
    }

    #[test]
    fn dc_energy_concentrates() {
        let mut b = [10i32; 16];
        forward_4x4(&mut b);
        assert_eq!(b[0], 160); // 16 × 10
        assert!(b[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn forward_inverse_roundtrip_without_quantisation() {
        // C⁻¹·C with the standard's scaling gives identity after >>6 when
        // the inverse's built-in rounding is used on 64×-scaled inputs: use
        // the full pipeline at QP 0 instead, which must be near-lossless.
        let residual: [i32; 16] = core::array::from_fn(|i| (i as i32 % 7) - 3);
        let recon = transform_roundtrip(&residual, 0);
        for (a, b) in residual.iter().zip(&recon) {
            assert!((a - b).abs() <= 1, "qp0 roundtrip error: {a} vs {b}");
        }
    }

    #[test]
    fn higher_qp_is_coarser() {
        let residual: [i32; 16] = core::array::from_fn(|i| (i as i32 * 5 % 23) - 11);
        let err = |qp: u8| -> i64 {
            let recon = transform_roundtrip(&residual, qp);
            residual
                .iter()
                .zip(&recon)
                .map(|(a, b)| i64::from((a - b).abs()))
                .sum()
        };
        assert!(err(40) >= err(20));
        assert!(err(20) >= err(4));
    }

    #[test]
    fn quantisation_zeroes_small_coefficients_at_high_qp() {
        let mut b = [1i32; 16];
        forward_4x4(&mut b);
        quantise(&mut b, 51);
        assert!(b[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn split_pipeline_equals_roundtrip() {
        let residual: [i32; 16] = core::array::from_fn(|i| (i as i32 * 7 % 31) - 15);
        for qp in [0u8, 16, 28, 40, 51] {
            let q = forward_quantised(&residual, qp);
            assert_eq!(
                reconstruct_residual(&q, qp),
                transform_roundtrip(&residual, qp)
            );
        }
    }

    #[test]
    fn quantisation_preserves_sign() {
        let mut b: [i32; 16] = core::array::from_fn(|i| if i % 2 == 0 { 500 } else { -500 });
        quantise(&mut b, 10);
        for (i, &v) in b.iter().enumerate() {
            if i % 2 == 0 {
                assert!(v > 0);
            } else {
                assert!(v < 0);
            }
        }
    }
}
