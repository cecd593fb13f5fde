//! Property-based tests of the codec kernels: transform/quantisation
//! error bounds, metric axioms for SAD/SATD, interpolation invariants,
//! equivalence of the interpolate-once reads and of the lane-parallel
//! 16×16 SATD with their per-sample and per-tile references, and
//! deblocking safety.

use proptest::prelude::*;
use rispp_h264::kernels::dct::{forward_quantised, reconstruct_residual, transform_roundtrip};
use rispp_h264::kernels::entropy::{estimate_block_bits, run_level, zigzag_scan, zigzag_unscan};
use rispp_h264::kernels::hadamard::{forward_ht2x2, inverse_ht2x2};
use rispp_h264::kernels::mc::{
    clip3, compensate_16x16, pack_half_pel, point_filter, sample_quarter_pel, InterpolatedRef,
};
use rispp_h264::kernels::sad::{sad_16x16, sad_block};
use rispp_h264::kernels::satd::{satd_16x16, satd_4x4, satd_nxn};
use rispp_h264::Plane;

fn residual() -> impl Strategy<Value = [i32; 16]> {
    proptest::collection::vec(-255i32..=255, 16).prop_map(|v| {
        let mut a = [0i32; 16];
        a.copy_from_slice(&v);
        a
    })
}

fn block() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 16)
}

/// A 16×16 block: uniformly random half the time, otherwise one of the
/// extremes that push the SATD's `i16` lanes to their largest values —
/// random 0/255 samples, all 0 or all 255, or a 0/255 checkerboard.
fn block_16x16() -> impl Strategy<Value = [u8; 256]> {
    (0u8..8, proptest::collection::vec(any::<u8>(), 256)).prop_map(|(kind, bytes)| {
        let extreme = |bit: bool| if bit { 255 } else { 0 };
        let phase = usize::from(bytes[0] & 1);
        std::array::from_fn(|i| match kind {
            4 => extreme(bytes[i] & 1 == 1),
            5 => extreme(bytes[0] & 2 == 2),
            6 | 7 => extreme((i % 16 + i / 16 + phase) % 2 == 1),
            _ => bytes[i],
        })
    })
}

/// A plane of uniformly random samples, `w×h`.
fn random_plane(w: usize, h: usize) -> impl Strategy<Value = Plane> {
    proptest::collection::vec(any::<u8>(), w * h)
        .prop_map(move |samples| Plane::from_samples(w, h, samples))
}

/// A reference plane and a current plane of the same random size (16×16
/// up to 48×48), an in-bounds 16×16 block position, and a quarter-pel
/// motion vector reaching up to 24 pel past the plane on either side, so
/// reads cover the interior, the padded border and far beyond it.
fn planes_block_mv() -> impl Strategy<Value = (Plane, Plane, usize, usize, isize, isize)> {
    (16usize..=48, 16usize..=48).prop_flat_map(|(w, h)| {
        let (rx, ry) = (4 * (w as isize + 24), 4 * (h as isize + 24));
        (
            random_plane(w, h),
            random_plane(w, h),
            0..=w - 16,
            0..=h - 16,
            -rx..=rx,
            -ry..=ry,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interpolated_compensation_equals_the_per_sample_reference(
        (reference, _cur, x, y, mvx4, mvy4) in planes_block_mv(),
    ) {
        let interpolated = InterpolatedRef::new(&reference);
        let mut want = [0u8; 256];
        let mut got = [0u8; 256];
        // Every quarter-pel phase at the drawn integer position.
        for phase in 0..16 {
            let (mx, my) = ((mvx4 & !3) + phase % 4, (mvy4 & !3) + phase / 4);
            compensate_16x16(&reference, x, y, mx, my, &mut want);
            interpolated.compensate_16x16(x, y, mx, my, &mut got);
            prop_assert_eq!(got, want, "mv ({}, {}) at ({}, {})", mx, my, x, y);
        }
    }

    #[test]
    fn interpolated_integer_sad_equals_the_per_sample_reference(
        (reference, cur, x, y, mvx4, mvy4) in planes_block_mv(),
    ) {
        let interpolated = InterpolatedRef::new(&reference);
        let mut block = [0u8; 256];
        cur.read_block(x as isize, y as isize, 16, &mut block);
        let (mvx, mvy) = (mvx4 >> 2, mvy4 >> 2);
        prop_assert_eq!(
            interpolated.sad_16x16(&block, x, y, mvx, mvy),
            sad_16x16(&cur, &reference, x, y, mvx, mvy),
            "mv ({}, {}) at ({}, {})", mvx, mvy, x, y
        );
    }

    #[test]
    fn the_16x16_satd_equals_its_per_tile_definition(a in block_16x16(), b in block_16x16()) {
        prop_assert_eq!(satd_16x16(&a, &b), satd_nxn(&a, &b, 16));
    }

    #[test]
    fn rebuild_in_place_equals_a_fresh_build(
        (first, second) in (16usize..=48, 16usize..=48, 16usize..=48, 16usize..=48)
            .prop_flat_map(|(w0, h0, w1, h1)| (random_plane(w0, h0), random_plane(w1, h1))),
    ) {
        let mut rebuilt = InterpolatedRef::new(&first);
        rebuilt.rebuild(&second);
        let fresh = InterpolatedRef::new(&second);
        prop_assert!(
            rebuilt == fresh,
            "{}x{} over {}x{}",
            second.width(),
            second.height(),
            first.width(),
            first.height()
        );
    }
}

proptest! {
    #[test]
    fn transform_roundtrip_error_bounded_by_quantisation_step(r in residual(), qp in 0u8..=51) {
        // The reconstruction error per sample is bounded by the rescale
        // step of the QP (≈ V·2^(qp/6); generous envelope 2^(qp/6+5)).
        let recon = transform_roundtrip(&r, qp);
        let bound = 1i64 << (i64::from(qp / 6) + 5);
        for (a, b) in r.iter().zip(&recon) {
            prop_assert!(
                i64::from((a - b).abs()) <= bound,
                "qp {qp}: {a} vs {b} exceeds {bound}"
            );
        }
    }

    #[test]
    fn quantisation_never_increases_coefficient_count(r in residual(), qp in 20u8..=51) {
        let coarse = forward_quantised(&r, qp);
        let fine = forward_quantised(&r, qp.saturating_sub(15));
        let nz = |b: &[i32; 16]| b.iter().filter(|&&v| v != 0).count();
        prop_assert!(nz(&coarse) <= nz(&fine));
    }

    #[test]
    fn reconstruct_of_zero_coefficients_is_zero(qp in 0u8..=51) {
        prop_assert_eq!(reconstruct_residual(&[0i32; 16], qp), [0i32; 16]);
    }

    #[test]
    fn sad_is_a_metric(a in block(), b in block(), c in block()) {
        let d_ab = sad_block(&a, &b, 4);
        let d_ba = sad_block(&b, &a, 4);
        prop_assert_eq!(d_ab, d_ba); // symmetry
        prop_assert_eq!(sad_block(&a, &a, 4), 0); // identity
        // Triangle inequality (L1 is a metric).
        prop_assert!(d_ab <= sad_block(&a, &c, 4) + sad_block(&c, &b, 4));
    }

    #[test]
    fn satd_symmetric_and_zero_on_identity(a in block(), b in block()) {
        prop_assert_eq!(satd_4x4(&a, &b, 4), satd_4x4(&b, &a, 4));
        prop_assert_eq!(satd_4x4(&a, &a, 4), 0);
    }

    #[test]
    fn satd_bounded_by_sad_scaling(a in block(), b in block()) {
        // |H x|_1 ≤ 16 |x|_1 for the 4×4 Hadamard, so SATD ≤ 8·SAD, and
        // SATD ≥ SAD/2 (DC row of H sums all samples).
        let sad = sad_block(&a, &b, 4);
        let satd = satd_4x4(&a, &b, 4);
        prop_assert!(satd <= 8 * sad + 8);
        prop_assert!(2 * satd + 1 >= sad / 2);
    }

    #[test]
    fn ht2x2_roundtrip_is_linear_scaling(dc in proptest::collection::vec(-1000i32..1000, 4)) {
        let x = [dc[0], dc[1], dc[2], dc[3]];
        let y = inverse_ht2x2(&forward_ht2x2(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert_eq!(*b, a * 4);
        }
    }

    #[test]
    fn point_filter_preserves_constants(v in 0u8..=255) {
        let x = i32::from(v);
        let filtered = point_filter(x, x, x, x, x, x);
        prop_assert_eq!(pack_half_pel(filtered), v);
    }

    #[test]
    fn quarter_pel_samples_stay_in_convex_hull_of_constants(v in 0u8..=255, fx in 0i64..4, fy in 0i64..4) {
        let plane = Plane::filled(32, 32, v);
        let s = sample_quarter_pel(&plane, 64 + fx as isize, 64 + fy as isize);
        prop_assert_eq!(s, v, "constant plane must interpolate to itself");
    }

    #[test]
    fn clip3_is_idempotent_and_bounded(x in -100_000i32..100_000) {
        let c = clip3(0, 255, x);
        prop_assert!((0..=255).contains(&c));
        prop_assert_eq!(clip3(0, 255, c), c);
    }

    #[test]
    fn zigzag_roundtrip(r in residual()) {
        prop_assert_eq!(zigzag_unscan(&zigzag_scan(&r)), r);
    }

    #[test]
    fn run_level_reconstructs_nonzero_count(r in residual()) {
        let scanned = zigzag_scan(&r);
        let pairs = run_level(&scanned);
        let nz = r.iter().filter(|&&v| v != 0).count();
        prop_assert_eq!(pairs.len(), nz);
        let total: u64 = pairs.iter().map(|&(run, _)| u64::from(run) + 1).sum();
        prop_assert!(total <= 16);
    }

    #[test]
    fn bit_estimate_is_positive_and_bounded(r in residual()) {
        let bits = estimate_block_bits(&r);
        prop_assert!(bits >= 1);
        // 16 coefficients × (level ≤ 9 bits + sign + run) + header.
        prop_assert!(bits <= 16 * 24 + 8);
    }
}
