//! The public `Molecule` API against reference formulations it does not
//! call: every lattice operation must agree with them bit for bit across
//! random arities — the paper's 11, around the 8- and 16-lane widths the
//! autovectorizer works in, below, at and above the inline cap (inline vs
//! spill representations) — with counts biased toward the
//! 0x7FFF/0x8000/0xFFFF lanes where a carry or borrow across lanes, or a
//! missed saturation, shows first.
//!
//! The references are the `Vec`-returning `union`, `intersect`,
//! `residual` and `saturating_add` below (`Molecule` calls the `_into`
//! kernels) and, for the reductions and comparisons, plain iterator
//! expressions written here.

use std::cmp::Ordering;

use proptest::prelude::*;
use rispp_model::{Molecule, INLINE_LANES};

/// Component-wise maximum.
fn union(a: &[u16], b: &[u16]) -> Vec<u16> {
    a.iter().zip(b).map(|(&x, &y)| x.max(y)).collect()
}

/// Component-wise minimum.
fn intersect(a: &[u16], b: &[u16]) -> Vec<u16> {
    a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect()
}

/// Component-wise saturating `o − a` (the residual `a ⊖ o`).
fn residual(a: &[u16], o: &[u16]) -> Vec<u16> {
    a.iter()
        .zip(o)
        .map(|(&x, &y)| y.saturating_sub(x))
        .collect()
}

/// Component-wise saturating addition.
fn saturating_add(a: &[u16], b: &[u16]) -> Vec<u16> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x.saturating_add(y))
        .collect()
}

/// Arities covering small vectors, the paper's H.264 universe (11), the 8-
/// and 16-lane vector boundaries, the inline cap boundary and the spill
/// path.
fn arity() -> impl Strategy<Value = usize> {
    const TABLE: [usize; 16] = [
        1,
        2,
        3,
        4,
        5,
        7,
        8,
        9,
        11,
        15,
        16,
        17,
        INLINE_LANES - 1,
        INLINE_LANES,
        INLINE_LANES + 1,
        2 * INLINE_LANES + 5,
    ];
    (0usize..TABLE.len()).prop_map(|sel| TABLE[sel])
}

/// Counts biased toward the kernel edge cases: lane extremes around the
/// per-lane sign bit and saturation boundaries, plus small values.
fn count() -> impl Strategy<Value = u16> {
    (0u8..9, any::<u16>()).prop_map(|(sel, raw)| match sel {
        0..=3 => raw % 8,
        4 | 5 => raw,
        6 => 0x7FFF,
        7 => 0x8000,
        _ => u16::MAX,
    })
}

/// A pair of equal-arity count vectors, correlated so that dominated /
/// dominating / incomparable pairs all occur with useful frequency.
fn pair() -> impl Strategy<Value = (Vec<u16>, Vec<u16>)> {
    arity().prop_flat_map(|n| {
        (
            proptest::collection::vec(count(), n),
            proptest::collection::vec(count(), n),
            any::<bool>(),
        )
            .prop_map(|(a, b, dominate)| {
                if dominate {
                    // Make b dominate a component-wise so Less/Equal
                    // orderings are generated, not just None.
                    let b: Vec<u16> = a
                        .iter()
                        .zip(&b)
                        .map(|(&x, &y)| x.saturating_add(y % 4))
                        .collect();
                    (a, b)
                } else {
                    (a, b)
                }
            })
    })
}

fn molecules(a: &[u16], b: &[u16]) -> (Molecule, Molecule) {
    (
        Molecule::from_counts(a.iter().copied()),
        Molecule::from_counts(b.iter().copied()),
    )
}

fn sum(counts: &[u16]) -> u64 {
    counts.iter().map(|&c| u64::from(c)).sum()
}

fn subset(a: &[u16], b: &[u16]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

proptest! {
    #[test]
    fn union_matches_reference((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        let expected = union(&a, &b);
        prop_assert_eq!(ma.union(&mb).counts(), &expected[..]);
        // The in-place and write-into forms are the same fold.
        let mut acc = ma.clone();
        acc.union_assign(&mb);
        prop_assert_eq!(acc.counts(), &expected[..]);
        let mut out = Molecule::zero(ma.arity());
        ma.union_into(&mb, &mut out);
        prop_assert_eq!(out.counts(), &expected[..]);
    }

    #[test]
    fn intersect_matches_reference((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        prop_assert_eq!(ma.intersect(&mb).counts(), &intersect(&a, &b)[..]);
    }

    #[test]
    fn residual_matches_reference((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        prop_assert_eq!(ma.residual(&mb).counts(), &residual(&a, &b)[..]);
    }

    #[test]
    fn saturating_add_matches_reference((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        prop_assert_eq!(ma.saturating_add(&mb).counts(), &saturating_add(&a, &b)[..]);
    }

    #[test]
    fn residual_atoms_is_the_size_of_the_residual((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        prop_assert_eq!(u64::from(ma.residual_atoms(&mb)), sum(&residual(&a, &b)));
    }

    #[test]
    fn union_atoms_is_the_size_of_the_union((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        prop_assert_eq!(u64::from(ma.union_atoms(&mb)), sum(&union(&a, &b)));
    }

    #[test]
    fn total_atoms_is_the_sum_of_the_counts((a, _) in pair()) {
        let ma = Molecule::from_counts(a.iter().copied());
        prop_assert_eq!(u64::from(ma.total_atoms()), sum(&a));
        prop_assert_eq!(ma.is_zero(), a.iter().all(|&c| c == 0));
    }

    #[test]
    fn nonzero_mask_marks_exactly_the_positive_lanes(
        a in proptest::collection::vec(count(), 1..65usize)
    ) {
        let mask = Molecule::from_counts(a.clone()).nonzero_mask();
        for (i, &c) in a.iter().enumerate() {
            prop_assert_eq!(mask >> i & 1 == 1, c > 0);
        }
        if a.len() < 64 {
            prop_assert_eq!(mask >> a.len(), 0);
        }
    }

    #[test]
    fn is_subset_is_lane_wise_less_or_equal((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        prop_assert_eq!(ma.is_subset(&mb), subset(&a, &b));
        prop_assert_eq!(mb.is_subset(&ma), subset(&b, &a));
    }

    #[test]
    fn partial_cmp_is_built_from_the_two_subset_tests((a, b) in pair()) {
        let (ma, mb) = molecules(&a, &b);
        let expected = match (subset(&a, &b), subset(&b, &a)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        };
        prop_assert_eq!(ma.partial_cmp(&mb), expected);
    }

    /// Mixed inline/spill operands: same logical vector must behave
    /// identically regardless of representation, and cross-arity
    /// comparisons are incomparable.
    #[test]
    fn representations_are_canonical(a in proptest::collection::vec(count(), 1..INLINE_LANES + 1)) {
        let inline = Molecule::from_counts(a.clone());
        // Force the same logical prefix through the spill path by
        // extending past the cap, then compare the shared prefix ops.
        let mut extended = a.clone();
        extended.resize(INLINE_LANES + 4, 0);
        let spill = Molecule::from_counts(extended);
        prop_assert_eq!(inline.counts(), &spill.counts()[..a.len()]);
        // Different arity ⇒ incomparable, never equal.
        prop_assert_eq!(inline.partial_cmp(&spill), None);
        prop_assert!(!inline.is_subset(&spill));
        prop_assert!(inline.checked_union(&spill).is_err());
    }
}
