//! The Molecule lattice operations on bare count slices.
//!
//! [`crate::Molecule`] calls these directly. They are plain loops over
//! `u16` lanes, which LLVM auto-vectorises; DESIGN.md §10 records the
//! measurements behind having no hand-vectorised variant.
//! `crates/model/tests/molecule_reference.rs` checks the `Molecule` API
//! against `Vec`-returning reference formulations of its own.

use std::cmp::Ordering;

/// Component-wise maximum into `out`.
pub fn union_into(a: &[u16], b: &[u16], out: &mut [u16]) {
    for ((&x, &y), o) in a.iter().zip(b).zip(out) {
        *o = x.max(y);
    }
}

/// Component-wise maximum folded into `acc` (`accᵢ ← max(accᵢ, bᵢ)`).
pub fn union_in_place(acc: &mut [u16], b: &[u16]) {
    for (x, &y) in acc.iter_mut().zip(b) {
        *x = (*x).max(y);
    }
}

/// Component-wise minimum into `out`.
pub fn intersect_into(a: &[u16], b: &[u16], out: &mut [u16]) {
    for ((&x, &y), o) in a.iter().zip(b).zip(out) {
        *o = x.min(y);
    }
}

/// Component-wise saturating `o − a` (residual direction) into `out`.
pub fn residual_into(a: &[u16], o: &[u16], out: &mut [u16]) {
    for ((&x, &y), r) in a.iter().zip(o).zip(out) {
        *r = y.saturating_sub(x);
    }
}

/// Component-wise saturating addition into `out`.
pub fn saturating_add_into(a: &[u16], b: &[u16], out: &mut [u16]) {
    for ((&x, &y), o) in a.iter().zip(b).zip(out) {
        *o = x.saturating_add(y);
    }
}

/// Sum of all components.
#[must_use]
pub fn total_atoms(a: &[u16]) -> u64 {
    a.iter().map(|&c| u64::from(c)).sum()
}

/// `Σᵢ max(oᵢ − aᵢ, 0)`.
#[must_use]
pub fn residual_atoms(a: &[u16], o: &[u16]) -> u64 {
    a.iter()
        .zip(o)
        .map(|(&x, &y)| u64::from(y.saturating_sub(x)))
        .sum()
}

/// `Σᵢ max(aᵢ, bᵢ)`.
#[must_use]
pub fn union_atoms(a: &[u16], b: &[u16]) -> u64 {
    a.iter().zip(b).map(|(&x, &y)| u64::from(x.max(y))).sum()
}

/// Whether `aᵢ ≤ bᵢ` for every component.
#[must_use]
pub fn is_subset(a: &[u16], b: &[u16]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x <= y)
}

/// Bitmask of the non-zero components: bit `i` set iff `a[i] > 0`.
/// Callers must keep `a.len() <= 64`.
#[must_use]
pub fn nonzero_mask(a: &[u16]) -> u64 {
    debug_assert!(a.len() <= 64, "nonzero_mask requires arity <= 64");
    a.iter()
        .enumerate()
        .fold(0u64, |m, (i, &c)| if c > 0 { m | (1 << i) } else { m })
}

/// Component-wise partial order.
#[must_use]
pub fn partial_cmp(a: &[u16], b: &[u16]) -> Option<Ordering> {
    let mut le = true;
    let mut ge = true;
    for (&x, &y) in a.iter().zip(b) {
        le &= x <= y;
        ge &= x >= y;
        if !le && !ge {
            return None;
        }
    }
    match (le, ge) {
        (true, true) => Some(Ordering::Equal),
        (true, false) => Some(Ordering::Less),
        (false, true) => Some(Ordering::Greater),
        (false, false) => None,
    }
}
