use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

use crate::{kernels, ModelError};

/// Number of `u16` components a [`Molecule`] stores inline, without heap
/// allocation. Molecules of arity above this cap spill to a `Vec<u16>`.
pub const INLINE_LANES: usize = 32;

/// Internal storage: inline small-buffer up to [`INLINE_LANES`] components,
/// heap spill above.
///
/// Invariant (relied on by `PartialEq`/`Hash`): a Molecule of arity ≤
/// [`INLINE_LANES`] is *always* `Inline`, so the representation is
/// canonical and equality can compare `counts()` slices.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, lanes: [u16; INLINE_LANES] },
    Spill(Vec<u16>),
}

/// A Molecule: a vector in `ℕⁿ` giving the desired number of instances of
/// each Atom type (paper Section 4.1).
///
/// Molecules form a complete lattice under the component-wise partial order
/// `≤` with join [`Molecule::union`] (component-wise `max`) and meet
/// [`Molecule::intersect`] (component-wise `min`). The *determinant* `|m|`
/// (total number of atoms) is exposed as [`Molecule::total_atoms`], and the
/// residual operator `⊖` — the minimum set of atoms that additionally have
/// to be offered — as [`Molecule::residual`].
///
/// # Representation and kernels
///
/// Counts are stored inline (no heap allocation) up to [`INLINE_LANES`]
/// components and spill to a `Vec<u16>` above that. Every lattice
/// operation calls the slice loops in [`crate::kernels`] directly.
///
/// # Examples
///
/// ```
/// use rispp_model::Molecule;
///
/// let available = Molecule::from_counts([0, 3]);
/// let wanted = Molecule::from_counts([1, 3]);
/// assert_eq!(available.residual(&wanted).total_atoms(), 1);
/// ```
#[derive(Clone)]
pub struct Molecule {
    repr: Repr,
}

impl Molecule {
    /// Creates the zero Molecule (the neutral element of `∪`) of the given
    /// arity.
    #[must_use]
    pub fn zero(arity: usize) -> Self {
        if arity <= INLINE_LANES {
            Molecule {
                repr: Repr::Inline {
                    len: arity as u8,
                    lanes: [0; INLINE_LANES],
                },
            }
        } else {
            Molecule {
                repr: Repr::Spill(vec![0; arity]),
            }
        }
    }

    /// Creates a Unit-Molecule `uᵢ`: a single instance of atom type `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= arity`.
    #[must_use]
    pub fn unit(arity: usize, index: usize) -> Self {
        assert!(index < arity, "unit index {index} out of arity {arity}");
        let mut m = Molecule::zero(arity);
        m.set_count(index, 1);
        m
    }

    /// Creates a Molecule from explicit per-type instance counts.
    #[must_use]
    pub fn from_counts<I: IntoIterator<Item = u16>>(counts: I) -> Self {
        let mut lanes = [0u16; INLINE_LANES];
        let mut len = 0usize;
        let mut iter = counts.into_iter();
        for v in iter.by_ref() {
            if len == INLINE_LANES {
                // Exceeds the inline cap: move to the spill representation.
                let (lo, _) = iter.size_hint();
                let mut spill = Vec::with_capacity(INLINE_LANES + 1 + lo);
                spill.extend_from_slice(&lanes);
                spill.push(v);
                spill.extend(iter);
                return Molecule {
                    repr: Repr::Spill(spill),
                };
            }
            lanes[len] = v;
            len += 1;
        }
        Molecule {
            repr: Repr::Inline {
                len: len as u8,
                lanes,
            },
        }
    }

    /// Number of distinct atom types this Molecule is defined over.
    #[must_use]
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Spill(v) => v.len(),
        }
    }

    /// The raw per-type instance counts.
    #[must_use]
    pub fn counts(&self) -> &[u16] {
        match &self.repr {
            Repr::Inline { len, lanes } => &lanes[..usize::from(*len)],
            Repr::Spill(v) => v,
        }
    }

    /// Mutable view of the per-type instance counts.
    fn counts_mut(&mut self) -> &mut [u16] {
        match &mut self.repr {
            Repr::Inline { len, lanes } => &mut lanes[..usize::from(*len)],
            Repr::Spill(v) => v,
        }
    }

    /// Instance count of atom type `index`, or 0 when out of range.
    #[must_use]
    pub fn count(&self, index: usize) -> u16 {
        self.counts().get(index).copied().unwrap_or(0)
    }

    /// Sets the instance count of atom type `index` in place — the
    /// allocation-free primitive behind inventory tracking (e.g. the
    /// fabric's available-atom vector).
    ///
    /// # Panics
    ///
    /// Panics if `index >= arity`.
    pub fn set_count(&mut self, index: usize, value: u16) {
        let arity = self.arity();
        match &mut self.repr {
            Repr::Inline { lanes, .. } => {
                assert!(index < arity, "index {index} out of arity {arity}");
                lanes[index] = value;
            }
            Repr::Spill(v) => v[index] = value,
        }
    }

    /// The determinant `|m|`: the total number of atoms required to
    /// implement this Molecule.
    ///
    /// # Panics
    ///
    /// Panics if the count exceeds `u32::MAX` (requires arity > 65537).
    #[must_use]
    pub fn total_atoms(&self) -> u32 {
        u32::try_from(kernels::total_atoms(self.counts())).expect("total atom count overflows u32")
    }

    /// Number of distinct atom *types* used (non-zero components).
    #[must_use]
    pub fn atom_type_count(&self) -> usize {
        self.counts().iter().filter(|&&c| c > 0).count()
    }

    /// Whether no atoms at all are required.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        kernels::total_atoms(self.counts()) == 0
    }

    /// The Meta-Molecule `m ∪ o` (component-wise maximum): atoms required to
    /// implement *both* operands.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ; use [`Molecule::checked_union`] for a
    /// fallible variant.
    #[must_use]
    pub fn union(&self, other: &Molecule) -> Molecule {
        self.checked_union(other).expect("molecule arity mismatch")
    }

    /// Fallible variant of [`Molecule::union`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] when the arities differ.
    pub fn checked_union(&self, other: &Molecule) -> Result<Molecule, ModelError> {
        self.binary(other, kernels::union_into)
    }

    /// In-place union `self ← self ∪ other`: like [`Molecule::union`] but
    /// folds into an existing accumulator without constructing a result.
    /// Hot loops maintaining a running supremum (one fold per considered
    /// Molecule) use this to stay allocation- and copy-free.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn union_assign(&mut self, other: &Molecule) {
        assert_eq!(self.arity(), other.arity(), "molecule arity mismatch");
        kernels::union_in_place(self.counts_mut(), other.counts());
    }

    /// Writes `self ∪ other` into `out`, overwriting its counts: the
    /// three-operand form of [`Molecule::union`] for callers that keep
    /// reusable result buffers (e.g. the selector's prefix/suffix
    /// supremum tables, rebuilt every upgrade round).
    ///
    /// # Panics
    ///
    /// Panics if the three arities are not all equal.
    pub fn union_into(&self, other: &Molecule, out: &mut Molecule) {
        assert_eq!(self.arity(), other.arity(), "molecule arity mismatch");
        assert_eq!(self.arity(), out.arity(), "molecule arity mismatch");
        kernels::union_into(self.counts(), other.counts(), out.counts_mut());
    }

    /// The Meta-Molecule `m ∩ o` (component-wise minimum): atoms that are
    /// collectively needed for both operands. No run needs it; it is kept
    /// as the meet of the paper's Section 4.1 lattice, whose laws
    /// `lattice_properties.rs` checks.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ; use [`Molecule::checked_intersect`] for
    /// a fallible variant.
    #[must_use]
    pub fn intersect(&self, other: &Molecule) -> Molecule {
        self.checked_intersect(other)
            .expect("molecule arity mismatch")
    }

    /// Fallible variant of [`Molecule::intersect`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] when the arities differ.
    pub fn checked_intersect(&self, other: &Molecule) -> Result<Molecule, ModelError> {
        self.binary(other, kernels::intersect_into)
    }

    /// The residual `self ⊖ other`: the minimum set of atoms that
    /// additionally have to be offered to implement `other`, assuming the
    /// atoms in `self` are already available (saturating component-wise
    /// subtraction `other - self`).
    ///
    /// Note the operand order follows the paper: `a ⊖ m` is "what `m` still
    /// needs on top of `a`".
    ///
    /// # Panics
    ///
    /// Panics if the arities differ; use [`Molecule::checked_residual`] for
    /// a fallible variant.
    #[must_use]
    pub fn residual(&self, other: &Molecule) -> Molecule {
        self.checked_residual(other)
            .expect("molecule arity mismatch")
    }

    /// Fallible variant of [`Molecule::residual`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] when the arities differ.
    pub fn checked_residual(&self, other: &Molecule) -> Result<Molecule, ModelError> {
        self.binary(other, kernels::residual_into)
    }

    /// `|self ⊖ other|` without materialising the residual Molecule:
    /// equivalent to `self.residual(other).total_atoms()` but
    /// allocation-free. The scheduler hot loops score every candidate by
    /// this count each round.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    #[must_use]
    pub fn residual_atoms(&self, other: &Molecule) -> u32 {
        assert_eq!(self.arity(), other.arity(), "molecule arity mismatch");
        kernels::residual_atoms(self.counts(), other.counts()) as u32
    }

    /// `|self ∪ other|` without materialising the union Molecule:
    /// equivalent to `self.union(other).total_atoms()` but copy-free.
    /// Molecule selection scores every upgrade candidate by the size of
    /// the would-be supremum each round.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    #[must_use]
    pub fn union_atoms(&self, other: &Molecule) -> u32 {
        assert_eq!(self.arity(), other.arity(), "molecule arity mismatch");
        kernels::union_atoms(self.counts(), other.counts()) as u32
    }

    /// Bitmask of the atom types present: bit `i` is set iff
    /// `count(i) > 0`. Hot paths that only need *which* types a Molecule
    /// uses (e.g. the fabric's per-type LRU marking) precompute this once
    /// per variant instead of rescanning the count slice per execution.
    ///
    /// # Panics
    ///
    /// Panics if the arity exceeds 64; callers over wider universes must
    /// stay on [`Molecule::counts`].
    #[must_use]
    pub fn nonzero_mask(&self) -> u64 {
        assert!(self.arity() <= 64, "nonzero_mask requires arity <= 64");
        kernels::nonzero_mask(self.counts())
    }

    /// Whether `self ≤ other` in the component-wise lattice order, i.e.
    /// `other` already covers every atom instance `self` requires.
    ///
    /// Equivalent to `self.partial_cmp(other)` being `Less` or `Equal`, in
    /// particular Molecules of differing arity are *not* subsets of each
    /// other. One directed pass — cheaper than `partial_cmp` when only the
    /// `≤` direction matters (the cleaning rule of eq. 4).
    #[must_use]
    pub fn is_subset(&self, other: &Molecule) -> bool {
        self.arity() == other.arity() && kernels::is_subset(self.counts(), other.counts())
    }

    /// Component-wise saturating addition; used to track loaded atoms.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    #[must_use]
    pub fn saturating_add(&self, other: &Molecule) -> Molecule {
        self.binary(other, kernels::saturating_add_into)
            .expect("molecule arity mismatch")
    }

    /// The supremum of a set of Molecules: the Meta-Molecule declaring all
    /// atoms needed to implement *any* Molecule of the set.
    ///
    /// Returns `None` for an empty iterator (the paper defines `sup ∅` only
    /// over non-empty subsets for the purposes of scheduling).
    ///
    /// # Panics
    ///
    /// Panics if the Molecules have differing arities.
    pub fn supremum<'a, I: IntoIterator<Item = &'a Molecule>>(set: I) -> Option<Molecule> {
        set.into_iter().fold(None, |acc, m| match acc {
            None => Some(m.clone()),
            Some(a) => Some(a.union(m)),
        })
    }

    /// Runs `kernel` over both count slices into a fresh zero Molecule of
    /// the shared arity (inline — no heap allocation — at arity ≤
    /// [`INLINE_LANES`]).
    #[inline]
    fn binary(
        &self,
        other: &Molecule,
        kernel: fn(&[u16], &[u16], &mut [u16]),
    ) -> Result<Molecule, ModelError> {
        if self.arity() != other.arity() {
            return Err(ModelError::ArityMismatch {
                left: self.arity(),
                right: other.arity(),
            });
        }
        let mut out = Molecule::zero(self.arity());
        match &mut out.repr {
            Repr::Inline { len, lanes } => {
                kernel(
                    self.counts(),
                    other.counts(),
                    &mut lanes[..usize::from(*len)],
                );
            }
            Repr::Spill(v) => kernel(self.counts(), other.counts(), v),
        }
        Ok(out)
    }
}

impl fmt::Debug for Molecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Molecule")
            .field("counts", &self.counts())
            .finish()
    }
}

impl Default for Molecule {
    fn default() -> Self {
        Molecule::zero(0)
    }
}

/// Equality compares the logical count vectors; the inline/spill split is
/// canonical (arity decides it), so comparing `counts()` slices is exact.
impl PartialEq for Molecule {
    fn eq(&self, other: &Self) -> bool {
        self.counts() == other.counts()
    }
}

impl Eq for Molecule {}

impl Hash for Molecule {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.counts().hash(state);
    }
}

/// Component-wise partial order: `m ≤ o` iff `∀i: mᵢ ≤ oᵢ`.
///
/// Molecules of different arity, and Molecules where neither dominates the
/// other, are incomparable (`partial_cmp` returns `None`).
impl PartialOrd for Molecule {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.arity() != other.arity() {
            return None;
        }
        kernels::partial_cmp(self.counts(), other.counts())
    }
}

impl Index<usize> for Molecule {
    type Output = u16;

    fn index(&self, index: usize) -> &u16 {
        &self.counts()[index]
    }
}

impl FromIterator<u16> for Molecule {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        Molecule::from_counts(iter)
    }
}

impl fmt::Display for Molecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.counts().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(counts: &[u16]) -> Molecule {
        Molecule::from_counts(counts.iter().copied())
    }

    #[test]
    fn zero_is_neutral_for_union() {
        let a = m(&[2, 0, 5]);
        assert_eq!(a.union(&Molecule::zero(3)), a);
    }

    #[test]
    fn union_is_componentwise_max() {
        assert_eq!(m(&[2, 1]).union(&m(&[1, 3])), m(&[2, 3]));
    }

    #[test]
    fn intersect_is_componentwise_min() {
        assert_eq!(m(&[2, 1]).intersect(&m(&[1, 3])), m(&[1, 1]));
    }

    #[test]
    fn paper_residual_example() {
        // a = (0,3), m4 = (1,3): a ⊖ m4 = (1,0), so |a ⊖ m4| = 1.
        let a = m(&[0, 3]);
        let m4 = m(&[1, 3]);
        let m2 = m(&[2, 2]);
        assert_eq!(a.residual(&m4), m(&[1, 0]));
        assert_eq!(a.residual(&m2), m(&[2, 0]));
        // With these initially available atoms, m4 is the cheaper upgrade,
        // exactly the situation of Section 4.3.
        assert!(a.residual(&m4).total_atoms() < a.residual(&m2).total_atoms());
    }

    #[test]
    fn partial_order_basics() {
        assert!(m(&[1, 2]) <= m(&[1, 3]));
        assert!(m(&[1, 2]) < m(&[2, 2]));
        assert_eq!(m(&[1, 2]).partial_cmp(&m(&[2, 1])), None);
        assert_eq!(m(&[1, 2]).partial_cmp(&m(&[1, 2])), Some(Ordering::Equal));
        assert_eq!(m(&[1]).partial_cmp(&m(&[1, 0])), None);
    }

    #[test]
    fn is_subset_matches_partial_order() {
        assert!(m(&[1, 2]).is_subset(&m(&[1, 3])));
        assert!(m(&[1, 2]).is_subset(&m(&[1, 2])));
        assert!(!m(&[1, 2]).is_subset(&m(&[2, 1])));
        assert!(!m(&[2, 1]).is_subset(&m(&[1, 2])));
        assert!(!m(&[1]).is_subset(&m(&[1, 0])));
    }

    #[test]
    fn supremum_dominates_all_members() {
        let set = [m(&[1, 0, 2]), m(&[0, 4, 1]), m(&[2, 2, 0])];
        let sup = Molecule::supremum(set.iter()).expect("non-empty");
        assert_eq!(sup, m(&[2, 4, 2]));
        for x in &set {
            assert!(x <= &sup);
        }
    }

    #[test]
    fn empty_set_has_no_supremum() {
        assert_eq!(Molecule::supremum(std::iter::empty()), None);
    }

    #[test]
    fn determinant_counts_all_instances() {
        assert_eq!(m(&[2, 0, 3]).total_atoms(), 5);
        assert_eq!(Molecule::zero(4).total_atoms(), 0);
    }

    #[test]
    fn unit_molecule_has_single_atom() {
        let u = Molecule::unit(4, 2);
        assert_eq!(u.total_atoms(), 1);
        assert_eq!(u.count(2), 1);
        assert_eq!(u.atom_type_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of arity")]
    fn unit_out_of_range_panics() {
        let _ = Molecule::unit(2, 2);
    }

    #[test]
    fn checked_ops_report_arity_mismatch() {
        let e = m(&[1]).checked_union(&m(&[1, 2])).unwrap_err();
        assert_eq!(e, ModelError::ArityMismatch { left: 1, right: 2 });
    }

    #[test]
    fn display_formats_as_tuple() {
        assert_eq!(m(&[1, 0, 3]).to_string(), "(1, 0, 3)");
        assert_eq!(Molecule::zero(0).to_string(), "()");
    }

    #[test]
    fn saturating_add_tracks_inventory() {
        assert_eq!(m(&[1, 2]).saturating_add(&m(&[3, 0])), m(&[4, 2]));
        // Per-lane saturation, no carry into the neighbouring component.
        assert_eq!(
            m(&[u16::MAX, 0]).saturating_add(&m(&[1, 7])),
            m(&[u16::MAX, 7])
        );
    }

    #[test]
    fn from_iterator_collects() {
        let x: Molecule = [1u16, 2, 3].into_iter().collect();
        assert_eq!(x, m(&[1, 2, 3]));
    }

    #[test]
    fn set_count_updates_in_place() {
        let mut x = Molecule::zero(5);
        x.set_count(3, 7);
        assert_eq!(x.counts(), &[0, 0, 0, 7, 0]);
        x.set_count(3, 0);
        assert!(x.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of arity")]
    fn set_count_out_of_range_panics() {
        Molecule::zero(2).set_count(2, 1);
    }

    #[test]
    fn spill_representation_above_inline_cap() {
        let arity = INLINE_LANES + 3;
        let counts: Vec<u16> = (0..arity as u16).collect();
        let big = Molecule::from_counts(counts.iter().copied());
        assert_eq!(big.arity(), arity);
        assert_eq!(big.counts(), &counts[..]);
        assert_eq!(
            u64::from(big.total_atoms()),
            counts.iter().map(|&c| u64::from(c)).sum::<u64>()
        );
        let z = Molecule::zero(arity);
        assert_eq!(z.union(&big), big);
        assert_eq!(z.residual(&big), big);
        assert!(z.is_subset(&big));
        assert_eq!(z.partial_cmp(&big), Some(Ordering::Less));
    }

    #[test]
    fn lane_boundary_values_survive_all_ops() {
        // Lane extremes around the per-lane sign bit and the saturation
        // bounds: no operation may carry or borrow across lanes.
        let a = m(&[0, u16::MAX, 0x8000, 0x7FFF, 1, 0x8001]);
        let b = m(&[u16::MAX, 0, 0x7FFF, 0x8000, 0x8000, 0x8001]);
        assert_eq!(
            a.union(&b).counts(),
            &[u16::MAX, u16::MAX, 0x8000, 0x8000, 0x8000, 0x8001]
        );
        assert_eq!(a.intersect(&b).counts(), &[0, 0, 0x7FFF, 0x7FFF, 1, 0x8001]);
        assert_eq!(a.residual(&b).counts(), &[u16::MAX, 0, 0, 1, 0x7FFF, 0]);
        assert_eq!(a.partial_cmp(&b), None);
        assert_eq!(a.residual_atoms(&b), 0xFFFF + 1 + 0x7FFF);
    }
}
