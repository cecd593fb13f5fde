//! Property-based tests of the `(ℕⁿ, ∪, ∩, ≤)` lattice of Section 4.1.

use proptest::prelude::*;
use rispp_model::Molecule;

const ARITY: usize = 6;

fn molecule() -> impl Strategy<Value = Molecule> {
    proptest::collection::vec(0u16..32, ARITY).prop_map(Molecule::from_counts)
}

proptest! {
    #[test]
    fn union_commutative(a in molecule(), b in molecule()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn union_associative(a in molecule(), b in molecule(), c in molecule()) {
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn union_idempotent(a in molecule()) {
        prop_assert_eq!(a.union(&a), a);
    }

    #[test]
    fn union_neutral_element_is_zero(a in molecule()) {
        prop_assert_eq!(a.union(&Molecule::zero(ARITY)), a);
    }

    #[test]
    fn intersect_commutative(a in molecule(), b in molecule()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn intersect_associative(a in molecule(), b in molecule(), c in molecule()) {
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
    }

    #[test]
    fn intersect_idempotent(a in molecule()) {
        prop_assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn absorption_laws(a in molecule(), b in molecule()) {
        // a ∪ (a ∩ b) = a and a ∩ (a ∪ b) = a make the structure a lattice.
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.intersect(&a.union(&b)), a);
    }

    #[test]
    fn order_consistent_with_lattice_ops(a in molecule(), b in molecule()) {
        // a ≤ b  ⟺  a ∪ b = b  ⟺  a ∩ b = a
        let le = a <= b;
        prop_assert_eq!(le, a.union(&b) == b);
        prop_assert_eq!(le, a.intersect(&b) == a);
    }

    #[test]
    fn order_reflexive(a in molecule()) {
        prop_assert!(a <= a);
    }

    #[test]
    fn order_antisymmetric(a in molecule(), b in molecule()) {
        if a <= b && b <= a {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn order_transitive(a in molecule(), b in molecule(), c in molecule()) {
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    #[test]
    fn operands_bound_by_union_and_intersection(a in molecule(), b in molecule()) {
        let sup = a.union(&b);
        let inf = a.intersect(&b);
        prop_assert!(a <= sup && b <= sup);
        prop_assert!(inf <= a && inf <= b);
    }

    #[test]
    fn residual_closes_the_gap(a in molecule(), m in molecule()) {
        // Loading a ⊖ m on top of a makes m available: m ≤ a + (a ⊖ m).
        let add = a.residual(&m);
        let after = a.saturating_add(&add);
        prop_assert!(m <= after.clone());
        // And it is minimal: removing any unit from the residual breaks it.
        for i in 0..ARITY {
            if add.count(i) > 0 {
                let mut counts: Vec<u16> = add.counts().to_vec();
                counts[i] -= 1;
                let smaller = a.saturating_add(&Molecule::from_counts(counts));
                // Not `m > smaller`: the molecules may be incomparable.
                prop_assert!(!matches!(
                    m.partial_cmp(&smaller),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                ));
            }
        }
    }

    #[test]
    fn residual_zero_when_already_available(a in molecule(), m in molecule()) {
        if m <= a {
            prop_assert!(a.residual(&m).is_zero());
        }
    }

    #[test]
    fn determinant_additive_over_residual(a in molecule(), m in molecule()) {
        // |a ∪ m| = |a| + |a ⊖ m|
        prop_assert_eq!(
            a.union(&m).total_atoms(),
            a.total_atoms() + a.residual(&m).total_atoms()
        );
    }

    #[test]
    fn supremum_is_least_upper_bound(ms in proptest::collection::vec(molecule(), 1..6)) {
        let sup = Molecule::supremum(ms.iter()).unwrap();
        for m in &ms {
            prop_assert!(m <= &sup);
        }
        // Least: any other upper bound dominates sup.
        let other_bound = sup.saturating_add(&Molecule::unit(ARITY, 0));
        prop_assert!(sup <= other_bound);
    }
}
