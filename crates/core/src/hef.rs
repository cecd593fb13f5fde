use crate::context::UpgradeContext;
use crate::explain::{CandidateScore, ScheduleExplain};

/// [*Highest Efficiency First*](crate::SchedulerKind::Hef) — the paper's
/// proposed scheduler (Figure 6).
///
/// Each round, every remaining Molecule candidate `o⃗` is scored with
///
/// ```text
/// benefit(o⃗) = expected(SI(o⃗)) · (bestLatency[SI(o⃗)] − latency(o⃗)) / |a⃗ ⊖ o⃗|
/// ```
///
/// i.e. the latency improvement over the SI's currently fastest
/// available/scheduled Molecule, weighted by the expected executions of the
/// SI and relativised by the number of additionally required Atoms. The
/// candidate with the highest benefit is scheduled next.
///
/// Like the paper's hardware implementation, the comparison avoids the
/// division: `(g₁/c₁) > (g₂/c₂)` is evaluated as `g₁·c₂ > g₂·c₁`, which is
/// valid because the additional-atom counts are always positive after
/// cleaning (eq. 4).
pub(crate) fn schedule(
    ctx: &mut UpgradeContext<'_, '_>,
    mut explain: Option<&mut ScheduleExplain>,
) {
    let request = ctx.request();
    let mut scored: Vec<CandidateScore> = Vec::new();
    // On a shared multi-tenant fabric, atoms other tenants forecast
    // demand for carry a contention surcharge; empty pressure (every
    // single-owner run) leaves the arithmetic bit-identical.
    let pressure = request.foreign_pressure();
    while !ctx.clean().is_empty() {
        // bestBenefit starts at 0 and the comparison is strict, so
        // candidates with zero expected executions are never chosen here
        // (finish() completes them for condition (2) afterwards).
        let mut best: Option<(usize, u64, u64)> = None; // (index, gain, cost)
        for (i, c) in ctx.candidates().iter().enumerate() {
            let cost = u64::from(ctx.add_atoms(i)) + ctx.pressure_cost(i, pressure);
            debug_assert!(cost > 0, "cleaning must remove available candidates");
            let gain = request.expected(c.si) * u64::from(ctx.improvement(i));
            if explain.is_some() {
                scored.push(CandidateScore {
                    si: c.si,
                    variant_index: c.variant_index,
                    gain,
                    cost,
                });
            }
            let better = match best {
                None => gain > 0,
                // (gain/cost) > (best_gain/best_cost) without division;
                // the cross products of two u64s need (and always fit)
                // u128 — saturating u64 multiplies could collapse both
                // sides to u64::MAX and mis-order near-overflow gains.
                Some((_, bg, bc)) => {
                    u128::from(gain) * u128::from(bc) > u128::from(bg) * u128::from(cost)
                }
            };
            if better {
                best = Some((i, gain, cost));
            }
        }
        let Some((i, _, _)) = best else {
            if let Some(ex) = explain {
                if !scored.is_empty() {
                    ex.record("upgrade", scored, None);
                }
            }
            break;
        };
        if let Some(ex) = explain.as_deref_mut() {
            // `scored` is parallel to the candidate list.
            let chosen = scored[i];
            ex.record("upgrade", std::mem::take(&mut scored), Some(chosen));
        }
        ctx.commit(i);
    }
}

#[cfg(test)]
mod tests {
    use crate::types::{ScheduleRequest, SelectedMolecule};
    use crate::SchedulerKind;
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};

    /// Two SIs over two atom types, as in Figure 5 of the paper.
    fn two_si_library() -> SiLibrary {
        let universe =
            AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("SI1", 1000)
            .unwrap()
            .molecule(Molecule::from_counts([1, 1]), 120)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1]), 70)
            .unwrap()
            .molecule(Molecule::from_counts([3, 2]), 30)
            .unwrap();
        b.special_instruction("SI2", 800)
            .unwrap()
            .molecule(Molecule::from_counts([0, 1]), 200)
            .unwrap()
            .molecule(Molecule::from_counts([1, 2]), 90)
            .unwrap()
            .molecule(Molecule::from_counts([2, 3]), 45)
            .unwrap();
        b.build().unwrap()
    }

    fn request(lib: &SiLibrary, expected: [u64; 2]) -> ScheduleRequest<'_> {
        ScheduleRequest::new(
            lib,
            vec![
                SelectedMolecule::new(SiId(0), 2),
                SelectedMolecule::new(SiId(1), 2),
            ],
            Molecule::zero(2),
            expected.to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn hef_schedule_is_valid() {
        let lib = two_si_library();
        let req = request(&lib, [500, 300]);
        let schedule = SchedulerKind::Hef.schedule(&req);
        schedule.validate(&req).unwrap();
        // sup = (3,2) ∪ (2,3) = (3,3) -> 6 atoms from scratch.
        assert_eq!(schedule.len(), 6);
    }

    #[test]
    fn hef_starts_with_cheapest_high_benefit_upgrade() {
        let lib = two_si_library();
        // SI2 hugely important: its 1-atom molecule (0,1)@200 has benefit
        // 10000·(800-200)/1 = 6e6, far above any SI1 candidate.
        let req = request(&lib, [10, 10_000]);
        let schedule = SchedulerKind::Hef.schedule(&req);
        let first = schedule.steps()[0];
        assert_eq!(first.atom.index(), 1);
        assert_eq!(first.completes, Some((SiId(1), 0)));
    }

    #[test]
    fn hef_interleaves_sis_by_benefit() {
        let lib = two_si_library();
        let req = request(&lib, [500, 450]);
        let schedule = SchedulerKind::Hef.schedule(&req);
        let upgrades = schedule.upgrades();
        // Both SIs must receive at least one intermediate upgrade before
        // either reaches its selected molecule.
        let sis: Vec<SiId> = upgrades.iter().map(|&(si, _)| si).collect();
        assert!(sis.contains(&SiId(0)) && sis.contains(&SiId(1)));
        let first_si0_final = upgrades.iter().position(|&u| u == (SiId(0), 2)).unwrap();
        let first_si1_any = upgrades.iter().position(|&(si, _)| si == SiId(1)).unwrap();
        assert!(
            first_si1_any < first_si0_final,
            "SI2 must get accelerated before SI1 is fully upgraded"
        );
    }

    #[test]
    fn hef_with_zero_expectations_still_satisfies_condition_two() {
        let lib = two_si_library();
        let req = request(&lib, [0, 0]);
        let schedule = SchedulerKind::Hef.schedule(&req);
        schedule.validate(&req).unwrap();
    }

    #[test]
    fn hef_respects_preloaded_atoms() {
        let lib = two_si_library();
        let req = ScheduleRequest::new(
            &lib,
            vec![
                SelectedMolecule::new(SiId(0), 2),
                SelectedMolecule::new(SiId(1), 2),
            ],
            Molecule::from_counts([2, 2]),
            vec![100, 100],
        )
        .unwrap();
        let schedule = SchedulerKind::Hef.schedule(&req);
        schedule.validate(&req).unwrap();
        // sup = (3,3); available (2,2) -> only 2 atoms to load.
        assert_eq!(schedule.len(), 2);
    }

    #[test]
    fn division_free_comparison_matches_division() {
        // Exhaustive check on small values: (a·b)/c > (d·e)/f ⟺ abf > dec
        // for the comparison used by HEF (integer benefit semantics are
        // defined by the cross-multiplied form).
        for g1 in 0u64..20 {
            for c1 in 1u64..5 {
                for g2 in 0u64..20 {
                    for c2 in 1u64..5 {
                        let exact = (g1 as f64 / c1 as f64) > (g2 as f64 / c2 as f64);
                        let crossed = g1 * c2 > g2 * c1;
                        assert_eq!(exact, crossed);
                    }
                }
            }
        }
    }

    #[test]
    fn division_free_comparison_is_exact_near_u64_max() {
        // Cross products of u64 operands always fit u128, so the widened
        // comparison is exact where the old `saturating_mul` form collapsed
        // both sides to u64::MAX and reported "not better".
        let cross = |g1: u64, c1: u64, g2: u64, c2: u64| {
            u128::from(g1) * u128::from(c2) > u128::from(g2) * u128::from(c1)
        };
        // g1/c1 = u64::MAX/2 < g2/c2 = u64::MAX/2 + 1, yet both saturated
        // cross products equal u64::MAX (2·(MAX/2+1) and 1·MAX overflow or
        // saturate identically under u64 saturating_mul).
        let (g1, c1) = (u64::MAX, 2);
        let (g2, c2) = (u64::MAX / 2 + 1, 1);
        assert!(g1.saturating_mul(c2) == g2.saturating_mul(c1)); // old: tie
        assert!(!cross(g1, c1, g2, c2) && cross(g2, c2, g1, c1)); // exact
                                                                  // Boundary grid around the extremes stays consistent with the
                                                                  // rational order g/c evaluated independently by long division:
                                                                  // compare integer quotients first, then the remainders (again as
                                                                  // exact fractions r/c, recursing once suffices since r < c).
        let rational_gt = |g1: u64, c1: u64, g2: u64, c2: u64| {
            let (q1, r1) = (g1 / c1, g1 % c1);
            let (q2, r2) = (g2 / c2, g2 % c2);
            q1 > q2
                || (q1 == q2 && u128::from(r1) * u128::from(c2) > u128::from(r2) * u128::from(c1))
        };
        let interesting = [
            1u64,
            2,
            3,
            u64::MAX / 2,
            u64::MAX / 2 + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &g1 in &interesting {
            for &c1 in &[1u64, 2, 3, u64::MAX] {
                for &g2 in &interesting {
                    for &c2 in &[1u64, 2, 3, u64::MAX] {
                        assert_eq!(cross(g1, c1, g2, c2), rational_gt(g1, c1, g2, c2));
                    }
                }
            }
        }
    }
}
