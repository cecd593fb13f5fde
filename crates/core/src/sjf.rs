use crate::asf::load_starters;
use crate::context::UpgradeContext;
use crate::explain::ScheduleExplain;

/// [*Smallest Job First*](crate::SchedulerKind::Sjf): like ASF it first
/// loads the smallest hardware Molecule for each SI; afterwards it
/// repeatedly schedules the Molecule candidate requiring the **fewest
/// additional Atoms**, breaking ties by the bigger performance improvement.
///
/// SJF avoids FSFR's single-SI fixation but still decides on purely local
/// upgrade cost without weighting by expected executions — the gap HEF
/// closes.
pub(crate) fn schedule(
    ctx: &mut UpgradeContext<'_, '_>,
    mut explain: Option<&mut ScheduleExplain>,
) {
    load_starters(ctx, explain.as_deref_mut());
    // Then the globally smallest job next; ties -> bigger improvement.
    while !ctx.clean().is_empty() {
        let best = (0..ctx.candidates().len())
            .min_by_key(|&i| {
                // Cached scores; zero improvement never survives cleaning.
                let c = &ctx.candidates()[i];
                (
                    ctx.add_atoms(i),
                    std::cmp::Reverse(ctx.improvement(i)),
                    c.si,
                )
            })
            .expect("cleaned candidate list is non-empty");
        ctx.explain_round(explain.as_deref_mut(), "smallest-job", None, best);
        ctx.commit(best);
    }
}

#[cfg(test)]
mod tests {
    use crate::types::{ScheduleRequest, SelectedMolecule};
    use crate::SchedulerKind;
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};

    fn two_si_library() -> SiLibrary {
        let universe = AtomUniverse::from_types([
            AtomTypeInfo::new("A1"),
            AtomTypeInfo::new("A2"),
        ])
        .unwrap();
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
    fn sjf_schedule_is_valid_and_complete() {
        let lib = two_si_library();
        let req = request(&lib, [500, 300]);
        let schedule = SchedulerKind::Sjf.schedule(&req);
        schedule.validate(&req).unwrap();
        assert_eq!(schedule.len(), 6); // sup = (3,3)
    }

    #[test]
    fn sjf_ignores_expected_executions_in_phase_two() {
        let lib = two_si_library();
        // Same workload weights flipped must yield the same *set* of phase-2
        // decisions modulo the phase-1 importance ordering; check that the
        // first phase-2 upgrade is the locally smallest job regardless of
        // extreme weights.
        let req = request(&lib, [1, 1_000_000]);
        let schedule = SchedulerKind::Sjf.schedule(&req);
        schedule.validate(&req).unwrap();
        let upgrades = schedule.upgrades();
        // Phase 1 (id order) loads SI1's starter (1,1); SI2's starter (0,1)
        // is then already covered, so a = (1,1). Phase 2 candidates cost:
        // SI1 (2,1) -> 1 atom (improvement 50), SI2 (1,2) -> 1 atom
        // (improvement 110), the finals 3 atoms each. Smallest-job ties
        // break by improvement, so SI2's (1,2) comes first — by
        // cost/improvement only, not by the extreme expected-execution
        // weights (SJF's defining weakness).
        assert_eq!(upgrades[1], (SiId(1), 1), "{upgrades:?}");
        assert_eq!(upgrades[2], (SiId(0), 1), "{upgrades:?}");
    }

    #[test]
    fn sjf_tie_breaks_by_bigger_improvement() {
        let universe = AtomUniverse::from_types([
            AtomTypeInfo::new("A1"),
            AtomTypeInfo::new("A2"),
        ])
        .unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        // Both SIs have a 1-atom starter and a 2-atom final; the finals both
        // need 1 additional atom after phase 1, improvements differ.
        b.special_instruction("SMALL_GAIN", 500)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0]), 100)
            .unwrap()
            .molecule(Molecule::from_counts([2, 0]), 90)
            .unwrap();
        b.special_instruction("BIG_GAIN", 500)
            .unwrap()
            .molecule(Molecule::from_counts([0, 1]), 100)
            .unwrap()
            .molecule(Molecule::from_counts([0, 2]), 10)
            .unwrap();
        let lib = b.build().unwrap();
        let req = ScheduleRequest::new(
            &lib,
            vec![
                SelectedMolecule::new(SiId(0), 1),
                SelectedMolecule::new(SiId(1), 1),
            ],
            Molecule::zero(2),
            vec![10, 10],
        )
        .unwrap();
        let schedule = SchedulerKind::Sjf.schedule(&req);
        schedule.validate(&req).unwrap();
        let upgrades = schedule.upgrades();
        let big_final = upgrades.iter().position(|&u| u == (SiId(1), 1)).unwrap();
        let small_final = upgrades.iter().position(|&u| u == (SiId(0), 1)).unwrap();
        assert!(big_final < small_final, "{upgrades:?}");
    }
}
