use crate::context::UpgradeContext;
use crate::explain::{CandidateScore, ScheduleExplain};
use crate::types::SelectedMolecule;

/// [*First Select First Reconfigure*](crate::SchedulerKind::Fsfr): upgrades
/// the most important SI (expected executions × potential improvement of
/// its selected Molecule) through its intermediate Molecules until the
/// selected Molecule is composed, before starting the second SI, and so on.
///
/// The paper shows (Figure 7) that FSFR degrades with a moderate number of
/// Atom Containers because less important SIs run in software for a long
/// time, while from ~17 ACs on it overtakes ASF.
pub(crate) fn schedule(
    ctx: &mut UpgradeContext<'_, '_>,
    mut explain: Option<&mut ScheduleExplain>,
) {
    for sel in importance_order(ctx) {
        upgrade_si_to_selected(ctx, sel, explain.as_deref_mut());
    }
}

/// Orders the selected Molecules by descending importance (ties broken by
/// SI id for determinism).
pub(crate) fn importance_order(ctx: &UpgradeContext<'_, '_>) -> Vec<SelectedMolecule> {
    let mut order: Vec<(u64, SelectedMolecule)> = ctx
        .request()
        .selected()
        .iter()
        .map(|&sel| (ctx.importance(sel), sel))
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.si.cmp(&b.1.si)));
    order.into_iter().map(|(_, sel)| sel).collect()
}

/// Upgrades one SI stepwise to its selected Molecule: repeatedly commits
/// the candidate of `si` needing the fewest additional atoms (ties by lower
/// latency) until the selected Molecule is available/scheduled. When
/// `explain` is supplied, each commit is recorded as an `"importance"` (or
/// `"direct-load"`) round with the SI's scored candidates.
pub(crate) fn upgrade_si_to_selected(
    ctx: &mut UpgradeContext<'_, '_>,
    sel: SelectedMolecule,
    mut explain: Option<&mut ScheduleExplain>,
) {
    let request = ctx.request();
    while !request.molecule(sel).is_subset(ctx.scheduled_atoms()) {
        ctx.clean();
        if let Some(i) = ctx.cheapest_candidate(sel.si) {
            ctx.explain_round(explain.as_deref_mut(), "importance", Some(sel.si), i);
            ctx.commit(i);
            continue;
        }
        // All candidates of this SI were cleaned away (e.g. zero
        // improvement); load the selected molecule directly. The molecule
        // borrows from `request`, which outlives `ctx`, so no clone is
        // needed.
        let atoms = request.molecule(sel);
        let latency =
            request.library().si(sel.si).expect("validated").variants()[sel.variant_index].latency;
        if let Some(ex) = explain {
            let chosen = CandidateScore {
                si: sel.si,
                variant_index: sel.variant_index,
                gain: u64::from(ctx.best_latency(sel.si).saturating_sub(latency)),
                cost: u64::from(ctx.scheduled_atoms().residual_atoms(atoms)),
            };
            ex.record("direct-load", Vec::new(), Some(chosen));
        }
        ctx.commit_external(sel.si, sel.variant_index, atoms, latency);
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScheduleRequest;
    use crate::SchedulerKind;
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};

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
    fn fsfr_fully_upgrades_most_important_si_first() {
        let lib = two_si_library();
        // SI1 more important.
        let req = request(&lib, [1000, 10]);
        let schedule = SchedulerKind::Fsfr.schedule(&req);
        schedule.validate(&req).unwrap();
        let upgrades = schedule.upgrades();
        let si0_final = upgrades.iter().position(|&u| u == (SiId(0), 2)).unwrap();
        let si1_first = upgrades.iter().position(|&(si, _)| si == SiId(1)).unwrap();
        assert!(
            si0_final < si1_first,
            "FSFR must finish SI1 before touching SI2: {upgrades:?}"
        );
    }

    #[test]
    fn fsfr_steps_through_intermediate_molecules() {
        let lib = two_si_library();
        let req = request(&lib, [1000, 10]);
        let schedule = SchedulerKind::Fsfr.schedule(&req);
        let upgrades = schedule.upgrades();
        // SI1's path must include intermediate variants 0 and 1 before 2.
        let si0_path: Vec<usize> = upgrades
            .iter()
            .filter(|&&(si, _)| si == SiId(0))
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(si0_path, vec![0, 1, 2]);
    }

    #[test]
    fn fsfr_importance_ordering_reacts_to_expectations() {
        let lib = two_si_library();
        let req = request(&lib, [10, 1000]);
        let schedule = SchedulerKind::Fsfr.schedule(&req);
        schedule.validate(&req).unwrap();
        let upgrades = schedule.upgrades();
        let si1_final = upgrades.iter().position(|&u| u == (SiId(1), 2)).unwrap();
        let si0_first = upgrades.iter().position(|&(si, _)| si == SiId(0)).unwrap();
        assert!(si1_final < si0_first);
    }

    #[test]
    fn fsfr_condition_two_with_overlapping_molecules() {
        let lib = two_si_library();
        let req = ScheduleRequest::new(
            &lib,
            vec![
                SelectedMolecule::new(SiId(0), 2),
                SelectedMolecule::new(SiId(1), 2),
            ],
            Molecule::from_counts([1, 1]),
            vec![5, 5],
        )
        .unwrap();
        let schedule = SchedulerKind::Fsfr.schedule(&req);
        schedule.validate(&req).unwrap();
    }
}
