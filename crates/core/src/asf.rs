use crate::context::UpgradeContext;
use crate::explain::ScheduleExplain;
use crate::fsfr::{importance_order, upgrade_si_to_selected};

/// [*Avoid Software First*](crate::SchedulerKind::Asf): first loads one
/// (small) accelerating Molecule for **every** SI — so that no SI keeps
/// trapping to the base instruction set longer than necessary — and then
/// continues like FSFR.
///
/// The paper notes the drawback: ASF initially spends reconfiguration
/// bandwidth even on SIs that are executed far less often than others,
/// which is why FSFR overtakes it from ~17 Atom Containers on (Figure 7).
pub(crate) fn schedule(
    ctx: &mut UpgradeContext<'_, '_>,
    mut explain: Option<&mut ScheduleExplain>,
) {
    load_starters(ctx, explain.as_deref_mut());
    // Then follow the FSFR path (importance order).
    for sel in importance_order(ctx) {
        upgrade_si_to_selected(ctx, sel, explain.as_deref_mut());
    }
}

/// The starter round of ASF and SJF: one accelerating Molecule per SI, the
/// candidate needing the fewest additional atoms, recorded as a
/// `"starter"` round. The paper specifies no ordering here ("first loading
/// an accelerating Molecule for all SIs"), so the SIs are walked in id
/// order — which is exactly why ASF "initially spends some time to
/// accelerate all SIs, even though some of them are significantly less
/// often executed".
pub(crate) fn load_starters(
    ctx: &mut UpgradeContext<'_, '_>,
    mut explain: Option<&mut ScheduleExplain>,
) {
    let request = ctx.request();
    let mut starters = request.selected().to_vec();
    starters.sort_by_key(|sel| sel.si);
    for sel in starters {
        ctx.clean();
        let software = request
            .library()
            .si(sel.si)
            .expect("validated")
            .software_latency();
        if ctx.best_latency(sel.si) < software {
            // Already accelerated by initially available atoms or an
            // overlap with a previously scheduled molecule.
            continue;
        }
        if let Some(i) = ctx.cheapest_candidate(sel.si) {
            ctx.explain_round(explain.as_deref_mut(), "starter", Some(sel.si), i);
            ctx.commit(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::types::{ScheduleRequest, SelectedMolecule};
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
    fn asf_accelerates_every_si_before_finishing_any() {
        let lib = two_si_library();
        let req = request(&lib, [1000, 10]);
        let schedule = SchedulerKind::Asf.schedule(&req);
        schedule.validate(&req).unwrap();
        let upgrades = schedule.upgrades();
        // Both SIs get their first molecule before any SI reaches its
        // selected (final) molecule.
        let si0_first = upgrades.iter().position(|&(si, _)| si == SiId(0)).unwrap();
        let si1_first = upgrades.iter().position(|&(si, _)| si == SiId(1)).unwrap();
        let any_final = upgrades
            .iter()
            .position(|&u| u == (SiId(0), 2) || u == (SiId(1), 2))
            .unwrap();
        assert!(
            si0_first < any_final && si1_first < any_final,
            "{upgrades:?}"
        );
    }

    #[test]
    fn asf_differs_from_fsfr_when_one_si_dominates() {
        let lib = two_si_library();
        let req = request(&lib, [1000, 10]);
        let asf = SchedulerKind::Asf.schedule(&req);
        let fsfr = SchedulerKind::Fsfr.schedule(&req);
        assert_ne!(asf.upgrades(), fsfr.upgrades());
    }

    #[test]
    fn asf_phase1_skips_already_accelerated_sis() {
        let lib = two_si_library();
        // SI2's smallest molecule (0,1) is pre-loaded.
        let req = ScheduleRequest::new(
            &lib,
            vec![
                SelectedMolecule::new(SiId(0), 2),
                SelectedMolecule::new(SiId(1), 2),
            ],
            Molecule::from_counts([0, 1]),
            vec![100, 100],
        )
        .unwrap();
        let schedule = SchedulerKind::Asf.schedule(&req);
        schedule.validate(&req).unwrap();
        // First upgrade must belong to SI1 (SI2 is already accelerated).
        assert_eq!(schedule.upgrades()[0].0, SiId(0));
    }
}
