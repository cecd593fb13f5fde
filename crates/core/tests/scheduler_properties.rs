//! Property tests over all four scheduling strategies: every scheduler must
//! produce a valid schedule (paper condition 2) on arbitrary libraries,
//! selections and availability states.

use proptest::prelude::*;
use rispp_core::{
    ScheduleExplain, ScheduleRequest, SchedulerKind, SelectedMolecule, UpgradeBuffers,
};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};

const ARITY: usize = 4;

#[derive(Debug, Clone)]
struct Scenario {
    library: SiLibrary,
    selected: Vec<SelectedMolecule>,
    available: Molecule,
    expected: Vec<u64>,
}

fn molecule_strategy() -> impl Strategy<Value = Molecule> {
    proptest::collection::vec(0u16..4, ARITY)
        .prop_filter("non-empty molecule", |c| c.iter().any(|&x| x > 0))
        .prop_map(Molecule::from_counts)
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let si_count = 1usize..4;
    si_count
        .prop_flat_map(|n| {
            let variants = proptest::collection::vec(
                proptest::collection::vec((molecule_strategy(), 1u32..500), 1..6),
                n,
            );
            let expected = proptest::collection::vec(0u64..2_000, n);
            let available = proptest::collection::vec(0u16..3, ARITY);
            let variant_pick = proptest::collection::vec(any::<prop::sample::Index>(), n);
            (variants, expected, available, variant_pick)
        })
        .prop_map(|(variants, expected, available, picks)| {
            let universe =
                AtomUniverse::from_types((0..ARITY).map(|i| AtomTypeInfo::new(format!("T{i}"))))
                    .expect("unique names");
            let mut builder = SiLibraryBuilder::new(universe);
            for (i, vs) in variants.iter().enumerate() {
                let mut si = builder
                    .special_instruction(format!("SI{i}"), 1_000)
                    .expect("unique names");
                for (atoms, latency) in vs {
                    // Duplicate atom vectors with different latencies can
                    // occur in the btree_set; skip rejected inserts.
                    let _ = si.molecule(atoms.clone(), *latency);
                }
            }
            let library = builder.build().expect("each SI has molecules");
            let selected = (0..library.len())
                .map(|i| {
                    let si = library.si(SiId(i as u16)).expect("in range");
                    let v = picks[i].index(si.variants().len());
                    SelectedMolecule::new(si.id(), v)
                })
                .collect();
            Scenario {
                library,
                selected,
                available: Molecule::from_counts(available),
                expected,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_schedulers_produce_valid_schedules(sc in scenario()) {
        let request = ScheduleRequest::new(
            &sc.library,
            sc.selected.clone(),
            sc.available.clone(),
            sc.expected.clone(),
        ).expect("scenario is valid");
        for kind in SchedulerKind::ALL {
            let schedule = kind.schedule(&request);
            prop_assert!(
                schedule.validate(&request).is_ok(),
                "{kind} violated condition (2)"
            );
        }
    }

    #[test]
    fn schedulers_are_deterministic(sc in scenario()) {
        let request = ScheduleRequest::new(
            &sc.library,
            sc.selected.clone(),
            sc.available.clone(),
            sc.expected.clone(),
        ).expect("scenario is valid");
        for kind in SchedulerKind::ALL {
            let plain = kind.schedule(&request);
            prop_assert_eq!(&plain, &kind.schedule(&request));
            // Explaining only observes: recording every decision round
            // must not change a single step of the schedule.
            let mut explain = ScheduleExplain::new(kind.abbreviation());
            let explained =
                kind.schedule_with(&request, &mut UpgradeBuffers::new(), Some(&mut explain));
            prop_assert_eq!(&explained, &plain, "{} explained schedule differs", kind);
        }
    }

    #[test]
    fn upgrade_milestones_are_monotone_improvements(sc in scenario()) {
        // Replaying any schedule must never increase an SI's best latency.
        let request = ScheduleRequest::new(
            &sc.library,
            sc.selected.clone(),
            sc.available.clone(),
            sc.expected.clone(),
        ).expect("scenario is valid");
        for kind in SchedulerKind::ALL {
            let schedule = kind.schedule(&request);
            let mut atoms = sc.available.clone();
            let mut best: Vec<u32> = sc.library.iter().map(|si| si.best_latency(&atoms)).collect();
            for step in schedule.steps() {
                atoms = atoms.saturating_add(&Molecule::unit(ARITY, step.atom.index()));
                for si in sc.library.iter() {
                    let now = si.best_latency(&atoms);
                    prop_assert!(now <= best[si.id().index()]);
                    best[si.id().index()] = now;
                }
            }
            // After the full schedule every selected molecule is available.
            for sel in &sc.selected {
                prop_assert!(request.molecule(*sel) <= &atoms);
            }
        }
    }
}
