//! Property test: the 12-state HEF FSM model computes bit-identical
//! schedules to the software HEF scheduler on arbitrary libraries,
//! selections and fabric states — the hardware/software equivalence the
//! paper's prototype relies on.

use proptest::prelude::*;
use rispp_core::{ScheduleRequest, SchedulerKind, SelectedMolecule};
use rispp_hw::{FsmState, HefFsm};
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};

const ARITY: usize = 5;

#[derive(Debug, Clone)]
struct Scenario {
    library: SiLibrary,
    selected: Vec<SelectedMolecule>,
    available: Molecule,
    expected: Vec<u64>,
}

fn molecule() -> impl Strategy<Value = Molecule> {
    proptest::collection::vec(0u16..4, ARITY)
        .prop_filter("non-empty", |c| c.iter().any(|&x| x > 0))
        .prop_map(Molecule::from_counts)
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..4)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(
                    proptest::collection::vec((molecule(), 1u32..800), 1..7),
                    n,
                ),
                proptest::collection::vec(0u64..5_000, n),
                proptest::collection::vec(0u16..3, ARITY),
                proptest::collection::vec(any::<prop::sample::Index>(), n),
            )
        })
        .prop_map(|(variant_lists, expected, available, picks)| {
            let universe =
                AtomUniverse::from_types((0..ARITY).map(|i| AtomTypeInfo::new(format!("T{i}"))))
                    .expect("unique names");
            let mut builder = SiLibraryBuilder::new(universe);
            for (i, variants) in variant_lists.iter().enumerate() {
                let mut si = builder
                    .special_instruction(format!("SI{i}"), 2_000)
                    .expect("unique names");
                for (atoms, latency) in variants {
                    let _ = si.molecule(atoms.clone(), *latency);
                }
            }
            let library = builder.build().expect("every SI has molecules");
            let selected = (0..library.len())
                .map(|i| {
                    let si = library.si(SiId(i as u16)).expect("in range");
                    SelectedMolecule::new(si.id(), picks[i].index(si.variants().len()))
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
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fsm_and_software_hef_agree(sc in scenario()) {
        let request = ScheduleRequest::new(
            &sc.library,
            sc.selected.clone(),
            sc.available.clone(),
            sc.expected.clone(),
        ).expect("valid scenario");
        let run = HefFsm::new().run(&request);
        let software = SchedulerKind::Hef.schedule(&request);
        prop_assert_eq!(&run.schedule, &software);
        prop_assert!(run.schedule.validate(&request).is_ok());
        // Cycle accounting: visits sum to the total, mandatory states once.
        prop_assert_eq!(run.state_visits.iter().sum::<u64>(), run.cycles);
        prop_assert_eq!(run.state_visits[0], 1); // Idle
        prop_assert_eq!(run.state_visits[11], 1); // Finalize
        prop_assert_eq!(FsmState::ALL.len(), 12);
        // Every committed round emits at least one cycle in SelectCommit.
        prop_assert_eq!(run.state_visits[9], u64::from(run.rounds));
    }
}
