use rispp_model::{AtomTypeId, Molecule, SiId, SiLibrary};

use crate::CoreError;

/// One Molecule chosen by the selection step to implement an SI: the SI id
/// and the index into its [`variants`](rispp_model::SiDefinition::variants)
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectedMolecule {
    /// The Special Instruction being implemented.
    pub si: SiId,
    /// Index into the SI's variant list.
    pub variant_index: usize,
}

impl SelectedMolecule {
    /// Creates a selection entry.
    #[must_use]
    pub fn new(si: SiId, variant_index: usize) -> Self {
        SelectedMolecule { si, variant_index }
    }
}

/// Result of executing one Special Instruction through the run-time
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiExecution {
    /// Cycles the execution took.
    pub latency: u32,
    /// The Molecule variant used, or `None` when the SI trapped to the
    /// base instruction set (software path).
    pub variant_index: Option<usize>,
}

impl SiExecution {
    /// Whether the SI executed on accelerating hardware.
    #[must_use]
    pub fn is_hardware(&self) -> bool {
        self.variant_index.is_some()
    }
}

/// One homogeneous stretch of a burst execution: `count` executions at the
/// same latency, starting at cycle `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSegment {
    /// Cycle at which the first execution of this segment starts.
    pub start: u64,
    /// Number of executions in this segment.
    pub count: u64,
    /// Per-execution SI latency during this segment.
    pub latency: u32,
    /// Molecule variant used, or `None` for the software (trap) path.
    pub variant_index: Option<usize>,
}

impl BurstSegment {
    /// A software (trap) segment: `count` executions at the SI's software
    /// latency, starting at `start`. The single construction point for
    /// every execution system's trap path — the RISPP arbiter, the
    /// Molen/OneChip baselines and the software-only backend all emit
    /// exactly this shape.
    #[must_use]
    pub fn software(start: u64, count: u64, latency: u32) -> Self {
        BurstSegment {
            start,
            count,
            latency,
            variant_index: None,
        }
    }

    /// A hardware segment: `count` executions on Molecule variant
    /// `variant_index` at `latency` cycles each, starting at `start`.
    #[must_use]
    pub fn hardware(start: u64, count: u64, latency: u32, variant_index: usize) -> Self {
        BurstSegment {
            start,
            count,
            latency,
            variant_index: Some(variant_index),
        }
    }

    /// Whether this segment executed on accelerating hardware.
    #[must_use]
    pub fn is_hardware(&self) -> bool {
        self.variant_index.is_some()
    }
}

/// Validated input to a [`SchedulerKind`](crate::SchedulerKind): the set
/// `M` of selected Molecules, the currently available Atoms `a⃗` and the
/// expected SI execution counts from online monitoring.
#[derive(Debug, Clone)]
pub struct ScheduleRequest<'a> {
    library: &'a SiLibrary,
    selected: Vec<SelectedMolecule>,
    available: Molecule,
    expected: Vec<u64>,
    /// Per-atom-type demand pressure from *other* applications sharing the
    /// fabric (see [`ScheduleRequest::with_foreign_pressure`]); empty on a
    /// single-owner fabric, which keeps the schedulers' arithmetic exactly
    /// as in the single-tenant system.
    foreign_pressure: Vec<u64>,
}

impl<'a> ScheduleRequest<'a> {
    /// Creates and validates a request.
    ///
    /// `expected` is indexed by [`SiId`]; entries for unselected SIs are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when an SI or variant index is out of range,
    /// an SI is selected twice, the `expected` length does not match the
    /// library, or the `available` arity does not match the universe.
    pub fn new(
        library: &'a SiLibrary,
        selected: Vec<SelectedMolecule>,
        available: Molecule,
        expected: Vec<u64>,
    ) -> Result<Self, CoreError> {
        if expected.len() != library.len() {
            return Err(CoreError::ExpectedLengthMismatch {
                got: expected.len(),
                want: library.len(),
            });
        }
        if available.arity() != library.arity() {
            return Err(CoreError::ArityMismatch {
                got: available.arity(),
                want: library.arity(),
            });
        }
        let mut seen = vec![false; library.len()];
        for sel in &selected {
            let si = library.si(sel.si).ok_or(CoreError::UnknownSi(sel.si))?;
            if sel.variant_index >= si.variants().len() {
                return Err(CoreError::UnknownVariant {
                    si: sel.si,
                    variant: sel.variant_index,
                });
            }
            if std::mem::replace(&mut seen[sel.si.index()], true) {
                return Err(CoreError::DuplicateSelection(sel.si));
            }
        }
        Ok(ScheduleRequest {
            library,
            selected,
            available,
            expected,
            foreign_pressure: Vec::new(),
        })
    }

    /// Attaches contention pressure from other applications sharing the
    /// fabric: `pressure[t]` counts how many *other* apps forecast demand
    /// for atom type `t` (their protected working sets contain it). A
    /// contention-aware scheduler ([`SchedulerKind::Hef`](crate::SchedulerKind::Hef))
    /// adds this to each candidate's atom cost, so upgrades that would
    /// evict atoms other tenants still need must buy proportionally more
    /// benefit. An empty vector (the default) disables the term entirely.
    ///
    /// # Panics
    ///
    /// Panics if `pressure` is non-empty and its length differs from the
    /// universe arity.
    #[must_use]
    pub fn with_foreign_pressure(mut self, pressure: Vec<u64>) -> Self {
        assert!(
            pressure.is_empty() || pressure.len() == self.library.arity(),
            "foreign pressure length must match universe arity"
        );
        self.foreign_pressure = pressure;
        self
    }

    /// Per-atom-type contention pressure from other applications; empty on
    /// a single-owner fabric.
    #[must_use]
    pub fn foreign_pressure(&self) -> &[u64] {
        &self.foreign_pressure
    }

    /// The SI library.
    #[must_use]
    pub fn library(&self) -> &'a SiLibrary {
        self.library
    }

    /// The selected Molecules `M`.
    #[must_use]
    pub fn selected(&self) -> &[SelectedMolecule] {
        &self.selected
    }

    /// The currently available Atoms `a⃗`.
    #[must_use]
    pub fn available(&self) -> &Molecule {
        &self.available
    }

    /// Expected executions of `si` in the upcoming hot spot.
    #[must_use]
    pub fn expected(&self, si: SiId) -> u64 {
        self.expected.get(si.index()).copied().unwrap_or(0)
    }

    /// The atom vector of a selected Molecule.
    #[must_use]
    pub fn molecule(&self, sel: SelectedMolecule) -> &Molecule {
        &self.library.si(sel.si).expect("validated").variants()[sel.variant_index].atoms
    }

    /// `sup(M)`: all Atoms needed to implement every selected Molecule.
    /// Zero when nothing is selected.
    #[must_use]
    pub fn supremum(&self) -> Molecule {
        Molecule::supremum(self.selected.iter().map(|&s| self.molecule(s)))
            .unwrap_or_else(|| Molecule::zero(self.library.arity()))
    }

    /// Consumes the request, returning the `(expected, foreign_pressure)`
    /// storage so the arbiter can reuse both allocations across plans.
    #[must_use]
    pub fn into_scratch(self) -> (Vec<u64>, Vec<u64>) {
        (self.expected, self.foreign_pressure)
    }
}

/// One entry of the scheduling function SF: start loading one Atom
/// (a Unit-Molecule) at this position of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStep {
    /// The Atom type to load.
    pub atom: AtomTypeId,
    /// When this step completes a Molecule upgrade, the `(SI, variant)`
    /// that becomes available.
    pub completes: Option<(SiId, usize)>,
}

/// An Atom loading sequence — the output of a scheduler.
///
/// Satisfies condition (2) of the paper: the multiset of loaded Atoms is
/// exactly `sup(M) ⊖ a⃗` (checked by [`Schedule::validate`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    steps: Vec<ScheduleStep>,
}

impl Schedule {
    /// Creates a schedule from explicit steps.
    #[must_use]
    pub fn from_steps(steps: Vec<ScheduleStep>) -> Self {
        Schedule { steps }
    }

    /// The steps in loading order.
    #[must_use]
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps
    }

    /// Consumes the schedule, returning its step storage (see
    /// [`UpgradeBuffers::reclaim`](crate::UpgradeBuffers::reclaim)).
    #[must_use]
    pub fn into_steps(self) -> Vec<ScheduleStep> {
        self.steps
    }

    /// Number of Atom loads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no Atoms need to be loaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Iterates over the Atom types in loading order.
    pub fn atoms(&self) -> impl Iterator<Item = AtomTypeId> + '_ {
        self.steps.iter().map(|s| s.atom)
    }

    /// The Molecule-upgrade milestones in completion order.
    #[must_use]
    pub fn upgrades(&self) -> Vec<(SiId, usize)> {
        self.steps.iter().filter_map(|s| s.completes).collect()
    }

    /// Checks condition (2): the load multiset equals `sup(M) ⊖ available`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSchedule`] when an Atom is loaded too
    /// often, not often enough, or outside the universe.
    pub fn validate(&self, request: &ScheduleRequest<'_>) -> Result<(), CoreError> {
        let needed = request.available().residual(&request.supremum());
        let mut loaded = vec![0u16; request.library().arity()];
        for step in &self.steps {
            let idx = step.atom.index();
            if idx >= loaded.len() {
                return Err(CoreError::InvalidSchedule {
                    reason: format!("atom {} outside universe", step.atom),
                });
            }
            loaded[idx] += 1;
        }
        let loaded = Molecule::from_counts(loaded);
        if loaded != needed {
            return Err(CoreError::InvalidSchedule {
                reason: format!("loads {loaded} but condition (2) requires {needed}"),
            });
        }
        Ok(())
    }
}

impl FromIterator<ScheduleStep> for Schedule {
    fn from_iter<I: IntoIterator<Item = ScheduleStep>>(iter: I) -> Self {
        Schedule {
            steps: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_model::{AtomTypeInfo, AtomUniverse, SiLibraryBuilder};

    fn library() -> SiLibrary {
        let universe =
            AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("S0", 100)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0]), 10)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1]), 5)
            .unwrap();
        b.special_instruction("S1", 200)
            .unwrap()
            .molecule(Molecule::from_counts([0, 2]), 20)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn request_validation() {
        let lib = library();
        assert!(ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(SiId(0), 1)],
            Molecule::zero(2),
            vec![1, 1]
        )
        .is_ok());
        // Bad expected length.
        assert!(matches!(
            ScheduleRequest::new(&lib, vec![], Molecule::zero(2), vec![1]),
            Err(CoreError::ExpectedLengthMismatch { .. })
        ));
        // Bad arity.
        assert!(matches!(
            ScheduleRequest::new(&lib, vec![], Molecule::zero(3), vec![1, 1]),
            Err(CoreError::ArityMismatch { .. })
        ));
        // Unknown SI / variant, duplicate selection.
        assert!(ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(SiId(9), 0)],
            Molecule::zero(2),
            vec![1, 1]
        )
        .is_err());
        assert!(ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(SiId(0), 5)],
            Molecule::zero(2),
            vec![1, 1]
        )
        .is_err());
        assert!(ScheduleRequest::new(
            &lib,
            vec![
                SelectedMolecule::new(SiId(0), 0),
                SelectedMolecule::new(SiId(0), 1)
            ],
            Molecule::zero(2),
            vec![1, 1]
        )
        .is_err());
    }

    #[test]
    fn supremum_and_required_containers() {
        let lib = library();
        let req = ScheduleRequest::new(
            &lib,
            vec![
                SelectedMolecule::new(SiId(0), 1),
                SelectedMolecule::new(SiId(1), 0),
            ],
            Molecule::zero(2),
            vec![1, 1],
        )
        .unwrap();
        assert_eq!(req.supremum(), Molecule::from_counts([2, 2]));
        assert_eq!(req.supremum().total_atoms(), 4);
    }

    #[test]
    fn validate_checks_condition_two() {
        let lib = library();
        let req = ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(SiId(0), 1)],
            Molecule::from_counts([1, 0]),
            vec![1, 1],
        )
        .unwrap();
        // Needs (2,1) ⊖ (1,0) = (1,1).
        let good = Schedule::from_steps(vec![
            ScheduleStep {
                atom: AtomTypeId(1),
                completes: None,
            },
            ScheduleStep {
                atom: AtomTypeId(0),
                completes: Some((SiId(0), 1)),
            },
        ]);
        good.validate(&req).unwrap();
        let short: Schedule = good.steps()[..1].iter().copied().collect();
        assert!(short.validate(&req).is_err());
        let wrong = Schedule::from_steps(vec![ScheduleStep {
            atom: AtomTypeId(7),
            completes: None,
        }]);
        assert!(wrong.validate(&req).is_err());
    }

    #[test]
    fn empty_selection_is_trivially_valid() {
        let lib = library();
        let req = ScheduleRequest::new(&lib, vec![], Molecule::zero(2), vec![0, 0]).unwrap();
        assert_eq!(req.supremum().total_atoms(), 0);
        Schedule::default().validate(&req).unwrap();
    }

    #[test]
    fn schedule_accessors() {
        let s = Schedule::from_steps(vec![
            ScheduleStep {
                atom: AtomTypeId(0),
                completes: None,
            },
            ScheduleStep {
                atom: AtomTypeId(1),
                completes: Some((SiId(0), 0)),
            },
        ]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(
            s.atoms().collect::<Vec<_>>(),
            vec![AtomTypeId(0), AtomTypeId(1)]
        );
        assert_eq!(s.upgrades(), vec![(SiId(0), 0)]);
    }
}
