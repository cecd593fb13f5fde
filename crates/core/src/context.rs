use rispp_model::{AtomTypeId, Molecule, SiId};

use crate::explain::{CandidateScore, ScheduleExplain};
use crate::types::{Schedule, ScheduleRequest, ScheduleStep, SelectedMolecule};

/// One Molecule-upgrade candidate from the set `M′` of eq. (3): a Molecule
/// of a selected SI that is dominated by `sup(M)` and therefore a possible
/// intermediate step on the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The SI this Molecule implements.
    pub si: SiId,
    /// Index into the SI's variant list.
    pub variant_index: usize,
    /// The candidate's atom requirements.
    pub atoms: Molecule,
    /// Single-execution latency of the SI on this Molecule.
    pub latency: u32,
}

/// Reusable backing storage for [`UpgradeContext`].
///
/// Scheduling runs on every hot-spot entry; without buffer reuse each run
/// allocates a candidate list, a best-latency array and a step list. A
/// caller that schedules repeatedly (e.g.
/// [`FabricArbiter`](crate::FabricArbiter)) keeps one `UpgradeBuffers`
/// alive, passes it to
/// [`SchedulerKind::schedule_with`](crate::SchedulerKind::schedule_with) and
/// [`reclaim`](UpgradeBuffers::reclaim)s the spent schedule, so the steady
/// state performs no hot-path allocations.
#[derive(Debug, Default)]
pub struct UpgradeBuffers {
    candidates: Vec<Candidate>,
    best_latency: Vec<u32>,
    steps: Vec<ScheduleStep>,
    add_atoms: Vec<u32>,
    improvement: Vec<u32>,
    changed: Vec<(usize, u16, u16)>,
}

impl UpgradeBuffers {
    /// Creates empty buffers (equivalent to `Default`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes back the step storage of a schedule that is no longer needed,
    /// making the allocation available to the next scheduling run.
    pub fn reclaim(&mut self, schedule: Schedule) {
        let mut steps = schedule.into_steps();
        steps.clear();
        self.steps = steps;
    }
}

/// Shared state of the Molecule-upgrade scheduling loop used by all four
/// schedulers: the candidate set `M′` (eq. 3), the cleaning rule (eq. 4),
/// and the commit step that appends the residual Atoms of a chosen
/// candidate to the schedule.
///
/// # Incremental candidate scores
///
/// The context maintains, in lockstep with `candidates`, the two scores the
/// scheduler inner loops rank by: `add_atoms[i] = |a⃗ ⊖ oᵢ|` (additionally
/// required atoms) and `improvement[i] = bestLatency[SI(oᵢ)] − latency(oᵢ)`
/// (saturating). The caches are keyed by [`generation`](Self::generation):
/// every commit bumps the generation and *incrementally* re-scores only
/// what the commit touched — `add_atoms` by the delta over the components
/// of `a⃗` that actually changed, `improvement` only for candidates of the
/// committed SI — instead of a full rescan per round. Debug builds verify
/// the caches against freshly computed scores on every
/// [`clean`](Self::clean).
#[derive(Debug)]
pub struct UpgradeContext<'a, 'lib> {
    request: &'a ScheduleRequest<'lib>,
    /// `a⃗`: available ∪ already-scheduled atoms.
    scheduled: Molecule,
    /// Best (lowest) latency per SI id, initialised from the initially
    /// available atoms (software latency when no Molecule is available)
    /// for the selected SIs, the only ones the schedulers read; every
    /// other entry holds 0.
    best_latency: Vec<u32>,
    candidates: Vec<Candidate>,
    steps: Vec<ScheduleStep>,
    /// Cached `|a⃗ ⊖ oᵢ|` per candidate (parallel to `candidates`).
    add_atoms: Vec<u32>,
    /// Cached `bestLatency[SI(oᵢ)] ⊖ latency(oᵢ)` per candidate.
    improvement: Vec<u32>,
    /// Scratch: `(component, old, new)` of `a⃗` changed by the last commit.
    changed: Vec<(usize, u16, u16)>,
    /// Availability generation: bumped by every commit that the score
    /// caches were re-keyed to.
    generation: u64,
}

impl<'a, 'lib> UpgradeContext<'a, 'lib> {
    /// Builds the context: enumerates `M′` per eq. (3) and initialises the
    /// `bestLatency` array from the currently available atoms (Figure 6,
    /// lines 1–9) for the selected SIs: every candidate, commit and
    /// importance belongs to one of them.
    #[must_use]
    pub fn new(request: &'a ScheduleRequest<'lib>) -> Self {
        Self::init(request, &mut UpgradeBuffers::new())
    }

    /// Like [`UpgradeContext::new`], but borrows the vectors inside
    /// `buffers` instead of allocating. Pair with
    /// [`UpgradeContext::into_schedule`] to return them.
    #[must_use]
    pub fn from_buffers(request: &'a ScheduleRequest<'lib>, buffers: &mut UpgradeBuffers) -> Self {
        Self::init(request, buffers)
    }

    fn init(request: &'a ScheduleRequest<'lib>, buffers: &mut UpgradeBuffers) -> Self {
        let mut best_latency = std::mem::take(&mut buffers.best_latency);
        let mut candidates = std::mem::take(&mut buffers.candidates);
        let mut steps = std::mem::take(&mut buffers.steps);
        let mut add_atoms = std::mem::take(&mut buffers.add_atoms);
        let mut improvement = std::mem::take(&mut buffers.improvement);
        let mut changed = std::mem::take(&mut buffers.changed);
        let library = request.library();
        let sup = request.supremum();
        let available = request.available();

        best_latency.clear();
        best_latency.resize(library.len(), 0);
        for sel in request.selected() {
            let si = library.si(sel.si).expect("validated request");
            best_latency[sel.si.index()] = si.best_latency(available);
        }

        candidates.clear();
        for sel in request.selected() {
            let si = library.si(sel.si).expect("validated request");
            for (variant_index, v) in si.variants().iter().enumerate() {
                // eq. (3): o ≤ sup(M) and o implements a selected SI.
                if v.atoms <= sup {
                    candidates.push(Candidate {
                        si: sel.si,
                        variant_index,
                        atoms: v.atoms.clone(),
                        latency: v.latency,
                    });
                }
            }
        }
        candidates.sort_by_key(|c| (c.si, c.variant_index));
        steps.clear();

        // Initial score caches (generation 0); commits keep them current.
        add_atoms.clear();
        improvement.clear();
        for c in &candidates {
            add_atoms.push(available.residual_atoms(&c.atoms));
            improvement.push(best_latency[c.si.index()].saturating_sub(c.latency));
        }
        changed.clear();

        UpgradeContext {
            request,
            scheduled: available.clone(),
            best_latency,
            candidates,
            steps,
            add_atoms,
            improvement,
            changed,
            generation: 0,
        }
    }

    /// The request being scheduled (borrowed for as long as the context's
    /// request, so it stays readable while the context is mutated).
    #[must_use]
    pub fn request(&self) -> &'a ScheduleRequest<'lib> {
        self.request
    }

    /// `a⃗`: atoms available or already scheduled.
    #[must_use]
    pub fn scheduled_atoms(&self) -> &Molecule {
        &self.scheduled
    }

    /// Current best latency of `si`, a selected SI, considering scheduled
    /// upgrades.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `si` is not selected (its entry is not kept).
    #[must_use]
    pub fn best_latency(&self, si: SiId) -> u32 {
        debug_assert!(
            self.request.selected().iter().any(|sel| sel.si == si),
            "bestLatency is kept for selected SIs only"
        );
        self.best_latency[si.index()]
    }

    /// Applies the cleaning rule of eq. (4): drops candidates that are
    /// already available/scheduled (`m ≤ a⃗`) or that do not improve on the
    /// SI's current best latency. Returns the remaining candidates.
    ///
    /// Runs entirely on the incremental score caches: `m ≤ a⃗` (in the
    /// partial lattice order — incomparable candidates survive) is exactly
    /// `|a⃗ ⊖ m| = 0`, and "does not improve" is exactly a zero cached
    /// improvement, so no lattice operation is re-evaluated here.
    pub fn clean(&mut self) -> &[Candidate] {
        self.debug_validate_caches();
        // Order-preserving compaction of the candidate list and its two
        // parallel score caches in lockstep.
        let mut write = 0;
        for read in 0..self.candidates.len() {
            if self.add_atoms[read] > 0 && self.improvement[read] > 0 {
                self.candidates.swap(write, read);
                self.add_atoms.swap(write, read);
                self.improvement.swap(write, read);
                write += 1;
            }
        }
        self.candidates.truncate(write);
        self.add_atoms.truncate(write);
        self.improvement.truncate(write);
        &self.candidates
    }

    /// Verifies the incremental score caches against freshly computed
    /// values (debug builds only): every test run proves the cached scores
    /// bit-identical to a full rescan.
    #[inline]
    fn debug_validate_caches(&self) {
        if cfg!(debug_assertions) {
            for (i, c) in self.candidates.iter().enumerate() {
                debug_assert_eq!(
                    self.add_atoms[i],
                    self.scheduled.residual_atoms(&c.atoms),
                    "stale add_atoms cache at generation {}",
                    self.generation
                );
                debug_assert_eq!(
                    self.improvement[i],
                    self.best_latency[c.si.index()].saturating_sub(c.latency),
                    "stale improvement cache at generation {}",
                    self.generation
                );
            }
        }
    }

    /// The availability generation the score caches are keyed to: bumped on
    /// every commit (each commit changes `a⃗` and/or a best latency).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cached `|a⃗ ⊖ oᵢ|` of the candidate at `index`: the additional atoms
    /// it needs, maintained incrementally across commits.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn add_atoms(&self, index: usize) -> u32 {
        self.add_atoms[index]
    }

    /// Cached latency improvement of the candidate at `index` over its SI's
    /// current best latency (saturating at zero), maintained incrementally
    /// across commits.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn improvement(&self, index: usize) -> u32 {
        self.improvement[index]
    }

    /// Index of the candidate of `si` needing the fewest additional atoms
    /// (ties: lower latency) — the next step of FSFR's stepwise upgrade and
    /// of the ASF/SJF starter round.
    pub(crate) fn cheapest_candidate(&self, si: SiId) -> Option<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.si == si)
            .min_by_key(|&(i, c)| (self.add_atoms[i], c.latency))
            .map(|(i, _)| i)
    }

    /// The candidate at `index` scored the way FSFR, ASF and SJF rank:
    /// cached improvement as the gain, additional atoms as the cost.
    fn score(&self, index: usize) -> CandidateScore {
        let c = &self.candidates[index];
        CandidateScore {
            si: c.si,
            variant_index: c.variant_index,
            gain: u64::from(self.improvement[index]),
            cost: u64::from(self.add_atoms[index]),
        }
    }

    /// Records an FSFR/ASF/SJF decision round into `explain` when one is
    /// supplied: the candidates in the running (those of `si`, or all of
    /// them for `None`), each [scored](Self::score), with the candidate at
    /// `chosen` as the winner.
    pub(crate) fn explain_round(
        &self,
        explain: Option<&mut ScheduleExplain>,
        phase: &'static str,
        si: Option<SiId>,
        chosen: usize,
    ) {
        let Some(explain) = explain else {
            return;
        };
        let scored = (0..self.candidates.len())
            .filter(|&j| si.is_none_or(|si| self.candidates[j].si == si))
            .map(|j| self.score(j))
            .collect();
        explain.record(phase, scored, Some(self.score(chosen)));
    }

    /// The candidate list without cleaning (test/diagnostic use).
    #[must_use]
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Contention surcharge of the candidate at `index` on a shared
    /// multi-tenant fabric: for every atom the candidate still needs
    /// (per-component residual over `a⃗`), the number of *other*
    /// applications whose forecast working set contains that atom type
    /// (`pressure[t]`, see
    /// [`ScheduleRequest::with_foreign_pressure`](crate::ScheduleRequest::with_foreign_pressure)).
    /// Loading such an atom risks evicting one a co-tenant still needs, so
    /// the candidate's cost grows by the foreign demand it treads on. Zero
    /// when `pressure` is empty (single-owner fabric).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn pressure_cost(&self, index: usize, pressure: &[u64]) -> u64 {
        if pressure.is_empty() {
            return 0;
        }
        let c = &self.candidates[index];
        let mut cost = 0u64;
        for (i, &want) in c.atoms.counts().iter().enumerate() {
            let missing = want.saturating_sub(self.scheduled.count(i));
            cost += u64::from(missing) * pressure[i];
        }
        cost
    }

    /// Commits the candidate at position `index` of the current candidate
    /// list: appends its residual atoms to the schedule (the last one
    /// annotated with the completed upgrade), updates `a⃗` and
    /// `bestLatency`, and removes the candidate.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn commit(&mut self, index: usize) {
        let candidate = self.candidates.remove(index);
        self.add_atoms.remove(index);
        self.improvement.remove(index);
        self.commit_molecule(
            candidate.si,
            candidate.variant_index,
            &candidate.atoms,
            candidate.latency,
        );
    }

    fn commit_molecule(&mut self, si: SiId, variant_index: usize, atoms: &Molecule, latency: u32) {
        // Walk the residual a⃗ ⊖ atoms component by component: emit the
        // schedule steps, update a⃗ in place and record which components
        // changed — no residual/union Molecule and no unit-index list is
        // materialised on this (per-hot-spot-entry) path.
        self.changed.clear();
        let mut remaining = self.scheduled.residual_atoms(atoms);
        for (i, &want) in atoms.counts().iter().enumerate() {
            let have = self.scheduled.count(i);
            let missing = want.saturating_sub(have);
            if missing == 0 {
                continue;
            }
            for _ in 0..missing {
                remaining -= 1;
                self.steps.push(ScheduleStep {
                    atom: AtomTypeId(i as u16),
                    completes: (remaining == 0).then_some((si, variant_index)),
                });
            }
            // a⃗ ← a⃗ ∪ atoms at this component (have + missing = want).
            self.scheduled.set_count(i, want);
            self.changed.push((i, have, want));
        }
        let best = &mut self.best_latency[si.index()];
        let new_best = (*best).min(latency);
        let best_changed = new_best != *best;
        *best = new_best;

        // Re-key the score caches to the new availability generation by
        // re-scoring only what this commit touched: the changed components
        // of a⃗ (add_atoms deltas) and the committed SI (improvement).
        self.generation += 1;
        let changed = std::mem::take(&mut self.changed);
        for (idx, c) in self.candidates.iter().enumerate() {
            let mut shrink = 0u32;
            for &(i, old, new) in &changed {
                let need = c.atoms.count(i);
                // The component grew old → new, so the candidate's missing
                // count at it shrinks by (need−old)⁺ − (need−new)⁺.
                shrink += u32::from(need.saturating_sub(old)) - u32::from(need.saturating_sub(new));
            }
            self.add_atoms[idx] -= shrink;
            if best_changed && c.si == si {
                self.improvement[idx] = new_best.saturating_sub(c.latency);
            }
        }
        self.changed = changed;
    }

    /// Commits a Molecule that is not (or no longer) in the candidate list,
    /// e.g. a selected Molecule whose remaining candidates were all cleaned
    /// away. Stale candidates it subsumes are removed by the next `clean`.
    pub fn commit_external(
        &mut self,
        si: SiId,
        variant_index: usize,
        atoms: &Molecule,
        latency: u32,
    ) {
        self.commit_molecule(si, variant_index, atoms, latency);
    }

    /// Guarantees condition (2): commits every still-missing *selected*
    /// Molecule (cheapest residual first) so that the final atom set equals
    /// `available ∪ sup(M)`. Runs after every scheduler's candidate loop
    /// (see [`SchedulerKind::schedule_with`](crate::SchedulerKind::schedule_with)).
    pub fn finish(&mut self) {
        // `request` outlives `&mut self`, so borrowing the molecule out of
        // the library needs no clone while `commit_molecule` mutates `self`.
        let request = self.request;
        loop {
            // `is_subset` is the one-directional `≤` test: a selected
            // molecule still missing is exactly one *not* dominated by `a⃗`
            // (incomparable included).
            let next = request
                .selected()
                .iter()
                .copied()
                .filter(|&sel| !request.molecule(sel).is_subset(&self.scheduled))
                .min_by_key(|&sel| self.scheduled.residual_atoms(request.molecule(sel)));
            let Some(sel) = next else {
                break;
            };
            let atoms = request.molecule(sel);
            let latency = request.library().si(sel.si).expect("validated").variants()
                [sel.variant_index]
                .latency;
            self.commit_molecule(sel.si, sel.variant_index, atoms, latency);
        }
    }

    /// Consumes the context, returning the accumulated schedule steps.
    #[must_use]
    pub fn into_steps(self) -> Vec<ScheduleStep> {
        self.steps
    }

    /// Consumes the context into a [`Schedule`], handing the candidate and
    /// best-latency storage back to `buffers` for the next run. The step
    /// storage travels inside the returned schedule; callers done with it
    /// return it via [`UpgradeBuffers::reclaim`].
    #[must_use]
    pub fn into_schedule(self, buffers: &mut UpgradeBuffers) -> Schedule {
        let UpgradeContext {
            mut best_latency,
            mut candidates,
            steps,
            mut add_atoms,
            mut improvement,
            mut changed,
            ..
        } = self;
        candidates.clear();
        best_latency.clear();
        add_atoms.clear();
        improvement.clear();
        changed.clear();
        buffers.candidates = candidates;
        buffers.best_latency = best_latency;
        buffers.add_atoms = add_atoms;
        buffers.improvement = improvement;
        buffers.changed = changed;
        Schedule::from_steps(steps)
    }

    /// Steps emitted so far.
    #[must_use]
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps
    }

    /// Importance of an SI for FSFR/ASF ordering: expected executions times
    /// the potential improvement of its selected Molecule over the current
    /// best latency.
    #[must_use]
    pub fn importance(&self, sel: SelectedMolecule) -> u64 {
        let selected_latency = self
            .request
            .library()
            .si(sel.si)
            .expect("validated")
            .variants()[sel.variant_index]
            .latency;
        let best = self.best_latency[sel.si.index()];
        let improvement = u64::from(best.saturating_sub(selected_latency));
        self.request.expected(sel.si) * improvement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SelectedMolecule;
    use rispp_model::{AtomTypeInfo, AtomUniverse, SiLibrary, SiLibraryBuilder};

    /// Library mirroring Figure 4: one SI with molecules
    /// m1=(2,1)@60, m2=(2,2)@40, m3=(4,2)@20 and the wrong-mix m4=(1,3)@55.
    fn fig4_library() -> SiLibrary {
        let universe =
            AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("FIG4", 1000)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1]), 60)
            .unwrap()
            .molecule(Molecule::from_counts([2, 2]), 40)
            .unwrap()
            .molecule(Molecule::from_counts([4, 2]), 20)
            .unwrap()
            .molecule(Molecule::from_counts([1, 3]), 55)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn candidates_are_bounded_by_supremum() {
        let lib = fig4_library();
        // Select m3 = (4,2); sup = (4,2). m4=(1,3) is NOT ≤ sup -> excluded.
        let si = lib.by_name("FIG4").unwrap();
        let m3_idx = si
            .variants()
            .iter()
            .position(|v| v.atoms == Molecule::from_counts([4, 2]))
            .unwrap();
        let req = ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(si.id(), m3_idx)],
            Molecule::zero(2),
            vec![100],
        )
        .unwrap();
        let ctx = UpgradeContext::new(&req);
        assert_eq!(ctx.candidates().len(), 3);
        assert!(ctx
            .candidates()
            .iter()
            .all(|c| c.atoms <= Molecule::from_counts([4, 2])));
    }

    #[test]
    fn cleaning_drops_available_and_non_improving() {
        let lib = fig4_library();
        let si = lib.by_name("FIG4").unwrap();
        let m3_idx = si
            .variants()
            .iter()
            .position(|v| v.atoms == Molecule::from_counts([4, 2]))
            .unwrap();
        // m1 = (2,1) already available -> best latency 60; cleaning removes
        // m1 (available) and keeps m2, m3.
        let req = ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(si.id(), m3_idx)],
            Molecule::from_counts([2, 1]),
            vec![100],
        )
        .unwrap();
        let mut ctx = UpgradeContext::new(&req);
        assert_eq!(ctx.best_latency(si.id()), 60);
        let remaining = ctx.clean();
        assert_eq!(remaining.len(), 2);
        assert!(remaining.iter().all(|c| c.latency < 60));
    }

    #[test]
    fn commit_emits_residual_atoms_and_updates_best() {
        let lib = fig4_library();
        let si = lib.by_name("FIG4").unwrap();
        let m3_idx = si
            .variants()
            .iter()
            .position(|v| v.atoms == Molecule::from_counts([4, 2]))
            .unwrap();
        let req = ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(si.id(), m3_idx)],
            Molecule::zero(2),
            vec![100],
        )
        .unwrap();
        let mut ctx = UpgradeContext::new(&req);
        ctx.clean();
        // Commit the smallest candidate m1 = (2,1)@60.
        let idx = ctx
            .candidates()
            .iter()
            .position(|c| c.atoms == Molecule::from_counts([2, 1]))
            .unwrap();
        ctx.commit(idx);
        assert_eq!(ctx.steps().len(), 3);
        assert_eq!(ctx.best_latency(si.id()), 60);
        assert_eq!(ctx.scheduled_atoms(), &Molecule::from_counts([2, 1]));
        // Only the last atom of the group completes the upgrade.
        assert!(ctx.steps()[..2].iter().all(|s| s.completes.is_none()));
        assert!(ctx.steps()[2].completes.is_some());
    }

    #[test]
    fn finish_guarantees_condition_two() {
        let lib = fig4_library();
        let si = lib.by_name("FIG4").unwrap();
        let m3_idx = si
            .variants()
            .iter()
            .position(|v| v.atoms == Molecule::from_counts([4, 2]))
            .unwrap();
        let req = ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(si.id(), m3_idx)],
            Molecule::zero(2),
            vec![0], // zero expected: HEF would schedule nothing
        )
        .unwrap();
        let mut ctx = UpgradeContext::new(&req);
        ctx.finish();
        let schedule = crate::Schedule::from_steps(ctx.into_steps());
        schedule.validate(&req).unwrap();
        assert_eq!(schedule.len(), 6);
    }
}
