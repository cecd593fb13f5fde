use rispp_model::{Molecule, SiDefinition, SiId, SiLibrary};

use crate::explain::{CandidateScore, SelectionExplain, SelectionRound};
use crate::types::SelectedMolecule;

/// Input to Molecule selection: which SIs the upcoming hot spot needs, how
/// often each is expected to execute, and how many Atom Containers exist.
///
/// The demand list is borrowed so hot-path callers (one selection per
/// hot-spot entry) can reuse a single buffer instead of cloning it into
/// every request.
#[derive(Debug, Clone, Copy)]
pub struct SelectionRequest<'a> {
    library: &'a SiLibrary,
    demands: &'a [(SiId, u64)],
    containers: u16,
}

impl<'a> SelectionRequest<'a> {
    /// Creates a selection request. SIs with zero expected executions are
    /// ignored (they receive no hardware Molecule).
    #[must_use]
    pub fn new(library: &'a SiLibrary, demands: &'a [(SiId, u64)], containers: u16) -> Self {
        SelectionRequest {
            library,
            demands,
            containers,
        }
    }

    /// The SI library.
    #[must_use]
    pub fn library(&self) -> &'a SiLibrary {
        self.library
    }

    /// The `(si, expected executions)` demands.
    #[must_use]
    pub fn demands(&self) -> &'a [(SiId, u64)] {
        self.demands
    }

    /// Available Atom Containers.
    #[must_use]
    pub fn containers(&self) -> u16 {
        self.containers
    }
}

/// Greedy profit-per-container Molecule selection.
///
/// The paper delegates selection details to its companion work and only
/// requires the invariant `NA = |sup(M)| ≤ #ACs`. This selector:
///
/// 1. gives every demanded SI its smallest Molecule (most important first)
///    as long as `sup` fits the containers, then
/// 2. repeatedly applies the Molecule *upgrade* (replacing one SI's
///    selection by a faster variant) with the best expected-cycles-saved
///    per additional container, until nothing fits.
///
/// Atom sharing across SIs is accounted for exactly, because costs are
/// evaluated on `sup(M)` rather than per-Molecule sums — the property that
/// distinguishes RISPP from monolithic-accelerator systems like Molen.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySelector;

impl GreedySelector {
    /// Runs the selection. The result satisfies
    /// `|sup(selection)| ≤ request.containers()`.
    #[must_use]
    pub fn select(&self, request: &SelectionRequest<'_>) -> Vec<SelectedMolecule> {
        self.select_explained(request, None)
    }

    /// Like [`select`](GreedySelector::select), but when `explain` is
    /// supplied, additionally records the ranked demands, phase-1 picks and
    /// every phase-2 upgrade round into it. The returned selection is
    /// bit-identical to `select` — explaining only observes.
    #[must_use]
    pub fn select_explained(
        &self,
        request: &SelectionRequest<'_>,
        mut explain: Option<&mut SelectionExplain>,
    ) -> Vec<SelectedMolecule> {
        let library = request.library();
        let budget = u32::from(request.containers());

        // Most important first; ties by id for determinism. Weights are
        // precomputed — `weight` scans an SI's variant table, which the
        // sort would otherwise repeat per comparison.
        let mut ranked: Vec<(u64, SiId, u64)> = request
            .demands()
            .iter()
            .copied()
            .filter(|&(si, expected)| expected > 0 && library.si(si).is_some())
            .map(|d| (weight(library, d), d.0, d.1))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let arity = library.arity();
        let mut selection: Vec<SelectedMolecule> = Vec::with_capacity(ranked.len());
        // Per accepted selection: its SI definition and expected
        // executions, resolved once — phase 2 only changes variant
        // indices, never the selection's composition.
        let mut slots: Vec<(&SiDefinition, u64)> = Vec::with_capacity(ranked.len());
        let mut sup = Molecule::zero(arity);

        // Phase 1: smallest molecule per SI while it fits. The library
        // orders each SI's variants by (total atoms, latency), so the
        // smallest is always variant 0; the budget check runs on the
        // fused `|sup ∪ atoms|` kernel and accepted SIs fold into the
        // running supremum in place.
        for &(_, si_id, expected) in &ranked {
            let si = library.si(si_id).expect("filtered");
            let variant = si.smallest_variant();
            if sup.union_atoms(&variant.atoms) <= budget {
                selection.push(SelectedMolecule::new(si_id, 0));
                slots.push((si, expected));
                sup.union_assign(&variant.atoms);
            } else if let Some(ex) = explain.as_deref_mut() {
                ex.rejected.push(si_id);
            }
        }
        drop(sup);
        if let Some(ex) = explain.as_deref_mut() {
            ex.containers = request.containers();
            ex.demands = ranked.iter().map(|&(_, si, e)| (si, e)).collect();
            ex.initial = selection.clone();
        }

        // Phase 2: best upgrade per additional container. The supremum with
        // one selection replaced is evaluated as
        // `prefix[i] ∪ suffix[i+1] ∪ new_atoms`, so each round costs
        // O(n + n·variants) Molecule unions instead of the O(n²·variants)
        // of recomputing the full supremum per candidate; candidates are
        // sized with the fused `union_atoms` kernel, which never writes a
        // result Molecule. All round state lives in buffers allocated
        // once (`n` is fixed in phase 2): `prefix[0]`/`suffix[n]` stay
        // zero, interior entries are overwritten in place each round, and
        // `others` is one reused scratch Molecule — no per-round
        // construction at all.
        let n = selection.len();
        let mut prefix: Vec<Molecule> = vec![Molecule::zero(arity); n + 1];
        let mut suffix: Vec<Molecule> = vec![Molecule::zero(arity); n + 1];
        let mut others = Molecule::zero(arity);
        loop {
            for i in 0..n {
                let atoms = &slots[i].0.variants()[selection[i].variant_index].atoms;
                let (head, tail) = prefix.split_at_mut(i + 1);
                head[i].union_into(atoms, &mut tail[0]);
            }
            for i in (0..n).rev() {
                let atoms = &slots[i].0.variants()[selection[i].variant_index].atoms;
                let (head, tail) = suffix.split_at_mut(i + 1);
                tail[0].union_into(atoms, &mut head[i]);
            }
            // `prefix[n]` is the current supremum — no separate tracking.
            let sup_atoms = prefix[n].total_atoms();

            let mut best: Option<(usize, usize, u64, u32)> = None; // (sel idx, variant, gain, cost)
            let mut scored: Vec<CandidateScore> = Vec::new(); // only filled when explaining
            for (sel_idx, sel) in selection.iter().enumerate() {
                let (si, expected) = slots[sel_idx];
                let current_latency = si.variants()[sel.variant_index].latency;
                let totals = si.variant_atom_totals();
                prefix[sel_idx].union_into(&suffix[sel_idx + 1], &mut others);
                for (v_idx, v) in si.variants().iter().enumerate() {
                    if v.latency >= current_latency {
                        continue;
                    }
                    // `|others ∪ v| ≥ |v|`, so a candidate bigger than the
                    // whole budget can never fit — same predicate as the
                    // exact check below, decided without the kernel.
                    if totals[v_idx] > budget {
                        continue;
                    }
                    let gain = expected * u64::from(current_latency - v.latency);
                    if gain == 0 {
                        continue;
                    }
                    // Ratio prune: the same bound gives `cost ≥ |v| − |sup|`,
                    // and a larger cost only lowers gain/cost — so when even
                    // the lower-bound ratio cannot beat the incumbent, the
                    // exact cost is irrelevant and the kernel is skipped.
                    // Explaining records every feasible candidate's exact
                    // score, so the shortcut is disabled there.
                    if explain.is_none() {
                        if let Some((_, _, bg, bc)) = best {
                            let lb = totals[v_idx].saturating_sub(sup_atoms);
                            if u128::from(gain) * u128::from(bc.max(1))
                                <= u128::from(bg) * u128::from(lb.max(1))
                            {
                                continue;
                            }
                        }
                    }
                    let new_sup_atoms = others.union_atoms(&v.atoms);
                    if new_sup_atoms > budget {
                        continue;
                    }
                    let cost = new_sup_atoms.saturating_sub(sup_atoms);
                    if explain.is_some() {
                        scored.push(CandidateScore {
                            si: sel.si,
                            variant_index: v_idx,
                            gain,
                            cost: u64::from(cost),
                        });
                    }
                    let better = match best {
                        None => true,
                        Some((_, _, bg, bc)) => {
                            // gain/cost > bg/bc with cost 0 treated as cost 1
                            // for the ratio but always preferred outright.
                            // Exact u128 cross products — saturating u64
                            // multiplies could collapse both sides to
                            // u64::MAX and mis-order near-overflow gains.
                            let c = u128::from(cost.max(1));
                            let b = u128::from(bc.max(1));
                            u128::from(gain) * b > u128::from(bg) * c
                        }
                    };
                    if better {
                        best = Some((sel_idx, v_idx, gain, cost));
                    }
                }
            }
            match best {
                Some((sel_idx, v_idx, gain, cost)) => {
                    if let Some(ex) = explain.as_deref_mut() {
                        ex.rounds.push(SelectionRound {
                            candidates: std::mem::take(&mut scored),
                            chosen: Some(CandidateScore {
                                si: selection[sel_idx].si,
                                variant_index: v_idx,
                                gain,
                                cost: u64::from(cost),
                            }),
                        });
                    }
                    selection[sel_idx].variant_index = v_idx;
                }
                None => break,
            }
        }

        selection.sort_by_key(|s| s.si);
        if let Some(ex) = explain {
            ex.selection = selection.clone();
        }
        selection
    }
}

/// Exhaustive Molecule selection: enumerates every combination of one
/// Molecule (or none) per demanded SI and keeps the feasible combination
/// with the highest expected benefit.
///
/// Exponential in the number of SIs × variants, so no run uses it (the
/// paper's run-time system must decide within a fraction of one Atom
/// load). It is kept as the ground truth for Molecule selection, the
/// optimum that paper Section 4.2 bounds the heuristic by: the unit tests
/// `exhaustive_matches_or_beats_greedy_on_small_instances` and
/// `greedy_is_close_to_optimal_on_the_test_library` compare
/// [`GreedySelector`] against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSelector;

impl ExhaustiveSelector {
    /// Runs the exhaustive search. The result satisfies
    /// `|sup(selection)| ≤ request.containers()` and maximises
    /// `Σ expected·(software − molecule latency)`.
    ///
    /// # Panics
    ///
    /// Panics if the search space exceeds 20 million combinations; use
    /// [`GreedySelector`] for large instances.
    #[must_use]
    pub fn select(&self, request: &SelectionRequest<'_>) -> Vec<SelectedMolecule> {
        let library = request.library();
        let budget = u32::from(request.containers());
        let demands: Vec<(SiId, u64)> = request
            .demands()
            .iter()
            .copied()
            .filter(|&(si, expected)| expected > 0 && library.si(si).is_some())
            .collect();
        let space: u64 = demands
            .iter()
            .map(|&(si, _)| library.si(si).expect("filtered").variants().len() as u64 + 1)
            .product();
        assert!(
            space <= 20_000_000,
            "search space of {space} combinations is too large for exhaustive selection"
        );

        let arity = library.arity();
        let mut best: (u64, Vec<SelectedMolecule>) = (0, Vec::new());
        let mut current: Vec<SelectedMolecule> = Vec::new();
        self.recurse(library, &demands, budget, arity, 0, &mut current, &mut best);
        let mut selection = best.1;
        selection.sort_by_key(|s| s.si);
        selection
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        library: &SiLibrary,
        demands: &[(SiId, u64)],
        budget: u32,
        arity: usize,
        index: usize,
        current: &mut Vec<SelectedMolecule>,
        best: &mut (u64, Vec<SelectedMolecule>),
    ) {
        if index == demands.len() {
            let sup =
                Molecule::supremum(current.iter().map(|s| {
                    &library.si(s.si).expect("selected").variants()[s.variant_index].atoms
                }))
                .unwrap_or_else(|| Molecule::zero(arity));
            if sup.total_atoms() > budget {
                return;
            }
            let benefit: u64 = current
                .iter()
                .map(|s| {
                    let (_, expected) = demands
                        .iter()
                        .find(|&&(id, _)| id == s.si)
                        .copied()
                        .expect("selected from demands");
                    let si = library.si(s.si).expect("selected");
                    let lat = si.variants()[s.variant_index].latency;
                    expected * u64::from(si.software_latency().saturating_sub(lat))
                })
                .sum();
            if benefit > best.0 || (benefit == best.0 && current.len() > best.1.len()) {
                *best = (benefit, current.clone());
            }
            return;
        }
        let (si_id, _) = demands[index];
        // Option: leave this SI in software.
        self.recurse(library, demands, budget, arity, index + 1, current, best);
        let variants = library.si(si_id).expect("filtered").variants().len();
        for v in 0..variants {
            current.push(SelectedMolecule::new(si_id, v));
            self.recurse(library, demands, budget, arity, index + 1, current, best);
            current.pop();
        }
    }
}

fn weight(library: &SiLibrary, (si_id, expected): (SiId, u64)) -> u64 {
    let si = library.si(si_id).expect("filtered");
    let best_hw = si
        .variants()
        .iter()
        .map(|v| v.latency)
        .min()
        .unwrap_or(si.software_latency());
    expected * u64::from(si.software_latency().saturating_sub(best_hw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_model::{AtomTypeInfo, AtomUniverse, SiLibraryBuilder};

    fn library() -> SiLibrary {
        let universe = AtomUniverse::from_types([
            AtomTypeInfo::new("A1"),
            AtomTypeInfo::new("A2"),
            AtomTypeInfo::new("A3"),
        ])
        .unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("HOT", 2000)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0, 0]), 200)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1, 0]), 80)
            .unwrap()
            .molecule(Molecule::from_counts([4, 2, 0]), 30)
            .unwrap();
        b.special_instruction("WARM", 1000)
            .unwrap()
            .molecule(Molecule::from_counts([0, 1, 0]), 150)
            .unwrap()
            .molecule(Molecule::from_counts([0, 2, 1]), 60)
            .unwrap();
        b.special_instruction("COLD", 500)
            .unwrap()
            .molecule(Molecule::from_counts([0, 0, 1]), 100)
            .unwrap()
            .molecule(Molecule::from_counts([0, 0, 3]), 40)
            .unwrap();
        b.build().unwrap()
    }

    fn sup_of(library: &SiLibrary, selection: &[SelectedMolecule]) -> Molecule {
        Molecule::supremum(
            selection
                .iter()
                .map(|s| &library.si(s.si).unwrap().variants()[s.variant_index].atoms),
        )
        .unwrap_or_else(|| Molecule::zero(library.arity()))
    }

    #[test]
    fn selection_respects_container_budget() {
        let lib = library();
        for budget in 1..=12u16 {
            let req = SelectionRequest::new(
                &lib,
                &[(SiId(0), 1000), (SiId(1), 300), (SiId(2), 50)],
                budget,
            );
            let sel = GreedySelector.select(&req);
            let sup = sup_of(&lib, &sel);
            assert!(
                sup.total_atoms() <= u32::from(budget),
                "budget {budget} violated: sup {sup}"
            );
        }
    }

    #[test]
    fn more_containers_select_bigger_molecules() {
        let lib = library();
        let demands = vec![(SiId(0), 1000), (SiId(1), 300), (SiId(2), 50)];
        let small = GreedySelector.select(&SelectionRequest::new(&lib, &demands, 3));
        let big = GreedySelector.select(&SelectionRequest::new(&lib, &demands, 12));
        assert!(sup_of(&lib, &big).total_atoms() >= sup_of(&lib, &small).total_atoms());
        // With 12 containers everything fits fully parallel.
        assert_eq!(sup_of(&lib, &big), Molecule::from_counts([4, 2, 3]));
    }

    #[test]
    fn important_si_gets_preference_under_pressure() {
        let lib = library();
        let req = SelectionRequest::new(&lib, &[(SiId(0), 10_000), (SiId(2), 1)], 2);
        let sel = GreedySelector.select(&req);
        // HOT's smallest molecule (1 atom) and COLD's smallest (1 atom) both
        // fit in 2; with budget 2 the upgrade goes to nothing else, but HOT
        // must be present.
        assert!(sel.iter().any(|s| s.si == SiId(0)));
    }

    #[test]
    fn zero_expected_sis_are_skipped() {
        let lib = library();
        let req = SelectionRequest::new(&lib, &[(SiId(0), 0), (SiId(1), 10)], 8);
        let sel = GreedySelector.select(&req);
        assert!(sel.iter().all(|s| s.si != SiId(0)));
        assert!(sel.iter().any(|s| s.si == SiId(1)));
    }

    #[test]
    fn selection_is_deterministic() {
        let lib = library();
        let req = SelectionRequest::new(&lib, &[(SiId(0), 100), (SiId(1), 100), (SiId(2), 100)], 6);
        assert_eq!(GreedySelector.select(&req), GreedySelector.select(&req));
    }

    #[test]
    fn tiny_budget_selects_subset() {
        let lib = library();
        let req = SelectionRequest::new(&lib, &[(SiId(0), 100), (SiId(1), 90), (SiId(2), 80)], 1);
        let sel = GreedySelector.select(&req);
        assert_eq!(sel.len(), 1);
        assert!(sup_of(&lib, &sel).total_atoms() <= 1);
    }

    #[test]
    fn exhaustive_matches_or_beats_greedy_on_small_instances() {
        let lib = library();
        for budget in [1u16, 2, 4, 6, 9, 12] {
            let demands = vec![(SiId(0), 1_000), (SiId(1), 300), (SiId(2), 50)];
            let req = SelectionRequest::new(&lib, &demands, budget);
            let greedy = GreedySelector.select(&req);
            let exhaustive = ExhaustiveSelector.select(&req);
            let benefit = |sel: &[SelectedMolecule]| -> u64 {
                sel.iter()
                    .map(|s| {
                        let si = lib.si(s.si).unwrap();
                        let e = demands.iter().find(|&&(id, _)| id == s.si).unwrap().1;
                        e * u64::from(
                            si.software_latency() - si.variants()[s.variant_index].latency,
                        )
                    })
                    .sum()
            };
            assert!(
                benefit(&exhaustive) >= benefit(&greedy),
                "budget {budget}: exhaustive {exhaustive:?} vs greedy {greedy:?}"
            );
            assert!(sup_of(&lib, &exhaustive).total_atoms() <= u32::from(budget));
        }
    }

    #[test]
    fn greedy_is_close_to_optimal_on_the_test_library() {
        let lib = library();
        let demands = vec![(SiId(0), 1_000), (SiId(1), 300), (SiId(2), 50)];
        for budget in 2..=12u16 {
            let req = SelectionRequest::new(&lib, &demands, budget);
            let benefit = |sel: &[SelectedMolecule]| -> u64 {
                sel.iter()
                    .map(|s| {
                        let si = lib.si(s.si).unwrap();
                        let e = demands.iter().find(|&&(id, _)| id == s.si).unwrap().1;
                        e * u64::from(
                            si.software_latency() - si.variants()[s.variant_index].latency,
                        )
                    })
                    .sum()
            };
            let g = benefit(&GreedySelector.select(&req)) as f64;
            let o = benefit(&ExhaustiveSelector.select(&req)) as f64;
            assert!(g >= o * 0.85, "budget {budget}: greedy {g} vs optimal {o}");
        }
    }

    #[test]
    fn shared_atoms_are_not_double_counted() {
        // Two SIs sharing atom type A1: budget 2 should fit both smallest
        // molecules (1×A1 shared + …) when their union needs only 2 atoms.
        let universe =
            AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("X", 100)
            .unwrap()
            .molecule(Molecule::from_counts([1, 1]), 10)
            .unwrap();
        b.special_instruction("Y", 100)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0]), 10)
            .unwrap();
        let lib = b.build().unwrap();
        let req = SelectionRequest::new(&lib, &[(SiId(0), 10), (SiId(1), 10)], 2);
        let sel = GreedySelector.select(&req);
        assert_eq!(sel.len(), 2, "shared atom must let both SIs fit: {sel:?}");
    }
}
