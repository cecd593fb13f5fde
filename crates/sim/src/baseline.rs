//! Molen/OneChip-like baseline: a state-of-the-art reconfigurable system
//! with a **single, monolithic implementation per SI** (paper Section 5).
//!
//! Differences from RISPP, following the paper's comparison setup:
//!
//! * one fixed Molecule per SI ("the same hardware accelerators are
//!   provided to Molen"), chosen at design time from design-time profiles;
//! * no partial upgrades: an SI traps to software until its accelerator is
//!   **completely** reconfigured;
//! * no Atom sharing: each accelerator occupies as many container slots as
//!   its Molecule has Atoms, exclusively;
//! * the reconfiguration sequence is fixed (importance order), issued on
//!   each hot-spot switch for the accelerators that are not resident.

use std::collections::HashMap;

use rispp_core::{
    BurstRun, BurstSegment, SelectedMolecule, SiRate, SiTotals, Stretch, StretchWalker,
};
use rispp_fabric::ReconfigPortConfig;
use rispp_model::{SiId, SiLibrary};
use rispp_monitor::HotSpotId;

#[derive(Debug, Clone, Copy)]
struct Resident {
    variant_index: usize,
    slots: u32,
    ready_at: u64,
    last_used: u64,
}

/// The Molen-like baseline execution system.
#[derive(Debug)]
pub struct MolenSystem<'a> {
    library: &'a SiLibrary,
    containers: u16,
    /// Port cycles to load one atom of each type, by type.
    type_cycles: Vec<u64>,
    design: HashMap<HotSpotId, Vec<SelectedMolecule>>,
    resident: Vec<Option<Resident>>,
    port_busy_until: u64,
    loads: u64,
    load_cycles: u64,
    retain_across_hot_spots: bool,
    walker: StretchWalker,
}

impl<'a> MolenSystem<'a> {
    /// Creates a baseline system with `containers` reconfigurable slots
    /// (one slot holds one Atom-sized hardware unit, so a Molecule with
    /// `k` Atoms occupies `k` slots), reconfigured through `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is invalid (zero bandwidth), as
    /// [`rispp_fabric::Fabric::new`] does.
    #[must_use]
    pub fn new(library: &'a SiLibrary, containers: u16, port: ReconfigPortConfig) -> Self {
        let type_cycles = port
            .cycles_per_type(library.universe())
            .expect("baseline port configuration must be valid");
        MolenSystem {
            library,
            containers,
            type_cycles,
            design: HashMap::new(),
            resident: vec![None; library.len()],
            port_busy_until: 0,
            loads: 0,
            load_cycles: 0,
            retain_across_hot_spots: true,
            walker: StretchWalker::default(),
        }
    }

    /// Creates a OneChip-like variant of the baseline: the reconfigurable
    /// functional unit is flushed on every hot-spot switch (single
    /// configuration context), so accelerators never survive across hot
    /// spots even when they would fit.
    ///
    /// # Panics
    ///
    /// Panics if `port` is invalid, as [`MolenSystem::new`] does.
    #[must_use]
    pub fn one_chip(library: &'a SiLibrary, containers: u16, port: ReconfigPortConfig) -> Self {
        MolenSystem {
            retain_across_hot_spots: false,
            ..MolenSystem::new(library, containers, port)
        }
    }

    /// Completed accelerator loads and the cycles spent reconfiguring.
    #[must_use]
    pub fn reconfiguration_stats(&self) -> (u64, u64) {
        (self.loads, self.load_cycles)
    }

    /// Display label: `"Molen"`, or `"OneChip"` for the flush-on-switch
    /// variant.
    #[must_use]
    pub fn label(&self) -> &'static str {
        if self.retain_across_hot_spots {
            "Molen"
        } else {
            "OneChip"
        }
    }

    fn used_slots(&self) -> u32 {
        self.resident.iter().flatten().map(|r| r.slots).sum()
    }

    fn accelerator_load_cycles(&self, sel: SelectedMolecule) -> u64 {
        let atoms =
            &self.library.si(sel.si).expect("validated").variants()[sel.variant_index].atoms;
        atoms
            .counts()
            .iter()
            .zip(&self.type_cycles)
            .map(|(&count, &per_load)| u64::from(count) * per_load)
            .sum()
    }

    /// Enters a hot spot: fixes the design-time accelerator set on first
    /// encounter, evicts non-needed residents and enqueues the missing
    /// accelerators through the serial reconfiguration port.
    pub fn enter_hot_spot(&mut self, hot_spot: HotSpotId, hints: &[(SiId, u64)], now: u64) {
        if !self.retain_across_hot_spots {
            // OneChip-like single configuration context: switching hot
            // spots flushes the RFU.
            self.resident.fill(None);
        }
        let library = self.library;
        let containers = self.containers;
        // `SelectedMolecule` is `Copy`, so the importance order and the
        // needed-SI list below end the borrow of `self.design` before the
        // resident table is mutated — no clone of the design set.
        let design = self
            .design
            .entry(hot_spot)
            .or_insert_with(|| molen_select(library, hints, containers));

        // Importance order for the fixed reconfiguration sequence.
        let mut order: Vec<(u64, SelectedMolecule)> = design
            .iter()
            .map(|&sel| {
                let si = library.si(sel.si).expect("validated");
                let lat = si.variants()[sel.variant_index].latency;
                let expected = hints
                    .iter()
                    .find(|&&(id, _)| id == sel.si)
                    .map(|&(_, e)| e)
                    .unwrap_or(0);
                (
                    expected * u64::from(si.software_latency().saturating_sub(lat)),
                    sel,
                )
            })
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.si.cmp(&b.1.si)));

        let needed: Vec<SiId> = design.iter().map(|s| s.si).collect();
        let mut port_free = self.port_busy_until.max(now);
        for (_, sel) in order {
            let slots = self.library.si(sel.si).expect("validated").variants()[sel.variant_index]
                .atoms
                .total_atoms();
            match self.resident[sel.si.index()] {
                Some(r) if r.variant_index == sel.variant_index => continue,
                _ => {}
            }
            // Evict LRU residents that the current hot spot does not need.
            while self.used_slots() + slots > u32::from(self.containers) {
                let victim = self
                    .resident
                    .iter()
                    .enumerate()
                    .filter(|(i, r)| r.is_some() && !needed.contains(&SiId(*i as u16)))
                    .min_by_key(|(_, r)| r.map(|r| r.last_used).unwrap_or(0))
                    .map(|(i, _)| i);
                match victim {
                    Some(i) => self.resident[i] = None,
                    None => break,
                }
            }
            if self.used_slots() + slots > u32::from(self.containers) {
                // Does not fit even after evictions: this SI stays software.
                continue;
            }
            let cycles = self.accelerator_load_cycles(sel);
            let ready_at = port_free + cycles;
            port_free = ready_at;
            self.loads += 1;
            self.load_cycles += cycles;
            self.resident[sel.si.index()] = Some(Resident {
                variant_index: sel.variant_index,
                slots,
                ready_at,
                last_used: now,
            });
        }
        self.port_busy_until = port_free;
    }

    /// Executes a burst of `count` executions of `si` starting at `start`,
    /// each followed by `overhead` base-processor cycles. Latency switches
    /// from software to the accelerator exactly when the accelerator's
    /// reconfiguration completes (no intermediate steps).
    #[must_use]
    pub fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        let mut segments = Vec::new();
        self.execute_burst_into(si, count, overhead, start, &mut segments);
        segments
    }

    /// Buffer-reusing variant of [`MolenSystem::execute_burst`]: clears
    /// `segments` and writes the burst's segments into it.
    pub fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        segments: &mut Vec<BurstSegment>,
    ) {
        segments.clear();
        let mut t = start;
        let mut remaining = u64::from(count);
        while remaining > 0 {
            let SiRate {
                latency,
                variant,
                until,
            } = rate(self.library, &self.resident, si, t);
            let per = u64::from(latency) + u64::from(overhead);
            let n = match until {
                Some(event) => (event - t).div_ceil(per).min(remaining),
                None => remaining,
            };
            segments.push(match variant {
                Some(v) => BurstSegment::hardware(t, n, latency, v),
                None => BurstSegment::software(t, n, latency),
            });
            t += n * per;
            remaining -= n;
        }
        if let Some(r) = &mut self.resident[si.index()] {
            r.last_used = t;
        }
    }

    /// The batched burst calls of the baseline: walks `run` from cycle
    /// `start`, each SI up to its own accelerator's readiness, before
    /// which it runs at one latency (its accelerator is ready, or it
    /// traps), and reports what it consumed through `segment` (one unsplit
    /// segment per burst stepped on its own) and `totals`. Each resident
    /// SI that ran has its `last_used` land on the end of its last
    /// consumed burst, where per-burst stepping leaves it.
    pub(crate) fn walk_stretch(
        &mut self,
        run: BurstRun<'_>,
        start: u64,
        segment: impl FnMut(BurstSegment),
        totals: impl FnMut(SiTotals),
    ) -> Stretch {
        let (library, resident) = (self.library, &self.resident);
        let stretch =
            self.walker
                .walk(run, start, |si| rate(library, resident, si, start), segment);
        for k in 0..self.walker.resolved().len() {
            let si = self.walker.resolved()[k];
            if let Some(r) = &mut self.resident[si.index()] {
                if let Some((_, end)) = self.walker.last_burst(run, si) {
                    r.last_used = end;
                }
            }
        }
        self.walker.report(totals);
        stretch
    }

    /// Leaves the current hot spot (no adaptation: Molen is static).
    pub fn exit_hot_spot(&mut self, _now: u64) {}
}

/// How `si` runs at cycle `t`: on its resident accelerator once that is
/// ready (never slower than software), with no limit inside a stretch,
/// else trapping to software until the accelerator it waits for is
/// ready.
fn rate(library: &SiLibrary, resident: &[Option<Resident>], si: SiId, t: u64) -> SiRate {
    let def = library.si(si).expect("si within library");
    let software = def.software_latency();
    match resident[si.index()] {
        Some(r) if r.ready_at <= t => SiRate {
            latency: def.variants()[r.variant_index].latency.min(software),
            variant: Some(r.variant_index),
            until: None,
        },
        pending => SiRate {
            latency: software,
            variant: None,
            until: pending.map(|r| r.ready_at),
        },
    }
}

/// Design-time accelerator selection for the Molen baseline: greedy like
/// RISPP's selector but with **additive** container cost (no Atom sharing):
/// the accelerators of the selected Molecules must fit `Σ|m| ≤ containers`.
#[must_use]
pub fn molen_select(
    library: &SiLibrary,
    demands: &[(SiId, u64)],
    containers: u16,
) -> Vec<SelectedMolecule> {
    let budget = u32::from(containers);
    let mut demands: Vec<(SiId, u64)> = demands
        .iter()
        .copied()
        .filter(|&(si, e)| e > 0 && library.si(si).is_some())
        .collect();
    demands.sort_by(|a, b| {
        let w = |&(si, e): &(SiId, u64)| {
            let def = library.si(si).expect("filtered");
            let best = def
                .variants()
                .iter()
                .map(|v| v.latency)
                .min()
                .unwrap_or(def.software_latency());
            e * u64::from(def.software_latency().saturating_sub(best))
        };
        w(b).cmp(&w(a)).then(a.0.cmp(&b.0))
    });

    let mut selection: Vec<SelectedMolecule> = Vec::new();
    let mut used = 0u32;
    for &(si_id, _) in &demands {
        let def = library.si(si_id).expect("filtered");
        let (idx, v) = def
            .variants()
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| (v.atoms.total_atoms(), v.latency))
            .expect("validated library");
        let size = v.atoms.total_atoms();
        if used + size <= budget {
            selection.push(SelectedMolecule::new(si_id, idx));
            used += size;
        }
    }
    // Upgrade loop on additive cost.
    loop {
        let mut best: Option<(usize, usize, u64, u32)> = None;
        for (i, sel) in selection.iter().enumerate() {
            let def = library.si(sel.si).expect("selected");
            let expected = demands
                .iter()
                .find(|&&(id, _)| id == sel.si)
                .map(|&(_, e)| e)
                .unwrap_or(0);
            let cur = &def.variants()[sel.variant_index];
            for (vi, v) in def.variants().iter().enumerate() {
                if v.latency >= cur.latency {
                    continue;
                }
                let extra = v
                    .atoms
                    .total_atoms()
                    .saturating_sub(cur.atoms.total_atoms());
                if used + extra > budget {
                    continue;
                }
                let gain = expected * u64::from(cur.latency - v.latency);
                if gain == 0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, _, bg, bc)) => {
                        gain.saturating_mul(u64::from(bc.max(1)))
                            > bg.saturating_mul(u64::from(extra.max(1)))
                    }
                };
                if better {
                    best = Some((i, vi, gain, extra));
                }
            }
        }
        match best {
            Some((i, vi, _, extra)) => {
                selection[i].variant_index = vi;
                used += extra;
            }
            None => break,
        }
    }
    selection.sort_by_key(|s| s.si);
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiLibraryBuilder};

    fn library() -> SiLibrary {
        let universe =
            AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("X", 1000)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0]), 100)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1]), 30)
            .unwrap();
        b.special_instruction("Y", 800)
            .unwrap()
            .molecule(Molecule::from_counts([0, 1]), 90)
            .unwrap()
            .molecule(Molecule::from_counts([1, 2]), 40)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn molen_select_uses_additive_cost() {
        let lib = library();
        // Budget 2: both smallest (1 atom each) fit additively; no upgrade
        // fits (each upgrade needs +2).
        let sel = molen_select(&lib, &[(SiId(0), 100), (SiId(1), 100)], 2);
        assert_eq!(sel.len(), 2);
        assert!(sel.iter().all(|s| s.variant_index == 0));
        // Budget 6: both full accelerators (3 atoms each).
        let sel = molen_select(&lib, &[(SiId(0), 100), (SiId(1), 100)], 6);
        assert!(sel.iter().all(|s| s.variant_index == 1));
    }

    #[test]
    fn si_runs_software_until_accelerator_complete() {
        let lib = library();
        let mut molen = MolenSystem::new(&lib, 6, ReconfigPortConfig::prototype());
        molen.enter_hot_spot(HotSpotId(0), &[(SiId(0), 1000)], 0);
        // Accelerator is (2,1): 3 atoms ≈ 3·87.6K ≈ 263K cycles; 500
        // software executions would take 505K cycles, so the accelerator
        // arrives mid-burst: first segment software, last hardware @30.
        let segs = molen.execute_burst(SiId(0), 500, 10, 0);
        assert!(segs.len() >= 2);
        assert_eq!(segs[0].latency, 1000);
        assert!(!segs[0].is_hardware());
        let last = segs.last().unwrap();
        assert_eq!(last.latency, 30);
        assert!(last.is_hardware());
        // No intermediate latencies: Molen has no gradual upgrade.
        for s in &segs {
            assert!(s.latency == 1000 || s.latency == 30, "{segs:?}");
        }
    }

    #[test]
    fn resident_accelerator_survives_hot_spot_switch_when_space_allows() {
        let lib = library();
        let mut molen = MolenSystem::new(&lib, 6, ReconfigPortConfig::prototype());
        molen.enter_hot_spot(HotSpotId(0), &[(SiId(0), 1000)], 0);
        let _ = molen.execute_burst(SiId(0), 100, 10, 0);
        let (loads_after_first, _) = molen.reconfiguration_stats();
        // Switch to hot spot 1 (SI Y) and back; X (3 slots) + Y (3 slots)
        // both fit in 6 slots, so no reload of X on return.
        molen.enter_hot_spot(HotSpotId(1), &[(SiId(1), 1000)], 1_000_000);
        molen.enter_hot_spot(HotSpotId(0), &[(SiId(0), 1000)], 2_000_000);
        let (loads_final, _) = molen.reconfiguration_stats();
        assert_eq!(loads_final, loads_after_first + 1);
    }

    #[test]
    fn thrashing_when_accelerators_do_not_fit_together() {
        let lib = library();
        let mut molen = MolenSystem::new(&lib, 3, ReconfigPortConfig::prototype());
        molen.enter_hot_spot(HotSpotId(0), &[(SiId(0), 1000)], 0);
        molen.enter_hot_spot(HotSpotId(1), &[(SiId(1), 1000)], 1_000_000);
        molen.enter_hot_spot(HotSpotId(0), &[(SiId(0), 1000)], 2_000_000);
        let (loads, _) = molen.reconfiguration_stats();
        // X, then Y evicts X, then X again: 3 accelerator loads.
        assert_eq!(loads, 3);
    }

    #[test]
    fn one_chip_flushes_on_every_switch() {
        let lib = library();
        let mut oc = MolenSystem::one_chip(&lib, 6, ReconfigPortConfig::prototype());
        oc.enter_hot_spot(HotSpotId(0), &[(SiId(0), 1000)], 0);
        oc.enter_hot_spot(HotSpotId(1), &[(SiId(1), 1000)], 1_000_000);
        oc.enter_hot_spot(HotSpotId(0), &[(SiId(0), 1000)], 2_000_000);
        // Unlike Molen with 6 slots (which keeps both), OneChip reloads X.
        let (loads, _) = oc.reconfiguration_stats();
        assert_eq!(loads, 3);
    }

    #[test]
    fn zero_budget_runs_everything_in_software() {
        let lib = library();
        let mut molen = MolenSystem::new(&lib, 0, ReconfigPortConfig::prototype());
        molen.enter_hot_spot(HotSpotId(0), &[(SiId(0), 10)], 0);
        let segs = molen.execute_burst(SiId(0), 10, 0, 0);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].latency, 1000);
    }
}
