use rispp_core::{Candidate, Schedule, ScheduleRequest, UpgradeContext};

use crate::division_free_benefit_gt;

/// The 12 states of the HEF scheduler FSM.
///
/// The hardware walks candidate memory once per scheduling round: the
/// cleaning test (eq. 4) and the pipelined three-stage benefit comparison
/// (two MULT18X18 products, then the cross-multiplied compare) run per
/// candidate; the winning Molecule's residual atoms are emitted one per
/// cycle into the reconfiguration queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsmState {
    /// Waiting for a scheduling request from the Run-Time Manager.
    Idle,
    /// Latching the request (selected Molecules, available atoms).
    LoadRequest,
    /// Initialising the per-SI `bestLatency` registers.
    InitBest,
    /// Enumerating the candidate set `M′` (eq. 3) into candidate memory.
    Enumerate,
    /// Fetching the next candidate for the cleaning test.
    CleanFetch,
    /// Applying the cleaning rule (eq. 4) to the fetched candidate.
    CleanTest,
    /// Benefit pipeline stage 1: `gain = expected · (bestLatency − lat)`.
    BenefitMulA,
    /// Benefit pipeline stage 2: cross products `gain·c_best`, `gain_best·c`.
    BenefitMulB,
    /// Comparing pipeline outputs and updating the running maximum.
    CompareUpdate,
    /// Committing the winning Molecule (update `a⃗`, `bestLatency`).
    SelectCommit,
    /// Emitting one residual Atom per cycle into the loading queue.
    EmitAtom,
    /// All candidates exhausted; finalising condition (2) and signalling.
    Finalize,
}

impl FsmState {
    /// All 12 states (the paper's FSM size).
    pub const ALL: [FsmState; 12] = [
        FsmState::Idle,
        FsmState::LoadRequest,
        FsmState::InitBest,
        FsmState::Enumerate,
        FsmState::CleanFetch,
        FsmState::CleanTest,
        FsmState::BenefitMulA,
        FsmState::BenefitMulB,
        FsmState::CompareUpdate,
        FsmState::SelectCommit,
        FsmState::EmitAtom,
        FsmState::Finalize,
    ];
}

/// Result of running the FSM on one scheduling request.
#[derive(Debug, Clone)]
pub struct FsmRun {
    /// The computed Atom loading sequence (bit-identical to the software
    /// scheduler [`rispp_core::SchedulerKind::Hef`]).
    pub schedule: Schedule,
    /// Cycles the hardware spent computing it.
    pub cycles: u64,
    /// State-visit histogram, indexed like [`FsmState::ALL`].
    pub state_visits: [u64; 12],
    /// Scheduling rounds executed (one committed Molecule each).
    pub rounds: u32,
}

impl FsmRun {
    /// Wall time of the scheduling decision at the given clock period.
    #[must_use]
    pub fn wall_time_us(&self, clock_ns: f64) -> f64 {
        self.cycles as f64 * clock_ns / 1_000.0
    }
}

/// Cycle-level model of the paper's 12-state HEF scheduler FSM.
///
/// # Examples
///
/// ```
/// use rispp_core::{ScheduleRequest, SchedulerKind, SelectedMolecule};
/// use rispp_hw::HefFsm;
/// use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibraryBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let universe = AtomUniverse::from_types([AtomTypeInfo::new("A")])?;
/// let mut b = SiLibraryBuilder::new(universe);
/// b.special_instruction("X", 500)?
///     .molecule(Molecule::from_counts([1]), 100)?
///     .molecule(Molecule::from_counts([2]), 40)?;
/// let lib = b.build()?;
/// let req = ScheduleRequest::new(
///     &lib,
///     vec![SelectedMolecule::new(SiId(0), 1)],
///     Molecule::zero(1),
///     vec![300],
/// )?;
/// let run = HefFsm::new().run(&req);
/// assert_eq!(run.schedule, SchedulerKind::Hef.schedule(&req));
/// assert!(run.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HefFsm;

impl HefFsm {
    /// Creates the FSM model.
    #[must_use]
    pub fn new() -> Self {
        HefFsm
    }

    /// Runs the FSM on a scheduling request, producing the schedule and the
    /// hardware cycle count.
    #[must_use]
    pub fn run(&self, request: &ScheduleRequest<'_>) -> FsmRun {
        let mut cycles = 0u64;
        let mut visits = [0u64; 12];
        let mut tick = |state: FsmState, n: u64| {
            let idx = FsmState::ALL
                .iter()
                .position(|&s| s == state)
                .expect("state in ALL");
            visits[idx] += n;
            cycles += n;
        };

        tick(FsmState::Idle, 1);
        tick(FsmState::LoadRequest, 1);

        let mut ctx = UpgradeContext::new(request);
        // bestLatency registers: one init cycle per SI of the library.
        tick(FsmState::InitBest, request.library().len() as u64);
        // Candidate memory fill: one cycle per enumerated candidate.
        tick(FsmState::Enumerate, ctx.candidates().len().max(1) as u64);

        let mut rounds = 0u32;
        let mut emitted = 0usize;
        loop {
            // Cleaning pass: fetch + test per candidate still in memory.
            let before = ctx.candidates().len() as u64;
            let remaining = ctx.clean().len() as u64;
            tick(FsmState::CleanFetch, before.max(1));
            tick(FsmState::CleanTest, before.max(1));
            if remaining == 0 {
                break;
            }

            // Benefit pipeline: 3 stages, one candidate per cycle once the
            // pipeline is full -> remaining + 2 cycles, attributed to the
            // three pipeline states.
            tick(FsmState::BenefitMulA, remaining);
            tick(FsmState::BenefitMulB, remaining);
            tick(FsmState::CompareUpdate, 2);

            let winner = self.pick_winner(&ctx, request);
            match winner {
                Some(index) => {
                    tick(FsmState::SelectCommit, 1);
                    ctx.commit(index);
                    let new_steps = ctx.steps().len() - emitted;
                    tick(FsmState::EmitAtom, new_steps as u64);
                    emitted = ctx.steps().len();
                    rounds += 1;
                }
                None => break,
            }
        }

        ctx.finish();
        let tail = ctx.steps().len() - emitted;
        tick(FsmState::EmitAtom, tail as u64);
        tick(FsmState::Finalize, 1);

        FsmRun {
            schedule: Schedule::from_steps(ctx.into_steps()),
            cycles,
            state_visits: visits,
            rounds,
        }
    }

    /// One scheduling round's winner: the candidate with the highest
    /// benefit, compared division-free exactly as the hardware does.
    fn pick_winner(
        &self,
        ctx: &UpgradeContext<'_, '_>,
        request: &ScheduleRequest<'_>,
    ) -> Option<usize> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (i, c) in ctx.candidates().iter().enumerate() {
            let cost = u64::from(self.additional_atoms(ctx, c));
            let gain = request.expected(c.si)
                * u64::from(ctx.best_latency(c.si).saturating_sub(c.latency));
            let better = match best {
                None => gain > 0,
                Some((_, bg, bc)) => division_free_benefit_gt(gain, 1, cost, bg, 1, bc),
            };
            if better {
                best = Some((i, gain, cost));
            }
        }
        best.map(|(i, _, _)| i)
    }

    fn additional_atoms(&self, ctx: &UpgradeContext<'_, '_>, c: &Candidate) -> u32 {
        ctx.scheduled_atoms().residual(&c.atoms).total_atoms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::{SchedulerKind, SelectedMolecule};
    use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};

    fn library() -> SiLibrary {
        let universe = AtomUniverse::from_types([
            AtomTypeInfo::new("A1"),
            AtomTypeInfo::new("A2"),
            AtomTypeInfo::new("A3"),
        ])
        .unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("X", 1_000)
            .unwrap()
            .molecule(Molecule::from_counts([1, 0, 0]), 200)
            .unwrap()
            .molecule(Molecule::from_counts([2, 1, 0]), 90)
            .unwrap()
            .molecule(Molecule::from_counts([3, 2, 0]), 35)
            .unwrap();
        b.special_instruction("Y", 700)
            .unwrap()
            .molecule(Molecule::from_counts([0, 1, 1]), 150)
            .unwrap()
            .molecule(Molecule::from_counts([0, 2, 2]), 55)
            .unwrap();
        b.build().unwrap()
    }

    fn request(lib: &SiLibrary, e0: u64, e1: u64) -> ScheduleRequest<'_> {
        ScheduleRequest::new(
            lib,
            vec![
                SelectedMolecule::new(SiId(0), 2),
                SelectedMolecule::new(SiId(1), 1),
            ],
            Molecule::zero(3),
            vec![e0, e1],
        )
        .unwrap()
    }

    #[test]
    fn fsm_schedule_matches_software_hef() {
        let lib = library();
        for (e0, e1) in [(100, 100), (1_000, 10), (10, 1_000), (0, 0), (7, 7)] {
            let req = request(&lib, e0, e1);
            let fsm = HefFsm::new().run(&req);
            let sw = SchedulerKind::Hef.schedule(&req);
            assert_eq!(fsm.schedule, sw, "expected counts ({e0},{e1})");
            fsm.schedule.validate(&req).unwrap();
        }
    }

    #[test]
    fn cycle_count_scales_with_candidates() {
        let lib = library();
        let small = HefFsm::new().run(&ScheduleRequest::new(
            &lib,
            vec![SelectedMolecule::new(SiId(1), 0)],
            Molecule::zero(3),
            vec![0, 100],
        )
        .unwrap());
        let big = HefFsm::new().run(&request(&lib, 500, 500));
        assert!(big.cycles > small.cycles);
        assert!(big.rounds >= small.rounds);
    }

    #[test]
    fn state_visits_account_for_all_cycles() {
        let lib = library();
        let run = HefFsm::new().run(&request(&lib, 300, 200));
        assert_eq!(run.state_visits.iter().sum::<u64>(), run.cycles);
        // Idle/LoadRequest/Finalize exactly once.
        assert_eq!(run.state_visits[0], 1);
        assert_eq!(run.state_visits[1], 1);
        assert_eq!(run.state_visits[11], 1);
    }

    #[test]
    fn twelve_states_like_the_paper() {
        assert_eq!(FsmState::ALL.len(), 12);
    }

    #[test]
    fn scheduling_latency_is_microseconds_at_paper_clock() {
        // The paper reports 12.596 ns clock delay; a full scheduling
        // decision must be far below one atom reconfiguration (874 µs).
        let lib = library();
        let run = HefFsm::new().run(&request(&lib, 1_000, 1_000));
        let us = run.wall_time_us(12.596);
        assert!(us < 874.0 / 10.0, "scheduling took {us} µs");
    }
}
