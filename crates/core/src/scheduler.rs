use std::fmt;

use crate::context::{UpgradeBuffers, UpgradeContext};
use crate::explain::ScheduleExplain;
use crate::types::{Schedule, ScheduleRequest};
use crate::{asf, fsfr, hef, sjf};

/// The four Atom-scheduling strategies evaluated in the paper: each turns
/// a set of selected Molecules, the available Atoms and expected SI
/// execution counts into an Atom loading sequence (the scheduling function
/// SF of paper eq. 1/2).
///
/// All four are choice rules over one Molecule-upgrade loop
/// ([`UpgradeContext`]): the candidates `M′` of eq. (3), the cleaning rule
/// of eq. (4) and a commit. Every schedule satisfies condition (2): the
/// multiset of loaded Atoms equals `sup(M) ⊖ available` (see
/// [`Schedule::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// *First Select First Reconfigure*: fully upgrades the most important
    /// SI (expected executions × potential improvement of its selected
    /// Molecule) through its intermediate Molecules before starting the
    /// next. Less important SIs run in software for a long time, which
    /// costs it at moderate Atom Container counts (paper Figure 7).
    Fsfr,
    /// *Avoid Software First*: first gives every SI a small accelerating
    /// Molecule, then continues like FSFR. It spends reconfiguration
    /// bandwidth early even on rarely executed SIs.
    Asf,
    /// *Smallest Job First*: like ASF it first loads a small Molecule per
    /// SI, then repeatedly commits the upgrade needing the fewest
    /// additional Atoms (ties: bigger latency improvement), without
    /// weighting by expected executions.
    Sjf,
    /// *Highest Efficiency First*, the paper's proposal (Figure 6): commits
    /// the candidate with the highest latency improvement × expected
    /// executions per additionally required Atom.
    Hef,
}

impl SchedulerKind {
    /// All kinds, in the order the paper's Figure 7 legend lists them.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Asf,
        SchedulerKind::Fsfr,
        SchedulerKind::Sjf,
        SchedulerKind::Hef,
    ];

    /// The paper's abbreviation.
    #[must_use]
    pub fn abbreviation(self) -> &'static str {
        match self {
            SchedulerKind::Fsfr => "FSFR",
            SchedulerKind::Asf => "ASF",
            SchedulerKind::Sjf => "SJF",
            SchedulerKind::Hef => "HEF",
        }
    }

    /// Computes the Atom loading sequence for `request` on fresh buffers
    /// and without explaining: [`schedule_with`](Self::schedule_with) for
    /// one-off schedules.
    #[must_use]
    pub fn schedule(self, request: &ScheduleRequest<'_>) -> Schedule {
        self.schedule_with(request, &mut UpgradeBuffers::new(), None)
    }

    /// Computes the Atom loading sequence for `request` on caller-owned
    /// [`UpgradeBuffers`], so repeat scheduling (every hot-spot entry of a
    /// simulation) reuses its allocations.
    ///
    /// When `explain` is supplied, each decision round (the scored
    /// candidates and the committed winner) is appended to it. Explaining
    /// only observes: the schedule is bit-identical with and without it.
    #[must_use]
    pub fn schedule_with(
        self,
        request: &ScheduleRequest<'_>,
        buffers: &mut UpgradeBuffers,
        explain: Option<&mut ScheduleExplain>,
    ) -> Schedule {
        let mut ctx = UpgradeContext::from_buffers(request, buffers);
        match self {
            SchedulerKind::Fsfr => fsfr::schedule(&mut ctx, explain),
            SchedulerKind::Asf => asf::schedule(&mut ctx, explain),
            SchedulerKind::Sjf => sjf::schedule(&mut ctx, explain),
            SchedulerKind::Hef => hef::schedule(&mut ctx, explain),
        }
        ctx.finish();
        ctx.into_schedule(buffers)
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbreviation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_abbreviation() {
        assert_eq!(SchedulerKind::Hef.to_string(), "HEF");
        assert_eq!(SchedulerKind::Fsfr.to_string(), "FSFR");
    }
}
