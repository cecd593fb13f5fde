//! Decision traces: structured records of *why* the selector and the
//! schedulers chose what they chose.
//!
//! Explaining is strictly opt-in and side-channel: the selector
//! ([`GreedySelector::select_explained`](crate::GreedySelector::select_explained))
//! and the schedulers
//! ([`SchedulerKind::schedule_with`](crate::SchedulerKind::schedule_with))
//! each have one loop that takes the record as an `Option` and only
//! appends to it when one is supplied, so an explained run is
//! bit-identical to a plain run. With `None` no candidate list is built
//! and the hot path stays allocation-free.

use std::fmt;

use rispp_model::SiId;
use rispp_monitor::HotSpotId;

use crate::types::SelectedMolecule;

/// One scored candidate of a decision round.
///
/// The meaning of `gain`/`cost` depends on the phase that scored it:
/// Molecule selection scores *expected cycles saved* per *additional
/// container*; the schedulers score per-candidate *latency improvement*
/// (weighted by expected executions for HEF) per *additional atom*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateScore {
    /// The SI the candidate Molecule implements.
    pub si: SiId,
    /// Index into the SI's variant list.
    pub variant_index: usize,
    /// The phase's benefit value for this candidate.
    pub gain: u64,
    /// The phase's cost value for this candidate (containers or atoms).
    pub cost: u64,
}

impl fmt::Display for CandidateScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SI{} variant {} (gain {}, cost {})",
            self.si.0, self.variant_index, self.gain, self.cost
        )
    }
}

/// One upgrade round of the greedy Molecule selection: every candidate
/// variant swap that fit the container budget, and the winner.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionRound {
    /// Every candidate scored this round (budget-feasible, positive gain).
    pub candidates: Vec<CandidateScore>,
    /// The committed upgrade (absent only for a final, winnerless round).
    pub chosen: Option<CandidateScore>,
}

/// Why the selector picked the Molecules it picked for one hot-spot entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionExplain {
    /// Container budget (`|sup(M)| ≤ containers`).
    pub containers: u16,
    /// The demands as the selector ranked them (most important first).
    pub demands: Vec<(SiId, u64)>,
    /// Phase-1 picks: the smallest Molecule per SI that fit the budget.
    pub initial: Vec<SelectedMolecule>,
    /// Demanded SIs whose smallest Molecule did not fit (left in software).
    pub rejected: Vec<SiId>,
    /// Phase-2 upgrade rounds, in commit order.
    pub rounds: Vec<SelectionRound>,
    /// The final selection (sorted by SI id).
    pub selection: Vec<SelectedMolecule>,
}

impl fmt::Display for SelectionExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "selection (budget {} containers): demands",
            self.containers
        )?;
        for &(si, e) in &self.demands {
            write!(f, " SI{}×{e}", si.0)?;
        }
        writeln!(f)?;
        write!(f, "  initial:")?;
        if self.initial.is_empty() {
            write!(f, " (none fit)")?;
        }
        for sel in &self.initial {
            write!(f, " SI{}→v{}", sel.si.0, sel.variant_index)?;
        }
        for si in &self.rejected {
            write!(f, " SI{}→software", si.0)?;
        }
        writeln!(f)?;
        for (i, round) in self.rounds.iter().enumerate() {
            match &round.chosen {
                Some(c) => writeln!(
                    f,
                    "  upgrade {}: {} out of {} candidates",
                    i + 1,
                    c,
                    round.candidates.len()
                )?,
                None => writeln!(
                    f,
                    "  upgrade {}: no feasible upgrade ({} candidates scored)",
                    i + 1,
                    round.candidates.len()
                )?,
            }
        }
        write!(f, "  final:")?;
        if self.selection.is_empty() {
            write!(f, " (software only)")?;
        }
        for sel in &self.selection {
            write!(f, " SI{}→v{}", sel.si.0, sel.variant_index)?;
        }
        writeln!(f)
    }
}

/// One decision round of an Atom scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleRound {
    /// Which part of the scheduler produced this round, e.g. `"starter"`
    /// (ASF/SJF phase 1), `"upgrade"` (HEF/SJF main loop), `"importance"`
    /// (FSFR/ASF stepwise upgrade) or `"direct-load"` (a selected Molecule
    /// committed without intermediate candidates).
    pub phase: &'static str,
    /// Every candidate scored this round.
    pub candidates: Vec<CandidateScore>,
    /// The committed candidate.
    pub chosen: Option<CandidateScore>,
}

/// Why a scheduler emitted the Atom loading sequence it emitted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleExplain {
    /// Name of the scheduler that produced the trace, e.g. `"HEF"`.
    pub scheduler: &'static str,
    /// Decision rounds in commit order.
    pub rounds: Vec<ScheduleRound>,
}

impl ScheduleExplain {
    /// Creates an empty trace tagged with the scheduler's name.
    #[must_use]
    pub fn new(scheduler: &'static str) -> Self {
        ScheduleExplain {
            scheduler,
            rounds: Vec::new(),
        }
    }

    /// Records one round. Intended for scheduler implementations.
    pub fn record(
        &mut self,
        phase: &'static str,
        candidates: Vec<CandidateScore>,
        chosen: Option<CandidateScore>,
    ) {
        self.rounds.push(ScheduleRound {
            phase,
            candidates,
            chosen,
        });
    }
}

impl fmt::Display for ScheduleExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule [{}]: {} rounds",
            self.scheduler,
            self.rounds.len()
        )?;
        for (i, round) in self.rounds.iter().enumerate() {
            match &round.chosen {
                Some(c) => writeln!(
                    f,
                    "  round {} [{}]: {} out of {} candidates",
                    i + 1,
                    round.phase,
                    c,
                    round.candidates.len()
                )?,
                None => writeln!(
                    f,
                    "  round {} [{}]: nothing committed ({} candidates)",
                    i + 1,
                    round.phase,
                    round.candidates.len()
                )?,
            }
        }
        Ok(())
    }
}

/// One complete run-time decision: the Molecule selection and the Atom
/// schedule computed at a (re-)planning point, stamped with the simulated
/// cycle and the hot spot it served.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionExplain {
    /// Simulated cycle at which the decision was taken.
    pub now: u64,
    /// The hot spot being planned, when one was active.
    pub hot_spot: Option<HotSpotId>,
    /// Usable (non-quarantined) containers the decision saw.
    pub containers: u16,
    /// The Molecule-selection trace.
    pub selection: SelectionExplain,
    /// The Atom-schedule trace.
    pub schedule: ScheduleExplain,
}

impl DecisionExplain {
    /// Compact one-line rendering for log tails where the full
    /// multi-line [`fmt::Display`] form is too verbose (flight-recorder
    /// bundles, forensics listings): cycle, hot spot, usable containers,
    /// final selection size, rejected demand count, committed upgrade
    /// rounds and the scheduler's name with its round count.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        let _ = write!(out, "decision @ cycle {}: ", self.now);
        match self.hot_spot {
            Some(hs) => {
                let _ = write!(out, "hot spot {}", hs.0);
            }
            None => out.push_str("no hot spot"),
        }
        let upgrades = self
            .selection
            .rounds
            .iter()
            .filter(|r| r.chosen.is_some())
            .count();
        let _ = write!(
            out,
            ", {} containers, {} selected, {} in software, {} upgrades, {} schedule rounds [{}]",
            self.containers,
            self.selection.selection.len(),
            self.selection.rejected.len(),
            upgrades,
            self.schedule.rounds.len(),
            self.schedule.scheduler,
        );
        out
    }
}

impl fmt::Display for DecisionExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hot_spot {
            Some(hs) => writeln!(
                f,
                "decision @ cycle {} (hot spot {}, {} usable containers)",
                self.now, hs.0, self.containers
            )?,
            None => writeln!(
                f,
                "decision @ cycle {} ({} usable containers)",
                self.now, self.containers
            )?,
        }
        write!(f, "{}", self.selection)?;
        write!(f, "{}", self.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_mentions_all_parts() {
        let explain = DecisionExplain {
            now: 1_234,
            hot_spot: Some(HotSpotId(7)),
            containers: 10,
            selection: SelectionExplain {
                containers: 10,
                demands: vec![(SiId(0), 1000)],
                initial: vec![SelectedMolecule::new(SiId(0), 0)],
                rejected: vec![SiId(2)],
                rounds: vec![SelectionRound {
                    candidates: vec![CandidateScore {
                        si: SiId(0),
                        variant_index: 2,
                        gain: 194_000,
                        cost: 2,
                    }],
                    chosen: Some(CandidateScore {
                        si: SiId(0),
                        variant_index: 2,
                        gain: 194_000,
                        cost: 2,
                    }),
                }],
                selection: vec![SelectedMolecule::new(SiId(0), 2)],
            },
            schedule: ScheduleExplain {
                scheduler: "HEF",
                rounds: vec![ScheduleRound {
                    phase: "upgrade",
                    candidates: vec![],
                    chosen: Some(CandidateScore {
                        si: SiId(0),
                        variant_index: 0,
                        gain: 900,
                        cost: 1,
                    }),
                }],
            },
        };
        let text = explain.to_string();
        assert!(text.contains("cycle 1234"));
        assert!(text.contains("hot spot 7"));
        assert!(text.contains("SI0×1000"));
        assert!(text.contains("SI2→software"));
        assert!(text.contains("gain 194000"));
        assert!(text.contains("schedule [HEF]"));
        assert!(text.contains("round 1 [upgrade]"));
    }

    #[test]
    fn summary_is_one_line_and_names_the_key_facts() {
        let explain = DecisionExplain {
            now: 77,
            hot_spot: Some(HotSpotId(3)),
            containers: 8,
            selection: SelectionExplain {
                containers: 8,
                rejected: vec![SiId(5)],
                rounds: vec![
                    SelectionRound {
                        candidates: vec![],
                        chosen: Some(CandidateScore {
                            si: SiId(0),
                            variant_index: 1,
                            gain: 10,
                            cost: 1,
                        }),
                    },
                    SelectionRound::default(),
                ],
                selection: vec![SelectedMolecule::new(SiId(0), 1)],
                ..SelectionExplain::default()
            },
            schedule: ScheduleExplain::new("SJF"),
        };
        let line = explain.summary();
        assert!(!line.contains('\n'));
        assert!(line.contains("cycle 77"));
        assert!(line.contains("hot spot 3"));
        assert!(line.contains("1 selected"));
        assert!(line.contains("1 in software"));
        assert!(line.contains("1 upgrades"));
        assert!(line.contains("[SJF]"));
        assert!(DecisionExplain::default().summary().contains("no hot spot"));
    }

    #[test]
    fn empty_selection_renders_software_only() {
        let explain = SelectionExplain::default();
        let text = explain.to_string();
        assert!(text.contains("(none fit)"));
        assert!(text.contains("(software only)"));
    }
}
