//! The RISPP run-time system: Molecule selection and Atom scheduling.
//!
//! This crate is the reproduction of the primary contribution of
//! L. Bauer et al., *"Run-time System for an Extensible Embedded Processor
//! with Dynamic Instruction Set"*, DATE 2008: the **Special Instruction
//! Scheduler** that decides at run time *when* and *how* Special
//! Instructions (SIs) are composed out of dynamically reloaded Atoms.
//!
//! Given the Molecules selected to implement the SIs of an upcoming hot
//! spot, the already-available Atoms and the expected SI execution counts
//! (from the [`rispp_monitor`] crate), a [`SchedulerKind`] produces the
//! Atom loading sequence (the scheduling function *SF* of eq. 1/2 in the
//! paper). Four strategies from the paper are provided, as four choice
//! rules over one Molecule-upgrade loop ([`UpgradeContext`]):
//!
//! * [`SchedulerKind::Fsfr`] — *First Select First Reconfigure*: fully
//!   upgrade the most important SI before starting the next.
//! * [`SchedulerKind::Asf`] — *Avoid Software First*: first give every SI a
//!   small accelerating Molecule, then continue like FSFR.
//! * [`SchedulerKind::Sjf`] — *Smallest Job First*: always take the upgrade
//!   step needing the fewest additional Atoms.
//! * [`SchedulerKind::Hef`] — *Highest Efficiency First* (the paper's
//!   proposal, Figure 6): weight each candidate's latency improvement by
//!   its expected executions and relativise by the additionally required
//!   Atoms.
//!
//! The crate also implements the Molecule **selection** step
//! ([`GreedySelector`]) that precedes scheduling and the run-time manager
//! of paper Section 3.1, [`FabricArbiter`], which ties monitor, selection,
//! scheduler and one reconfigurable [`rispp_fabric::Fabric`] together for
//! one application (K=1) or K applications contending for that fabric. Its
//! plans are memoised in a [`PlanCache`]; a fresh plan and a cached one are
//! applied by the same code.
//!
//! # Examples
//!
//! ```
//! use rispp_core::{ScheduleRequest, SchedulerKind, SelectedMolecule};
//! use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiLibraryBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")])?;
//! let mut b = SiLibraryBuilder::new(universe);
//! b.special_instruction("DEMO", 1000)?
//!     .molecule(Molecule::from_counts([1, 1]), 100)?
//!     .molecule(Molecule::from_counts([2, 2]), 40)?;
//! let library = b.build()?;
//!
//! let request = ScheduleRequest::new(
//!     &library,
//!     vec![SelectedMolecule::new(rispp_model::SiId(0), 1)],
//!     Molecule::zero(2),
//!     vec![500],
//! )?;
//! let schedule = SchedulerKind::Hef.schedule(&request);
//! assert_eq!(schedule.len(), 4); // loads (2,2) atom by atom
//! schedule.validate(&request)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod asf;
mod context;
mod error;
mod explain;
mod fsfr;
mod hef;
mod plan_cache;
mod recovery;
mod scheduler;
mod selection;
mod sjf;
mod types;

pub use arbiter::{FabricArbiter, FabricArbiterBuilder};
pub use context::{Candidate, UpgradeBuffers, UpgradeContext};
pub use error::CoreError;
pub use explain::{
    CandidateScore, DecisionExplain, ScheduleExplain, ScheduleRound, SelectionExplain,
    SelectionRound,
};
pub use plan_cache::{PlanCache, PlanCacheHandle, PlanCacheStats};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use scheduler::SchedulerKind;
pub use selection::{ExhaustiveSelector, GreedySelector, SelectionRequest};
pub use types::{
    BurstSegment, Schedule, ScheduleRequest, ScheduleStep, SelectedMolecule, SiExecution,
};
