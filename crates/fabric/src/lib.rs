//! Reconfigurable-fabric simulator for the RISPP run-time system.
//!
//! Models the hardware substrate of the RISPP prototype (DATE'08, Section 5):
//! a set of *Atom Containers* ([`AtomContainer`]) — small reconfigurable
//! regions that can each hold one Atom — fed by a single reconfiguration
//! port ([`ReconfigPortConfig`], the SelectMAP/ICAP interface of the Xilinx
//! xc2v3000 board at 66 MB/s). Loading one Atom takes the partial-bitstream
//! size divided by the port bandwidth, ~874 µs on average in the paper.
//!
//! The central type is [`Fabric`]: it accepts a queue of atom-load requests
//! (the output of an SI scheduler), serialises them through the port, and
//! reports at which cycle each Atom becomes available. The run-time system
//! polls [`Fabric::advance_events_into`] as simulated time progresses and
//! reads the currently [`Fabric::available`] atoms to pick the fastest
//! Molecule per SI execution.
//!
//! # Examples
//!
//! ```
//! use rispp_fabric::{Fabric, FabricConfig};
//! use rispp_model::{AtomTypeInfo, AtomUniverse, AtomTypeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let universe = AtomUniverse::from_types([AtomTypeInfo::new("SAV")])?;
//! let mut fabric = Fabric::new(FabricConfig::prototype(4), &universe);
//! fabric.enqueue_load(0, AtomTypeId(0), 0);
//! let mut events = Vec::new();
//! fabric.advance_events_into(10_000_000, &mut events);
//! assert_eq!(events.len(), 1);
//! assert_eq!(fabric.available().count(0), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod container;
mod error;
mod fabric;
pub mod fault;
mod port;

pub use container::{AtomContainer, ContainerId, ContainerState};
pub use error::FabricError;
pub use fabric::{
    Fabric, FabricConfig, FabricEvent, FabricJournalEntry, FabricStats, LoadCompleted,
};
pub use fault::FaultModel;
pub use port::ReconfigPortConfig;
