//! RISPP — a run-time system for an extensible embedded processor with a
//! dynamic instruction set.
//!
//! Reproduction of L. Bauer, M. Shafique, S. Kreutz, J. Henkel,
//! *"Run-time System for an Extensible Embedded Processor with Dynamic
//! Instruction Set"*, DATE 2008. This facade crate re-exports the whole
//! workspace:
//!
//! * [`model`] — the Molecule/Atom lattice algebra and SI library model.
//! * [`fabric`] — the reconfigurable-fabric simulator (Atom Containers,
//!   partial bitstreams, SelectMAP/ICAP port timing).
//! * [`monitor`] — online SI execution monitoring and forecasting.
//! * [`core`] — the run-time system: Molecule selection and the
//!   FSFR/ASF/SJF/**HEF** Atom schedulers (the paper's contribution).
//! * [`sim`] — the cycle-level execution engine and the Molen-like
//!   baseline.
//! * [`h264`] — the H.264 encoder substrate (kernels, synthetic video,
//!   workload extraction; paper Table 1 SI library).
//! * [`hw`] — the HEF hardware FSM model and Table 3 area estimates.
//! * [`apps`] — further benchmark applications (AES packet gateway,
//!   audio filterbank) demonstrating the concept beyond video encoding.
//!
//! # Quickstart
//!
//! ```
//! use rispp::core::SchedulerKind;
//! use rispp::h264::{h264_si_library, EncoderConfig, EncoderWorkload};
//! use rispp::sim::{simulate, SimConfig};
//!
//! let library = h264_si_library();
//! let workload = EncoderWorkload::generate(&EncoderConfig::tiny(3));
//! let hef = simulate(&library, workload.trace(), &SimConfig::rispp(10, SchedulerKind::Hef));
//! let software = simulate(&library, workload.trace(), &SimConfig::software_only());
//! assert!(hef.total_cycles < software.total_cycles);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `rispp-cli reproduce` (`crates/cli`) for the command regenerating every
//! table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rispp_apps as apps;
pub use rispp_core as core;
pub use rispp_fabric as fabric;
pub use rispp_h264 as h264;
pub use rispp_hw as hw;
pub use rispp_model as model;
pub use rispp_monitor as monitor;
pub use rispp_sim as sim;
