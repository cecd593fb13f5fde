//! Molecule/Atom lattice algebra and Special Instruction model for RISPP.
//!
//! This crate implements the formal foundation of the RISPP (*Rotating
//! Instruction Set Processing Platform*) run-time system from
//! L. Bauer et al., *"Run-time System for an Extensible Embedded Processor
//! with Dynamic Instruction Set"*, DATE 2008, Section 4.1:
//!
//! * [`Molecule`] — a vector in `ℕⁿ` describing how many instances of each
//!   *Atom* type are required to implement a Special Instruction (SI).
//!   Together with the component-wise maximum ([`Molecule::union`]) and
//!   minimum ([`Molecule::intersect`]) the set of Molecules forms a complete
//!   lattice under the component-wise partial order.
//! * [`MoleculeVariant`] / [`SiDefinition`] — an SI together with all of its
//!   hardware implementations (Molecules varying in resource usage and
//!   latency) and its base-processor (trap) fallback latency.
//! * [`SiLibrary`] — a validated collection of SIs sharing one universe of
//!   [`AtomTypeId`]s; the input to Molecule selection and Atom scheduling.
//!
//! # Examples
//!
//! ```
//! use rispp_model::Molecule;
//!
//! let m = Molecule::from_counts([2, 0, 1]);
//! let o = Molecule::from_counts([1, 3, 1]);
//! let sup = m.union(&o);
//! assert_eq!(sup.counts(), &[2, 3, 1]);
//! assert!(m <= sup && o <= sup);
//! // Atoms additionally required to offer `o` when `m` is already loaded:
//! assert_eq!(m.residual(&o).counts(), &[0, 3, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod error;
pub mod kernels;
mod molecule;
mod si;

pub use atom::{AtomTypeId, AtomTypeInfo, AtomUniverse};
pub use error::ModelError;
pub use molecule::{Molecule, INLINE_LANES};
pub use si::{MoleculeVariant, SiDefinition, SiId, SiLibrary, SiLibraryBuilder};
