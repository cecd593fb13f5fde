//! The computational kernels the RISPP Special Instructions accelerate.
//!
//! Each module implements one SI family of paper Table 1 in plain Rust;
//! the encoder invokes these functions while counting SI executions, so the
//! workload traces are backed by real kernel mathematics on real (synthetic)
//! pixels rather than fabricated counts.

pub mod dct;
pub mod deblock;
pub mod entropy;
pub mod hadamard;
pub mod intra;
pub mod mc;
pub mod sad;
pub mod satd;
