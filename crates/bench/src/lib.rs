//! Binaries regenerating every table and figure of the paper.
//!
//! Each experiment of the evaluation section has one function in
//! [`experiments`] returning structured results, a printing helper in
//! [`report`] and a standalone binary (`cargo run --release -p rispp-bench
//! --bin fig7` etc.). The per-experiment index lives in the repository's
//! `DESIGN.md`. Host throughput is measured by the standalone `benchmark/`
//! package, which calls the library crates directly and never this one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
