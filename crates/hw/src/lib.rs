//! Hardware model of the HEF scheduler (paper Section 5, Table 3).
//!
//! The paper implements Highest Efficiency First as a finite state machine
//! with 12 states on the Xilinx xc2v3000, pipelining the benefit
//! computation and replacing the division by a cross-multiplied comparison
//! (`(a·b)·f > (d·e)·c`, valid because the additional-atom counts are
//! always positive). This crate provides:
//!
//! * [`HefFsm`] — a cycle-level model of that state machine. It computes
//!   **exactly** the same Atom schedule as the software
//!   [`rispp_core::SchedulerKind::Hef`] (unit- and property-tested) while
//!   counting the cycles the hardware would spend.
//! * [`division_free_benefit_gt`] — the comparison trick itself.
//! * [`AreaReport`] / [`area_estimate`] — the Table 3 synthesis numbers
//!   (slices, LUTs, FFs, MULT18X18s, gate equivalents, clock delay) next
//!   to a parametric estimate derived from the FSM structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod fsm;

pub use area::{area_estimate, AreaParameters, AreaReport};
pub use fsm::{FsmRun, FsmState, HefFsm};

/// The division-free benefit comparison of the paper:
/// `(a·b)/c > (d·e)/f` evaluated as `(a·b)·f > (d·e)·c`.
///
/// Valid whenever `c` and `f` are positive, which holds for the
/// additional-atom counts after candidate cleaning (eq. 4).
///
/// # Examples
///
/// ```
/// use rispp_hw::division_free_benefit_gt;
///
/// // (6·10)/3 = 20  >  (4·9)/2 = 18
/// assert!(division_free_benefit_gt(6, 10, 3, 4, 9, 2));
/// ```
#[must_use]
pub fn division_free_benefit_gt(a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> bool {
    debug_assert!(c > 0 && f > 0, "atom counts are positive after cleaning");
    (a as u128 * b as u128) * f as u128 > (d as u128 * e as u128) * c as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_floating_point_division() {
        for a in 0..12u64 {
            for b in [0u64, 1, 7, 100] {
                for c in 1..5u64 {
                    for d in 0..12u64 {
                        for e in [0u64, 3, 50] {
                            for f in 1..5u64 {
                                let exact = (a * b) as f64 / c as f64 > (d * e) as f64 / f as f64;
                                assert_eq!(
                                    division_free_benefit_gt(a, b, c, d, e, f),
                                    exact,
                                    "{a} {b} {c} {d} {e} {f}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_overflow_at_large_operands() {
        // 64-bit gains cross-multiplied into 128 bits never wrap.
        assert!(!division_free_benefit_gt(
            u64::MAX / 2,
            2,
            u64::MAX,
            u64::MAX / 2,
            2,
            1
        ));
    }
}
