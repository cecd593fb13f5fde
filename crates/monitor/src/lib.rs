//! Online monitoring of Special Instruction execution frequencies.
//!
//! The RISPP Run-Time Manager observes how often each SI executes within a
//! hot spot and compares the measured count against its previous
//! expectation to update the expectation for the next iteration of the same
//! hot spot (paper Section 3.1, with the light-weight hardware
//! implementation demonstrated in the authors' SASO'07 paper \[24\]).
//!
//! The scheduler consumes these *expected SI executions* as its importance
//! weights, so the whole adaptivity loop is: monitor → forecast → Molecule
//! selection → Atom schedule.
//!
//! # Examples
//!
//! ```
//! use rispp_monitor::{ExecutionMonitor, ForecastPolicy, HotSpotId};
//! use rispp_model::SiId;
//!
//! let mut mon = ExecutionMonitor::new(ForecastPolicy::ewma(2));
//! let me = HotSpotId(0);
//! mon.begin_hot_spot(me);
//! for _ in 0..100 {
//!     mon.record_execution(me, SiId(0));
//! }
//! mon.end_hot_spot(me);
//! assert!(mon.expected(me, SiId(0)) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;

pub use detector::{DetectedTransition, HotSpotDetector};

use std::collections::HashMap;
use std::fmt;

use rispp_model::SiId;

/// Identifier of a computational hot spot (e.g. Motion Estimation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HotSpotId(pub u16);

impl HotSpotId {
    /// Zero-based index of this hot spot.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for HotSpotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HS{}", self.0)
    }
}

/// How measured execution counts are folded into the expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ForecastPolicy {
    /// The next expectation is exactly the last measured count.
    LastValue,
    /// Integer exponential smoothing:
    /// `expected' = ((weight − 1)·expected + measured) / weight`.
    ///
    /// `weight = 2` averages old and new, matching the "compare to previous
    /// expectations and update" description of the paper with a cheap
    /// shift-based hardware realisation.
    Ewma {
        /// Smoothing weight (≥ 1); larger values adapt more slowly.
        weight: u32,
    },
    /// Running average over all observed iterations.
    CumulativeAverage,
}

impl ForecastPolicy {
    /// Convenience constructor for the EWMA policy.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    #[must_use]
    pub fn ewma(weight: u32) -> Self {
        assert!(weight >= 1, "ewma weight must be at least 1");
        ForecastPolicy::Ewma { weight }
    }
}

impl Default for ForecastPolicy {
    fn default() -> Self {
        ForecastPolicy::ewma(2)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SiState {
    expected: u64,
    current: u64,
    iterations: u64,
    total: u64,
}

/// Per-hot-spot, per-SI execution counters with expectation forecasting.
#[derive(Debug, Clone)]
pub struct ExecutionMonitor {
    policy: ForecastPolicy,
    table: HashMap<(HotSpotId, SiId), SiState>,
    active: Option<HotSpotId>,
    /// Execution counts of the *active* hot spot, accumulated flat
    /// (indexed by SI id) and folded into `table` when the hot spot ends
    /// or switches. Replaces a hash-map probe per recorded burst on the
    /// replay hot path with an array add.
    live: Vec<u64>,
}

impl ExecutionMonitor {
    /// Creates a monitor with the given forecast policy.
    #[must_use]
    pub fn new(policy: ForecastPolicy) -> Self {
        ExecutionMonitor {
            policy,
            table: HashMap::new(),
            active: None,
            live: Vec::new(),
        }
    }

    /// Folds the flat live counters of the active hot spot into the table.
    fn flush_live(&mut self) {
        let Some(hs) = self.active else { return };
        for (idx, count) in self.live.iter_mut().enumerate() {
            if *count > 0 {
                self.table
                    .entry((hs, SiId(idx as u16)))
                    .or_default()
                    .current += *count;
                *count = 0;
            }
        }
    }

    /// The configured forecast policy.
    #[must_use]
    pub fn policy(&self) -> ForecastPolicy {
        self.policy
    }

    /// Seeds the expectation for `(hot_spot, si)`, e.g. from design-time
    /// profiling, before the first online iteration.
    pub fn seed(&mut self, hot_spot: HotSpotId, si: SiId, expected: u64) {
        self.table.entry((hot_spot, si)).or_default().expected = expected;
    }

    /// Marks the start of a hot-spot execution; resets its live counters.
    pub fn begin_hot_spot(&mut self, hot_spot: HotSpotId) {
        self.flush_live();
        self.active = Some(hot_spot);
        for ((hs, _), state) in self.table.iter_mut() {
            if *hs == hot_spot {
                state.current = 0;
            }
        }
    }

    /// Records one execution of `si` inside `hot_spot`.
    pub fn record_execution(&mut self, hot_spot: HotSpotId, si: SiId) {
        self.record_executions(hot_spot, si, 1);
    }

    /// Records `count` executions of `si` inside `hot_spot` at once (the
    /// hardware counters of \[24\] are add-accumulate, so bulk recording is
    /// behaviourally identical to repeated single recording).
    pub fn record_executions(&mut self, hot_spot: HotSpotId, si: SiId, count: u64) {
        if self.active == Some(hot_spot) {
            let idx = si.index();
            if idx >= self.live.len() {
                self.live.resize(idx + 1, 0);
            }
            self.live[idx] += count;
        } else {
            let state = self.table.entry((hot_spot, si)).or_default();
            state.current += count;
        }
    }

    /// Marks the end of a hot-spot execution and folds the measured counts
    /// into the per-SI expectations according to the forecast policy.
    pub fn end_hot_spot(&mut self, hot_spot: HotSpotId) {
        self.flush_live();
        if self.active == Some(hot_spot) {
            self.active = None;
        }
        let policy = self.policy;
        for ((hs, _), state) in self.table.iter_mut() {
            if *hs != hot_spot {
                continue;
            }
            let measured = state.current;
            state.total += measured;
            state.iterations += 1;
            state.expected = match policy {
                ForecastPolicy::LastValue => measured,
                ForecastPolicy::Ewma { weight } => {
                    if state.iterations == 1 {
                        // First observation: adopt it outright so that cold
                        // expectations do not linger at zero.
                        measured
                    } else {
                        (state.expected * u64::from(weight - 1) + measured) / u64::from(weight)
                    }
                }
                ForecastPolicy::CumulativeAverage => state.total / state.iterations,
            };
            state.current = 0;
        }
    }

    /// The expected number of executions of `si` in the next iteration of
    /// `hot_spot` (0 when never seen and never seeded).
    #[must_use]
    pub fn expected(&self, hot_spot: HotSpotId, si: SiId) -> u64 {
        self.table
            .get(&(hot_spot, si))
            .map(|s| s.expected)
            .unwrap_or(0)
    }

    /// Live (not yet folded) count of `si` in the current iteration. A test
    /// hook: `stretch_walker.rs` and `lru_eviction_guard.rs` read it.
    #[must_use]
    pub fn live_count(&self, hot_spot: HotSpotId, si: SiId) -> u64 {
        let pending = if self.active == Some(hot_spot) {
            self.live.get(si.index()).copied().unwrap_or(0)
        } else {
            0
        };
        pending
            + self
                .table
                .get(&(hot_spot, si))
                .map(|s| s.current)
                .unwrap_or(0)
    }

    /// Number of completed iterations observed for `hot_spot` (max over its
    /// SIs).
    #[must_use]
    pub fn iterations(&self, hot_spot: HotSpotId) -> u64 {
        self.table
            .iter()
            .filter(|((hs, _), _)| *hs == hot_spot)
            .map(|(_, s)| s.iterations)
            .max()
            .unwrap_or(0)
    }
}

impl Default for ExecutionMonitor {
    fn default() -> Self {
        ExecutionMonitor::new(ForecastPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_iteration(mon: &mut ExecutionMonitor, hs: HotSpotId, counts: &[(SiId, u64)]) {
        mon.begin_hot_spot(hs);
        for &(si, n) in counts {
            for _ in 0..n {
                mon.record_execution(hs, si);
            }
        }
        mon.end_hot_spot(hs);
    }

    #[test]
    fn first_observation_is_adopted() {
        let mut mon = ExecutionMonitor::new(ForecastPolicy::ewma(2));
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 120)]);
        assert_eq!(mon.expected(HotSpotId(0), SiId(0)), 120);
    }

    #[test]
    fn ewma_converges_towards_stable_workload() {
        let mut mon = ExecutionMonitor::new(ForecastPolicy::ewma(2));
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 100)]);
        for _ in 0..10 {
            run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 200)]);
        }
        let e = mon.expected(HotSpotId(0), SiId(0));
        assert!((195..=200).contains(&e), "expected near 200, got {e}");
    }

    #[test]
    fn ewma_tracks_phase_change_gradually() {
        let mut mon = ExecutionMonitor::new(ForecastPolicy::ewma(2));
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 1000)]);
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 0)]);
        assert_eq!(mon.expected(HotSpotId(0), SiId(0)), 500);
    }

    #[test]
    fn last_value_policy_is_memoryless() {
        let mut mon = ExecutionMonitor::new(ForecastPolicy::LastValue);
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 10)]);
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 77)]);
        assert_eq!(mon.expected(HotSpotId(0), SiId(0)), 77);
    }

    #[test]
    fn cumulative_average() {
        let mut mon = ExecutionMonitor::new(ForecastPolicy::CumulativeAverage);
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 10)]);
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 30)]);
        assert_eq!(mon.expected(HotSpotId(0), SiId(0)), 20);
    }

    #[test]
    fn hot_spots_are_isolated() {
        let mut mon = ExecutionMonitor::default();
        run_iteration(&mut mon, HotSpotId(0), &[(SiId(0), 50)]);
        run_iteration(&mut mon, HotSpotId(1), &[(SiId(0), 7)]);
        assert_eq!(mon.expected(HotSpotId(0), SiId(0)), 50);
        assert_eq!(mon.expected(HotSpotId(1), SiId(0)), 7);
    }

    #[test]
    fn seed_provides_cold_start_expectation() {
        let mut mon = ExecutionMonitor::default();
        mon.seed(HotSpotId(0), SiId(3), 400);
        assert_eq!(mon.expected(HotSpotId(0), SiId(3)), 400);
        assert_eq!(mon.expected(HotSpotId(0), SiId(4)), 0);
    }

    #[test]
    fn live_count_resets_each_iteration() {
        let mut mon = ExecutionMonitor::default();
        mon.begin_hot_spot(HotSpotId(0));
        mon.record_execution(HotSpotId(0), SiId(0));
        assert_eq!(mon.live_count(HotSpotId(0), SiId(0)), 1);
        mon.end_hot_spot(HotSpotId(0));
        assert_eq!(mon.live_count(HotSpotId(0), SiId(0)), 0);
        assert_eq!(mon.iterations(HotSpotId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ewma_weight_panics() {
        let _ = ForecastPolicy::ewma(0);
    }

    #[test]
    fn hot_spot_id_display() {
        assert_eq!(HotSpotId(2).to_string(), "HS2");
        assert_eq!(HotSpotId(2).index(), 2);
    }
}
