//! Self-healing policy of the Run-Time Manager.
//!
//! The fabric reports faults (CRC-aborted loads, SEU-corrupted Atoms,
//! permanently failed containers) as events; this module defines *what the
//! manager does about them*:
//!
//! * **CRC abort** → re-enqueue the load with bounded exponential backoff
//!   on the reconfiguration port (from [`BACKOFF_BASE_CYCLES`]); after
//!   `max_retries` consecutive aborts on the same container (default
//!   [`DEFAULT_MAX_RETRIES`]) the tile is treated as broken and quarantined.
//! * **SEU corruption** → scrub-and-reload: the corrupted Atom is
//!   re-enqueued immediately (the faulty container is a preferred load
//!   target, so the reload physically scrubs the upset region).
//! * **Permanent failure / quarantine** → the scheduler re-plans Molecule
//!   selection against the shrunken fabric (fewer usable containers).
//!
//! Forward progress is guaranteed unconditionally: an SI with no working
//! Molecule always falls back to the cISA software trap (paper Section 3,
//! Fig. 3), so even a fully quarantined fabric only degrades performance,
//! never correctness.

/// Consecutive aborted loads tolerated per container before the tile is
/// quarantined, unless [`FabricArbiterBuilder::max_retries`] sets another
/// budget.
///
/// [`FabricArbiterBuilder::max_retries`]: crate::FabricArbiterBuilder::max_retries
pub const DEFAULT_MAX_RETRIES: u32 = 3;

/// Backoff before re-issuing an aborted load; doubles with every
/// consecutive abort on the same container (exponential backoff on the
/// reconfiguration port).
pub const BACKOFF_BASE_CYCLES: u64 = 1_024;

/// Backoff delay before retry number `attempt` (1-based): the base doubled
/// per previous consecutive abort, saturating at `u64::MAX`.
pub(crate) fn backoff_cycles(attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(63);
    let cycles = u128::from(BACKOFF_BASE_CYCLES) << shift;
    u64::try_from(cycles).unwrap_or(u64::MAX)
}

/// Counters describing how much self-healing a run needed. All zero in a
/// fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Fault events injected by the fabric (aborted loads, SEU upsets,
    /// permanent tile failures).
    pub faults_injected: u64,
    /// Loads re-enqueued by recovery (abort retries and SEU scrub
    /// reloads).
    pub load_retries: u64,
    /// Containers taken out of service (scheduled tile deaths plus
    /// retry-exhausted quarantines).
    pub containers_quarantined: u64,
    /// Times a hot-spot re-plan on the shrunken fabric came back with no
    /// hardware at all, leaving the hot spot on the cISA software path.
    pub degraded_to_software: u64,
    /// Reconfiguration-port cycles wasted on loads that never became
    /// usable.
    pub fault_cycles_lost: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded() {
        const { assert!(DEFAULT_MAX_RETRIES > 0) };
        assert_eq!(backoff_cycles(1), 1_024);
        assert_eq!(backoff_cycles(2), 2_048);
        assert_eq!(backoff_cycles(3), 4_096);
    }

    #[test]
    fn backoff_never_overflows() {
        // The shift is clamped and the result saturates instead of
        // wrapping at absurd attempt counts.
        assert_eq!(backoff_cycles(200), u64::MAX);
    }
}
