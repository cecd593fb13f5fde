use std::error::Error;
use std::fmt;

use rispp_model::SiId;

/// Error raised by the run-time system while validating requests and
/// schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A request referenced an SI id outside the library.
    UnknownSi(SiId),
    /// A request referenced a Molecule variant index outside an SI's list.
    UnknownVariant {
        /// The SI whose variant list was indexed.
        si: SiId,
        /// The offending variant index.
        variant: usize,
    },
    /// More than one Molecule was selected for the same SI.
    DuplicateSelection(SiId),
    /// The expected-executions vector length does not match the library.
    ExpectedLengthMismatch {
        /// Provided length.
        got: usize,
        /// Number of SIs in the library.
        want: usize,
    },
    /// The available-atoms Molecule arity does not match the universe.
    ArityMismatch {
        /// Provided arity.
        got: usize,
        /// Universe arity.
        want: usize,
    },
    /// A schedule does not satisfy condition (2): its load multiset is not
    /// exactly `sup(M) ⊖ available`.
    InvalidSchedule {
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownSi(si) => write!(f, "unknown special instruction {si}"),
            CoreError::UnknownVariant { si, variant } => {
                write!(f, "unknown molecule variant {variant} for {si}")
            }
            CoreError::DuplicateSelection(si) => {
                write!(f, "more than one molecule selected for {si}")
            }
            CoreError::ExpectedLengthMismatch { got, want } => write!(
                f,
                "expected-executions vector has length {got}, library has {want} SIs"
            ),
            CoreError::ArityMismatch { got, want } => {
                write!(
                    f,
                    "available atoms arity {got} does not match universe {want}"
                )
            }
            CoreError::InvalidSchedule { reason } => write!(f, "invalid schedule: {reason}"),
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CoreError::UnknownSi(SiId(3)).to_string(),
            "unknown special instruction SI3"
        );
        assert!(CoreError::ExpectedLengthMismatch { got: 1, want: 2 }
            .to_string()
            .contains("length 1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
