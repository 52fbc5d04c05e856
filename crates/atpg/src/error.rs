//! Error type of the test generator.

use fpva_grid::CellId;
use std::error::Error;
use std::fmt;

/// Errors reported by the test generators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AtpgError {
    /// The array has no source port or no sink port — test pressure cannot
    /// be applied or observed.
    MissingPorts,
    /// A flow path failed validation.
    InvalidPath {
        /// Human-readable reason.
        reason: String,
    },
    /// A proposed cut-set does not separate the sources from the sinks.
    NotSeparating {
        /// A sink cell still reachable with the cut closed.
        reached_sink: CellId,
    },
    /// The ILP engine failed (solver limit or internal error).
    Solver {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for AtpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtpgError::MissingPorts => {
                write!(f, "array needs at least one source and one sink port")
            }
            AtpgError::InvalidPath { reason } => write!(f, "invalid flow path: {reason}"),
            AtpgError::NotSeparating { reached_sink } => {
                write!(
                    f,
                    "cut-set does not separate sources from sink cell {reached_sink}"
                )
            }
            AtpgError::Solver { reason } => write!(f, "ILP engine failed: {reason}"),
        }
    }
}

impl Error for AtpgError {}
