//! Engine error types.

use park_storage::StorageError;
use park_syntax::{ParseError, SafetyError};
use std::fmt;

/// An error raised while compiling or evaluating a PARK program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A rule violates the paper's safety conditions.
    Safety(SafetyError),
    /// A storage-level problem (arity mismatches, non-ground atoms, ...).
    Storage(StorageError),
    /// A query source does not parse.
    QuerySyntax(ParseError),
    /// The conflict-resolution policy failed (e.g. an interactive oracle ran
    /// out of scripted answers).
    Resolver {
        /// The policy's name.
        policy: String,
        /// What went wrong.
        message: String,
    },
    /// A conflict was detected but resolution blocked no new rule instance.
    ///
    /// This cannot happen for conflicts produced by this engine (each
    /// resolution blocks the non-empty losing side, none of which is blocked
    /// yet); it is kept as a typed error so the termination argument is a
    /// checked invariant rather than an assumption.
    NoProgress {
        /// The conflicting atom, rendered.
        atom: String,
    },
    /// The Γ-iteration exceeded `EngineOptions::max_steps`.
    StepLimit {
        /// The configured bound.
        limit: u64,
    },
    /// The number of conflict-resolution restarts exceeded
    /// `EngineOptions::max_restarts`.
    RestartLimit {
        /// The configured bound.
        limit: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Safety(e) => write!(f, "unsafe rule: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::QuerySyntax(e) => write!(f, "query syntax error: {e}"),
            EngineError::Resolver { policy, message } => {
                write!(f, "conflict-resolution policy `{policy}` failed: {message}")
            }
            EngineError::NoProgress { atom } => write!(
                f,
                "conflict on `{atom}` was resolved without blocking any new rule instance"
            ),
            EngineError::StepLimit { limit } => {
                write!(f, "fixpoint iteration exceeded {limit} steps")
            }
            EngineError::RestartLimit { limit } => {
                write!(f, "conflict resolution exceeded {limit} restarts")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Safety(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            EngineError::QuerySyntax(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SafetyError> for EngineError {
    fn from(e: SafetyError) -> Self {
        EngineError::Safety(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// Convenient result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = EngineError::StepLimit { limit: 10 };
        assert!(e.to_string().contains("10"));
        let e = EngineError::Resolver {
            policy: "interactive".into(),
            message: "eof".into(),
        };
        assert!(e.to_string().contains("interactive"));
        let e = EngineError::NoProgress {
            atom: "q(a)".into(),
        };
        assert!(e.to_string().contains("q(a)"));
        let e = EngineError::QuerySyntax(park_syntax::parse_query("p(").unwrap_err());
        assert!(e.to_string().starts_with("query syntax error: 1:"), "{e}");
    }
}
