//! Error types of the data transport layer.

use std::fmt;

/// Errors surfaced by DTL operations.
#[derive(Debug)]
pub enum DtlError {
    /// The staging area was closed (producer finished or run aborted)
    /// and no further chunks will arrive.
    Closed,
    /// One variable was hard-closed (its member failed and was not
    /// restarted) while the rest of the staging area keeps running.
    /// Peers blocked on the variable unblock with this error.
    VariableClosed {
        /// The closed variable.
        variable: String,
    },
    /// A blocking operation exceeded its timeout.
    Timeout {
        /// The operation that timed out.
        operation: &'static str,
        /// Variable involved.
        variable: String,
        /// Step involved.
        step: u64,
    },
    /// The synchronous protocol was violated (e.g. a writer tried to
    /// overwrite a chunk that has unread consumers, outside of the
    /// blocking API, or steps went backwards).
    ProtocolViolation {
        /// Description of the violation.
        detail: String,
    },
    /// A chunk failed to decode into the requested type.
    Codec {
        /// Description from the codec.
        detail: String,
    },
    /// An unknown variable was referenced.
    UnknownVariable {
        /// The offending name.
        name: String,
    },
    /// A payload store or load failed (an injected, transient fault).
    Io(std::io::Error),
}

impl fmt::Display for DtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtlError::Closed => write!(f, "staging area closed"),
            DtlError::VariableClosed { variable } => {
                write!(f, "variable '{variable}' closed (member failed)")
            }
            DtlError::Timeout { operation, variable, step } => {
                write!(f, "{operation} timed out (variable '{variable}', step {step})")
            }
            DtlError::ProtocolViolation { detail } => write!(f, "protocol violation: {detail}"),
            DtlError::Codec { detail } => write!(f, "codec error: {detail}"),
            DtlError::UnknownVariable { name } => write!(f, "unknown variable '{name}'"),
            DtlError::Io(e) => write!(f, "staging I/O error: {e}"),
        }
    }
}

impl std::error::Error for DtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DtlError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience alias.
pub type DtlResult<T> = Result<T, DtlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(DtlError::Closed.to_string(), "staging area closed");
        let t = DtlError::Timeout { operation: "get", variable: "traj".into(), step: 3 };
        assert!(t.to_string().contains("traj"));
        assert!(t.to_string().contains('3'));
        let io = DtlError::Io(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
    }
}
