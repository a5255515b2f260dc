//! Error types for platform modeling and core allocation.

use std::fmt;

/// Errors produced by the platform model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// A node index outside the provisioned allocation was referenced.
    UnknownNode {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the platform.
        nodes: usize,
    },
    /// A component asked for more cores than remain free on a node.
    InsufficientCores {
        /// Node on which the allocation was attempted.
        node: usize,
        /// Cores requested.
        requested: u32,
        /// Cores still free.
        available: u32,
    },
    /// A component asked for zero cores.
    EmptyAllocation,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownNode { node, nodes } => {
                write!(f, "node index {node} out of range (platform has {nodes} nodes)")
            }
            PlatformError::InsufficientCores { node, requested, available } => {
                write!(f, "node {node}: requested {requested} cores but only {available} free")
            }
            PlatformError::EmptyAllocation => {
                write!(f, "allocation must request at least one core")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PlatformError::InsufficientCores { node: 2, requested: 40, available: 8 };
        let s = e.to_string();
        assert!(s.contains("node 2"));
        assert!(s.contains("40"));
        assert!(s.contains("8"));
    }
}
