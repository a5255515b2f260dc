//! Variable registry: names the data streams flowing through the DTL.
//!
//! Each coupling (simulation → analyses) communicates through a named
//! *variable* (e.g. `"trajectory/member0"`). The registry assigns dense
//! ids, records the expected number of readers (the K analyses of the
//! member), and the home node of the staged data (DIMES keeps chunks in
//! the producer's node memory).

use std::collections::HashMap;

use crate::error::{DtlError, DtlResult};

/// Dense identifier of a registered variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VariableId(pub u32);

/// Static description of one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableSpec {
    /// Unique name.
    pub name: String,
    /// Number of readers that must consume each chunk before the writer
    /// may stage the next one (the member's K analyses).
    pub expected_readers: u32,
    /// Node index holding the staged data (the producer's node under the
    /// DIMES-style in-memory DTL).
    pub home_node: usize,
}

/// Name → id mapping, with each spec kept to check a re-registration.
#[derive(Debug, Clone, Default)]
pub struct VariableRegistry {
    by_name: HashMap<String, VariableId>,
    specs: Vec<VariableSpec>,
}

impl VariableRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a variable; re-registering the same name returns the
    /// existing id only if the spec matches, otherwise errors.
    pub fn register(&mut self, spec: VariableSpec) -> DtlResult<VariableId> {
        assert!(spec.expected_readers > 0, "a variable needs at least one reader");
        if let Some(&id) = self.by_name.get(&spec.name) {
            if self.specs[id.0 as usize] == spec {
                return Ok(id);
            }
            return Err(DtlError::ProtocolViolation {
                detail: format!("variable '{}' re-registered with a different spec", spec.name),
            });
        }
        let id = VariableId(self.specs.len() as u32);
        self.by_name.insert(spec.name.clone(), id);
        self.specs.push(spec);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> VariableSpec {
        VariableSpec { name: name.into(), expected_readers: 2, home_node: 0 }
    }

    #[test]
    fn register_assigns_dense_ids() {
        let mut r = VariableRegistry::new();
        let id = r.register(spec("traj/0")).unwrap();
        assert_eq!(id, VariableId(0));
        assert_eq!(r.register(spec("traj/1")).unwrap(), VariableId(1));
    }

    #[test]
    fn idempotent_reregistration() {
        let mut r = VariableRegistry::new();
        let a = r.register(spec("traj/0")).unwrap();
        let b = r.register(spec("traj/0")).unwrap();
        assert_eq!(a, b);
        // Nothing new was registered: the next name gets the next id.
        assert_eq!(r.register(spec("traj/1")).unwrap(), VariableId(1));
    }

    #[test]
    fn conflicting_reregistration_fails() {
        let mut r = VariableRegistry::new();
        r.register(spec("traj/0")).unwrap();
        let mut other = spec("traj/0");
        other.expected_readers = 5;
        assert!(matches!(r.register(other), Err(DtlError::ProtocolViolation { .. })));
    }
}
