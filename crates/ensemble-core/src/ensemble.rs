//! The workflow ensemble: N members running concurrently.

use std::collections::BTreeSet;

use crate::error::ModelError;
use crate::member::MemberSpec;

/// A workflow ensemble of `N` concurrently-starting members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleSpec {
    /// The members `EM₁ … EM_N`.
    pub members: Vec<MemberSpec>,
}

impl EnsembleSpec {
    /// Builds an ensemble.
    pub fn new(members: Vec<MemberSpec>) -> Self {
        EnsembleSpec { members }
    }

    /// Number of members `N`.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// All nodes touched by the ensemble.
    pub fn node_set(&self) -> BTreeSet<usize> {
        let mut set = BTreeSet::new();
        for m in &self.members {
            set.extend(m.node_set());
        }
        set
    }

    /// `M`: total number of nodes used by the ensemble. Satisfies
    /// `M ≤ Σᵢ dᵢ`, with equality iff members share no nodes (§4.1).
    pub fn num_nodes(&self) -> usize {
        self.node_set().len()
    }

    /// Validates structure and (optionally) per-node core capacity.
    pub fn validate(&self, cores_per_node: Option<u32>) -> Result<(), ModelError> {
        if self.members.is_empty() {
            return Err(ModelError::EmptyEnsemble);
        }
        for (i, m) in self.members.iter().enumerate() {
            m.validate(i)?;
        }
        if let Some(capacity) = cores_per_node {
            // Components spanning multiple nodes split cores evenly; the
            // paper's configurations are all single-node components.
            let mut demand: std::collections::BTreeMap<usize, u32> = Default::default();
            for m in &self.members {
                for c in std::iter::once(&m.simulation).chain(m.analyses.iter()) {
                    let share = c.cores.div_ceil(c.nodes.len() as u32);
                    for &n in &c.nodes {
                        *demand.entry(n).or_default() += share;
                    }
                }
            }
            for (node, requested) in demand {
                if requested > capacity {
                    return Err(ModelError::NodeOverSubscribed { node, requested, capacity });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;

    fn member(sim_node: usize, ana_nodes: &[usize]) -> MemberSpec {
        MemberSpec::new(
            ComponentSpec::simulation(16, sim_node),
            ana_nodes.iter().map(|&n| ComponentSpec::analysis(8, n)).collect(),
        )
    }

    #[test]
    fn node_count_with_sharing() {
        // Two members sharing node 2 for their analyses: M < Σ dᵢ.
        let e = EnsembleSpec::new(vec![member(0, &[2]), member(1, &[2])]);
        assert_eq!(e.n(), 2);
        assert_eq!(e.num_nodes(), 3);
        let sum_d: usize = e.members.iter().map(|m| m.num_nodes()).sum();
        assert!(e.num_nodes() <= sum_d);
    }

    #[test]
    fn dedicated_nodes_equality() {
        let e = EnsembleSpec::new(vec![member(0, &[1]), member(2, &[3])]);
        let sum_d: usize = e.members.iter().map(|m| m.num_nodes()).sum();
        assert_eq!(e.num_nodes(), sum_d);
    }

    #[test]
    fn capacity_validation() {
        // 16 + 8 + 8 = 32 cores on one node: fits exactly.
        let full = EnsembleSpec::new(vec![member(0, &[0, 0])]);
        full.validate(Some(32)).unwrap();
        // A second member's simulation on the same node overflows.
        let over = EnsembleSpec::new(vec![member(0, &[0, 0]), member(0, &[1, 1])]);
        assert!(matches!(
            over.validate(Some(32)),
            Err(ModelError::NodeOverSubscribed { node: 0, requested: 48, capacity: 32 })
        ));
    }

    #[test]
    fn empty_ensemble_rejected() {
        assert_eq!(EnsembleSpec::new(vec![]).validate(None), Err(ModelError::EmptyEnsemble));
    }
}
