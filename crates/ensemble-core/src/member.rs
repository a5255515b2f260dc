//! Ensemble members: one simulation coupled with K analyses.

use std::collections::BTreeSet;

use crate::component::{ComponentKind, ComponentSpec};
use crate::error::ModelError;

/// One ensemble member `EMᵢ`: a simulation plus `K ≥ 1` analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberSpec {
    /// The data-producing simulation.
    pub simulation: ComponentSpec,
    /// The coupled analyses `Anaᵢ¹ … AnaᵢᴷⁱΚ`.
    pub analyses: Vec<ComponentSpec>,
}

impl MemberSpec {
    /// Builds and validates a member.
    pub fn new(simulation: ComponentSpec, analyses: Vec<ComponentSpec>) -> Self {
        assert_eq!(
            simulation.kind,
            ComponentKind::Simulation,
            "first component must be a simulation"
        );
        assert!(
            analyses.iter().all(|a| a.kind == ComponentKind::Analysis),
            "coupled components must be analyses"
        );
        MemberSpec { simulation, analyses }
    }

    /// Number of couplings `Kᵢ`.
    pub fn k(&self) -> usize {
        self.analyses.len()
    }

    /// Total cores `cᵢ = csᵢ + Σⱼ caᵢʲ`.
    pub fn total_cores(&self) -> u32 {
        self.simulation.cores + self.analyses.iter().map(|a| a.cores).sum::<u32>()
    }

    /// Nodes the member occupies: `sᵢ ∪ ⋃ⱼ aᵢʲ`.
    pub fn node_set(&self) -> BTreeSet<usize> {
        let mut set = self.simulation.nodes.clone();
        for a in &self.analyses {
            set.extend(a.nodes.iter().copied());
        }
        set
    }

    /// `dᵢ`: number of distinct nodes allocated to the member.
    pub fn num_nodes(&self) -> usize {
        self.node_set().len()
    }

    /// Checks structural invariants (paper §4.1).
    pub fn validate(&self, member_index: usize) -> Result<(), ModelError> {
        if self.analyses.is_empty() {
            return Err(ModelError::NoAnalyses { member: member_index });
        }
        for (name, c) in std::iter::once(("simulation".to_string(), &self.simulation)).chain(
            self.analyses.iter().enumerate().map(|(j, a)| (format!("analysis {}", j + 1), a)),
        ) {
            if c.cores == 0 {
                return Err(ModelError::ZeroCores { member: member_index, component: name });
            }
            if c.nodes.is_empty() {
                return Err(ModelError::EmptyNodeSet { member: member_index, component: name });
            }
        }
        Ok(())
    }

    /// True iff analysis `j` (0-based here) is fully co-located with the
    /// simulation: `|sᵢ| = |sᵢ ∪ aᵢʲ|` (paper §4.3).
    pub fn is_colocated(&self, analysis: usize) -> bool {
        let union: BTreeSet<usize> =
            self.simulation.nodes.union(&self.analyses[analysis].nodes).copied().collect();
        union.len() == self.simulation.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(sim_node: usize, ana_nodes: &[usize]) -> MemberSpec {
        MemberSpec::new(
            ComponentSpec::simulation(16, sim_node),
            ana_nodes.iter().map(|&n| ComponentSpec::analysis(8, n)).collect(),
        )
    }

    #[test]
    fn derived_quantities() {
        let m = member(0, &[1, 2]);
        assert_eq!(m.k(), 2);
        assert_eq!(m.total_cores(), 32);
        assert_eq!(m.node_set(), BTreeSet::from([0, 1, 2]));
        assert_eq!(m.num_nodes(), 3);
        m.validate(0).unwrap();
    }

    #[test]
    fn colocation_detection() {
        let colocated = member(0, &[0]);
        assert!(colocated.is_colocated(0));
        let split = member(0, &[1]);
        assert!(!split.is_colocated(0));
    }

    #[test]
    fn node_sharing_reduces_d() {
        // Analyses on the simulation's node: d = 1 < 1 + K.
        let m = member(0, &[0, 0]);
        assert_eq!(m.num_nodes(), 1);
    }

    #[test]
    fn validation_failures() {
        let no_ana = MemberSpec { simulation: ComponentSpec::simulation(16, 0), analyses: vec![] };
        assert_eq!(no_ana.validate(3), Err(ModelError::NoAnalyses { member: 3 }));

        let zero = member(0, &[1]);
        let mut zero2 = zero.clone();
        zero2.analyses[0].cores = 0;
        assert!(matches!(zero2.validate(0), Err(ModelError::ZeroCores { .. })));

        let mut empty_nodes = zero;
        empty_nodes.simulation.nodes.clear();
        assert!(matches!(empty_nodes.validate(0), Err(ModelError::EmptyNodeSet { .. })));
    }

    #[test]
    #[should_panic(expected = "first component must be a simulation")]
    fn wrong_kind_panics() {
        MemberSpec::new(ComponentSpec::analysis(8, 0), vec![]);
    }
}
