//! Ensemble components: the simulations and analyses of the paper's
//! Figure 1, described by what the model needs — their kind, core count,
//! and the set of node indexes they run on.

use std::collections::BTreeSet;

/// Whether a component produces data or consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// A data-producing simulation (one per ensemble member).
    Simulation,
    /// A data-consuming in situ analysis.
    Analysis,
}

impl std::fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComponentKind::Simulation => write!(f, "simulation"),
            ComponentKind::Analysis => write!(f, "analysis"),
        }
    }
}

/// Addresses one component within a workflow ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentRef {
    /// Member index `i` (0-based; the paper's `EMᵢ`).
    pub member: usize,
    /// 0 = the simulation; `j ≥ 1` = analysis `j` (the paper's `Anaᵢʲ`).
    pub slot: usize,
}

impl ComponentRef {
    /// The member's simulation.
    pub fn simulation(member: usize) -> Self {
        ComponentRef { member, slot: 0 }
    }

    /// Analysis `j` (1-based, matching the paper's superscript).
    pub fn analysis(member: usize, j: usize) -> Self {
        assert!(j >= 1, "analysis slots are 1-based");
        ComponentRef { member, slot: j }
    }

    /// True for the simulation slot.
    pub fn is_simulation(&self) -> bool {
        self.slot == 0
    }
}

impl std::fmt::Display for ComponentRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_simulation() {
            write!(f, "Sim{}", self.member + 1)
        } else {
            write!(f, "Ana{}.{}", self.member + 1, self.slot)
        }
    }
}

/// Placement and sizing of one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSpec {
    /// Simulation or analysis.
    pub kind: ComponentKind,
    /// Physical cores the component uses (the paper's `csᵢ` / `caᵢʲ`).
    pub cores: u32,
    /// Node indexes it runs on (the paper's `sᵢ` / `aᵢʲ`).
    pub nodes: BTreeSet<usize>,
}

impl ComponentSpec {
    /// A simulation on a single node.
    pub fn simulation(cores: u32, node: usize) -> Self {
        ComponentSpec { kind: ComponentKind::Simulation, cores, nodes: BTreeSet::from([node]) }
    }

    /// An analysis on a single node.
    pub fn analysis(cores: u32, node: usize) -> Self {
        ComponentSpec { kind: ComponentKind::Analysis, cores, nodes: BTreeSet::from([node]) }
    }

    /// A component spanning several nodes.
    pub fn spanning(
        kind: ComponentKind,
        cores: u32,
        nodes: impl IntoIterator<Item = usize>,
    ) -> Self {
        ComponentSpec { kind, cores, nodes: nodes.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refs_display_like_the_paper() {
        assert_eq!(ComponentRef::simulation(0).to_string(), "Sim1");
        assert_eq!(ComponentRef::analysis(1, 2).to_string(), "Ana2.2");
        assert!(ComponentRef::simulation(0).is_simulation());
        assert!(!ComponentRef::analysis(0, 1).is_simulation());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn analysis_slot_zero_panics() {
        ComponentRef::analysis(0, 0);
    }

    #[test]
    fn constructors() {
        let s = ComponentSpec::simulation(16, 0);
        assert_eq!(s.kind, ComponentKind::Simulation);
        assert_eq!(s.nodes, BTreeSet::from([0]));
        let a = ComponentSpec::spanning(ComponentKind::Analysis, 8, [1, 2]);
        assert_eq!(a.nodes.len(), 2);
    }
}
