//! The paper's experimental configurations: Table 2 (sets `C_f`, `C_c`,
//! `C1.1`–`C1.5`, one analysis per simulation) and Table 4
//! (`C2.1`–`C2.8`, two analyses per simulation).
//!
//! Every simulation uses 16 cores and every analysis 8 cores, as selected
//! by §2.2 / §3.4.

use crate::component::ComponentSpec;
use crate::ensemble::EnsembleSpec;
use crate::member::MemberSpec;

/// Cores per simulation in the paper's experiments.
pub const SIM_CORES: u32 = 16;
/// Cores per analysis in the paper's experiments.
pub const ANALYSIS_CORES: u32 = 8;

/// Named experimental configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum ConfigId {
    /// Co-location-free elementary config: one member, sim and analysis
    /// on separate nodes.
    Cf,
    /// Co-located elementary config: one member on a single node.
    Cc,
    /// Two members; both analyses share a node, sims dedicated.
    C1_1,
    /// Two members; both sims share a node, analyses dedicated.
    C1_2,
    /// Two members; member 1 co-located, member 2 split.
    C1_3,
    /// Two members; sims share a node, analyses share another.
    C1_4,
    /// Two members; each member fully co-located on its own node.
    C1_5,
    /// Two analyses/sim; all four analyses share node 2.
    C2_1,
    /// Two analyses/sim; sims share node 0, each member's analyses share
    /// a dedicated node.
    C2_2,
    /// Two analyses/sim; sims share node 0, analyses interleaved over
    /// nodes 1 and 2.
    C2_3,
    /// Two analyses/sim; one analysis co-located per member, second
    /// analyses share node 2.
    C2_4,
    /// Two analyses/sim; cross-placed analyses (member 1's on nodes 1,2;
    /// member 2's on nodes 0,2).
    C2_5,
    /// Two analyses/sim on 2 nodes; sims share node 0, all analyses on
    /// node 1.
    C2_6,
    /// Two analyses/sim on 2 nodes; first analyses on node 0, second on
    /// node 1, sims split.
    C2_7,
    /// Two analyses/sim on 2 nodes; each member fully co-located.
    C2_8,
}

impl ConfigId {
    /// The paper's label, e.g. "C1.4".
    pub fn label(self) -> &'static str {
        match self {
            ConfigId::Cf => "C_f",
            ConfigId::Cc => "C_c",
            ConfigId::C1_1 => "C1.1",
            ConfigId::C1_2 => "C1.2",
            ConfigId::C1_3 => "C1.3",
            ConfigId::C1_4 => "C1.4",
            ConfigId::C1_5 => "C1.5",
            ConfigId::C2_1 => "C2.1",
            ConfigId::C2_2 => "C2.2",
            ConfigId::C2_3 => "C2.3",
            ConfigId::C2_4 => "C2.4",
            ConfigId::C2_5 => "C2.5",
            ConfigId::C2_6 => "C2.6",
            ConfigId::C2_7 => "C2.7",
            ConfigId::C2_8 => "C2.8",
        }
    }

    /// Number of nodes the configuration provisions (Tables 2 and 4).
    pub fn nodes(self) -> usize {
        self.build().num_nodes()
    }

    /// Builds the ensemble spec for the configuration.
    pub fn build(self) -> EnsembleSpec {
        // (sim_node, [analysis nodes]) per member.
        let members: Vec<(usize, Vec<usize>)> = match self {
            ConfigId::Cf => vec![(0, vec![1])],
            ConfigId::Cc => vec![(0, vec![0])],
            ConfigId::C1_1 => vec![(0, vec![2]), (1, vec![2])],
            ConfigId::C1_2 => vec![(0, vec![1]), (0, vec![2])],
            ConfigId::C1_3 => vec![(0, vec![0]), (1, vec![2])],
            ConfigId::C1_4 => vec![(0, vec![1]), (0, vec![1])],
            ConfigId::C1_5 => vec![(0, vec![0]), (1, vec![1])],
            ConfigId::C2_1 => vec![(0, vec![2, 2]), (1, vec![2, 2])],
            ConfigId::C2_2 => vec![(0, vec![1, 1]), (0, vec![2, 2])],
            ConfigId::C2_3 => vec![(0, vec![1, 2]), (0, vec![1, 2])],
            ConfigId::C2_4 => vec![(0, vec![0, 2]), (1, vec![1, 2])],
            ConfigId::C2_5 => vec![(0, vec![1, 2]), (1, vec![0, 2])],
            ConfigId::C2_6 => vec![(0, vec![1, 1]), (0, vec![1, 1])],
            ConfigId::C2_7 => vec![(0, vec![0, 1]), (1, vec![0, 1])],
            ConfigId::C2_8 => vec![(0, vec![0, 0]), (1, vec![1, 1])],
        };
        EnsembleSpec::new(
            members
                .into_iter()
                .map(|(sim_node, ana_nodes)| {
                    MemberSpec::new(
                        ComponentSpec::simulation(SIM_CORES, sim_node),
                        ana_nodes
                            .into_iter()
                            .map(|n| ComponentSpec::analysis(ANALYSIS_CORES, n))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Table 2: the one-analysis-per-simulation set (including the
    /// elementary `C_f`, `C_c`).
    pub fn set_one() -> Vec<ConfigId> {
        vec![
            ConfigId::Cf,
            ConfigId::Cc,
            ConfigId::C1_1,
            ConfigId::C1_2,
            ConfigId::C1_3,
            ConfigId::C1_4,
            ConfigId::C1_5,
        ]
    }

    /// The two-member subset of Table 2 compared in Figure 8.
    pub fn set_one_pairs() -> Vec<ConfigId> {
        vec![ConfigId::C1_1, ConfigId::C1_2, ConfigId::C1_3, ConfigId::C1_4, ConfigId::C1_5]
    }

    /// Table 4: the two-analyses-per-simulation set (Figure 9).
    pub fn set_two() -> Vec<ConfigId> {
        vec![
            ConfigId::C2_1,
            ConfigId::C2_2,
            ConfigId::C2_3,
            ConfigId::C2_4,
            ConfigId::C2_5,
            ConfigId::C2_6,
            ConfigId::C2_7,
            ConfigId::C2_8,
        ]
    }

    /// Every configuration of the paper.
    pub fn all() -> Vec<ConfigId> {
        let mut v = Self::set_one();
        v.extend(Self::set_two());
        v
    }
}

impl std::fmt::Display for ConfigId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_node_counts_match_paper() {
        assert_eq!(ConfigId::Cf.nodes(), 2);
        assert_eq!(ConfigId::Cc.nodes(), 1);
        assert_eq!(ConfigId::C1_1.nodes(), 3);
        assert_eq!(ConfigId::C1_2.nodes(), 3);
        assert_eq!(ConfigId::C1_3.nodes(), 3);
        assert_eq!(ConfigId::C1_4.nodes(), 2);
        assert_eq!(ConfigId::C1_5.nodes(), 2);
    }

    #[test]
    fn table4_node_counts_match_paper() {
        for (cfg, nodes) in [
            (ConfigId::C2_1, 3),
            (ConfigId::C2_2, 3),
            (ConfigId::C2_3, 3),
            (ConfigId::C2_4, 3),
            (ConfigId::C2_5, 3),
            (ConfigId::C2_6, 2),
            (ConfigId::C2_7, 2),
            (ConfigId::C2_8, 2),
        ] {
            assert_eq!(cfg.nodes(), nodes, "{cfg}");
        }
    }

    #[test]
    fn member_counts() {
        assert_eq!(ConfigId::Cf.build().n(), 1);
        assert_eq!(ConfigId::Cc.build().n(), 1);
        for cfg in ConfigId::set_one_pairs().into_iter().chain(ConfigId::set_two()) {
            assert_eq!(cfg.build().n(), 2, "{cfg}");
        }
    }

    #[test]
    fn k_per_member() {
        for cfg in ConfigId::set_one() {
            assert!(cfg.build().members.iter().all(|m| m.k() == 1), "{cfg}");
        }
        for cfg in ConfigId::set_two() {
            assert!(cfg.build().members.iter().all(|m| m.k() == 2), "{cfg}");
        }
    }

    #[test]
    fn every_config_fits_cori_nodes() {
        // 32 cores per node on Cori; all Table 2/4 placements must fit.
        for cfg in ConfigId::all() {
            cfg.build().validate(Some(32)).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn c1_5_and_c2_8_are_fully_colocated() {
        for cfg in [ConfigId::C1_5, ConfigId::C2_8] {
            let e = cfg.build();
            for m in &e.members {
                for j in 0..m.k() {
                    assert!(m.is_colocated(j), "{cfg} must co-locate all couplings");
                }
            }
        }
    }

    #[test]
    fn saturated_configs_use_full_nodes() {
        // C2.6–C2.8 pack 64 cores onto 2 nodes (the paper notes the
        // saturation).
        for cfg in [ConfigId::C2_6, ConfigId::C2_7, ConfigId::C2_8] {
            let e = cfg.build();
            let total: u32 = e.members.iter().map(|m| m.total_cores()).sum();
            assert_eq!(total, 64, "{cfg}");
            assert_eq!(e.num_nodes(), 2, "{cfg}");
        }
    }

    #[test]
    fn labels_roundtrip() {
        assert_eq!(ConfigId::C1_4.to_string(), "C1.4");
        assert_eq!(ConfigId::Cf.to_string(), "C_f");
        assert_eq!(ConfigId::all().len(), 15);
    }

    #[test]
    fn paper_example_node_sets() {
        // §4.1: in C1.1, s₁={0}, a₁¹={2}, s₂={1}, a₂¹={2}.
        let e = ConfigId::C1_1.build();
        assert_eq!(e.members[0].simulation.nodes, std::collections::BTreeSet::from([0]));
        assert_eq!(e.members[0].analyses[0].nodes, std::collections::BTreeSet::from([2]));
        assert_eq!(e.members[1].simulation.nodes, std::collections::BTreeSet::from([1]));
        assert_eq!(e.members[1].analyses[0].nodes, std::collections::BTreeSet::from([2]));
    }
}
