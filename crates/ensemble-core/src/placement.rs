//! The placement indicator `CPᵢ` (paper §4.3, Eq. 6):
//!
//! ```text
//! CPᵢ = (|sᵢ| / Kᵢ) Σⱼ 1 / |sᵢ ∪ aᵢʲ|
//! ```
//!
//! `CPᵢ = 1` iff every analysis is co-located with its simulation;
//! values sink toward 0 as components spread over dedicated nodes.

use crate::member::MemberSpec;

/// Eq. 6 for one member.
pub fn placement_indicator(member: &MemberSpec) -> f64 {
    let sim = &member.simulation.nodes;
    let k = member.analyses.len();
    eq6(sim.len(), k, member.analyses.iter().map(|a| sim.union(&a.nodes).count()))
}

/// Eq. 6 for a member of single-node components, on node labels alone:
/// the simulation on `sim_node`, analysis `j` on `analysis_nodes[j]`.
#[inline]
pub fn placement_indicator_on(sim_node: usize, analysis_nodes: &[usize]) -> f64 {
    placement_indicator_bound(sim_node, analysis_nodes, analysis_nodes.len())
}

/// Eq. 6 for a member of `analyses` single-node analyses of which only
/// the first `placed.len()` are placed yet, each one not placed counted
/// as co-located (`|s ∪ aʲ| = 1`). Every term can only fall when that
/// analysis is placed, and the sum runs in the same order either way,
/// so this is never below the indicator of any completion, and is the
/// indicator itself once all are placed. Inlined: a bounded scan calls
/// it once per member at every prefix it checks.
#[inline]
pub fn placement_indicator_bound(sim_node: usize, placed: &[usize], analyses: usize) -> f64 {
    let placed_unions = placed.iter().map(|&a| if a == sim_node { 1 } else { 2 });
    eq6(1, analyses, placed_unions.chain(std::iter::repeat_n(1, analyses - placed.len())))
}

/// `|s| / K · Σⱼ 1 / |s ∪ aʲ|` from `|s|` and each of the `k` couplings'
/// `|s ∪ aʲ|`.
fn eq6(sim_nodes: usize, k: usize, unions: impl Iterator<Item = usize>) -> f64 {
    assert!(k > 0, "placement indicator requires at least one coupling");
    let mut sum = 0.0f64;
    for union in unions {
        sum += 1.0 / union as f64;
    }
    sim_nodes as f64 / k as f64 * sum
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
    fn fully_colocated_member_scores_one() {
        assert!((placement_indicator(&member(0, &[0])) - 1.0).abs() < 1e-12);
        assert!((placement_indicator(&member(0, &[0, 0])) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dedicated_analysis_halves_the_ratio() {
        // |s| = 1, |s ∪ a| = 2.
        assert!((placement_indicator(&member(0, &[1])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_placement_averages_couplings() {
        // One co-located analysis (ratio 1), one dedicated (ratio 1/2).
        let m = member(0, &[0, 2]);
        assert!((placement_indicator(&m) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cp_in_half_open_unit_interval() {
        for m in [member(0, &[0]), member(0, &[1]), member(0, &[1, 2]), member(0, &[0, 1])] {
            let cp = placement_indicator(&m);
            assert!(cp > 0.0 && cp <= 1.0, "CP = {cp}");
        }
    }

    #[test]
    fn spreading_monotonically_decreases_cp() {
        // More dedicated nodes per analysis ⇒ lower CP.
        let tight = placement_indicator(&member(0, &[0, 0]));
        let mid = placement_indicator(&member(0, &[0, 1]));
        let loose = placement_indicator(&member(0, &[1, 2]));
        assert!(tight > mid && mid > loose, "{tight} > {mid} > {loose}");
    }

    #[test]
    fn paper_example_c1_1() {
        // §4.1's worked example: C1.1 has s₁={0}, a₁¹={2} → CP = 1/2.
        let m = member(0, &[2]);
        assert!((placement_indicator(&m) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_partial_member_is_bounded_by_every_completion_and_is_exact_when_placed() {
        for placed in [&[][..], &[0], &[1], &[0, 1], &[1, 2], &[1, 0, 2]] {
            for analyses in placed.len().max(1)..=3 {
                let bound = placement_indicator_bound(0, placed, analyses);
                for rest in [[0, 0, 0], [1, 0, 2], [3, 3, 3]] {
                    let mut all = placed.to_vec();
                    all.extend(&rest[..analyses - placed.len()]);
                    assert!(bound >= placement_indicator_on(0, &all), "{placed:?} → {all:?}");
                }
            }
            if !placed.is_empty() {
                let exact = placement_indicator_bound(0, placed, placed.len());
                assert_eq!(exact.to_bits(), placement_indicator(&member(0, placed)).to_bits());
            }
        }
    }

    #[test]
    fn multi_node_simulation() {
        // A simulation spanning 2 nodes with the analysis inside them.
        let m = MemberSpec::new(
            ComponentSpec::spanning(crate::component::ComponentKind::Simulation, 32, [0, 1]),
            vec![ComponentSpec::analysis(8, 1)],
        );
        assert!((placement_indicator(&m) - 1.0).abs() < 1e-12, "analysis within sim nodes");
    }
}
