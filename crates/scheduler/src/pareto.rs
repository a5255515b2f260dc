//! Pareto analysis of the placement space: provisioned nodes versus
//! predicted ensemble makespan, with the indicator as a tie-breaker —
//! showing the resource/performance trade-off the paper's indicator
//! collapses into one number.

use runtime::{RuntimeResult, SimRunConfig};
use serde::{Deserialize, Serialize};

use crate::delta::DeltaEvaluator;
use crate::enumerate::EnsembleShape;
use crate::fast_eval::FastScore;
use crate::scan::{scan_placements, Candidate, ScanOptions};
use crate::search::NodeBudget;

/// One placement with its two objectives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Flattened node assignment.
    pub assignment: Vec<usize>,
    /// Nodes provisioned (minimize).
    pub nodes_used: usize,
    /// Predicted ensemble makespan, seconds (minimize).
    pub ensemble_makespan: f64,
    /// `F(Pᵁ·ᴬ·ᴾ)` (maximize; reported for context).
    pub objective: f64,
    /// Whether the point survives Pareto filtering.
    pub dominated: bool,
}

/// Evaluates every canonical feasible placement and marks the Pareto
/// frontier over (nodes, makespan). Points are returned sorted by node
/// count then makespan. `opts.top_k` is ignored — dominance marking
/// needs every point. Each scan worker owns one reusable
/// [`DeltaEvaluator`]: successive candidates re-solve only the nodes
/// whose occupancy changed.
pub fn pareto_front(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    opts: &ScanOptions,
) -> RuntimeResult<Vec<ParetoPoint>> {
    let opts = ScanOptions { top_k: 0, ..*opts };
    let outcome = scan_placements(
        shape,
        budget,
        &opts,
        || DeltaEvaluator::new(base, shape),
        |evaluator: &mut DeltaEvaluator, c: Candidate<'_>| -> RuntimeResult<Option<FastScore>> {
            evaluator.score_delta(c.assignment, c.first_changed).map(Some)
        },
        |_, c, score| ParetoPoint {
            assignment: c.assignment.to_vec(),
            nodes_used: score.nodes_used,
            ensemble_makespan: score.ensemble_makespan,
            objective: score.objective,
            dominated: false,
        },
        DeltaEvaluator::take_counters,
        |score: &FastScore| score.objective,
        || false,
        |_| {},
    )?;
    let mut points = outcome.into_values();
    // Dominance: fewer-or-equal nodes AND shorter-or-equal makespan,
    // strictly better in one.
    for i in 0..points.len() {
        points[i].dominated = (0..points.len()).any(|j| {
            j != i
                && points[j].nodes_used <= points[i].nodes_used
                && points[j].ensemble_makespan <= points[i].ensemble_makespan + 1e-12
                && (points[j].nodes_used < points[i].nodes_used
                    || points[j].ensemble_makespan < points[i].ensemble_makespan - 1e-12)
        });
    }
    points.sort_by(|a, b| {
        a.nodes_used.cmp(&b.nodes_used).then(a.ensemble_makespan.total_cmp(&b.ensemble_makespan))
    });
    Ok(points)
}

/// The non-dominated subset of [`pareto_front`]'s output.
pub fn frontier_only(points: &[ParetoPoint]) -> Vec<&ParetoPoint> {
    points.iter().filter(|p| !p.dominated).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::WorkloadMap;

    fn base() -> SimRunConfig {
        let mut cfg = SimRunConfig::paper(ensemble_core::ConfigId::Cf.build());
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.n_steps = 8;
        cfg
    }

    #[test]
    fn frontier_is_nonempty_and_monotone() {
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 3, cores_per_node: 32 };
        let points = pareto_front(&base(), &shape, budget, &ScanOptions::default()).unwrap();
        assert!(!points.is_empty());
        let frontier = frontier_only(&points);
        assert!(!frontier.is_empty());
        // Along the frontier, more nodes must buy shorter (or equal)
        // makespans.
        for w in frontier.windows(2) {
            if w[1].nodes_used > w[0].nodes_used {
                assert!(w[1].ensemble_makespan <= w[0].ensemble_makespan + 1e-9);
            }
        }
    }

    #[test]
    fn scan_matches_the_one_shot_path_bitwise_at_any_worker_count() {
        // Regression for the per-candidate `fast_score(base, …)` clone
        // the serial loop used to pay: the reused per-worker evaluator
        // must reproduce the one-shot scores bit for bit, at every
        // worker count.
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 3, cores_per_node: 32 };
        let base = base();
        let serial =
            pareto_front(&base, &shape, budget, &ScanOptions { workers: 1, ..Default::default() })
                .unwrap();
        for p in &serial {
            let one_shot = crate::fast_eval::fast_score(&base, &shape.materialize(&p.assignment))
                .expect("one-shot score");
            assert_eq!(p.objective.to_bits(), one_shot.objective.to_bits(), "{:?}", p.assignment);
            assert_eq!(p.ensemble_makespan.to_bits(), one_shot.ensemble_makespan.to_bits());
        }
        for workers in [2usize, 8] {
            let parallel = pareto_front(
                &base,
                &shape,
                budget,
                &ScanOptions { workers, chunk: 2, ..Default::default() },
            )
            .unwrap();
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in parallel.iter().zip(&serial) {
                assert_eq!(a.assignment, b.assignment, "workers={workers}");
                assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                assert_eq!(a.ensemble_makespan.to_bits(), b.ensemble_makespan.to_bits());
                assert_eq!(a.dominated, b.dominated);
            }
        }
    }

    #[test]
    fn dominated_points_are_marked() {
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 3, cores_per_node: 32 };
        let points = pareto_front(&base(), &shape, budget, &ScanOptions::default()).unwrap();
        // With contention, at least one 3-node scatter placement is
        // dominated by the 2-node full co-location (C1.5 pattern).
        assert!(points.iter().any(|p| p.dominated), "some placement must be dominated");
        let c15 = points
            .iter()
            .find(|p| p.assignment == vec![0, 0, 1, 1])
            .expect("C1.5 pattern enumerated");
        assert!(!c15.dominated, "full co-location should sit on the frontier");
    }
}
