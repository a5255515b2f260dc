//! Moldable scheduling: choose the analysis core count *and* the
//! placement together.
//!
//! The paper fixes analysis cores with the §3.4 sweep and then compares
//! placements; but the two interact — a smaller analysis might fit
//! co-located where a larger one forces spreading. This module searches
//! the joint space, scoring every (core count, canonical placement)
//! pair with the closed-form predictor and `F(Pᵁ·ᴬ·ᴾ)`.

use runtime::{RuntimeResult, SimRunConfig};
use serde::{Deserialize, Serialize};

use crate::delta::DeltaEvaluator;
use crate::enumerate::EnsembleShape;
use crate::fast_eval::FastScore;
use crate::scan::{scan_placements, Candidate, ScanOptions};
use crate::search::NodeBudget;

/// One point of the joint search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MoldablePoint {
    /// Cores per analysis evaluated.
    pub analysis_cores: u32,
    /// Best canonical placement found at that size.
    pub assignment: Vec<usize>,
    /// Its objective `F(Pᵁ·ᴬ·ᴾ)`.
    pub objective: f64,
    /// Its predicted ensemble makespan.
    pub ensemble_makespan: f64,
    /// Nodes it uses.
    pub nodes_used: usize,
    /// Whether every coupling satisfies the paper's Eq. 4 at this size.
    pub eq4_satisfied: bool,
}

/// Result of the moldable search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MoldableResult {
    /// Best placement per core count (core-count order).
    pub per_size: Vec<MoldablePoint>,
    /// The overall winner.
    pub best: MoldablePoint,
}

/// Searches core counts × placements for `n` members of
/// `sim_cores + k` analyses under `budget`. Each core count runs one
/// top-1 scan (`opts.top_k` is overridden): per-worker
/// [`DeltaEvaluator`]s score the candidates incrementally and the
/// engine's bounded selection keeps the earliest-enumerated maximum —
/// exactly the placement a strictly-greater serial loop keeps, at any
/// worker count.
pub fn moldable_search(
    base: &SimRunConfig,
    n: usize,
    sim_cores: u32,
    k: usize,
    candidate_cores: &[u32],
    budget: NodeBudget,
    opts: &ScanOptions,
) -> RuntimeResult<MoldableResult> {
    assert!(!candidate_cores.is_empty());
    let opts = ScanOptions { top_k: 1, ..*opts };
    let mut per_size = Vec::new();
    for &cores in candidate_cores {
        let shape = EnsembleShape::uniform(n, sim_cores, k, cores);
        let outcome = scan_placements(
            &shape,
            budget,
            &opts,
            || DeltaEvaluator::new(base, &shape),
            |evaluator: &mut DeltaEvaluator,
             c: Candidate<'_>|
             -> RuntimeResult<Option<FastScore>> {
                evaluator.score_delta(c.assignment, c.first_changed).map(Some)
            },
            |_, c, score| MoldablePoint {
                analysis_cores: cores,
                assignment: c.assignment.to_vec(),
                objective: score.objective,
                ensemble_makespan: score.ensemble_makespan,
                nodes_used: score.nodes_used,
                eq4_satisfied: score.eq4_satisfied,
            },
            DeltaEvaluator::take_counters,
            |score: &FastScore| score.objective,
            || false,
            |_| {},
        )?;
        if let Some(best) = outcome.into_values().into_iter().next() {
            per_size.push(best);
        }
    }
    // The paper's methodology (§3.4): first restrict to sizes that
    // minimize the makespan (Eq. 4 holds — no coupling stalls the
    // simulation), then maximize the indicator objective. A pure
    // F-maximization would drift toward undersized analyses: they waste
    // no core-seconds idle, so E/c looks great while the makespan
    // suffers. Fall back to unconstrained F only if no size satisfies
    // Eq. 4 under the budget.
    let best = per_size
        .iter()
        .filter(|p| p.eq4_satisfied)
        .max_by(|a, b| a.objective.total_cmp(&b.objective))
        .or_else(|| per_size.iter().max_by(|a, b| a.objective.total_cmp(&b.objective)))
        .cloned()
        .ok_or(runtime::RuntimeError::NoSamples)?;
    Ok(MoldableResult { per_size, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_core::ConfigId;
    use runtime::WorkloadMap;

    fn base() -> SimRunConfig {
        let mut cfg = SimRunConfig::paper(ConfigId::Cf.build());
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.n_steps = 8;
        cfg
    }

    #[test]
    fn joint_search_picks_eight_core_colocation() {
        // For the paper's workload, 8 analysis cores co-located per
        // member (C1.5 with 8-core analyses) should win the joint space.
        let result = moldable_search(
            &base(),
            2,
            16,
            1,
            &[4, 8, 16],
            NodeBudget { max_nodes: 3, cores_per_node: 32 },
            &ScanOptions::default(),
        )
        .unwrap();
        assert_eq!(result.per_size.len(), 3);
        assert_eq!(result.best.analysis_cores, 8, "{:#?}", result.per_size);
        // The winner co-locates: 2 nodes.
        assert_eq!(result.best.nodes_used, 2);
    }

    #[test]
    fn scan_matches_the_one_shot_reference_bitwise() {
        // Regression for the per-candidate `fast_score(base, …)` the old
        // loop paid: the top-1 scan must pick the same placement, with
        // bit-identical floats, as the strictly-greater serial reference
        // over one-shot scores — at several worker counts.
        let base = base();
        let budget = NodeBudget { max_nodes: 3, cores_per_node: 32 };
        let reference: Vec<MoldablePoint> = [4u32, 8, 16]
            .iter()
            .map(|&cores| {
                let shape = EnsembleShape::uniform(2, 16, 1, cores);
                let mut best: Option<MoldablePoint> = None;
                for assignment in
                    crate::enumerate::enumerate_placements(&shape, budget.max_nodes, 32)
                {
                    let spec = shape.materialize(&assignment);
                    let score = crate::fast_eval::fast_score(&base, &spec).unwrap();
                    let point = MoldablePoint {
                        analysis_cores: cores,
                        assignment,
                        objective: score.objective,
                        ensemble_makespan: score.ensemble_makespan,
                        nodes_used: score.nodes_used,
                        eq4_satisfied: score.eq4_satisfied,
                    };
                    if best.as_ref().is_none_or(|b| point.objective > b.objective) {
                        best = Some(point);
                    }
                }
                best.unwrap()
            })
            .collect();
        for workers in [1usize, 2, 8] {
            let result = moldable_search(
                &base,
                2,
                16,
                1,
                &[4, 8, 16],
                budget,
                &ScanOptions { workers, chunk: 2, ..Default::default() },
            )
            .unwrap();
            assert_eq!(result.per_size.len(), reference.len());
            for (got, want) in result.per_size.iter().zip(&reference) {
                assert_eq!(got.analysis_cores, want.analysis_cores, "workers={workers}");
                assert_eq!(got.assignment, want.assignment, "workers={workers}");
                assert_eq!(got.objective.to_bits(), want.objective.to_bits());
                assert_eq!(got.ensemble_makespan.to_bits(), want.ensemble_makespan.to_bits());
                assert_eq!(got.eq4_satisfied, want.eq4_satisfied);
            }
        }
    }

    #[test]
    fn four_core_analyses_stall_and_lose() {
        let result = moldable_search(
            &base(),
            2,
            16,
            1,
            &[4, 8],
            NodeBudget { max_nodes: 3, cores_per_node: 32 },
            &ScanOptions::default(),
        )
        .unwrap();
        let four = result.per_size.iter().find(|p| p.analysis_cores == 4).unwrap();
        let eight = result.per_size.iter().find(|p| p.analysis_cores == 8).unwrap();
        assert!(
            four.ensemble_makespan > eight.ensemble_makespan,
            "4-core analyses ({:.1}s) must be slower than 8-core ({:.1}s)",
            four.ensemble_makespan,
            eight.ensemble_makespan
        );
    }

    #[test]
    fn oversized_analyses_prevent_colocation() {
        // With 24-core analyses a member needs 40 cores: co-location on
        // a 32-core node is impossible, so the best 24-core placement
        // spreads and scores below the 8-core one.
        let result = moldable_search(
            &base(),
            2,
            16,
            1,
            &[8, 24],
            NodeBudget { max_nodes: 4, cores_per_node: 32 },
            &ScanOptions::default(),
        )
        .unwrap();
        let big = result.per_size.iter().find(|p| p.analysis_cores == 24).unwrap();
        let small = result.per_size.iter().find(|p| p.analysis_cores == 8).unwrap();
        assert!(big.nodes_used > 2, "24-core analyses cannot co-locate");
        assert!(small.objective > big.objective);
        assert_eq!(result.best.analysis_cores, 8);
    }

    #[test]
    fn infeasible_sizes_are_skipped() {
        // 40-core analyses fit nowhere on 32-core nodes.
        let result = moldable_search(
            &base(),
            1,
            16,
            1,
            &[8, 40],
            NodeBudget { max_nodes: 2, cores_per_node: 32 },
            &ScanOptions::default(),
        )
        .unwrap();
        assert_eq!(result.per_size.len(), 1);
        assert_eq!(result.best.analysis_cores, 8);
    }
}
