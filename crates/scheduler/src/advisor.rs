//! The placement advisor: one call from ensemble shape + budget to a
//! recommended placement with a human-readable rationale — the
//! closed-form winner ([`Ranker`]), its best [`TOP_K`] rows each played
//! through the DES too, so a disagreement between model and DES shows.

use std::sync::Arc;

use ensemble_core::EnsembleSpec;
use runtime::{SimRunConfig, WorkloadMap};

use crate::core_sweep::{core_sweep, CoreSweepConfig};
use crate::delta::SolveCache;
use crate::enumerate::EnsembleShape;
use crate::rank::{check_budget, RankError, RankedPlacement, Ranker};
use crate::scan::ScanOptions;
use crate::search::{run_and_score, NodeBudget};

/// Rows of the closed-form ranking the advisor confirms in the DES.
pub const TOP_K: usize = 5;

/// One of the advisor's rows, ranked in closed form and run in the DES.
#[derive(Debug, Clone)]
pub struct ConfirmedPlacement {
    /// The closed-form row; its `objective` is the closed-form `F`.
    pub ranked: RankedPlacement,
    /// `F(Pᵁ·ᴬ·ᴾ)` of the same placement played through the DES.
    pub des_objective: f64,
}

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The placement to use: the closed-form ranking's head.
    pub spec: EnsembleSpec,
    /// The best [`TOP_K`] rows (all of a smaller space), best first.
    pub top: Vec<ConfirmedPlacement>,
    /// Plain-language explanation.
    pub rationale: String,
}

/// Recommends a placement for `n` members of `sim_cores + k × ana_cores`
/// under `budget`, using the paper's indicators as the objective.
pub fn recommend_placement(
    n: usize,
    sim_cores: u32,
    k: usize,
    ana_cores: u32,
    budget: NodeBudget,
    small_scale: bool,
) -> Result<Recommendation, RankError> {
    let shape = EnsembleShape::uniform(n, sim_cores, k, ana_cores);
    let mut run = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
    if small_scale {
        run.workloads = WorkloadMap::small_defaults();
    }
    run.n_steps = 6; // `F` reads only the steady state
    run.jitter = 0.0;
    check_budget(&shape, budget, run.node_spec.cores_per_node())?;
    let solves = Arc::new(SolveCache::new(&run));
    let opts = ScanOptions { top_k: TOP_K, ..ScanOptions::default() };
    let ranked = Ranker::new(&run, &shape, &solves, None, ()).rank(budget, &opts)?;
    if ranked.results.is_empty() {
        let cores = shape.component_cores().iter().map(|&c| u64::from(c)).sum();
        return Err(RankError::NoFit(cores, budget));
    }
    let mut top = Vec::with_capacity(TOP_K);
    for ranked in ranked.into_values() {
        let des_objective = run_and_score(&mut run, &shape.materialize(&ranked.assignment));
        let des_objective = des_objective.map_err(RankError::Run)?;
        top.push(ConfirmedPlacement { ranked, des_objective });
    }
    let best = &top[0];
    let spec = shape.materialize(&best.ranked.assignment);
    let colocated = spec.members.iter().all(|m| (0..m.k()).all(|j| m.is_colocated(j)));
    let rationale = format!(
        "closed-form ranking over ≤{} nodes ({} cores each), confirmed in the DES: \
         F(P^U,A,P) = {:.3e} (DES {:.3e}) on {} nodes; {}",
        budget.max_nodes,
        budget.cores_per_node,
        best.ranked.objective,
        best.des_objective,
        best.ranked.nodes_used,
        if colocated {
            "every member is fully co-located with its analyses (the paper's conclusion)"
        } else {
            "capacity constraints force partial spreading"
        }
    );
    Ok(Recommendation { spec, top, rationale })
}

/// Full §3.4 + §4 pipeline: first size the analyses with the core sweep,
/// then place the ensemble.
pub fn recommend_with_core_sweep(
    n: usize,
    sim_cores: u32,
    k: usize,
    budget: NodeBudget,
) -> Result<Recommendation, RankError> {
    let sweep_cfg = CoreSweepConfig { sim_cores, ..CoreSweepConfig::paper() };
    let sweep = core_sweep(&sweep_cfg).map_err(RankError::Run)?;
    let mut rec = recommend_placement(n, sim_cores, k, sweep.recommended_cores, budget, false)?;
    rec.rationale = format!(
        "core sweep (Eq. 4 + max E) chose {} analysis cores; {}",
        sweep.recommended_cores, rec.rationale
    );
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(max_nodes: usize) -> NodeBudget {
        NodeBudget { max_nodes, cores_per_node: 32 }
    }

    #[test]
    fn small_instance_recommends_colocation() {
        let rec = recommend_placement(2, 16, 1, 8, on(3), true).unwrap();
        assert_eq!(rec.top[0].ranked.nodes_used, 2, "C1.5-style placement expected");
        assert!(rec.rationale.contains("co-located"));
        for m in &rec.spec.members {
            assert!(m.is_colocated(0));
        }
    }

    /// At ten components the advisor's rows are still the head of the
    /// full ranking.
    #[test]
    fn ten_components_recommend_the_head_of_the_full_ranking() {
        let rec = recommend_placement(5, 16, 1, 8, on(5), true).unwrap();
        let shape = EnsembleShape::uniform(5, 16, 1, 8);
        let mut run = SimRunConfig::paper(shape.materialize(&[0; 10]));
        run.workloads = WorkloadMap::small_defaults();
        run.n_steps = 6;
        let solves = Arc::new(SolveCache::new(&run));
        let full = Ranker::new(&run, &shape, &solves, None, ())
            .rank(on(5), &ScanOptions::default())
            .unwrap()
            .into_values();
        assert_eq!(rec.top.len(), TOP_K);
        let rows: Vec<&RankedPlacement> = rec.top.iter().map(|c| &c.ranked).collect();
        assert_eq!(rows, full.iter().take(TOP_K).collect::<Vec<_>>());
        assert_eq!(rec.spec.n(), 5);
    }

    #[test]
    fn the_winners_closed_form_and_des_objectives_agree() {
        for (n, k, nodes, small) in [(2, 1, 3, true), (2, 2, 3, false), (4, 1, 4, true)] {
            let rec = recommend_placement(n, 16, k, 8, on(nodes), small).unwrap();
            for row in &rec.top {
                let (closed, des) = (row.ranked.objective, row.des_objective);
                assert!(
                    (closed - des).abs() <= 1e-6 * des.abs(),
                    "{n}×(16+{k}×8) on {nodes}: closed form {closed} against DES {des}"
                );
            }
        }
    }

    #[test]
    fn a_budget_nothing_fits_is_named() {
        let err = recommend_placement(2, 16, 1, 8, on(1), true).unwrap_err();
        assert!(matches!(err, RankError::NoFit(48, _)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "no placement fits: the ensemble needs 48 cores, the budget is 1 × 32 cores"
        );
    }
}
