//! The placement advisor: one call from ensemble shape + budget to a
//! recommended placement with a human-readable rationale.

use ensemble_core::EnsembleSpec;
use runtime::RuntimeResult;

use crate::core_sweep::{core_sweep, CoreSweepConfig};
use crate::enumerate::EnsembleShape;
use crate::scan::ScanOptions;
use crate::search::{exhaustive_search, greedy_search, NodeBudget, SearchConfig};

/// Exhaustive search is bounded by the number of canonical placements;
/// beyond this many components the advisor switches to greedy.
const EXHAUSTIVE_COMPONENT_LIMIT: usize = 8;

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The placement to use.
    pub spec: EnsembleSpec,
    /// Its objective value `F(Pᵁ·ᴬ·ᴾ)`.
    pub objective: f64,
    /// Nodes it provisions.
    pub nodes_used: usize,
    /// Whether the search was exhaustive or greedy.
    pub exhaustive: bool,
    /// Analysis core count chosen by the §3.4 sweep (when requested).
    pub analysis_cores: Option<u32>,
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
) -> RuntimeResult<Recommendation> {
    let shape = EnsembleShape::uniform(n, sim_cores, k, ana_cores);
    let mut config = SearchConfig::new(shape.clone(), budget);
    if small_scale {
        config = config.small_scale();
    }
    let (best, exhaustive) = if shape.num_components() <= EXHAUSTIVE_COMPONENT_LIMIT {
        let ranked = exhaustive_search(&config, &ScanOptions::default())?.into_values();
        let best = ranked.into_iter().next().ok_or(runtime::RuntimeError::NoSamples)?;
        (best, true)
    } else {
        (greedy_search(&config)?, false)
    };
    let colocated = best.spec.members.iter().all(|m| (0..m.k()).all(|j| m.is_colocated(j)));
    let rationale = format!(
        "{} search over ≤{} nodes ({} cores each): F(P^U,A,P) = {:.3e} on {} nodes; {}",
        if exhaustive { "exhaustive" } else { "greedy" },
        budget.max_nodes,
        budget.cores_per_node,
        best.objective,
        best.nodes_used,
        if colocated {
            "every member is fully co-located with its analyses (the paper's conclusion)"
        } else {
            "capacity constraints force partial spreading"
        }
    );
    Ok(Recommendation {
        spec: best.spec,
        objective: best.objective,
        nodes_used: best.nodes_used,
        exhaustive,
        analysis_cores: None,
        rationale,
    })
}

/// Full §3.4 + §4 pipeline: first size the analyses with the core sweep,
/// then place the ensemble.
pub fn recommend_with_core_sweep(
    n: usize,
    sim_cores: u32,
    k: usize,
    budget: NodeBudget,
) -> RuntimeResult<Recommendation> {
    let mut sweep_cfg = CoreSweepConfig::paper();
    sweep_cfg.sim_cores = sim_cores;
    let sweep = core_sweep(&sweep_cfg)?;
    let mut rec = recommend_placement(n, sim_cores, k, sweep.recommended_cores, budget, false)?;
    rec.analysis_cores = Some(sweep.recommended_cores);
    rec.rationale = format!(
        "core sweep (Eq. 4 + max E) chose {} analysis cores; {}",
        sweep.recommended_cores, rec.rationale
    );
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_instance_recommends_colocation() {
        let rec =
            recommend_placement(2, 16, 1, 8, NodeBudget { max_nodes: 3, cores_per_node: 32 }, true)
                .unwrap();
        assert!(rec.exhaustive);
        assert_eq!(rec.nodes_used, 2, "C1.5-style placement expected");
        assert!(rec.rationale.contains("co-located"));
        for m in &rec.spec.members {
            assert!(m.is_colocated(0));
        }
    }

    #[test]
    fn large_instance_falls_back_to_greedy() {
        let rec =
            recommend_placement(5, 16, 1, 8, NodeBudget { max_nodes: 5, cores_per_node: 32 }, true)
                .unwrap();
        assert!(!rec.exhaustive);
        assert_eq!(rec.spec.n(), 5);
        assert!(rec.objective.is_finite());
    }

    #[test]
    fn impossible_budget_errors() {
        let err =
            recommend_placement(2, 16, 1, 8, NodeBudget { max_nodes: 1, cores_per_node: 32 }, true);
        assert!(err.is_err());
    }
}
