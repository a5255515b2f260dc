//! Simulated annealing over placements for ensembles too large to
//! enumerate. Deterministic for a fixed seed; uses the closed-form
//! predictor so thousands of candidate evaluations stay cheap.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::{RuntimeResult, SimRunConfig};

use crate::delta::DeltaEvaluator;
use crate::enumerate::{canonicalize, EnsembleShape};
use crate::search::{NodeBudget, ScoredPlacement};

/// Annealing parameters.
#[derive(Debug, Clone)]
pub struct AnnealingConfig {
    /// Moves to attempt.
    pub iterations: usize,
    /// Initial temperature (in objective units).
    pub initial_temperature: f64,
    /// Multiplicative cooling per move.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig { iterations: 2_000, initial_temperature: 1e-2, cooling: 0.995, seed: 2021 }
    }
}

fn component_cores(shape: &EnsembleShape) -> Vec<u32> {
    let mut v = Vec::with_capacity(shape.num_components());
    for (sim, anas) in &shape.members {
        v.push(*sim);
        v.extend(anas.iter().copied());
    }
    v
}

fn feasible(assignment: &[usize], cores: &[u32], budget: NodeBudget) -> bool {
    let mut load = vec![0u32; budget.max_nodes];
    for (&node, &c) in assignment.iter().zip(cores) {
        if node >= budget.max_nodes {
            return false;
        }
        load[node] += c;
        if load[node] > budget.cores_per_node {
            return false;
        }
    }
    true
}

/// Builds a feasible starting assignment: members are first-fit
/// co-located when a node can hold them whole, else their components
/// spill first-fit — a warm start near the co-location optimum the
/// indicator rewards.
fn initial_assignment(shape: &EnsembleShape, budget: NodeBudget) -> Option<Vec<usize>> {
    let mut load = vec![0u32; budget.max_nodes];
    let mut assignment = Vec::new();
    for (sim_cores, anas) in &shape.members {
        let member_total: u32 = sim_cores + anas.iter().sum::<u32>();
        if let Some(node) =
            (0..budget.max_nodes).find(|&n| load[n] + member_total <= budget.cores_per_node)
        {
            load[node] += member_total;
            assignment.extend(std::iter::repeat_n(node, 1 + anas.len()));
        } else {
            for &c in std::iter::once(sim_cores).chain(anas.iter()) {
                let node = (0..budget.max_nodes).find(|&n| load[n] + c <= budget.cores_per_node)?;
                load[node] += c;
                assignment.push(node);
            }
        }
    }
    Some(assignment)
}

/// Anneals toward a placement maximizing `F(Pᵁ·ᴬ·ᴾ)` under the budget.
/// One [`DeltaEvaluator`] is built up front and reused for every move:
/// a single-component move touches at most two nodes, so only those
/// nodes re-solve and only the members resident on them recompute —
/// with scores bit-identical to the from-scratch path (no spec is
/// materialized per move at all).
pub fn anneal_placement(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    config: &AnnealingConfig,
) -> RuntimeResult<ScoredPlacement> {
    let mut evaluator = DeltaEvaluator::new(base, shape);
    let best = anneal_core(shape, budget, config, |assignment| {
        Ok(evaluator.score(&canonicalize(assignment))?.objective)
    })?;
    let assignment = canonicalize(&best);
    let spec = shape.materialize(&assignment);
    let fs = evaluator.score(&assignment)?;
    Ok(ScoredPlacement {
        nodes_used: fs.nodes_used,
        ensemble_makespan: fs.ensemble_makespan,
        assignment,
        spec,
        objective: fs.objective,
    })
}

/// The annealing loop itself, generic over the scoring closure so tests
/// can pin the evaluator-reuse path against the one-shot reference.
/// Returns the best (not yet canonicalized) assignment found.
fn anneal_core(
    shape: &EnsembleShape,
    budget: NodeBudget,
    config: &AnnealingConfig,
    mut score_of: impl FnMut(&[usize]) -> RuntimeResult<f64>,
) -> RuntimeResult<Vec<usize>> {
    let cores = component_cores(shape);
    let mut current = initial_assignment(shape, budget).ok_or_else(|| {
        runtime::RuntimeError::Platform(hpc_platform::PlatformError::InsufficientCores {
            node: 0,
            requested: cores.iter().sum(),
            available: budget.cores_per_node * budget.max_nodes as u32,
        })
    })?;
    let mut current_score = score_of(&current)?;
    let mut best = current.clone();
    let mut best_score = current_score;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut temperature = config.initial_temperature;

    for _ in 0..config.iterations {
        // Neighbour: move one random component to a random node.
        let idx = rng.random_range(0..current.len());
        let new_node = rng.random_range(0..budget.max_nodes);
        if new_node == current[idx] {
            temperature *= config.cooling;
            continue;
        }
        let mut candidate = current.clone();
        candidate[idx] = new_node;
        if !feasible(&candidate, &cores, budget) {
            temperature *= config.cooling;
            continue;
        }
        let candidate_score = score_of(&candidate)?;
        let delta = candidate_score - current_score;
        let accept = delta >= 0.0 || rng.random::<f64>() < (delta / temperature.max(1e-12)).exp();
        if accept {
            current = candidate;
            current_score = candidate_score;
            if current_score > best_score {
                best = current.clone();
                best_score = current_score;
            }
        }
        temperature *= config.cooling;
    }

    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{exhaustive_search, SearchConfig};
    use runtime::WorkloadMap;

    fn base() -> SimRunConfig {
        let mut cfg = SimRunConfig::paper(ensemble_core::ConfigId::Cf.build());
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.n_steps = 8;
        cfg
    }

    #[test]
    fn annealing_finds_the_exhaustive_optimum_on_small_instances() {
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 3, cores_per_node: 32 };
        let annealed = anneal_placement(
            &base(),
            &shape,
            budget,
            &AnnealingConfig { iterations: 800, ..Default::default() },
        )
        .unwrap();
        let search_cfg = SearchConfig::new(shape, budget).small_scale();
        let ranked = exhaustive_search(&search_cfg, &Default::default()).unwrap().into_values();
        let rel =
            (annealed.objective - ranked[0].objective).abs() / ranked[0].objective.abs().max(1e-12);
        assert!(
            rel < 0.05,
            "annealed {} should approach exhaustive best {}",
            annealed.objective,
            ranked[0].objective
        );
    }

    #[test]
    fn annealing_scales_to_eight_members() {
        // 8 members × 24 cores = 192 cores over 8 nodes: enumeration is
        // enormous; annealing returns a feasible, co-location-heavy
        // placement quickly.
        let shape = EnsembleShape::uniform(8, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 8, cores_per_node: 32 };
        let annealed = anneal_placement(
            &base(),
            &shape,
            budget,
            &AnnealingConfig { iterations: 1_200, ..Default::default() },
        )
        .unwrap();
        assert_eq!(annealed.spec.n(), 8);
        assert!(annealed.objective.is_finite());
        // Most members should end up co-located (the indicator rewards
        // it); require at least 6 of 8.
        let colocated = annealed.spec.members.iter().filter(|m| m.is_colocated(0)).count();
        assert!(colocated >= 6, "only {colocated}/8 members co-located");
    }

    #[test]
    fn infeasible_budget_errors() {
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 1, cores_per_node: 32 };
        assert!(anneal_placement(&base(), &shape, budget, &AnnealingConfig::default()).is_err());
    }

    #[test]
    fn evaluator_reuse_matches_the_one_shot_trajectory_bitwise() {
        // Regression for the per-move `fast_score(base, …)` clone: the
        // reused evaluator must produce the same scores (bit for bit)
        // at every move, so the whole annealing trajectory — and thus
        // the returned placement — is unchanged.
        let base = base();
        let shape = EnsembleShape::uniform(3, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 4, cores_per_node: 32 };
        let cfg = AnnealingConfig { iterations: 400, ..Default::default() };
        let mut one_shot_scores = Vec::new();
        let one_shot_best = anneal_core(&shape, budget, &cfg, |assignment| {
            let spec = shape.materialize(&canonicalize(assignment));
            let objective = crate::fast_eval::fast_score(&base, &spec)?.objective;
            one_shot_scores.push(objective.to_bits());
            Ok(objective)
        })
        .unwrap();
        let mut evaluator = crate::fast_eval::FastEvaluator::new(&base);
        let mut reused_scores = Vec::new();
        let reused_best = anneal_core(&shape, budget, &cfg, |assignment| {
            let spec = shape.materialize(&canonicalize(assignment));
            let objective = evaluator.score(&spec)?.objective;
            reused_scores.push(objective.to_bits());
            Ok(objective)
        })
        .unwrap();
        assert_eq!(one_shot_scores, reused_scores, "every move must score identically");
        assert_eq!(one_shot_best, reused_best);
        // The delta evaluator — what `anneal_placement` actually runs —
        // must walk the same trajectory bit for bit.
        let mut delta_eval = DeltaEvaluator::new(&base, &shape);
        let mut delta_scores = Vec::new();
        let delta_best = anneal_core(&shape, budget, &cfg, |assignment| {
            let objective = delta_eval.score(&canonicalize(assignment))?.objective;
            delta_scores.push(objective.to_bits());
            Ok(objective)
        })
        .unwrap();
        assert_eq!(one_shot_scores, delta_scores, "delta scoring must not perturb the walk");
        assert_eq!(one_shot_best, delta_best);
        // And the public entry point agrees with the reference run.
        let placed = anneal_placement(&base, &shape, budget, &cfg).unwrap();
        assert_eq!(placed.assignment, canonicalize(&one_shot_best));
    }

    #[test]
    fn deterministic_for_seed() {
        let shape = EnsembleShape::uniform(3, 16, 1, 8);
        let budget = NodeBudget { max_nodes: 4, cores_per_node: 32 };
        let cfg = AnnealingConfig { iterations: 300, ..Default::default() };
        let a = anneal_placement(&base(), &shape, budget, &cfg).unwrap();
        let b = anneal_placement(&base(), &shape, budget, &cfg).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }
}
