//! Indicator-guided placement search — the paper's future work
//! ("leveraging the proposed indicators for scheduling in situ components
//! of a workflow ensemble under resource constraints") made concrete.
//!
//! Every feasible canonical placement is executed on the simulated
//! platform, scored with `F(Pᵁ·ᴬ·ᴾ)` (Eqs. 8–9), and ranked.

use ensemble_core::{aggregate, Aggregation, EnsembleSpec, IndicatorPath, MemberInputs};
use metrics::EnsembleReport;
use runtime::{RuntimeError, RuntimeResult, SimRunConfig, WorkloadMap};

use crate::enumerate::EnsembleShape;
use crate::scan::{scan_placements, Candidate, ScanOptions, ScanOutcome, ScanVisitor};

/// Resource constraints of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBudget {
    /// Maximum nodes that may be provisioned.
    pub max_nodes: usize,
    /// Cores per node.
    pub cores_per_node: u32,
}

/// One evaluated placement.
#[derive(Debug, Clone)]
pub struct ScoredPlacement {
    /// Flattened node assignment (member-major, simulation first).
    pub assignment: Vec<usize>,
    /// The materialized spec.
    pub spec: EnsembleSpec,
    /// Objective value `F(Pᵁ·ᴬ·ᴾ)`.
    pub objective: f64,
    /// Nodes used.
    pub nodes_used: usize,
    /// Ensemble makespan of the evaluation run, seconds.
    pub ensemble_makespan: f64,
}

/// Search settings.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Component structure to place.
    pub shape: EnsembleShape,
    /// Resource constraints.
    pub budget: NodeBudget,
    /// Base run settings (spec replaced per candidate).
    pub base: SimRunConfig,
    /// Evaluation steps per candidate (short; steady state suffices).
    pub steps: u64,
    /// Aggregation for the objective (Eq. 9 by default).
    pub aggregation: Aggregation,
}

impl SearchConfig {
    /// Paper-scale search over the given shape and budget.
    pub fn new(shape: EnsembleShape, budget: NodeBudget) -> Self {
        let placeholder = shape.materialize(&vec![0; shape.num_components()]);
        SearchConfig {
            base: SimRunConfig::paper(placeholder),
            shape,
            budget,
            steps: 6,
            aggregation: Aggregation::MeanMinusStd,
        }
    }

    /// Switches to laptop-scale workloads (fast tests).
    pub fn small_scale(mut self) -> Self {
        self.base.workloads = WorkloadMap::small_defaults();
        self
    }
}

/// Scores one already-run report with `F` over the chosen indicator
/// path.
pub fn score_report(
    report: &EnsembleReport,
    spec: &EnsembleSpec,
    path: &IndicatorPath,
    aggregation: Aggregation,
) -> f64 {
    let mut values: Vec<f64> = report
        .members
        .iter()
        .zip(&spec.members)
        .map(|(mr, ms)| {
            let inputs = MemberInputs::from_specs(ms, spec, mr.efficiency);
            ensemble_core::indicator(&inputs, path)
        })
        .collect();
    aggregate(&mut values, aggregation)
}

/// Runs `assignment` on the simulated platform (`run` already carries
/// the search's step count and zero jitter; only its spec is swapped)
/// and scores the report — the evaluation both searches share.
fn run_and_score(
    config: &SearchConfig,
    run: &mut SimRunConfig,
    assignment: Vec<usize>,
) -> RuntimeResult<ScoredPlacement> {
    let spec = config.shape.materialize(&assignment);
    run.spec.clone_from(&spec);
    let exec = runtime::run_summarized(run, &mut |_, _| {})?;
    let report = runtime::build_summary_report(
        "candidate",
        &spec,
        &exec,
        config.steps,
        ensemble_core::WarmupPolicy::default(),
    )?;
    let objective = score_report(&report, &spec, &IndicatorPath::uap(), config.aggregation);
    Ok(ScoredPlacement {
        nodes_used: spec.num_nodes(),
        ensemble_makespan: report.ensemble_makespan,
        assignment,
        spec,
        objective,
    })
}

/// The search's base configuration with its step count and zero jitter
/// applied: one clone per search (and one per scan worker), after which
/// only the spec changes per candidate.
fn run_template(config: &SearchConfig) -> SimRunConfig {
    let mut template = config.base.clone();
    template.n_steps = config.steps;
    template.jitter = 0.0;
    template
}

/// Scores each candidate by running it on the simulated platform; a
/// worker's state is its own copy of the run template.
struct DesScan<'a> {
    config: &'a SearchConfig,
    template: SimRunConfig,
}

impl ScanVisitor for DesScan<'_> {
    type State = SimRunConfig;
    type Scored = ScoredPlacement;
    type Row = ScoredPlacement;
    type Error = RuntimeError;

    fn init(&self) -> SimRunConfig {
        self.template.clone()
    }

    fn eval(
        &self,
        run: &mut SimRunConfig,
        c: Candidate<'_>,
    ) -> RuntimeResult<Option<ScoredPlacement>> {
        run_and_score(self.config, run, c.assignment.to_vec()).map(Some)
    }

    fn objective(&self, scored: &ScoredPlacement) -> f64 {
        scored.objective
    }

    fn keep(
        &self,
        _: &mut SimRunConfig,
        _: Candidate<'_>,
        scored: ScoredPlacement,
    ) -> ScoredPlacement {
        scored
    }
}

/// Exhaustively evaluates every canonical feasible placement on the
/// simulated platform, ranked best-first. Output (order and float bits)
/// is identical at every worker count; with `opts.top_k > 0` it equals
/// the first K rows of the full ranking. Callers that want only the
/// rows call [`ScanOutcome::into_values`].
pub fn exhaustive_search(
    config: &SearchConfig,
    opts: &ScanOptions,
) -> RuntimeResult<ScanOutcome<ScoredPlacement>> {
    let visitor = DesScan { config, template: run_template(config) };
    let mut outcome = scan_placements(&config.shape, config.budget, opts, &visitor)?;
    if opts.top_k == 0 {
        // The merge returns enumeration order; rank best-first exactly
        // as the serial scan always has (stable sort, so equal
        // objectives keep enumeration order).
        outcome.results.sort_by(|a, b| b.value.objective.total_cmp(&a.value.objective));
    }
    Ok(outcome)
}

/// Greedy search for larger ensembles: members are placed one at a time,
/// each choosing co-location on the least-loaded node that fits, falling
/// back to spreading. Returns the single constructed placement, scored.
pub fn greedy_search(config: &SearchConfig) -> RuntimeResult<ScoredPlacement> {
    let mut load = vec![0u32; config.budget.max_nodes];
    let mut assignment = Vec::with_capacity(config.shape.num_components());
    for (sim_cores, anas) in &config.shape.members {
        let member_total: u32 = sim_cores + anas.iter().sum::<u32>();
        // Prefer fully co-locating the member on one node (the paper's
        // conclusion), else fall back to per-component first-fit.
        if let Some(node) = least_loaded_fitting(&load, member_total, config.budget.cores_per_node)
        {
            load[node] += member_total;
            assignment.push(node);
            assignment.extend(std::iter::repeat_n(node, anas.len()));
        } else {
            for &cores in std::iter::once(sim_cores).chain(anas.iter()) {
                let node = least_loaded_fitting(&load, cores, config.budget.cores_per_node).ok_or(
                    runtime::RuntimeError::Platform(
                        hpc_platform::PlatformError::InsufficientCores {
                            node: 0,
                            requested: cores,
                            available: 0,
                        },
                    ),
                )?;
                load[node] += cores;
                assignment.push(node);
            }
        }
    }
    let assignment = crate::enumerate::canonicalize(&assignment);
    run_and_score(config, &mut run_template(config), assignment)
}

fn least_loaded_fitting(load: &[u32], cores: u32, capacity: u32) -> Option<usize> {
    load.iter()
        .enumerate()
        .filter(|(_, &l)| l + cores <= capacity)
        .min_by_key(|(_, &l)| l)
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_search(n: usize, k: usize, max_nodes: usize) -> SearchConfig {
        SearchConfig::new(
            EnsembleShape::uniform(n, 16, k, 8),
            NodeBudget { max_nodes, cores_per_node: 32 },
        )
        .small_scale()
    }

    fn ranked(cfg: &SearchConfig) -> Vec<ScoredPlacement> {
        exhaustive_search(cfg, &ScanOptions::default()).unwrap().into_values()
    }

    #[test]
    fn exhaustive_ranks_full_colocation_first() {
        // The paper's headline: each member co-located on its own node
        // (C1.5 pattern) must win the set-one search.
        let ranked = ranked(&small_search(2, 1, 3));
        assert!(!ranked.is_empty());
        let best = &ranked[0];
        for (i, m) in best.spec.members.iter().enumerate() {
            assert!(
                m.is_colocated(0),
                "best placement must co-locate member {i}: {:?}",
                best.assignment
            );
        }
        // Scores are sorted descending.
        for w in ranked.windows(2) {
            assert!(w[0].objective >= w[1].objective);
        }
    }

    #[test]
    fn exhaustive_set_two_prefers_c2_8_pattern() {
        let ranked = ranked(&small_search(2, 2, 3));
        let best = &ranked[0];
        // C2.8: each member entirely on its own node → 2 nodes, CP = 1.
        assert_eq!(best.nodes_used, 2, "{:?}", best.assignment);
        for m in &best.spec.members {
            assert!(m.is_colocated(0) && m.is_colocated(1));
        }
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instance() {
        let cfg = small_search(2, 1, 3);
        let ranked = ranked(&cfg);
        let greedy = greedy_search(&cfg).unwrap();
        assert!(
            (greedy.objective - ranked[0].objective).abs() < 1e-12,
            "greedy {} vs best {}",
            greedy.objective,
            ranked[0].objective
        );
    }

    #[test]
    fn greedy_scales_to_more_members() {
        let cfg = small_search(4, 1, 4);
        let placed = greedy_search(&cfg).unwrap();
        assert_eq!(placed.spec.n(), 4);
        assert!(placed.objective.is_finite());
        for m in &placed.spec.members {
            assert!(m.is_colocated(0), "greedy co-locates when capacity allows");
        }
    }

    #[test]
    fn infeasible_budget_errors() {
        let cfg = small_search(2, 1, 1); // 48 cores on one 32-core node
        assert!(ranked(&cfg).is_empty());
        assert!(greedy_search(&cfg).is_err());
    }
}
