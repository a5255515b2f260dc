//! The node budget a placement ranking is bounded by, and the DES-side
//! score of a placement (Eqs. 8–9): the oracle the closed-form ranking
//! ([`crate::rank`]) is held to, and what the advisor confirms it with.

use ensemble_core::{aggregate, Aggregation, EnsembleSpec, IndicatorPath, MemberInputs};
use metrics::EnsembleReport;
use runtime::{RuntimeResult, SimRunConfig};

/// Resource constraints of the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBudget {
    /// Maximum nodes that may be provisioned.
    pub max_nodes: usize,
    /// Cores per node.
    pub cores_per_node: u32,
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

/// Plays `spec` through the DES under `run` (its steps and jitter set;
/// only its spec is swapped) and scores the report by Eq. 9 over `Pᵁ·ᴬ·ᴾ`.
pub(crate) fn run_and_score(run: &mut SimRunConfig, spec: &EnsembleSpec) -> RuntimeResult<f64> {
    run.spec.clone_from(spec);
    let exec = runtime::run_summarized(run, &mut |_, _| {})?;
    let warmup = ensemble_core::WarmupPolicy::default();
    let report = runtime::build_summary_report("candidate", spec, &exec, run.n_steps, warmup)?;
    Ok(score_report(&report, spec, &IndicatorPath::uap(), Aggregation::MeanMinusStd))
}
