//! From-scratch placement evaluation: the DES's own stage times through
//! the paper's equations — the reference [`crate::DeltaEvaluator`] is
//! held bit-identical to.
//!
//! Production code scores through `DeltaEvaluator`; this module's
//! [`FastEvaluator`] and [`fast_score`] re-derive everything per
//! candidate via `runtime::predict_scores` (the DES's placement and node
//! solves without its event loop) and exist for the property tests and
//! the scan bench to compare against. The
//! `fast_score_stays_out_of_library_loops` test pins that no library
//! code in `scheduler` or `svc` names either.

use ensemble_core::{
    aggregate, satisfies_eq4, Aggregation, EnsembleSpec, IndicatorPath, MemberInputs,
};
use runtime::{predict_scores, RuntimeResult, SimRunConfig};

/// Predictor-based evaluation of one placement.
#[derive(Debug, Clone)]
pub struct FastScore {
    /// Objective `F(Pᵁ·ᴬ·ᴾ)` from predicted efficiencies.
    pub objective: f64,
    /// Predicted ensemble makespan, seconds.
    pub ensemble_makespan: f64,
    /// Nodes the placement provisions.
    pub nodes_used: usize,
    /// True when every coupling satisfies the paper's Eq. 4
    /// (`R* + A* ≤ S* + W*`) — i.e. no simulation ever waits.
    pub eq4_satisfied: bool,
}

/// Reusable from-scratch evaluation context: clones the base run
/// configuration (platform, workload map, run settings) **once**, then
/// scores any number of candidate specs by swapping only the spec in —
/// so a reference scan does not pay a full `SimRunConfig` clone per
/// candidate.
#[derive(Debug, Clone)]
pub struct FastEvaluator {
    cfg: SimRunConfig,
}

impl FastEvaluator {
    /// Captures `base`'s platform, workloads, and settings (jitter is
    /// forced to zero: the closed-form predictor is the deterministic
    /// fixed point of the run).
    pub fn new(base: &SimRunConfig) -> Self {
        let mut cfg = base.clone();
        cfg.jitter = 0.0;
        FastEvaluator { cfg }
    }

    /// Scores one candidate spec. Only the spec is copied into the held
    /// configuration (`clone_from` reuses member-vector allocations
    /// across candidates of equal shape).
    pub fn score(&mut self, spec: &EnsembleSpec) -> RuntimeResult<FastScore> {
        self.cfg.spec.clone_from(spec);
        score_config(&self.cfg)
    }

    /// The held configuration (for cache-key derivation).
    pub fn config(&self) -> &SimRunConfig {
        &self.cfg
    }
}

/// Scores `cfg.spec` analytically under `cfg`'s platform and workloads.
fn score_config(cfg: &SimRunConfig) -> RuntimeResult<FastScore> {
    let prediction = predict_scores(cfg)?;
    let spec = &cfg.spec;
    let mut values: Vec<f64> = prediction
        .members
        .iter()
        .zip(&spec.members)
        .map(|(p, ms)| {
            let inputs = MemberInputs::from_specs(ms, spec, p.efficiency);
            ensemble_core::indicator(&inputs, &IndicatorPath::uap())
        })
        .collect();
    Ok(FastScore {
        objective: aggregate(&mut values, Aggregation::MeanMinusStd),
        ensemble_makespan: prediction.ensemble_makespan,
        nodes_used: spec.num_nodes(),
        eq4_satisfied: prediction.members.iter().all(|m| satisfies_eq4(&m.stage_times)),
    })
}

/// Scores `spec` analytically under `base`'s platform and workloads.
///
/// One-shot convenience over [`FastEvaluator`]: every call clones the
/// **entire** `SimRunConfig` (platform model, workload map, settings).
/// That is fine for a test reference, and ruinous in a loop — scans go
/// through [`crate::scan`] with a per-worker [`crate::DeltaEvaluator`].
pub fn fast_score(base: &SimRunConfig, spec: &EnsembleSpec) -> RuntimeResult<FastScore> {
    FastEvaluator::new(base).score(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::score_report;
    use ensemble_core::{Aggregation, ConfigId};
    use runtime::{EnsembleRunner, WorkloadMap};

    #[test]
    fn fast_score_matches_des_based_score() {
        for id in [ConfigId::C1_4, ConfigId::C1_5, ConfigId::C2_8] {
            let spec = id.build();
            let mut base = SimRunConfig::paper(spec.clone());
            base.workloads = WorkloadMap::small_defaults();
            base.n_steps = 8;
            let fast = fast_score(&base, &spec).unwrap();

            let report =
                EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0).run().unwrap();
            let slow =
                score_report(&report, &spec, &IndicatorPath::uap(), Aggregation::MeanMinusStd);
            let rel = (fast.objective - slow).abs() / slow.abs().max(1e-12);
            assert!(rel < 1e-4, "{id}: fast {} vs DES {}", fast.objective, slow);
        }
    }

    #[test]
    fn evaluator_reuse_matches_one_shot_bitwise() {
        let spec_a = ConfigId::C1_4.build();
        let spec_b = ConfigId::C1_5.build();
        let mut base = SimRunConfig::paper(spec_a.clone());
        base.workloads = WorkloadMap::small_defaults();
        base.n_steps = 8;
        let mut eval = FastEvaluator::new(&base);
        // Interleave shapes so spec swapping can't leak state between
        // candidates.
        for spec in [&spec_a, &spec_b, &spec_a, &spec_b] {
            let reused = eval.score(spec).unwrap();
            let fresh = fast_score(&base, spec).unwrap();
            assert_eq!(reused.objective.to_bits(), fresh.objective.to_bits());
            assert_eq!(reused.ensemble_makespan.to_bits(), fresh.ensemble_makespan.to_bits());
            assert_eq!(reused.nodes_used, fresh.nodes_used);
            assert_eq!(reused.eq4_satisfied, fresh.eq4_satisfied);
        }
    }

    #[test]
    fn fast_score_is_deterministic_across_repeated_calls() {
        // The invariant the svc score cache relies on: identical inputs
        // give bit-identical outputs (no HashMap-order or RNG leakage).
        let spec = ConfigId::C2_8.build();
        let mut base = SimRunConfig::paper(spec.clone());
        base.workloads = WorkloadMap::small_defaults();
        base.n_steps = 8;
        let first = fast_score(&base, &spec).unwrap();
        for _ in 0..20 {
            let again = fast_score(&base, &spec).unwrap();
            assert_eq!(first.objective.to_bits(), again.objective.to_bits());
            assert_eq!(first.ensemble_makespan.to_bits(), again.ensemble_makespan.to_bits());
        }
    }

    #[test]
    fn fast_score_stays_out_of_library_loops() {
        // The from-scratch path is an oracle: library (non-test) code in
        // `scheduler` and `svc` scores through `DeltaEvaluator` and must
        // not name `fast_score` or `FastEvaluator` outside this module
        // and the crate root's re-export.
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for src_dir in [crates.join("scheduler/src"), crates.join("svc/src")] {
            for entry in std::fs::read_dir(&src_dir).expect("read src/") {
                let path = entry.expect("dir entry").path();
                if path.extension().and_then(|e| e.to_str()) != Some("rs")
                    || path.ends_with("scheduler/src/fast_eval.rs")
                {
                    continue;
                }
                let source = std::fs::read_to_string(&path).expect("read source");
                // Strip everything from the test module down — call sites
                // there are reference paths, which is where the oracle
                // belongs.
                let library_code = source.split("#[cfg(test)]").next().expect("split");
                for (lineno, line) in library_code.lines().enumerate() {
                    let code = line.split("//").next().expect("split");
                    let is_reexport = code.contains("pub use fast_eval::");
                    assert!(
                        is_reexport
                            || !(code.contains("fast_score") || code.contains("FastEvaluator")),
                        "{}:{}: the from-scratch evaluator named in library code — score \
                         through a DeltaEvaluator instead",
                        path.display(),
                        lineno + 1
                    );
                }
            }
        }
    }

    #[test]
    fn fast_score_reports_nodes() {
        let spec = ConfigId::C1_1.build();
        let mut base = SimRunConfig::paper(spec.clone());
        base.workloads = WorkloadMap::small_defaults();
        let s = fast_score(&base, &spec).unwrap();
        assert_eq!(s.nodes_used, 3);
        assert!(s.ensemble_makespan > 0.0);
    }
}
