//! Closed-form prediction: the paper's model evaluated without executing
//! anything.
//!
//! A prediction is the DES without its event loop: the same placement,
//! node solves (interference, then the power cap) and staging prices
//! ([`crate::sim_exec`]) give each member exactly the stage times the DES
//! sleeps at zero jitter, and Eqs. 1–3 and 6 fold them into `σ̄*`, the
//! makespan, `E` and `CP`. It prices nothing itself, so at zero jitter
//! it matches the paper's synchronous, unbuffered DES run under any
//! platform setting, power cap included — the DES adds warm-up dynamics
//! and noise, the prediction is the fixed point they converge to.

use std::collections::HashMap;

use ensemble_core::{
    efficiency, makespan, placement_indicator, sigma_star, ComponentRef, MemberStageTimes,
};
use hpc_platform::PerfEstimate;

use crate::error::RuntimeResult;
use crate::sim_exec::{solve, SimRunConfig};

/// Predicted quantities for one member.
#[derive(Debug, Clone)]
pub struct MemberPrediction {
    /// Steady-state stage times.
    pub stage_times: MemberStageTimes,
    /// `σ̄*` (Eq. 1), seconds.
    pub sigma_star: f64,
    /// Eq. 2 makespan for the configured step count, seconds.
    pub makespan: f64,
    /// `E` (Eq. 3).
    pub efficiency: f64,
    /// `CP` (Eq. 6).
    pub cp: f64,
}

/// Prediction for a whole ensemble configuration.
#[derive(Debug, Clone)]
pub struct EnsemblePrediction {
    /// Per-member predictions, member order.
    pub members: Vec<MemberPrediction>,
    /// Predicted ensemble makespan (max member makespan), seconds.
    pub ensemble_makespan: f64,
    /// Solved per-component estimates.
    pub estimates: HashMap<ComponentRef, PerfEstimate>,
}

/// Predicts the steady state of `cfg` analytically (no DES run).
pub fn predict(cfg: &SimRunConfig) -> RuntimeResult<EnsemblePrediction> {
    let solved = solve(cfg)?;
    let mut members = Vec::with_capacity(cfg.spec.members.len());
    let mut ensemble_makespan = 0.0f64;
    for (i, member) in cfg.spec.members.iter().enumerate() {
        let stage_times = solved.stage_times(cfg, i);
        stage_times.validate()?;
        let mk = makespan(&stage_times, cfg.n_steps);
        ensemble_makespan = ensemble_makespan.max(mk);
        members.push(MemberPrediction {
            sigma_star: sigma_star(&stage_times),
            makespan: mk,
            efficiency: efficiency(&stage_times),
            cp: placement_indicator(member),
            stage_times,
        });
    }
    Ok(EnsemblePrediction { members, ensemble_makespan, estimates: solved.estimates })
}

/// [`predict`], under the name the scheduler's scoring oracle calls.
pub fn predict_scores(cfg: &SimRunConfig) -> RuntimeResult<EnsemblePrediction> {
    predict(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RuntimeError;
    use crate::runner::EnsembleRunner;
    use crate::workload_map::WorkloadMap;
    use ensemble_core::ConfigId;

    fn quick_cfg(id: ConfigId) -> SimRunConfig {
        let mut cfg = SimRunConfig::paper(id.build());
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.n_steps = 8;
        cfg.jitter = 0.0;
        cfg
    }

    #[test]
    fn prediction_matches_des_at_zero_jitter() {
        for cap in [None, Some(150.0), Some(100.0)] {
            for id in [ConfigId::Cf, ConfigId::Cc, ConfigId::C1_4, ConfigId::C2_8] {
                let mut cfg = quick_cfg(id);
                cfg.power_cap_watts = cap;
                let predicted = predict(&cfg).unwrap();
                let mut runner =
                    EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0);
                runner.config_mut().power_cap_watts = cap;
                let report = runner.run().unwrap();
                for (p, m) in predicted.members.iter().zip(&report.members) {
                    let rel = (p.sigma_star - m.sigma_star).abs() / m.sigma_star;
                    assert!(
                        rel < 1e-6,
                        "{id} cap {cap:?}: predicted σ̄ {} vs measured {}",
                        p.sigma_star,
                        m.sigma_star
                    );
                    assert!((p.efficiency - m.efficiency).abs() < 1e-6, "{id} cap {cap:?}");
                    assert!((p.cp - m.cp).abs() < 1e-12, "{id} cap {cap:?}");
                }
            }
        }
    }

    #[test]
    fn prediction_is_fast_relative_to_des() {
        // Not a benchmark — just a sanity check that predict() avoids
        // stepping the event loop (runs in well under a millisecond).
        let cfg = quick_cfg(ConfigId::C2_3);
        let started = std::time::Instant::now();
        for _ in 0..100 {
            predict(&cfg).unwrap();
        }
        assert!(started.elapsed().as_secs_f64() < 2.0);
    }

    #[test]
    fn prediction_respects_ablation_flags() {
        let base = predict(&quick_cfg(ConfigId::Cc)).unwrap();
        let mut remote = quick_cfg(ConfigId::Cc);
        remote.force_remote_reads = true;
        let remote_pred = predict(&remote).unwrap();
        assert!(
            remote_pred.members[0].stage_times.analyses[0].r
                > base.members[0].stage_times.analyses[0].r
        );
        // The public map holds every component.
        assert_eq!(base.estimates.len(), 2);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut cfg = quick_cfg(ConfigId::Cf);
        cfg.n_steps = 0;
        assert!(matches!(predict(&cfg), Err(RuntimeError::NoSamples)));
    }
}
