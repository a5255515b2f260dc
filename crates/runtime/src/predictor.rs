//! Closed-form prediction: the paper's model evaluated without executing
//! anything.
//!
//! The steady-state stage times of every member follow directly from the
//! interference solve (compute stages) and the staging cost model (I/O
//! stages); Eqs. 1–3 then give `σ̄*`, the makespan, and `E`. Predictions
//! match the discrete-event execution exactly when jitter is zero — the
//! DES adds warm-up dynamics and noise, the prediction is the fixed
//! point they converge to. The scheduler uses this path to scan large
//! placement spaces cheaply.

use std::collections::HashMap;

use dtl::transport::StagingCostModel;
use ensemble_core::{
    efficiency, makespan, placement_indicator, sigma_star, AnalysisStageTimes, ComponentRef,
    MemberStageTimes,
};
use hpc_platform::{CoreAllocation, PerfEstimate, PlacedWorkload};

use crate::error::{RuntimeError, RuntimeResult};
use crate::sim_exec::{platform_for, SimRunConfig};

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

/// Prediction for a whole ensemble configuration, scoring path: the
/// per-member numbers without the per-component estimate map.
#[derive(Debug, Clone)]
pub struct ScorePrediction {
    /// Per-member predictions, member order.
    pub members: Vec<MemberPrediction>,
    /// Predicted ensemble makespan (max member makespan), seconds.
    pub ensemble_makespan: f64,
}

/// Predicts the steady state of `cfg` analytically (no DES run).
pub fn predict(cfg: &SimRunConfig) -> RuntimeResult<EnsemblePrediction> {
    let mut estimates: HashMap<ComponentRef, PerfEstimate> = HashMap::new();
    let (members, ensemble_makespan) = predict_inner(cfg, Some(&mut estimates))?;
    Ok(EnsemblePrediction { members, ensemble_makespan, estimates })
}

/// [`predict`] for callers that only read the per-member numbers (the
/// scheduler's scoring path): skips materializing the
/// `ComponentRef → PerfEstimate` map. Every float is bit-identical to
/// the corresponding field of [`predict`]'s output.
pub fn predict_scores(cfg: &SimRunConfig) -> RuntimeResult<ScorePrediction> {
    let (members, ensemble_makespan) = predict_inner(cfg, None)?;
    Ok(ScorePrediction { members, ensemble_makespan })
}

fn predict_inner(
    cfg: &SimRunConfig,
    mut estimates_out: Option<&mut HashMap<ComponentRef, PerfEstimate>>,
) -> RuntimeResult<(Vec<MemberPrediction>, f64)> {
    cfg.spec.validate(Some(cfg.node_spec.cores_per_node()))?;
    if cfg.n_steps == 0 {
        return Err(RuntimeError::NoSamples);
    }
    // Flat component indexing (member-major, simulation first) so the
    // scoring path can use dense vectors instead of per-call hash maps.
    let mut offsets = Vec::with_capacity(cfg.spec.members.len());
    let mut n_components = 0usize;
    for member in &cfg.spec.members {
        offsets.push(n_components);
        n_components += 1 + member.analyses.len();
    }
    let flat = |cref: ComponentRef| offsets[cref.member] + cref.slot;

    // Allocate exactly as the executor does.
    let mut platform = platform_for(cfg)?;
    let mut allocations: Vec<Option<CoreAllocation>> = vec![None; n_components];
    for (i, member) in cfg.spec.members.iter().enumerate() {
        for (cref, comp) in std::iter::once((ComponentRef::simulation(i), &member.simulation))
            .chain(
                member
                    .analyses
                    .iter()
                    .enumerate()
                    .map(|(j, a)| (ComponentRef::analysis(i, j + 1), a)),
            )
        {
            if comp.nodes.len() != 1 {
                return Err(RuntimeError::MultiNodeComponent { component: cref.to_string() });
            }
            let node = *comp.nodes.iter().next().expect("validated non-empty");
            allocations[flat(cref)] = Some(platform.allocate(node, comp.cores, cfg.bind_policy)?);
        }
    }

    // Interference solve per node.
    let mut by_node: HashMap<usize, Vec<(ComponentRef, PlacedWorkload)>> = HashMap::new();
    for (cref, workload) in cfg.workloads.assignments(&cfg.spec) {
        let alloc = allocations[flat(cref)].clone().expect("allocated above");
        by_node.entry(alloc.node).or_default().push((cref, PlacedWorkload { alloc, workload }));
    }
    let mut seconds: Vec<f64> = vec![0.0; n_components];
    for placed in by_node.values() {
        let workloads: Vec<PlacedWorkload> = placed.iter().map(|(_, p)| p.clone()).collect();
        for ((cref, _), est) in
            placed.iter().zip(cfg.interference.solve_node(&cfg.node_spec, &workloads, &[]))
        {
            seconds[flat(*cref)] = est.seconds_per_step;
            if let Some(estimates) = estimates_out.as_deref_mut() {
                estimates.insert(*cref, est);
            }
        }
    }

    // Stage times per member.
    let cost = StagingCostModel::from_platform(&cfg.node_spec, &cfg.network);
    let chunk = cfg.workloads.chunk_bytes;
    let mut members = Vec::with_capacity(cfg.spec.members.len());
    let mut ensemble_makespan = 0.0f64;
    for (i, member) in cfg.spec.members.iter().enumerate() {
        let sim_node = *member.simulation.nodes.iter().next().expect("single-node");
        let s = seconds[flat(ComponentRef::simulation(i))];
        let w = cost.write_seconds(chunk, sim_node, sim_node);
        let analyses: Vec<AnalysisStageTimes> = (1..=member.k())
            .map(|j| {
                let ana_node = *member.analyses[j - 1].nodes.iter().next().expect("single-node");
                let r = if cfg.force_remote_reads && ana_node == sim_node {
                    cost.read_seconds(chunk, sim_node, sim_node + 1)
                } else {
                    cost.read_seconds(chunk, sim_node, ana_node)
                };
                AnalysisStageTimes { r, a: seconds[flat(ComponentRef::analysis(i, j))] }
            })
            .collect();
        let stage_times = MemberStageTimes::new(s, w, analyses)?;
        let sigma = sigma_star(&stage_times);
        let mk = makespan(&stage_times, cfg.n_steps);
        ensemble_makespan = ensemble_makespan.max(mk);
        members.push(MemberPrediction {
            sigma_star: sigma,
            makespan: mk,
            efficiency: efficiency(&stage_times),
            cp: placement_indicator(member),
            stage_times,
        });
    }
    Ok((members, ensemble_makespan))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for id in [ConfigId::Cf, ConfigId::Cc, ConfigId::C1_4, ConfigId::C2_8] {
            let cfg = quick_cfg(id);
            let predicted = predict(&cfg).unwrap();
            let mut runner = EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0);
            let _ = runner.config_mut();
            let report = runner.run().unwrap();
            for (p, m) in predicted.members.iter().zip(&report.members) {
                let rel = (p.sigma_star - m.sigma_star).abs() / m.sigma_star;
                assert!(
                    rel < 1e-6,
                    "{id}: predicted σ̄ {} vs measured {}",
                    p.sigma_star,
                    m.sigma_star
                );
                assert!((p.efficiency - m.efficiency).abs() < 1e-6, "{id}");
                assert!((p.cp - m.cp).abs() < 1e-12, "{id}");
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
    fn predict_scores_matches_predict_bitwise() {
        for id in [ConfigId::Cf, ConfigId::Cc, ConfigId::C1_4, ConfigId::C2_8] {
            let mut cfg = quick_cfg(id);
            cfg.force_remote_reads = id == ConfigId::Cc;
            let full = predict(&cfg).unwrap();
            let scores = predict_scores(&cfg).unwrap();
            assert_eq!(
                full.ensemble_makespan.to_bits(),
                scores.ensemble_makespan.to_bits(),
                "{id}"
            );
            assert_eq!(full.members.len(), scores.members.len());
            for (a, b) in full.members.iter().zip(&scores.members) {
                assert_eq!(a.sigma_star.to_bits(), b.sigma_star.to_bits(), "{id}");
                assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{id}");
                assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits(), "{id}");
                assert_eq!(a.cp.to_bits(), b.cp.to_bits(), "{id}");
                assert_eq!(a.stage_times.s.to_bits(), b.stage_times.s.to_bits(), "{id}");
                assert_eq!(a.stage_times.w.to_bits(), b.stage_times.w.to_bits(), "{id}");
                for (x, y) in a.stage_times.analyses.iter().zip(&b.stage_times.analyses) {
                    assert_eq!(x.r.to_bits(), y.r.to_bits(), "{id}");
                    assert_eq!(x.a.to_bits(), y.a.to_bits(), "{id}");
                }
            }
            // The public map is still populated on the full path.
            assert_eq!(full.estimates.len(), cfg.spec.members.iter().map(|m| 1 + m.k()).sum());
        }
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
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut cfg = quick_cfg(ConfigId::Cf);
        cfg.n_steps = 0;
        assert!(matches!(predict(&cfg), Err(RuntimeError::NoSamples)));
    }
}
