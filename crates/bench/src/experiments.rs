//! One function per paper artifact: each returns the rows/series the
//! paper reports, computed by running the configurations on the
//! simulated platform at paper scale.

use std::fmt::Write;

use ensemble_core::{
    aggregate, Aggregation, ComponentRef, ConfigId, EnsembleSpec, IndicatorPath, MemberInputs,
    StageKind,
};
use hpc_platform::BindPolicy;
use json::{write_f64, write_seq, write_str, write_u64};
use metrics::EnsembleReport;
use runtime::{
    run_simulated, CouplingMode, EnsembleRunner, RuntimeResult, SimExecution, SimRunConfig,
};

/// Trials per configuration (the paper averages over 5).
pub const TRIALS: u64 = 5;
/// In situ steps per run (30 000 MD steps / stride 800, as in the
/// paper).
pub const STEPS: u64 = 37;

/// Runs one configuration at paper scale, averaged over [`TRIALS`]
/// seeds, returning all trial reports.
pub fn run_config(id: ConfigId) -> RuntimeResult<Vec<EnsembleReport>> {
    EnsembleRunner::paper_config(id).steps(STEPS).jitter(0.01).run_trials(TRIALS)
}

/// A component row of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Configuration label.
    pub config: String,
    /// Component name ("Sim1", "Ana2.1", …).
    pub component: String,
    /// Mean execution time across trials, seconds.
    pub execution_time: f64,
    /// Mean LLC miss ratio.
    pub llc_miss_ratio: f64,
    /// Mean memory intensity (misses/instruction).
    pub memory_intensity: f64,
    /// Mean instructions per cycle.
    pub ipc: f64,
}

impl Fig3Row {
    /// Appends the row as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"config\":");
        write_str(out, &self.config);
        out.push_str(",\"component\":");
        write_str(out, &self.component);
        out.push_str(",\"execution_time\":");
        write_f64(out, self.execution_time);
        out.push_str(",\"llc_miss_ratio\":");
        write_f64(out, self.llc_miss_ratio);
        out.push_str(",\"memory_intensity\":");
        write_f64(out, self.memory_intensity);
        out.push_str(",\"ipc\":");
        write_f64(out, self.ipc);
        out.push('}');
    }
}

/// Figure 3: component-level traditional metrics for the set-one
/// configurations.
pub fn fig3_component_metrics() -> RuntimeResult<Vec<Fig3Row>> {
    let mut rows = Vec::new();
    for id in ConfigId::set_one() {
        let reports = run_config(id)?;
        // Average each component across trials.
        let component_count: Vec<usize> =
            reports[0].members.iter().map(|m| m.components.len()).collect();
        for (mi, &n_components) in component_count.iter().enumerate() {
            for ci in 0..n_components {
                let mut exec = 0.0;
                let mut miss = 0.0;
                let mut intensity = 0.0;
                let mut ipc = 0.0;
                for r in &reports {
                    let c = &r.members[mi].components[ci];
                    exec += c.metrics.execution_time;
                    miss += c.metrics.llc_miss_ratio;
                    intensity += c.metrics.memory_intensity;
                    ipc += c.metrics.ipc;
                }
                let n = reports.len() as f64;
                rows.push(Fig3Row {
                    config: id.label().to_string(),
                    component: reports[0].members[mi].components[ci].name.clone(),
                    execution_time: exec / n,
                    llc_miss_ratio: miss / n,
                    memory_intensity: intensity / n,
                    ipc: ipc / n,
                });
            }
        }
    }
    Ok(rows)
}

/// A makespan row of Figures 4 and 5.
#[derive(Debug, Clone)]
pub struct MakespanRow {
    /// Configuration label.
    pub config: String,
    /// Mean member makespans, seconds, in member order (Figure 4).
    pub member_makespans: Vec<f64>,
    /// Mean ensemble makespan, seconds (Figure 5).
    pub ensemble_makespan: f64,
}

impl MakespanRow {
    /// Appends the row as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"config\":");
        write_str(out, &self.config);
        out.push_str(",\"member_makespans\":");
        write_seq(out, &self.member_makespans, |out, &m| write_f64(out, m));
        out.push_str(",\"ensemble_makespan\":");
        write_f64(out, self.ensemble_makespan);
        out.push('}');
    }
}

/// Figures 4 and 5: member and ensemble makespans for set one.
pub fn fig45_makespans() -> RuntimeResult<Vec<MakespanRow>> {
    let mut rows = Vec::new();
    for id in ConfigId::set_one() {
        let reports = run_config(id)?;
        let n_members = reports[0].members.len();
        let n = reports.len() as f64;
        let member_makespans = (0..n_members)
            .map(|mi| reports.iter().map(|r| r.members[mi].makespan).sum::<f64>() / n)
            .collect();
        let ensemble_makespan = reports.iter().map(|r| r.ensemble_makespan).sum::<f64>() / n;
        rows.push(MakespanRow {
            config: id.label().to_string(),
            member_makespans,
            ensemble_makespan,
        });
    }
    Ok(rows)
}

/// Figure 7: the analysis-core sweep (σ̄*, S*+W*, R*+A*, E vs cores).
pub fn fig7_core_sweep() -> RuntimeResult<scheduler::SweepResult> {
    let mut cfg = scheduler::CoreSweepConfig::paper();
    cfg.candidate_cores = vec![1, 2, 4, 8, 12, 16, 20, 24, 28, 32];
    cfg.steps = 8;
    scheduler::core_sweep(&cfg)
}

/// One bar of Figures 8/9: `F(P)` for one configuration at one
/// indicator stage.
#[derive(Debug, Clone)]
pub struct IndicatorRow {
    /// Configuration label.
    pub config: String,
    /// Stage-path label ("U", "U,P", "U,A", "U,P,A", "U,A,P").
    pub path: String,
    /// Mean `F(P)` across trials.
    pub objective: f64,
}

impl IndicatorRow {
    /// Appends the row as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"config\":");
        write_str(out, &self.config);
        out.push_str(",\"path\":");
        write_str(out, &self.path);
        out.push_str(",\"objective\":");
        write_f64(out, self.objective);
        out.push('}');
    }
}

/// The five stage paths of §5.2 (both concatenation orders).
pub fn stage_paths() -> Vec<IndicatorPath> {
    vec![
        IndicatorPath::u(),
        IndicatorPath::up(),
        IndicatorPath::ua(),
        IndicatorPath::upa(),
        IndicatorPath::uap(),
    ]
}

/// `F(P)` of one report: each member's indicator along `path`, folded
/// by `aggregation`.
fn objective(
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

/// Computes `F(P)` for every stage path over the given configurations —
/// Figure 8 with [`ConfigId::set_one_pairs`], Figure 9 with
/// [`ConfigId::set_two`].
pub fn indicator_objectives(configs: &[ConfigId]) -> RuntimeResult<Vec<IndicatorRow>> {
    let mut rows = Vec::new();
    for &id in configs {
        let spec = id.build();
        let reports = run_config(id)?;
        for path in stage_paths() {
            let mut acc = 0.0;
            for report in &reports {
                acc += objective(report, &spec, &path, Aggregation::MeanMinusStd);
            }
            rows.push(IndicatorRow {
                config: id.label().to_string(),
                path: path.label(),
                objective: acc / reports.len() as f64,
            });
        }
    }
    Ok(rows)
}

/// Figure 8: set one (C1.1–C1.5).
pub fn fig8_indicators() -> RuntimeResult<Vec<IndicatorRow>> {
    indicator_objectives(&ConfigId::set_one_pairs())
}

/// Figure 9: set two (C2.1–C2.8).
pub fn fig9_indicators() -> RuntimeResult<Vec<IndicatorRow>> {
    indicator_objectives(&ConfigId::set_two())
}

/// One row of the in-transit extension experiment: lost frames and
/// simulation stall as functions of queue depth and analysis load.
#[derive(Debug, Clone)]
pub struct LostFramesRow {
    /// In-transit queue depth (0 = the paper's synchronous protocol).
    pub queue_capacity: usize,
    /// Analysis work multiplier relative to the paper's kernel.
    pub analysis_scale: f64,
    /// Frames produced.
    pub produced: u64,
    /// Frames lost.
    pub lost: u64,
    /// Simulation idle seconds over the whole run.
    pub sim_idle_seconds: f64,
    /// Simulation completion time, seconds.
    pub sim_finish_seconds: f64,
}

impl LostFramesRow {
    /// Appends the row as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"queue_capacity\":");
        write_u64(out, self.queue_capacity as u64);
        out.push_str(",\"analysis_scale\":");
        write_f64(out, self.analysis_scale);
        out.push_str(",\"produced\":");
        write_u64(out, self.produced);
        out.push_str(",\"lost\":");
        write_u64(out, self.lost);
        out.push_str(",\"sim_idle_seconds\":");
        write_f64(out, self.sim_idle_seconds);
        out.push_str(",\"sim_finish_seconds\":");
        write_f64(out, self.sim_finish_seconds);
        out.push('}');
    }
}

/// Extension experiment (after Taufer et al. \[26\]): sweep queue depths
/// and analysis loads under in-transit coupling; the synchronous
/// protocol appears as the zero row of each load.
pub fn ext_lost_frames() -> RuntimeResult<Vec<LostFramesRow>> {
    let mut rows = Vec::new();
    for &scale in &[1.0f64, 1.5, 2.5] {
        for &capacity in &[0usize, 1, 2, 4] {
            let exec = lost_frames_run(scale, capacity)?;
            let sim = ComponentRef::simulation(0);
            rows.push(LostFramesRow {
                queue_capacity: capacity,
                analysis_scale: scale,
                produced: exec.trace.stage_series(sim, StageKind::Write).len() as u64,
                lost: exec.lost_frames[0],
                sim_idle_seconds: exec.trace.total_in_stage(sim, StageKind::SimIdle),
                sim_finish_seconds: exec
                    .trace
                    .component_span(sim)
                    .map(|(_, e)| e)
                    .unwrap_or_default(),
            });
        }
    }
    Ok(rows)
}

/// One run of the lost-frames study: `C_f` with its analysis's work
/// scaled by `scale`, coupled through a queue of depth `capacity` (0:
/// the paper's synchronous protocol).
fn lost_frames_run(scale: f64, capacity: usize) -> RuntimeResult<SimExecution> {
    let mut cfg = SimRunConfig::paper(ConfigId::Cf.build());
    cfg.n_steps = STEPS;
    cfg.jitter = 0.0;
    let mut heavy = cfg.workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
    heavy.instructions_per_step *= scale;
    cfg.workloads.set_override(ComponentRef::analysis(0, 1), heavy);
    cfg.coupling = if capacity == 0 {
        CouplingMode::Synchronous
    } else {
        CouplingMode::Asynchronous { queue_capacity: capacity }
    };
    run_simulated(&cfg)
}

/// A jitter-free paper-scale runner of `id` over `steps` in situ steps.
fn exact(id: ConfigId, steps: u64) -> EnsembleRunner {
    EnsembleRunner::paper_config(id).steps(steps).jitter(0.0)
}

/// Extension study: the four design ablations of EXPERIMENTS.md —
/// interference model off, forced-remote reads, double buffering, and
/// plain-mean aggregation — as the text `repro ext-ablations` prints.
/// What each must show is asserted in `tests/extensions.rs`.
pub fn ext_ablations() -> RuntimeResult<String> {
    let ids = [ConfigId::C1_1, ConfigId::C1_4, ConfigId::C1_5];
    let mut out = String::new();
    let _ = writeln!(out, "ablation 1 — interference model:");
    for (label, interference) in [("with   ", true), ("without", false)] {
        let mut makespans = Vec::new();
        for id in ids {
            let runner = exact(id, STEPS);
            let runner = if interference { runner } else { runner.without_interference() };
            makespans.push(runner.run()?.ensemble_makespan);
        }
        let _ = writeln!(
            out,
            "  {label}: C1.1 {:.1}s, C1.4 {:.1}s, C1.5 {:.1}s",
            makespans[0], makespans[1], makespans[2]
        );
    }

    let local = exact(ConfigId::C1_5, STEPS).run()?.ensemble_makespan;
    let remote = exact(ConfigId::C1_5, STEPS).force_remote_reads().run()?.ensemble_makespan;
    let _ = writeln!(
        out,
        "ablation 2 — staging locality: local reads {local:.2}s, forced remote {remote:.2}s"
    );

    let unbuffered = exact(ConfigId::C1_1, STEPS).run()?;
    let buffered = exact(ConfigId::C1_1, STEPS).staging_capacity(2).run()?;
    let _ = writeln!(
        out,
        "ablation 3 — protocol buffering: capacity 1 sigma* {:.2}s, capacity 2 sigma* {:.2}s",
        unbuffered.members[0].sigma_star, buffered.members[0].sigma_star
    );

    let report = exact(ConfigId::C1_3, STEPS).run()?;
    let spec = ConfigId::C1_3.build();
    let eq9 = objective(&report, &spec, &IndicatorPath::uap(), Aggregation::MeanMinusStd);
    let mean = objective(&report, &spec, &IndicatorPath::uap(), Aggregation::Mean);
    let _ = writeln!(
        out,
        "ablation 4 — objective: Eq.9 {eq9:.3e} vs plain mean {mean:.3e} on C1.3 (uneven members)"
    );
    Ok(out)
}

/// In situ steps of the sensitivity study's runs.
const SENSITIVITY_STEPS: u64 = 20;

/// Extension study: sensitivity to socket binding, the cache
/// miss-curve exponent and node power caps, as the text
/// `repro ext-sensitivity` prints (20 in situ steps). The directions
/// are asserted in `tests/extensions.rs`.
pub fn ext_sensitivity() -> RuntimeResult<String> {
    let mut out = String::new();
    let spread = exact(ConfigId::C1_5, SENSITIVITY_STEPS).run()?.ensemble_makespan;
    let mut compact = exact(ConfigId::C1_5, SENSITIVITY_STEPS);
    compact.config_mut().bind_policy = BindPolicy::Compact;
    let compact = compact.run()?.ensemble_makespan;
    let _ = writeln!(
        out,
        "sensitivity — bind policy on C1.5: spread {spread:.1}s, compact {compact:.1}s"
    );

    let _ = writeln!(out, "sensitivity — miss-curve exponent on C1.1 (paired analyses):");
    for exponent in [0.5f64, 1.0, 2.0] {
        let mut r = exact(ConfigId::C1_1, SENSITIVITY_STEPS);
        r.config_mut().interference.cache.miss_curve_exponent = exponent;
        let miss = r.run()?.members[0].components[1].metrics.llc_miss_ratio;
        let _ = writeln!(out, "  exponent {exponent}: analysis LLC miss ratio {miss:.4}");
    }

    let _ = writeln!(out, "sensitivity — node power cap on C1.5:");
    for cap in [None, Some(320.0f64), Some(260.0), Some(220.0)] {
        let mut r = exact(ConfigId::C1_5, SENSITIVITY_STEPS);
        r.config_mut().power_cap_watts = cap;
        let makespan = r.run()?.ensemble_makespan;
        let _ = match cap {
            None => writeln!(out, "  uncapped: makespan {makespan:.1}s"),
            Some(w) => writeln!(out, "  cap {w:>5.0} W: makespan {makespan:.1}s"),
        };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiment-harness smoke tests run at reduced scale; the full
    // paper-scale assertions live in the workspace integration tests.

    #[test]
    fn fig7_recommends_eight_cores() {
        let sweep = fig7_core_sweep().unwrap();
        assert_eq!(sweep.recommended_cores, 8);
        assert_eq!(sweep.points.len(), 10);
    }

    #[test]
    fn lost_frames_study_shows_what_experiments_md_states() {
        let rows = ext_lost_frames().unwrap();
        let layout: Vec<(f64, usize)> =
            rows.iter().map(|r| (r.analysis_scale, r.queue_capacity)).collect();
        let loads_by_depth: Vec<(f64, usize)> =
            [1.0, 1.5, 2.5].into_iter().flat_map(|load| [0, 1, 2, 4].map(|q| (load, q))).collect();
        assert_eq!(layout, loads_by_depth, "a sync row, then queue depths 1, 2, 4, per load");
        assert!(rows.iter().all(|r| r.produced == 37));
        for r in &rows {
            let exec = lost_frames_run(r.analysis_scale, r.queue_capacity).unwrap();
            let ana = ComponentRef::analysis(0, 1);
            let consumed = exec.trace.stage_series(ana, StageKind::Analyze).len() as u64;
            let at = (r.analysis_scale, r.queue_capacity);
            assert_eq!(r.produced, consumed + r.lost, "{at:?}: every frame consumed or lost");
        }
        let unloaded_sync_finish = rows[0].sim_finish_seconds;
        let mut lost = Vec::new();
        for load in rows.chunks(4) {
            let (sync, queues) = load.split_first().expect("four rows a load");
            assert_eq!(sync.lost, 0, "sync at {}x", sync.analysis_scale);
            for r in queues {
                let at = (r.analysis_scale, r.queue_capacity);
                assert_eq!(r.sim_idle_seconds, 0.0, "async {at:?} idles the simulation");
                assert_eq!(r.sim_finish_seconds, unloaded_sync_finish, "async {at:?}");
            }
            assert!(queues.windows(2).all(|w| w[1].lost <= w[0].lost), "deeper queue loses more");
            lost.push(queues.iter().map(|r| r.lost).collect::<Vec<_>>());
        }
        assert_eq!(lost, [vec![0, 0, 0], vec![6, 5, 3], vec![18, 17, 15]]);
    }
}
