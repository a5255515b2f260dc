//! Turns a finished execution into the full [`EnsembleReport`]:
//! steady-state stage times, `σ̄*`, efficiency, placement indicator,
//! makespans, Table 1 metrics. One reduction (`member_row` per member,
//! `ensemble` over them) of a [`StageSummary`]: a summarized run hands
//! its summary over, a full trace (simulated or threaded) is summarised
//! in one pass first.

use std::collections::HashMap;

use ensemble_core::{
    coupling_scenario, efficiency, extract_steady_state, makespan as model_makespan,
    placement_indicator, sigma_star, ComponentRef, EnsembleSpec, MemberSpec, WarmupPolicy,
};
use hpc_platform::{HwCounters, PerfEstimate};
use metrics::{
    ComponentReport, EnsembleReport, MemberReport, MemberStages, StageSummary, TraditionalMetrics,
};

use crate::error::{RuntimeError, RuntimeResult};
use crate::sim_exec::{SimExecution, SimSummary};
use crate::thread_exec::ThreadExecution;

/// Builds the report of a simulated run from its full trace.
pub fn build_report(
    config_label: &str,
    spec: &EnsembleSpec,
    exec: &SimExecution,
    n_steps: u64,
    warmup: WarmupPolicy,
) -> RuntimeResult<EnsembleReport> {
    let stages = exec.trace.summarize(spec.members.iter().map(|m| m.k()));
    simulated(config_label, spec, &stages, &exec.estimates, &exec.lost_frames, n_steps, warmup)
}

/// Builds the report of a [`run_summarized`](crate::run_summarized) run:
/// bit for bit what [`build_report`] makes of the same run's trace.
pub fn build_summary_report(
    config_label: &str,
    spec: &EnsembleSpec,
    exec: &SimSummary,
    n_steps: u64,
    warmup: WarmupPolicy,
) -> RuntimeResult<EnsembleReport> {
    simulated(config_label, spec, &exec.stages, &exec.estimates, &exec.lost_frames, n_steps, warmup)
}

/// A simulated run's report: every member's row, with its lost frames
/// and the modeled counters of its components.
fn simulated(
    config_label: &str,
    spec: &EnsembleSpec,
    stages: &StageSummary,
    estimates: &HashMap<ComponentRef, PerfEstimate>,
    lost_frames: &[u64],
    n_steps: u64,
    warmup: WarmupPolicy,
) -> RuntimeResult<EnsembleReport> {
    let rows = spec.members.iter().zip(&stages.members).enumerate().map(|(i, (member, stage))| {
        let specs = std::iter::once(&member.simulation).chain(&member.analyses);
        let components = specs.zip(&stage.spans).enumerate().map(|(slot, (comp, span))| {
            let cref = ComponentRef { member: i, slot };
            let est = &estimates[&cref];
            let counters = HwCounters::from_estimate(est, est.instructions_per_step, n_steps);
            let span = span.map(|(s, e)| e - s).unwrap_or_default();
            ComponentReport {
                name: cref.to_string(),
                cores: comp.cores,
                nodes: comp.nodes.iter().copied().collect(),
                counters,
                metrics: TraditionalMetrics::from_counters(&counters, span),
            }
        });
        let lost_frames = lost_frames.get(i).copied().unwrap_or(0);
        member_row(i, member, stage, n_steps, warmup, lost_frames, components.collect())
    });
    Ok(ensemble(config_label, spec, n_steps, rows.collect::<Result<_, _>>()?))
}

/// Member `i`'s row from its stages.
fn member_row(
    i: usize,
    member: &MemberSpec,
    stage: &MemberStages,
    n_steps: u64,
    warmup: WarmupPolicy,
    lost_frames: u64,
    components: Vec<ComponentReport>,
) -> RuntimeResult<MemberReport> {
    let stage_times = extract_steady_state(&stage.samples, warmup)?;
    Ok(MemberReport {
        member: i,
        sigma_star: sigma_star(&stage_times),
        makespan: stage.makespan().ok_or(RuntimeError::NoSamples)?,
        makespan_model: model_makespan(&stage_times, n_steps),
        efficiency: efficiency(&stage_times),
        cp: placement_indicator(member),
        scenarios: (0..member.k()).map(|j| coupling_scenario(&stage_times, j)).collect(),
        lost_frames,
        stage_times,
        components,
    })
}

/// The ensemble-level report over `members`' rows.
fn ensemble(
    config_label: &str,
    spec: &EnsembleSpec,
    n_steps: u64,
    members: Vec<MemberReport>,
) -> EnsembleReport {
    EnsembleReport {
        config: config_label.to_string(),
        n: spec.n(),
        m: spec.num_nodes(),
        n_steps,
        ensemble_makespan: members.iter().map(|m| m.makespan).fold(0.0, f64::max),
        members,
        staging_retries: 0,
        staging_giveups: 0,
        faults_injected: 0,
    }
}

/// Per-member trace from a threaded run reduced to a report (no
/// synthetic counters — real executions have no modeled counters, so
/// Table 1's counter metrics are zeroed and only times are filled).
/// Members whose outcome is `Failed` are omitted from the member rows
/// (they have no steady state to extract); the run's retry and fault
/// counters are carried onto the report.
pub fn build_threaded_report(
    config_label: &str,
    spec: &EnsembleSpec,
    exec: &ThreadExecution,
    n_steps: u64,
    warmup: WarmupPolicy,
) -> RuntimeResult<EnsembleReport> {
    let stages = exec.trace.summarize(spec.members.iter().map(|m| m.k()));
    let failed = |i: usize| exec.member_outcomes.get(i).is_some_and(|o| o.is_failed());
    let rows = spec.members.iter().zip(&stages.members).enumerate().filter(|(i, _)| !failed(*i));
    let rows = rows.map(|(i, (m, stage))| member_row(i, m, stage, n_steps, warmup, 0, Vec::new()));
    let mut report = ensemble(config_label, spec, n_steps, rows.collect::<Result<_, _>>()?);
    report.staging_retries = exec.staging_stats.retries;
    report.staging_giveups = exec.staging_stats.giveups;
    report.faults_injected = exec.fault_stats.total_injected();
    Ok(report)
}
