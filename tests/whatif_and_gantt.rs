//! Integration coverage for the unblocking factor over *measured* stage
//! times and the Gantt/CSV surfaces on simulated in-transit runs.

use insitu_ensembles::measurement::{self, GanttOptions};
use insitu_ensembles::model::{factor_to_unblock, sigma_star};
use insitu_ensembles::prelude::*;

fn bottlenecked_runner() -> EnsembleRunner {
    let mut runner = EnsembleRunner::paper_config(ConfigId::Cf).small_scale().steps(8).jitter(0.0);
    let mut heavy =
        runner.config_mut().workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
    heavy.instructions_per_step *= 2.0;
    runner.config_mut().workloads.set_override(ComponentRef::analysis(0, 1), heavy);
    runner
}

#[test]
fn whatif_on_measured_times_predicts_the_fix() {
    // Measure a bottlenecked member, ask Eq. 4's boundary for the
    // factor that unblocks it, apply it, and verify with a fresh run
    // whose analysis workload is scaled by that factor.
    let report = bottlenecked_runner().run().unwrap();
    let times = &report.members[0].stage_times;
    assert_eq!(report.members[0].scenarios[0], CouplingScenario::IdleSimulation);

    let factor = factor_to_unblock(times, 0).expect("analysis dominates");
    assert!(factor < 1.0);
    let mut predicted = times.clone();
    predicted.analyses[0].a *= factor;
    assert!(sigma_star(&predicted) < sigma_star(times), "unblocking must shrink σ̄*");

    // Apply roughly the same scaling in a real run: compute time scales
    // ~linearly with instructions, so scale A's share of the workload.
    let mut fixed = bottlenecked_runner();
    let mut w = fixed.config_mut().workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
    w.instructions_per_step *= factor * 0.95; // a little margin
    fixed.config_mut().workloads.set_override(ComponentRef::analysis(0, 1), w);
    let fixed_report = fixed.run().unwrap();
    assert_eq!(
        fixed_report.members[0].scenarios[0],
        CouplingScenario::IdleAnalyzer,
        "the predicted fix must flip the coupling"
    );
    assert!(fixed_report.ensemble_makespan < report.ensemble_makespan);
}

#[test]
fn gantt_shows_the_idle_pattern_changing_with_coupling_mode() {
    let sync_exec = bottlenecked_runner().execute().unwrap();
    let sync_gantt =
        measurement::render_gantt(&sync_exec.trace, &GanttOptions { width: 120, window: None });
    // The stalled simulation shows idle dots between S bursts.
    let sim_row = sync_gantt.lines().find(|l| l.starts_with("Sim1")).unwrap();
    assert!(sim_row.contains('.'), "sync run must show simulation idle:\n{sim_row}");

    let mut async_runner = bottlenecked_runner();
    async_runner.config_mut().coupling = CouplingMode::Asynchronous { queue_capacity: 1 };
    let async_exec = async_runner.execute().unwrap();
    let async_gantt =
        measurement::render_gantt(&async_exec.trace, &GanttOptions { width: 120, window: None });
    let sim_row = async_gantt.lines().find(|l| l.starts_with("Sim1")).unwrap();
    // In-transit: the simulation portion of the timeline has no idle
    // gaps until it finishes (trailing spaces after Done are blank, not
    // dots).
    let busy_part: String = sim_row.trim_end_matches(['|', ' ']).chars().collect();
    assert!(!busy_part.contains('.'), "async run must not stall the simulation:\n{sim_row}");
}

#[test]
fn csv_trace_export_roundtrips_row_counts() {
    let exec = bottlenecked_runner().execute().unwrap();
    let csv = measurement::trace_csv(&exec.trace);
    // Header + one row per interval.
    assert_eq!(csv.lines().count(), 1 + exec.trace.len());
    // Every stage label appears.
    for label in ["S", "W", "R", "A"] {
        assert!(
            csv.lines().any(|l| l.split(',').nth(1) == Some(label)),
            "stage {label} missing from CSV"
        );
    }
}

#[test]
fn lost_frames_flow_into_reports_and_diagnostics() {
    let mut runner = bottlenecked_runner();
    runner.config_mut().coupling = CouplingMode::Asynchronous { queue_capacity: 1 };
    let report = runner.run().unwrap();
    assert!(report.members[0].lost_frames > 0);
    let findings = insitu_ensembles::runtime::diagnose(
        &report,
        &insitu_ensembles::runtime::DiagnosticConfig::default(),
    );
    assert!(
        findings.iter().any(|f| f.kind == insitu_ensembles::runtime::FindingKind::LostFrames),
        "{findings:#?}"
    );
}
