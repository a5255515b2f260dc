//! Integration tests of the beyond-the-paper extensions at the facade
//! level: in-transit coupling, prediction, energy, Pareto search, Gantt
//! rendering, and trial aggregation.

use insitu_ensembles::measurement::{self, GanttOptions};
use insitu_ensembles::model::StageKind;
use insitu_ensembles::prelude::*;
use insitu_ensembles::scheduling;
use std::collections::HashMap;

fn quick(id: ConfigId) -> EnsembleRunner {
    EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0)
}

#[test]
fn in_transit_simulated_mode_trades_stall_for_loss() {
    let mut runner = quick(ConfigId::Cf);
    // Slow the analysis so synchronous coupling stalls the simulation.
    let mut heavy =
        runner.config_mut().workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
    heavy.instructions_per_step *= 3.0;
    runner.config_mut().workloads.set_override(ComponentRef::analysis(0, 1), heavy);

    let sync_report = runner.run().unwrap();
    assert_eq!(sync_report.members[0].lost_frames, 0);

    let mut async_runner = runner.clone();
    async_runner.config_mut().coupling = CouplingMode::Asynchronous { queue_capacity: 1 };
    let exec = async_runner.execute().unwrap();
    assert!(exec.lost_frames[0] > 0, "slow analysis under async must lose frames");
    // The simulation side finishes sooner without the protocol stall.
    let sim = ComponentRef::simulation(0);
    let sync_exec = runner.execute().unwrap();
    let sync_end = sync_exec.trace.component_span(sim).unwrap().1;
    let async_end = exec.trace.component_span(sim).unwrap().1;
    assert!(async_end < sync_end, "async sim end {async_end} vs sync {sync_end}");
}

#[test]
fn predictor_agrees_with_runner_at_paper_scale() {
    for id in [ConfigId::C1_2, ConfigId::C2_6] {
        let runner = EnsembleRunner::paper_config(id).steps(37).jitter(0.0);
        let report = runner.run().unwrap();
        let cfg = insitu_ensembles::runtime::SimRunConfig {
            n_steps: 37,
            jitter: 0.0,
            ..insitu_ensembles::runtime::SimRunConfig::paper(id.build())
        };
        let prediction = predict(&cfg).unwrap();
        for (p, m) in prediction.members.iter().zip(&report.members) {
            let rel = (p.sigma_star - m.sigma_star).abs() / m.sigma_star;
            assert!(rel < 1e-6, "{id}: {rel}");
        }
    }
}

#[test]
fn energy_accounting_over_a_full_run() {
    let runner = quick(ConfigId::C1_5);
    let exec = runner.execute().unwrap();
    let cores: HashMap<_, _> =
        exec.allocations.iter().map(|(c, a)| (*c, a.total_cores())).collect();
    let nodes: HashMap<_, _> = exec.allocations.iter().map(|(c, a)| (*c, a.node)).collect();
    let energy = measurement::run_energy(&exec.trace, &PowerModel::default(), &cores, &nodes);
    assert!(energy.total_joules > 0.0);
    assert_eq!(energy.per_node_idle.len(), 2, "C1.5 runs on two nodes");
    // Simulations burn more than analyses (twice the cores, longer busy).
    let sim_j = energy.per_component[&ComponentRef::simulation(0)];
    let ana_j = energy.per_component[&ComponentRef::analysis(0, 1)];
    assert!(sim_j > ana_j);
    assert!(energy.average_watts() > 2.0 * PowerModel::default().idle_watts);
}

#[test]
fn power_cap_inflates_makespan_monotonically() {
    let free = quick(ConfigId::C1_5).run().unwrap().ensemble_makespan;
    let mut prev = free;
    for cap in [300.0, 260.0, 220.0] {
        let mut r = quick(ConfigId::C1_5);
        r.config_mut().power_cap_watts = Some(cap);
        let capped = r.run().unwrap().ensemble_makespan;
        assert!(capped >= prev - 1e-9, "tighter cap {cap} W must not speed up");
        prev = capped;
    }
    assert!(prev > free, "the tightest cap must visibly slow the run");
}

#[test]
fn gantt_renders_real_runs() {
    let exec = quick(ConfigId::Cc).execute().unwrap();
    let g = measurement::render_gantt(&exec.trace, &GanttOptions::default());
    assert!(g.contains("Sim1"));
    assert!(g.contains("Ana1.1"));
    // The simulation row should be busy (mostly S glyphs).
    let row = g.lines().find(|l| l.starts_with("Sim1")).unwrap();
    assert!(row.matches('S').count() > 40, "{row}");
}

#[test]
fn pareto_front_exposes_the_node_makespan_tradeoff() {
    let mut base = insitu_ensembles::runtime::SimRunConfig::paper(ConfigId::Cf.build());
    base.workloads = WorkloadMap::small_defaults();
    base.n_steps = 8;
    let points = scheduling::pareto_front(
        &base,
        &EnsembleShape::uniform(2, 16, 1, 8),
        NodeBudget { max_nodes: 4, cores_per_node: 32 },
        &scheduling::ScanOptions::default(),
    )
    .unwrap();
    let frontier = scheduling::frontier_only(&points);
    assert!(!frontier.is_empty());
    // The 2-node full co-location is on the frontier.
    assert!(frontier.iter().any(|p| p.nodes_used == 2));
}

#[test]
fn csv_exports_cover_a_report() {
    let report = quick(ConfigId::C1_3).run().unwrap();
    let members = measurement::members_csv(&[&report]);
    assert_eq!(members.lines().count(), 1 + 2, "header + one row per member");
    let components = measurement::components_csv(&[&report]);
    assert_eq!(components.lines().count(), 1 + 4, "header + 2 members × 2 components");
    assert!(components.contains("Ana2.1"));
}

#[test]
fn trial_summaries_aggregate_runner_output() {
    let reports = quick(ConfigId::C1_1).jitter(0.04).run_trials(4).unwrap();
    let refs: Vec<insitu_ensembles::measurement::EnsembleReport> = reports;
    let summary = measurement::summarize_trials(&refs);
    assert_eq!(summary.ensemble_makespan.trials(), 4);
    assert!(summary.ensemble_makespan.std_dev() > 0.0, "jitter must show across trials");
}

#[test]
fn experiment_spec_documents_itself() {
    // The shipped example spec runs and produces the documented layout.
    let spec = insitu_ensembles::runtime::ExperimentSpec::example();
    let cfg = spec.to_run_config().unwrap();
    assert_eq!(cfg.spec.num_nodes(), 2);
    let exec =
        run_simulated(&insitu_ensembles::runtime::SimRunConfig { n_steps: 4, jitter: 0.0, ..cfg })
            .unwrap();
    assert_eq!(exec.trace.stage_series(ComponentRef::simulation(0), StageKind::Write).len(), 4);
}
