//! Integration tests of the beyond-the-paper extensions at the facade
//! level: in-transit coupling, prediction, energy, Gantt rendering, and
//! what the `repro ext-ablations` / `ext-sensitivity` studies must show.

use insitu_ensembles::measurement::{self, GanttOptions};
use insitu_ensembles::model::StageKind;
use insitu_ensembles::prelude::*;
use std::collections::HashMap;

fn quick(id: ConfigId) -> EnsembleRunner {
    EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0)
}

/// A jitter-free paper-scale runner, as the `repro ext-*` studies use.
fn exact(id: ConfigId, steps: u64) -> EnsembleRunner {
    EnsembleRunner::paper_config(id).steps(steps).jitter(0.0)
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
fn members_lose_frames_independently() {
    // Two members on their own nodes, each behind its own one-frame
    // queue: slowing member 0's analysis costs member 0 frames and
    // leaves member 1's run unchanged to the bit.
    let steps = 12;
    let spec = EnsembleSpec::new(
        (0..2)
            .map(|node| {
                MemberSpec::new(
                    ComponentSpec::simulation(16, node),
                    vec![ComponentSpec::analysis(8, node)],
                )
            })
            .collect(),
    );
    let mut runner = EnsembleRunner::custom("two-members", spec).steps(steps).jitter(0.0);
    runner.config_mut().coupling = CouplingMode::Asynchronous { queue_capacity: 1 };
    let unslowed = runner.execute().unwrap();
    let slowed_analysis = ComponentRef::analysis(0, 1);
    let mut heavy = runner.config_mut().workloads.workload_for(slowed_analysis).clone();
    heavy.instructions_per_step *= 3.0;
    runner.config_mut().workloads.set_override(slowed_analysis, heavy);
    let exec = runner.execute().unwrap();

    let consumed = |member| {
        exec.trace.stage_series(ComponentRef::analysis(member, 1), StageKind::Analyze).len() as u64
    };
    assert!(exec.lost_frames[0] > 0, "the slowed member must lose frames");
    assert_eq!(consumed(0) + exec.lost_frames[0], steps, "member 0 accounts for every frame");
    assert_eq!((exec.lost_frames[1], consumed(1)), (0, steps), "member 1 loses nothing");
    for c in [ComponentRef::simulation(1), ComponentRef::analysis(1, 1)] {
        let bits = |exec: &insitu_ensembles::runtime::SimExecution| {
            exec.trace
                .for_component(c)
                .map(|i| (i.kind, i.step, i.start.to_bits(), i.end.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&exec), bits(&unslowed), "{c}'s intervals moved");
    }
}

#[test]
fn predictor_agrees_with_runner_at_paper_scale() {
    for id in [ConfigId::C1_2, ConfigId::C2_6] {
        let report = exact(id, 37).run().unwrap();
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
fn ablations_show_what_each_design_choice_buys() {
    // Interference off: the makespan spread between co-location
    // choices collapses.
    let spread = |interference: bool| {
        let makespans = [ConfigId::C1_1, ConfigId::C1_4, ConfigId::C1_5].map(|id| {
            let runner = exact(id, 37);
            let runner = if interference { runner } else { runner.without_interference() };
            runner.run().unwrap().ensemble_makespan
        });
        makespans.iter().copied().fold(f64::MIN, f64::max)
            - makespans.iter().copied().fold(f64::MAX, f64::min)
    };
    assert!(spread(true) > spread(false), "disabling interference must collapse the spread");

    // Forced-remote staging cannot be faster than node-local reads.
    let local = exact(ConfigId::C1_5, 37).run().unwrap().ensemble_makespan;
    let remote = exact(ConfigId::C1_5, 37).force_remote_reads().run().unwrap().ensemble_makespan;
    assert!(remote >= local, "remote {remote} vs local {local}");

    // Eq. 9 penalizes C1.3's member imbalance; a plain mean does not.
    let spec = ConfigId::C1_3.build();
    let report = exact(ConfigId::C1_3, 37).run().unwrap();
    let mut values: Vec<f64> = report
        .members
        .iter()
        .zip(&spec.members)
        .map(|(mr, ms)| {
            indicator(&MemberInputs::from_specs(ms, &spec, mr.efficiency), &IndicatorPath::uap())
        })
        .collect();
    let eq9 = aggregate(&mut values, Aggregation::MeanMinusStd);
    let mean = aggregate(&mut values, Aggregation::Mean);
    assert!(eq9 < mean, "Eq. 9 {eq9} vs mean {mean}");
}

#[test]
fn sensitivity_sweeps_move_in_the_stated_direction() {
    // miss = base + (1−base)(1 − share/ws)^e: for a deficit below 1, a
    // larger exponent is a gentler curve, so misses fall with e.
    let mut prev = f64::INFINITY;
    for exponent in [0.5, 1.0, 2.0] {
        let mut r = exact(ConfigId::C1_1, 20);
        r.config_mut().interference.cache.miss_curve_exponent = exponent;
        let miss = r.run().unwrap().members[0].components[1].metrics.llc_miss_ratio;
        assert!(miss <= prev, "exponent {exponent}: {miss} after {prev}");
        prev = miss;
    }

    // A cap never speeds the run up, and a hard one slows it by ≥ 2 %.
    let capped = |cap: Option<f64>| {
        let mut r = exact(ConfigId::C1_5, 20);
        r.config_mut().power_cap_watts = cap;
        r.run().unwrap().ensemble_makespan
    };
    let uncapped = capped(None);
    for cap in [320.0, 260.0, 220.0] {
        assert!(capped(Some(cap)) >= uncapped - 1e-9, "cap {cap} W sped the run up");
    }
    assert!(capped(Some(200.0)) > uncapped * 1.02);
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
fn csv_exports_cover_a_report() {
    let report = quick(ConfigId::C1_3).run().unwrap();
    let members = measurement::members_csv(&[&report]);
    assert_eq!(members.lines().count(), 1 + 2, "header + one row per member");
    let components = measurement::components_csv(&[&report]);
    assert_eq!(components.lines().count(), 1 + 4, "header + 2 members × 2 components");
    assert!(components.contains("Ana2.1"));
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
