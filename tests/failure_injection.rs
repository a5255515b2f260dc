//! Failure and degradation injection: stragglers, slow analyses,
//! staging backpressure, and shutdown paths.

use insitu_ensembles::model::{CouplingScenario as Scenario, StageKind};
use insitu_ensembles::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn straggler_member_drags_the_objective_down() {
    // Make member 1's simulation 50% slower: Eq. 9's variance penalty
    // must lower F even though member 0 is untouched.
    let id = ConfigId::C1_5;
    let spec = id.build();

    let healthy = EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0);
    let healthy_report = healthy.run().unwrap();

    let mut straggling = EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0);
    let mut slow =
        straggling.config_mut().workloads.workload_for(ComponentRef::simulation(1)).clone();
    slow.instructions_per_step *= 1.5;
    straggling.config_mut().workloads.set_override(ComponentRef::simulation(1), slow);
    let straggling_report = straggling.run().unwrap();

    let f = |report: &insitu_ensembles::measurement::EnsembleReport| {
        let values: Vec<f64> = report
            .members
            .iter()
            .zip(&spec.members)
            .map(|(mr, ms)| {
                indicator(
                    &MemberInputs::from_specs(ms, &spec, mr.efficiency),
                    &IndicatorPath::uap(),
                )
            })
            .collect();
        objective(&values)
    };
    assert!(
        f(&straggling_report) < f(&healthy_report),
        "a straggler must lower F (healthy {}, straggler {})",
        f(&healthy_report),
        f(&straggling_report)
    );
    assert!(straggling_report.ensemble_makespan > healthy_report.ensemble_makespan);
}

#[test]
fn slow_analysis_flips_coupling_to_idle_simulation() {
    let mut runner = EnsembleRunner::paper_config(ConfigId::Cf).small_scale().steps(8).jitter(0.0);
    let mut heavy =
        runner.config_mut().workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
    heavy.instructions_per_step *= 4.0;
    runner.config_mut().workloads.set_override(ComponentRef::analysis(0, 1), heavy);
    let report = runner.run().unwrap();
    assert_eq!(report.members[0].scenarios[0], Scenario::IdleSimulation);
    // The simulation now shows idle stages in the trace.
    let exec = runner.execute().unwrap();
    let sim_idle = exec.trace.total_in_stage(ComponentRef::simulation(0), StageKind::SimIdle);
    assert!(sim_idle > 0.0, "simulation must wait for the slow analysis");
}

#[test]
fn staging_timeout_surfaces_as_error_not_hang() {
    use insitu_ensembles::dtl::{staging, Chunk, VariableSpec};
    let s = Arc::new(staging::dimes());
    let var =
        s.register(VariableSpec { name: "x".into(), expected_readers: 1, home_node: 0 }).unwrap();
    s.put(Chunk::new(var, 0, 0, "raw", Arc::from(*b"a"))).unwrap();
    // No reader consumes; the next put must time out promptly.
    let started = std::time::Instant::now();
    let err = s
        .put_timeout(Chunk::new(var, 1, 0, "raw", Arc::from(*b"b")), Duration::from_millis(100))
        .unwrap_err();
    assert!(matches!(err, insitu_ensembles::dtl::DtlError::Timeout { .. }));
    assert!(started.elapsed() < Duration::from_secs(5));
}

#[test]
fn close_during_run_unblocks_all_parties() {
    use insitu_ensembles::dtl::{staging, VariableSpec};
    let s = Arc::new(staging::dimes());
    let var =
        s.register(VariableSpec { name: "x".into(), expected_readers: 1, home_node: 0 }).unwrap();
    let reader = {
        let s = Arc::clone(&s);
        std::thread::spawn(move || s.get_timeout(var, 0, ReaderId(0), Duration::from_secs(30)))
    };
    std::thread::sleep(Duration::from_millis(30));
    s.close();
    let res = reader.join().unwrap();
    assert!(matches!(res, Err(insitu_ensembles::dtl::DtlError::Closed)));
}

#[test]
fn protocol_violations_are_loud() {
    use insitu_ensembles::dtl::{staging, Chunk, VariableSpec};
    let s = staging::dimes();
    let var =
        s.register(VariableSpec { name: "x".into(), expected_readers: 1, home_node: 0 }).unwrap();
    // Writing step 3 first is a violation, not a wait.
    let err = s
        .put_timeout(Chunk::new(var, 3, 0, "raw", Arc::from(*b"z")), Duration::from_millis(50))
        .unwrap_err();
    assert!(matches!(err, insitu_ensembles::dtl::DtlError::ProtocolViolation { .. }));
}

#[test]
fn oversubscribed_placement_is_rejected_before_running() {
    // Three full members on one node: 72 cores on a 32-core node.
    let spec = EnsembleSpec::new(
        (0..3)
            .map(|_| {
                MemberSpec::new(
                    ComponentSpec::simulation(16, 0),
                    vec![ComponentSpec::analysis(8, 0)],
                )
            })
            .collect(),
    );
    let err = EnsembleRunner::custom("overload", spec).small_scale().steps(3).run();
    assert!(err.is_err(), "over-subscription must fail validation");
}

#[test]
fn threaded_runtime_survives_bursty_consumers() {
    // Capacity-1 staging with two consumers of very different speeds:
    // the slow consumer throttles the pipeline but nothing deadlocks.
    let spec = EnsembleSpec::new(vec![MemberSpec::new(
        ComponentSpec::simulation(16, 0),
        vec![ComponentSpec::analysis(8, 0), ComponentSpec::analysis(8, 0)],
    )]);
    let cfg = ThreadRunConfig {
        spec,
        md: MdConfig { atoms_per_side: 4, stride: 5, ..Default::default() },
        analysis_group_size: 16,
        analysis_sigma: 1.0,
        n_steps: 5,
        staging_capacity: 1,
        timeout: Duration::from_secs(60),
        kernel: None,
        fault_plan: None,
        retry: None,
        restart: None,
    };
    let exec = run_threaded(&cfg).unwrap();
    assert_eq!(exec.staging_stats.puts, 5);
    assert_eq!(exec.staging_stats.gets, 10);
}
