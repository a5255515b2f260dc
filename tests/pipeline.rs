//! End-to-end pipeline tests: configure → run simulated → trace →
//! steady state → metrics → indicators, for every paper configuration.

use insitu_ensembles::measurement::ensemble_makespan;
use insitu_ensembles::model::StageKind;
use insitu_ensembles::prelude::*;

fn quick(id: ConfigId) -> EnsembleRunner {
    EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0)
}

#[test]
fn every_paper_configuration_runs_clean() {
    for id in ConfigId::all() {
        let spec = id.build();
        let report = quick(id).run().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(report.n, spec.n(), "{id}");
        assert_eq!(report.m, spec.num_nodes(), "{id}");
        assert_eq!(report.members.len(), spec.n(), "{id}");
        for (mr, ms) in report.members.iter().zip(&spec.members) {
            assert!(mr.sigma_star > 0.0, "{id}");
            assert!(
                mr.efficiency > 0.0 && mr.efficiency <= 1.0 + 1e-12,
                "{id}: E={}",
                mr.efficiency
            );
            assert!((mr.cp - placement_indicator(ms)).abs() < 1e-12, "{id}");
            assert_eq!(mr.components.len(), 1 + ms.k(), "{id}");
            assert_eq!(mr.scenarios.len(), ms.k(), "{id}");
            for c in &mr.components {
                assert!(c.metrics.is_consistent(), "{id}: {:?}", c.metrics);
                assert!(c.counters.is_consistent(), "{id}");
            }
        }
        assert!(report.ensemble_makespan > 0.0, "{id}");
    }
}

#[test]
fn trace_contains_full_stage_structure() {
    let exec = quick(ConfigId::C2_4).execute().unwrap();
    for member in 0..2usize {
        let sim = ComponentRef::simulation(member);
        assert_eq!(exec.trace.stage_series(sim, StageKind::Simulate).len(), 8);
        assert_eq!(exec.trace.stage_series(sim, StageKind::Write).len(), 8);
        for j in 1..=2usize {
            let ana = ComponentRef::analysis(member, j);
            assert_eq!(exec.trace.stage_series(ana, StageKind::Read).len(), 8);
            assert_eq!(exec.trace.stage_series(ana, StageKind::Analyze).len(), 8);
        }
    }
}

#[test]
fn ensemble_makespan_is_max_of_member_makespans() {
    let report = quick(ConfigId::C1_3).run().unwrap();
    let max_member = report.members.iter().map(|m| m.makespan).fold(f64::NEG_INFINITY, f64::max);
    assert!((report.ensemble_makespan - max_member).abs() < 1e-9);
}

#[test]
fn eq1_matches_trace_derived_sigma() {
    // σ̄* from the report must equal Eq. 1 applied to the extracted
    // stage times.
    let report = quick(ConfigId::C2_8).run().unwrap();
    for m in &report.members {
        assert!((m.sigma_star - sigma_star(&m.stage_times)).abs() < 1e-12);
        assert!((m.efficiency - efficiency(&m.stage_times)).abs() < 1e-12);
    }
}

#[test]
fn makespan_helper_agrees_with_report() {
    let exec = quick(ConfigId::C1_5).execute().unwrap();
    let report = quick(ConfigId::C1_5).run().unwrap();
    let from_trace = ensemble_makespan(&exec.trace, &[1, 1]).unwrap();
    assert!((from_trace - report.ensemble_makespan).abs() < 1e-9);
}

#[test]
fn allocations_respect_node_capacity() {
    for id in [ConfigId::C2_6, ConfigId::C2_7, ConfigId::C2_8] {
        let exec = quick(id).execute().unwrap();
        let mut per_node: std::collections::HashMap<usize, u32> = Default::default();
        for alloc in exec.allocations.values() {
            *per_node.entry(alloc.node).or_default() += alloc.total_cores();
        }
        for (node, cores) in per_node {
            assert!(cores <= 32, "{id}: node {node} got {cores} cores");
        }
    }
}

#[test]
fn custom_ensembles_run_too() {
    // Three members with heterogeneous analysis counts.
    let spec = EnsembleSpec::new(vec![
        MemberSpec::new(ComponentSpec::simulation(16, 0), vec![ComponentSpec::analysis(8, 0)]),
        MemberSpec::new(
            ComponentSpec::simulation(16, 1),
            vec![ComponentSpec::analysis(8, 1), ComponentSpec::analysis(8, 1)],
        ),
        MemberSpec::new(ComponentSpec::simulation(16, 2), vec![ComponentSpec::analysis(4, 3)]),
    ]);
    let report =
        EnsembleRunner::custom("hetero", spec.clone()).small_scale().steps(5).run().unwrap();
    assert_eq!(report.n, 3);
    assert_eq!(report.m, 4);
    assert_eq!(report.members[1].components.len(), 3);
    assert!(report.members[1].cp > report.members[2].cp, "co-located member scores higher CP");
}

#[test]
fn seeds_reproduce_exactly() {
    let a = quick(ConfigId::C1_2).jitter(0.03).seed(7).run().unwrap();
    let b = quick(ConfigId::C1_2).jitter(0.03).seed(7).run().unwrap();
    assert_eq!(a.ensemble_makespan, b.ensemble_makespan);
    for (ma, mb) in a.members.iter().zip(&b.members) {
        assert_eq!(ma.sigma_star, mb.sigma_star);
        assert_eq!(ma.efficiency, mb.efficiency);
    }
}

#[test]
fn report_serializes_to_json() {
    use json::Value;
    let report = quick(ConfigId::Cc).run().unwrap();
    let text = json::encoded(|out| report.write_json(out));
    assert!(text.contains("\"config\":\"C_c\""));
    let back = Value::parse(&text).unwrap();

    // Every numeric field reads back bit for bit under its own name.
    fn same(object: &Value, fields: &[(&str, f64)]) {
        for &(key, want) in fields {
            let got = object.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("{key}"));
            assert_eq!(got.to_bits(), want.to_bits(), "{key}");
        }
    }
    let items = |object: &Value, key: &str| object.get(key).unwrap().as_arr().unwrap().to_vec();
    same(
        &back,
        &[
            ("n", report.n as f64),
            ("m", report.m as f64),
            ("n_steps", report.n_steps as f64),
            ("ensemble_makespan", report.ensemble_makespan),
            ("staging_retries", report.staging_retries as f64),
            ("staging_giveups", report.staging_giveups as f64),
            ("faults_injected", report.faults_injected as f64),
        ],
    );
    let members = items(&back, "members");
    assert_eq!(members.len(), report.members.len());
    for (m, want) in members.iter().zip(&report.members) {
        same(
            m,
            &[
                ("member", want.member as f64),
                ("sigma_star", want.sigma_star),
                ("makespan", want.makespan),
                ("makespan_model", want.makespan_model),
                ("efficiency", want.efficiency),
                ("cp", want.cp),
                ("lost_frames", want.lost_frames as f64),
            ],
        );
        let times = m.get("stage_times").unwrap();
        same(times, &[("s", want.stage_times.s), ("w", want.stage_times.w)]);
        for (t, want) in items(times, "analyses").iter().zip(&want.stage_times.analyses) {
            same(t, &[("r", want.r), ("a", want.a)]);
        }
        assert_eq!(items(m, "scenarios").len(), want.scenarios.len());
        let components = items(m, "components");
        assert_eq!(components.len(), want.components.len());
        for (c, want) in components.iter().zip(&want.components) {
            assert_eq!(c.get("name").unwrap().as_str(), Some(want.name.as_str()));
            same(c, &[("cores", f64::from(want.cores))]);
            let nodes: Vec<usize> =
                items(c, "nodes").iter().map(|n| n.as_usize().unwrap()).collect();
            assert_eq!(nodes, want.nodes);
            let (k, t) = (&want.counters, &want.metrics);
            same(
                c.get("counters").unwrap(),
                &[
                    ("instructions", k.instructions),
                    ("cycles", k.cycles),
                    ("llc_references", k.llc_references),
                    ("llc_misses", k.llc_misses),
                    ("dram_bytes", k.dram_bytes),
                ],
            );
            same(
                c.get("metrics").unwrap(),
                &[
                    ("execution_time", t.execution_time),
                    ("llc_miss_ratio", t.llc_miss_ratio),
                    ("memory_intensity", t.memory_intensity),
                    ("ipc", t.ipc),
                ],
            );
        }
    }
}
