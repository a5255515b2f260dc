//! Every bit of an `EnsembleReport`, pinned to the commit before the
//! stage-summary sink and the one-pass report builder (PR 15,
//! `1e0d4e2`).
//!
//! `fixtures/report_golden.txt` is what that commit's `run_simulated` +
//! `build_report` produced for every case built below, one line per
//! case, every `f64` as its `to_bits` hex. The full-trace feed and the
//! summary-sink feed of the one report body must both reproduce it. To
//! re-capture after a deliberate model change: check out the parent, drop
//! this file in with the summary half removed, and write `golden_text(..)`
//! over `fixtures/report_golden.txt` — before touching any code.

use std::fmt::Write as _;

use ensemble_core::{ComponentRef, ConfigId, StageKind, WarmupPolicy};
use metrics::{EnsembleReport, ExecutionTrace, StageInterval};
use runtime::{
    build_report, build_summary_report, run_simulated, run_summarized, CouplingMode, SimRunConfig,
    WorkloadMap,
};

struct Case {
    label: String,
    cfg: SimRunConfig,
    warmup: WarmupPolicy,
}

/// The 13 two-member configurations × {paper, small} × jitter {0, 0.05}
/// × steps {1, 2, 3, 50}, then one case per ablation knob the report
/// can see.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let configs = ConfigId::set_one_pairs().into_iter().chain(ConfigId::set_two());
    for id in configs {
        for small in [false, true] {
            for jitter in [0.0, 0.05] {
                for steps in [1u64, 2, 3, 50] {
                    let mut cfg = SimRunConfig::paper(id.build());
                    if small {
                        cfg.workloads = WorkloadMap::small_defaults();
                    }
                    cfg.jitter = jitter;
                    cfg.n_steps = steps;
                    let scale = if small { "small" } else { "paper" };
                    cases.push(Case {
                        label: format!("{id} {scale} jitter={jitter} steps={steps}"),
                        cfg,
                        warmup: WarmupPolicy::default(),
                    });
                }
            }
        }
    }

    let small = |id: ConfigId, steps: u64| {
        let mut cfg = SimRunConfig::paper(id.build());
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.jitter = 0.05;
        cfg.n_steps = steps;
        cfg
    };
    let slow_analysis = |cfg: &mut SimRunConfig, factor: f64| {
        let ana = ComponentRef::analysis(0, 1);
        let mut slow = cfg.workloads.workload_for(ana).clone();
        slow.instructions_per_step *= factor;
        cfg.workloads.set_override(ana, slow);
    };
    let mut extra = |label: &str, cfg: SimRunConfig, warmup: WarmupPolicy| {
        cases.push(Case { label: label.to_string(), cfg, warmup });
    };

    let mut buffered = small(ConfigId::Cf, 12);
    slow_analysis(&mut buffered, 3.0);
    buffered.staging_capacity = 2;
    extra("C_f staging_capacity=2 slow analysis", buffered, WarmupPolicy::default());

    // Lost frames: the `R`/`A` series are shorter than `S`/`W`.
    let mut lossy = small(ConfigId::Cf, 12);
    slow_analysis(&mut lossy, 3.0);
    lossy.coupling = CouplingMode::Asynchronous { queue_capacity: 1 };
    extra("C_f async queue=1 slow analysis", lossy, WarmupPolicy::default());

    let mut lossy_pair = small(ConfigId::C2_8, 20);
    slow_analysis(&mut lossy_pair, 2.5);
    lossy_pair.coupling = CouplingMode::Asynchronous { queue_capacity: 1 };
    extra("C2.8 async queue=1 slow analysis", lossy_pair, WarmupPolicy::FixedSteps(1));

    let mut remote = small(ConfigId::Cc, 12);
    remote.force_remote_reads = true;
    extra("C_c force_remote_reads", remote, WarmupPolicy::default());

    let mut capped = small(ConfigId::C1_4, 12);
    capped.power_cap_watts = Some(150.0);
    extra("C1.4 power_cap_watts=150", capped, WarmupPolicy::default());

    extra("C1.5 warmup=Fraction(0.3)", small(ConfigId::C1_5, 20), WarmupPolicy::Fraction(0.3));
    extra("C2.3 warmup=Fraction(0.3)", small(ConfigId::C2_3, 7), WarmupPolicy::Fraction(0.3));
    cases
}

fn hex(out: &mut String, v: f64) {
    write!(out, " {:016x}", v.to_bits()).expect("writing to a String");
}

/// One line: every field of the report, floats as `to_bits` hex.
fn render(label: &str, report: &EnsembleReport, out: &mut String) {
    write!(out, "{label} | {} {} {} {}", report.config, report.n, report.m, report.n_steps)
        .expect("writing to a String");
    hex(out, report.ensemble_makespan);
    write!(
        out,
        " {} {} {}",
        report.staging_retries, report.staging_giveups, report.faults_injected
    )
    .expect("writing to a String");
    for m in &report.members {
        write!(out, " | m{} lost={}", m.member, m.lost_frames).expect("writing to a String");
        hex(out, m.stage_times.s);
        hex(out, m.stage_times.w);
        for a in &m.stage_times.analyses {
            hex(out, a.r);
            hex(out, a.a);
        }
        for v in [m.sigma_star, m.makespan, m.makespan_model, m.efficiency, m.cp] {
            hex(out, v);
        }
        write!(out, " {:?}", m.scenarios).expect("writing to a String");
        for c in &m.components {
            write!(out, " / {} {} {:?}", c.name, c.cores, c.nodes).expect("writing to a String");
            let k = &c.counters;
            let t = &c.metrics;
            for v in [
                k.instructions,
                k.cycles,
                k.llc_references,
                k.llc_misses,
                k.dram_bytes,
                t.execution_time,
                t.llc_miss_ratio,
                t.memory_intensity,
                t.ipc,
            ] {
                hex(out, v);
            }
        }
    }
    out.push('\n');
}

fn golden_text(report_of: impl Fn(&Case) -> EnsembleReport) -> String {
    let mut out = String::new();
    for case in cases() {
        render(&case.label, &report_of(&case), &mut out);
    }
    out
}

fn full_trace_report(case: &Case) -> EnsembleReport {
    let exec = run_simulated(&case.cfg).expect("simulated run");
    build_report("golden", &case.cfg.spec, &exec, case.cfg.n_steps, case.warmup).expect("report")
}

fn summary_report(case: &Case) -> EnsembleReport {
    let exec = run_summarized(&case.cfg, &mut |_, _| {}).expect("summarized run");
    build_summary_report("golden", &case.cfg.spec, &exec, case.cfg.n_steps, case.warmup)
        .expect("report")
}

fn assert_same_lines(what: &str, got: &str, golden: &str) {
    assert_eq!(got.lines().count(), golden.lines().count(), "{what}: case count");
    for (g, want) in got.lines().zip(golden.lines()) {
        assert_eq!(g, want, "{what}");
    }
}

#[test]
fn both_feeds_reproduce_the_bits_the_parent_commit_reported() {
    let golden = include_str!("fixtures/report_golden.txt");
    assert_same_lines("full trace -> build_report", &golden_text(full_trace_report), golden);
    assert_same_lines("summary sink -> report", &golden_text(summary_report), golden);
}

/// A restarted threaded member records steps out of order and more than
/// once; the one-pass summary must order and keep them exactly as
/// `stage_series` (stable sort by step) and `component_span` do.
#[test]
fn out_of_order_and_repeated_steps_summarise_as_the_per_series_filters_do() {
    let sim = |m| ComponentRef::simulation(m);
    let ana = |m, j| ComponentRef::analysis(m, j);
    let iv = |component, kind, step, start: f64, end: f64| StageInterval {
        component,
        kind,
        step,
        start,
        end,
    };
    let trace = ExecutionTrace::new(vec![
        iv(sim(0), StageKind::Simulate, 2, 20.0, 28.5),
        iv(sim(0), StageKind::Write, 2, 28.5, 29.0),
        iv(ana(0, 1), StageKind::Read, 2, 29.0, 29.25),
        iv(sim(1), StageKind::Simulate, 0, 1.0, 4.0),
        // The restart: steps 0..=2 again, step 2 twice in the `S` series.
        iv(sim(0), StageKind::Simulate, 0, 0.5, 8.0),
        iv(sim(0), StageKind::Write, 0, 8.0, 8.75),
        iv(ana(0, 1), StageKind::AnaIdle, 0, 0.25, 8.75),
        iv(ana(0, 1), StageKind::Read, 0, 8.75, 9.0),
        iv(ana(0, 1), StageKind::Analyze, 0, 9.0, 16.0),
        iv(sim(0), StageKind::Simulate, 1, 8.75, 17.0),
        iv(sim(0), StageKind::SimIdle, 1, 17.0, 17.5),
        iv(sim(0), StageKind::Write, 1, 17.5, 18.0),
        iv(ana(0, 2), StageKind::Analyze, 1, 18.0, 41.0),
        iv(sim(0), StageKind::Simulate, 2, 18.0, 27.125),
        iv(ana(0, 1), StageKind::Analyze, 2, 29.25, 35.0),
        iv(ana(0, 1), StageKind::Analyze, 1, 18.5, 24.0),
        // A component the spec does not know: ignored.
        iv(ana(0, 3), StageKind::Analyze, 0, 0.0, 99.0),
    ]);

    let ks = [2usize, 1, 1];
    let summary = trace.summarize(ks.iter().copied());
    assert_eq!(summary.members.len(), ks.len());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, &k) in ks.iter().enumerate() {
        let got = &summary.members[i];
        let want = trace.member_samples(i, k);
        assert_eq!(bits(&got.samples.s), bits(&want.s), "member {i} S");
        assert_eq!(bits(&got.samples.w), bits(&want.w), "member {i} W");
        assert_eq!(got.samples.analyses.len(), k);
        for j in 0..k {
            assert_eq!(bits(&got.samples.analyses[j].0), bits(&want.analyses[j].0), "R{j}");
            assert_eq!(bits(&got.samples.analyses[j].1), bits(&want.analyses[j].1), "A{j}");
        }
        assert_eq!(got.spans.len(), 1 + k);
        assert_eq!(got.spans[0], trace.component_span(sim(i)), "member {i} sim span");
        for j in 1..=k {
            assert_eq!(got.spans[j], trace.component_span(ana(i, j)), "member {i} ana {j} span");
        }
        assert_eq!(got.makespan(), metrics::member_makespan(&trace, i, k), "member {i} makespan");
    }
    // Member 0's `S` series really is the hard case: 2, 0, 1, 2 in
    // recording order, the two step-2 samples kept in that order.
    assert_eq!(summary.members[0].samples.s, vec![7.5, 8.25, 8.5, 9.125]);
    assert!(summary.members[2].samples.s.is_empty() && summary.members[2].spans[0].is_none());
}
