//! Property-based chaos tests: random seeded fault plans over small
//! ensembles never hang the threaded runtime, and survivors are always
//! bit-identical to the fault-free run with the same seeds.
//!
//! Plans here are restricted to failures, delays, and kills — payload
//! corruption changes survivor data by design and is exercised by the
//! unit tests instead.

use insitu_ensembles::model::{ComponentSpec, EnsembleSpec, MemberSpec};
use insitu_ensembles::prelude::*;
use std::time::{Duration, Instant};
use testkit::{check, Gen};

const STEPS: u64 = 3;
/// Per-op staging timeout; a run is "hung" when it exceeds a generous
/// multiple of this plus kernel time.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

fn two_member_spec() -> EnsembleSpec {
    EnsembleSpec::new(vec![
        MemberSpec::new(ComponentSpec::simulation(4, 0), vec![ComponentSpec::analysis(2, 0)]),
        MemberSpec::new(ComponentSpec::simulation(4, 1), vec![ComponentSpec::analysis(2, 1)]),
    ])
}

fn config(fault_plan: Option<FaultPlan>, retry: Option<RetryPolicy>) -> ThreadRunConfig {
    ThreadRunConfig {
        spec: two_member_spec(),
        md: MdConfig { atoms_per_side: 4, stride: 5, ..Default::default() },
        analysis_group_size: 16,
        analysis_sigma: 1.2,
        n_steps: STEPS,
        staging_capacity: 1,
        timeout: OP_TIMEOUT,
        kernel: None,
        fault_plan,
        retry,
        restart: None,
    }
}

/// A store rule drawn from failures and small delays only.
fn rule(g: &mut Gen) -> FaultRule {
    let op = g.one_of(&[&|_: &mut Gen| FaultOp::Load, &|_: &mut Gen| FaultOp::Store]);
    let (var, step) = (g.range(0u32..2), g.range(0u64..STEPS));
    let (after, first) = (g.range(0u64..2), g.range(1u64..3));
    let action =
        if g.bool() { FaultAction::Delay(Duration::from_millis(2)) } else { FaultAction::Fail };
    FaultRule {
        variable: Some(var),
        step: Some(step),
        op: Some(op),
        action,
        probability: 1.0,
        after,
        first: Some(first),
    }
}

fn plan(g: &mut Gen) -> FaultPlan {
    let mut plan = FaultPlan::new(g.range(0u64..1000));
    for r in g.vec(0..3, rule) {
        plan = plan.with_rule(r);
    }
    let kill = g.option(|g| MemberKill {
        member: g.range(0usize..2),
        step: g.range(0u64..STEPS),
        panic: g.bool(),
    });
    if let Some(kill) = kill {
        plan = plan.with_kill(kill);
    }
    plan
}

/// Whatever the plan injects, the run returns well before the hang
/// horizon, and every member reports a definite outcome.
#[test]
fn chaos_never_hangs_and_every_member_has_an_outcome() {
    check(8, |g| {
        let started = Instant::now();
        let exec = run_threaded(&config(Some(plan(g)), Some(RetryPolicy::with_attempts(2))))
            .expect("a chaos run completes instead of erroring out");
        assert!(
            started.elapsed() < OP_TIMEOUT * 4,
            "run exceeded the hang horizon: {:?}",
            started.elapsed()
        );
        assert_eq!(exec.member_outcomes.len(), 2);
    });
}

/// Members couple through disjoint variables, so a fault plan can
/// only ever affect the members it names: survivors' CV series are
/// bit-identical to the fault-free run with the same seeds.
#[test]
fn survivors_match_the_fault_free_run_bit_for_bit() {
    check(8, |g| {
        let baseline = run_threaded(&config(None, None)).expect("fault-free run");
        let exec = run_threaded(&config(Some(plan(g)), Some(RetryPolicy::with_attempts(3))))
            .expect("chaos run");
        for (i, outcome) in exec.member_outcomes.iter().enumerate() {
            if outcome.is_failed() {
                continue;
            }
            let ana = ComponentRef::analysis(i, 1);
            assert_eq!(
                &exec.cv_series[&ana], &baseline.cv_series[&ana],
                "member {i} survived but its CV series diverged"
            );
        }
    });
}

/// Long-running chaos soak: many random plans, run with
/// `cargo test --test chaos_properties -- --ignored`.
#[test]
#[ignore = "soak test: minutes of repeated chaos runs, exercised by the nightly CI step"]
fn soak_many_seeded_plans_stay_contained() {
    for seed in 0..20u64 {
        let plan = FaultPlan::new(seed)
            .with_rule(FaultRule::fail(FaultOp::Store).with_probability(0.2).first_attempts(2))
            .with_kill(MemberKill {
                member: (seed % 2) as usize,
                step: seed % STEPS,
                panic: seed % 3 == 0,
            });
        let exec = run_threaded(&config(Some(plan), Some(RetryPolicy::with_attempts(3))))
            .unwrap_or_else(|e| panic!("seed {seed}: chaos run errored: {e}"));
        assert_eq!(exec.member_outcomes.len(), 2, "seed {seed}");
        assert!(
            exec.member_outcomes.iter().any(|o| !o.is_failed()),
            "seed {seed}: the unnamed member must survive"
        );
    }
}
