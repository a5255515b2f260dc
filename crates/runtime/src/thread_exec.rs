//! Threaded execution: the runtime actually runs the kernels.
//!
//! Each member's simulation is a real Lennard-Jones MD engine producing
//! frames every stride; each analysis is the real bipartite-eigenvalue
//! kernel. Components run on OS threads and couple through the in-memory
//! DTL with the paper's synchronous protocol. Stage boundaries are
//! measured with wall-clock time and recorded in the same trace format
//! as the simulated mode.
//!
//! Members couple through *disjoint* variables, and the staging area is
//! sharded per variable: each member's writer/reader threads only ever
//! take their own variable's lock, so members never serialize on the
//! DTL and the measured idle stages reflect the coupling protocol, not
//! lock contention.
//!
//! # Supervision
//!
//! Every member runs under a supervisor: member 0's on the caller's
//! thread, each other member's on a thread of its own. The supervisor's
//! thread runs the member's simulation and one thread per analysis runs
//! that analysis, so a single-member run starts K threads. Each
//! component records its stage intervals into its own log, gathered
//! when the attempt joins. A component that fails or panics does not
//! tear down the run: the component hard-closes the member's variable
//! (unblocking its peer with [`DtlError::VariableClosed`]), the
//! supervisor records the failure step and root cause, and surviving
//! members stream to completion untouched — their variables are
//! disjoint, so a dead member cannot block them. With a
//! [`RestartPolicy`], the supervisor reopens the variable
//! ([`SyncStaging::reset_variable`]) and reruns the member from step 0
//! with the same seed, bounded by `max_restarts`. Only a
//! successful attempt's trace is merged into the run's trace; failed
//! attempts leave no intervals behind. Fault plans
//! ([`dtl::fault::FaultPlan`]) drive deterministic chaos: the staging
//! area applies their store/load faults itself
//! ([`SyncStaging::with_faults`]), and the simulation worker their
//! member kills at a chosen step.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtl::fault::{FaultPlan, FaultStats};
use dtl::protocol::ReaderId;
use dtl::staging::{RetryPolicy, StagingStats, SyncStaging};
use dtl::{ChunkCodec, DtlError, DtlReader, VariableId, VariableSpec};
use ensemble_core::{ComponentRef, EnsembleSpec, MemberSpec, StageKind};
use kernels::analysis::{
    ContactCount, EigenAnalysis, FrameKernel, MsdKernel, RadiusOfGyration, RmsdKernel,
};
use kernels::md::{MdConfig, MdSimulation};
use metrics::{ExecutionTrace, StageInterval};

use crate::error::{RuntimeError, RuntimeResult};
use crate::frame_codec::FrameCodec;
use crate::stage_log::{self, StageLog};

/// Which in situ analysis kernel the threaded runtime couples to each
/// simulation (paper §2.2: the chunk contract is kernel-agnostic).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelChoice {
    /// The paper's bipartite-eigenvalue collective variable.
    Eigen {
        /// Bipartite group size.
        group: usize,
        /// Gaussian contact width.
        sigma: f64,
    },
    /// RMSD against the first frame.
    Rmsd,
    /// Radius of gyration.
    RadiusOfGyration,
    /// Contact count between interleaved groups.
    ContactCount {
        /// Group size.
        group: usize,
        /// Contact cutoff distance.
        cutoff: f64,
    },
    /// Mean-squared displacement (stateful, unwrapped).
    Msd,
}

impl KernelChoice {
    /// Instantiates the kernel for a system of `atoms` atoms.
    pub fn build(&self, atoms: usize) -> Box<dyn FrameKernel> {
        match *self {
            KernelChoice::Eigen { group, sigma } => {
                Box::new(EigenAnalysis::interleaved(atoms, group, sigma))
            }
            KernelChoice::Rmsd => Box::new(RmsdKernel::from_first_frame()),
            KernelChoice::RadiusOfGyration => Box::new(RadiusOfGyration),
            KernelChoice::ContactCount { group, cutoff } => {
                Box::new(ContactCount::interleaved(atoms, group, cutoff))
            }
            KernelChoice::Msd => Box::new(MsdKernel::new()),
        }
    }
}

/// Bounded member restarts: a failed member is rerun from step 0 (same
/// seed) at most `max_restarts` times before it is reported failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restart attempts allowed per member (0 = fail immediately).
    pub max_restarts: u32,
}

/// How one member's supervised execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberOutcome {
    /// The member streamed every step on its first attempt.
    Completed,
    /// The member failed and was not (successfully) restarted.
    Failed {
        /// Step the failing component had reached.
        step: u64,
        /// Root cause (the first non-secondary worker failure).
        cause: String,
    },
    /// The member completed after `attempts` restart(s).
    Restarted {
        /// Restarts it took to complete.
        attempts: u32,
    },
}

impl MemberOutcome {
    /// True when the member did not complete.
    pub fn is_failed(&self) -> bool {
        matches!(self, MemberOutcome::Failed { .. })
    }
}

/// Configuration of a threaded (real-kernel) run.
#[derive(Debug, Clone)]
pub struct ThreadRunConfig {
    /// Ensemble structure (placements are honoured for data homing;
    /// cores are not pinned — threads share the host).
    pub spec: EnsembleSpec,
    /// MD settings for every simulation (the seed is offset per member
    /// so trajectories differ).
    pub md: MdConfig,
    /// Bipartite group size for the eigen analysis.
    pub analysis_group_size: usize,
    /// Gaussian contact width of the analysis.
    pub analysis_sigma: f64,
    /// In situ steps (frames) to execute.
    pub n_steps: u64,
    /// Chunks in flight per member variable (1 = paper semantics).
    pub staging_capacity: u64,
    /// Per-operation timeout.
    pub timeout: Duration,
    /// Analysis kernel; `None` uses the paper's eigenvalue kernel with
    /// `analysis_group_size` / `analysis_sigma`.
    pub kernel: Option<KernelChoice>,
    /// Deterministic fault plan (store/load faults + member kills);
    /// `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy for transient staging faults; `None` surfaces the
    /// first store error to the worker.
    pub retry: Option<RetryPolicy>,
    /// Bounded member restarts; `None` means a failed member stays
    /// failed.
    pub restart: Option<RestartPolicy>,
}

impl Default for ThreadRunConfig {
    fn default() -> Self {
        ThreadRunConfig {
            spec: ensemble_core::ConfigId::Cc.build(),
            md: MdConfig::default(),
            analysis_group_size: 64,
            analysis_sigma: 1.2,
            n_steps: 4,
            staging_capacity: 1,
            timeout: Duration::from_secs(120),
            kernel: None,
            fault_plan: None,
            retry: None,
            restart: None,
        }
    }
}

/// What a threaded run produces.
#[derive(Debug)]
pub struct ThreadExecution {
    /// Stage trace in wall-clock seconds from run start (successful
    /// attempts only).
    pub trace: ExecutionTrace,
    /// Collective-variable series per analysis component (absent for
    /// failed members).
    pub cv_series: HashMap<ComponentRef, Vec<f64>>,
    /// DTL operation counters (including retry/giveup counts).
    pub staging_stats: StagingStats,
    /// Per-member outcome, in member order.
    pub member_outcomes: Vec<MemberOutcome>,
    /// Faults the run's plan actually injected.
    pub fault_stats: FaultStats,
}

impl ThreadExecution {
    /// Members that did not complete.
    pub fn failed_members(&self) -> Vec<usize> {
        self.member_outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_failed())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs the ensemble with real kernels on real threads, one supervisor
/// per member. Member failures are contained (see the module docs);
/// `Err` is reserved for configuration-level problems.
pub fn run_threaded(cfg: &ThreadRunConfig) -> RuntimeResult<ThreadExecution> {
    cfg.spec.validate(None)?;
    if cfg.n_steps == 0 {
        return Err(RuntimeError::NoSamples);
    }
    let plan = cfg.fault_plan.clone().unwrap_or_default();
    let mut area = SyncStaging::with_capacity(cfg.staging_capacity).with_faults(plan.clone());
    if let Some(retry) = &cfg.retry {
        area = area.with_retry(retry.clone());
    }
    let staging = Arc::new(area);
    let epoch = Instant::now();

    // Register one variable per member up front (single registration
    // point avoids writer/reader races).
    let mut variables = Vec::with_capacity(cfg.spec.members.len());
    for (i, member) in cfg.spec.members.iter().enumerate() {
        let home_node = *member.simulation.nodes.iter().next().ok_or_else(|| {
            RuntimeError::Model(ensemble_core::ModelError::EmptyNodeSet {
                member: i,
                component: "simulation".into(),
            })
        })?;
        let var = staging.register(VariableSpec {
            name: format!("trajectory/member{i}"),
            expected_readers: member.k() as u32,
            home_node,
        })?;
        variables.push(var);
    }

    let max_restarts = cfg.restart.map_or(0, |r| r.max_restarts);
    let args: Vec<SuperviseArgs<'_>> = cfg
        .spec
        .members
        .iter()
        .enumerate()
        .map(|(i, member)| SuperviseArgs {
            cfg,
            member_idx: i,
            member,
            var: variables[i],
            staging: &staging,
            plan: &plan,
            epoch,
            max_restarts,
        })
        .collect();
    // Member 0 is supervised on this thread, every other member on one
    // of its own, so a single-member run spawns only its analyses.
    let (first, rest) = args.split_first().expect("validate rejects an empty ensemble");
    let results = std::thread::scope(|scope| {
        let others: Vec<_> =
            rest.iter().map(|a| scope.spawn(move || supervise_member(a))).collect();
        let first = catch_unwind(AssertUnwindSafe(|| supervise_member(first)));
        // Join every supervisor before reporting on any of them.
        let joined: Vec<_> =
            std::iter::once(first).chain(others.into_iter().map(|h| h.join())).collect();
        joined
            .into_iter()
            .map(|r| r.map_err(|_| RuntimeError::WorkerPanicked { component: "scope".into() }))
            .collect::<RuntimeResult<Vec<_>>>()
    })?;

    let mut cv_series: HashMap<ComponentRef, Vec<f64>> = HashMap::new();
    let mut member_outcomes = Vec::with_capacity(results.len());
    let mut intervals = Vec::new();
    for run in results {
        for (cref, cvs) in run.series {
            if !cref.is_simulation() {
                cv_series.insert(cref, cvs);
            }
        }
        intervals.extend(run.intervals);
        member_outcomes.push(run.outcome);
    }
    staging.close();
    let fault_stats = staging.fault_stats();
    Ok(ThreadExecution {
        trace: ExecutionTrace::new(intervals),
        cv_series,
        staging_stats: staging.stats(),
        member_outcomes,
        fault_stats,
    })
}

/// Everything one member's supervisor needs.
struct SuperviseArgs<'a> {
    cfg: &'a ThreadRunConfig,
    member_idx: usize,
    member: &'a MemberSpec,
    var: VariableId,
    staging: &'a Arc<SyncStaging>,
    plan: &'a FaultPlan,
    epoch: Instant,
    max_restarts: u32,
}

/// Each component's CV series (empty for the simulation).
type Series = Vec<(ComponentRef, Vec<f64>)>;

/// What one member's supervision produced.
struct MemberRun {
    outcome: MemberOutcome,
    /// None for a failed member.
    series: Series,
    /// The successful attempt's stage intervals, component by component.
    intervals: Vec<StageInterval>,
}

/// What one component worker hands back: its CV series (empty for the
/// simulation) and its stage intervals.
type Harvest = (Vec<f64>, Vec<StageInterval>);

/// A component's failure, attributed to the step it had reached.
struct MemberFailure {
    step: u64,
    cause: String,
    /// True when the failure is a `VariableClosed` — i.e. collateral of
    /// the peer's failure, not the root cause.
    secondary: bool,
}

/// Runs attempts of one member until success or the restart budget is
/// spent. Only a successful attempt's intervals reach the run's trace.
fn supervise_member(args: &SuperviseArgs<'_>) -> MemberRun {
    let mut attempt: u32 = 0;
    loop {
        match run_member_attempt(args, attempt) {
            Ok((series, intervals)) => {
                let outcome = if attempt == 0 {
                    MemberOutcome::Completed
                } else {
                    MemberOutcome::Restarted { attempts: attempt }
                };
                return MemberRun { outcome, series, intervals };
            }
            Err(failure) => {
                // The failed attempt's intervals are dropped with its
                // logs; restart from a fresh protocol if allowed.
                if attempt < args.max_restarts && args.staging.reset_variable(args.var).is_ok() {
                    attempt += 1;
                    continue;
                }
                return MemberRun {
                    outcome: MemberOutcome::Failed { step: failure.step, cause: failure.cause },
                    series: Vec::new(),
                    intervals: Vec::new(),
                };
            }
        }
    }
}

/// One attempt: the simulation on this (the supervisor's) thread and
/// each of the K analyses on a thread of its own. Every component is
/// panic-contained; any failing component hard-closes the member's
/// variable so its peers unblock promptly with `VariableClosed`. The
/// returned failure is the attempt's root cause (first non-secondary
/// failure, simulation first).
fn run_member_attempt(
    args: &SuperviseArgs<'_>,
    attempt: u32,
) -> Result<(Series, Vec<StageInterval>), MemberFailure> {
    let k = args.member.k();
    // The step each component has reached, read back on failure.
    let reached: Vec<AtomicU64> = (0..=k).map(|_| AtomicU64::new(0)).collect();
    let components: Vec<ComponentRef> = std::iter::once(ComponentRef::simulation(args.member_idx))
        .chain((1..=k).map(|j| ComponentRef::analysis(args.member_idx, j)))
        .collect();
    let verdicts = std::thread::scope(|scope| {
        let analyses: Vec<_> = (1..=k)
            .map(|j| {
                let reached = &reached[j];
                scope.spawn(move || contained(args, || analyze(args, j, reached)))
            })
            .collect();
        let reached_sim = &reached[0];
        let mut verdicts = vec![contained(args, || simulate(args, attempt, reached_sim))];
        for handle in analyses {
            // A worker's body is panic-contained, so its thread cannot
            // die; the arm only keeps the verdict list whole.
            verdicts.push(handle.join().unwrap_or_else(|_| {
                Err(WorkerFailure { cause: "worker thread died".into(), secondary: false })
            }));
        }
        verdicts
    });

    let mut series = Vec::with_capacity(components.len());
    let mut intervals = Vec::new();
    let mut failures = Vec::new();
    for ((cref, verdict), reached) in components.into_iter().zip(verdicts).zip(&reached) {
        match verdict {
            Ok((cvs, log)) => {
                series.push((cref, cvs));
                intervals.extend(log);
            }
            Err(wf) => failures.push(MemberFailure {
                step: reached.load(Ordering::Relaxed),
                cause: format!("{cref}: {}", wf.cause),
                secondary: wf.secondary,
            }),
        }
    }
    if failures.is_empty() {
        Ok((series, intervals))
    } else {
        let root = failures.iter().position(|f| !f.secondary).unwrap_or(0);
        Err(failures.swap_remove(root))
    }
}

/// The simulation of one attempt: per step, the MD stride (`S`), the
/// wait for the slot (`Iˢ`) and the write (`W`).
fn simulate(args: &SuperviseArgs<'_>, attempt: u32, reached: &AtomicU64) -> RuntimeResult<Harvest> {
    let SuperviseArgs { cfg, member_idx, member, var, staging, plan, epoch, .. } = *args;
    let sim_ref = ComponentRef::simulation(member_idx);
    let mut log = StageLog::new(sim_ref, cfg.n_steps);
    let mut md_cfg = cfg.md.clone();
    md_cfg.seed = cfg.md.seed.wrapping_add(member_idx as u64);
    let mut sim = MdSimulation::new(&md_cfg);
    let home_node = *member.simulation.nodes.iter().next().expect("validated");
    for step in 0..cfg.n_steps {
        reached.store(step, Ordering::Relaxed);
        // Kills fire on the first attempt only, so a restarted member can
        // complete.
        if attempt == 0 {
            if let Some(kill) = plan.kill_for(member_idx, step) {
                if kill.panic {
                    panic!("injected panic (member {member_idx}, step {step})");
                }
                return Err(RuntimeError::InjectedKill { member: member_idx, step });
            }
        }
        let t0 = epoch.elapsed().as_secs_f64();
        let frame = sim.advance_stride();
        let t1 = epoch.elapsed().as_secs_f64();
        log.record(StageKind::Simulate, step, t0, t1);
        staging.wait_writable(var, step, cfg.timeout)?;
        let t2 = epoch.elapsed().as_secs_f64();
        if t2 > t1 {
            log.record(StageKind::SimIdle, step, t1, t2);
        }
        let chunk =
            dtl::Chunk::new(var, step, home_node, FrameCodec.encoding(), FrameCodec.encode(&frame));
        staging.put_timeout(chunk, cfg.timeout)?;
        let t3 = epoch.elapsed().as_secs_f64();
        log.record(StageKind::Write, step, t2, t3);
    }
    Ok((Vec::new(), log.into_intervals()))
}

/// Analysis `j` of one attempt: per step, the wait for the frame (`Iᴬ`),
/// the read (`R`) and the kernel (`A`).
fn analyze(args: &SuperviseArgs<'_>, j: usize, reached: &AtomicU64) -> RuntimeResult<Harvest> {
    let SuperviseArgs { cfg, member_idx, var, staging, epoch, .. } = *args;
    let ana_ref = ComponentRef::analysis(member_idx, j);
    let mut log = StageLog::new(ana_ref, cfg.n_steps);
    let choice = cfg.kernel.clone().unwrap_or(KernelChoice::Eigen {
        group: cfg.analysis_group_size,
        sigma: cfg.analysis_sigma,
    });
    let reader_id = ReaderId(j as u32 - 1);
    let mut reader = DtlReader::attach(Arc::clone(staging), FrameCodec, var, reader_id);
    reader.set_timeout(cfg.timeout);
    let mut analysis: Option<Box<dyn FrameKernel>> = None;
    let mut cvs = Vec::with_capacity(stage_log::preallocated(cfg.n_steps));
    for step in 0..cfg.n_steps {
        reached.store(step, Ordering::Relaxed);
        let t0 = epoch.elapsed().as_secs_f64();
        staging.wait_readable(var, step, reader_id, cfg.timeout)?;
        let t1 = epoch.elapsed().as_secs_f64();
        if t1 > t0 {
            log.record(StageKind::AnaIdle, step, t0, t1);
        }
        let frame = reader.read()?;
        let t2 = epoch.elapsed().as_secs_f64();
        log.record(StageKind::Read, step, t1, t2);
        let kernel = analysis.get_or_insert_with(|| choice.build(frame.num_atoms()));
        let cv = kernel.compute(&frame);
        let t3 = epoch.elapsed().as_secs_f64();
        log.record(StageKind::Analyze, step, t2, t3);
        cvs.push(cv);
    }
    Ok((cvs, log.into_intervals()))
}

/// One worker's failure before step/component attribution.
struct WorkerFailure {
    cause: String,
    secondary: bool,
}

/// Runs a component's body panic-contained and turns its result into
/// the component's verdict, hard-closing the member's variable on any
/// failure so peers blocked on it unblock promptly.
fn contained<T>(
    args: &SuperviseArgs<'_>,
    body: impl FnOnce() -> RuntimeResult<T>,
) -> Result<T, WorkerFailure> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => {
            let secondary = matches!(&e, RuntimeError::Dtl(DtlError::VariableClosed { .. }));
            let _ = args.staging.close_variable(args.var);
            Err(WorkerFailure { cause: e.to_string(), secondary })
        }
        Err(panic) => {
            let _ = args.staging.close_variable(args.var);
            Err(WorkerFailure {
                cause: format!("panic: {}", panic_message(panic.as_ref())),
                secondary: false,
            })
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtl::fault::{FaultOp, FaultRule, MemberKill};
    use ensemble_core::ConfigId;

    fn quick(spec: ensemble_core::EnsembleSpec, steps: u64) -> ThreadRunConfig {
        ThreadRunConfig {
            spec,
            md: MdConfig { atoms_per_side: 5, stride: 10, ..Default::default() },
            analysis_group_size: 32,
            analysis_sigma: 1.2,
            n_steps: steps,
            staging_capacity: 1,
            timeout: Duration::from_secs(60),
            kernel: None,
            fault_plan: None,
            retry: None,
            restart: None,
        }
    }

    #[test]
    fn single_member_end_to_end() {
        let exec = run_threaded(&quick(ConfigId::Cc.build(), 3)).unwrap();
        let sim = ComponentRef::simulation(0);
        let ana = ComponentRef::analysis(0, 1);
        assert_eq!(exec.trace.stage_series(sim, StageKind::Simulate).len(), 3);
        assert_eq!(exec.trace.stage_series(ana, StageKind::Analyze).len(), 3);
        let cvs = &exec.cv_series[&ana];
        assert_eq!(cvs.len(), 3);
        assert!(cvs.iter().all(|v| *v > 0.0 && v.is_finite()));
        assert_eq!(exec.staging_stats.puts, 3);
        assert_eq!(exec.staging_stats.gets, 3);
        assert_eq!(exec.member_outcomes, vec![MemberOutcome::Completed]);
        assert_eq!(exec.fault_stats.total_injected(), 0);
    }

    #[test]
    fn two_members_run_concurrently() {
        let exec = run_threaded(&quick(ConfigId::C1_5.build(), 2)).unwrap();
        assert_eq!(exec.trace.member_indexes(), vec![0, 1]);
        assert_eq!(exec.staging_stats.puts, 4);
        // Trajectories differ across members (different seeds) ⇒ CVs
        // differ.
        let a = &exec.cv_series[&ComponentRef::analysis(0, 1)];
        let b = &exec.cv_series[&ComponentRef::analysis(1, 1)];
        assert_ne!(a, b);
    }

    #[test]
    fn two_analyses_share_frames() {
        // A member with two analyses: both read every frame; CVs match
        // because the kernels are identical.
        let spec = ensemble_core::EnsembleSpec::new(vec![ensemble_core::MemberSpec::new(
            ensemble_core::ComponentSpec::simulation(16, 0),
            vec![
                ensemble_core::ComponentSpec::analysis(8, 0),
                ensemble_core::ComponentSpec::analysis(8, 0),
            ],
        )]);
        let exec = run_threaded(&quick(spec, 2)).unwrap();
        let a = &exec.cv_series[&ComponentRef::analysis(0, 1)];
        let b = &exec.cv_series[&ComponentRef::analysis(0, 2)];
        assert_eq!(a, b, "identical kernels over identical frames");
        assert_eq!(exec.staging_stats.gets, 4, "2 steps × 2 readers");
    }

    #[test]
    fn alternative_kernels_run_through_the_runtime() {
        // RMSD against the first frame: the first CV is exactly 0 and
        // later ones grow as the system diffuses.
        let mut cfg = quick(ConfigId::Cc.build(), 4);
        cfg.kernel = Some(KernelChoice::Rmsd);
        let exec = run_threaded(&cfg).unwrap();
        let cvs = &exec.cv_series[&ComponentRef::analysis(0, 1)];
        assert_eq!(cvs[0], 0.0, "first frame is its own reference");
        assert!(cvs[1..].iter().all(|v| *v > 0.0));

        // The stateful MSD kernel also works (monotone from zero for a
        // diffusing fluid over a short horizon).
        let mut cfg = quick(ConfigId::Cc.build(), 4);
        cfg.kernel = Some(KernelChoice::Msd);
        let exec = run_threaded(&cfg).unwrap();
        let cvs = &exec.cv_series[&ComponentRef::analysis(0, 1)];
        assert_eq!(cvs[0], 0.0);
        assert!(cvs.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn zero_steps_rejected() {
        let err = run_threaded(&quick(ConfigId::Cc.build(), 0)).unwrap_err();
        assert!(matches!(err, RuntimeError::NoSamples));
    }

    #[test]
    fn eight_members_complete_with_balanced_stats() {
        // An 8-member ensemble exercises eight independent staging
        // shards at once (one writer + one reader each, 16 threads on
        // the DTL). All members must stream to completion with exact
        // per-member accounting — a member blocked on another member's
        // lock would show up as a timeout here.
        let spec = ensemble_core::EnsembleSpec::new(
            (0..8)
                .map(|node| {
                    ensemble_core::MemberSpec::new(
                        ensemble_core::ComponentSpec::simulation(16, node),
                        vec![ensemble_core::ComponentSpec::analysis(8, node)],
                    )
                })
                .collect(),
        );
        let exec = run_threaded(&quick(spec, 3)).unwrap();
        assert_eq!(exec.trace.member_indexes(), (0..8).collect::<Vec<_>>());
        assert_eq!(exec.staging_stats.puts, 8 * 3);
        assert_eq!(exec.staging_stats.gets, 8 * 3);
        for member in 0..8 {
            let cvs = &exec.cv_series[&ComponentRef::analysis(member, 1)];
            assert_eq!(cvs.len(), 3, "member {member} must consume every frame");
        }
    }

    #[test]
    fn trace_respects_protocol_order() {
        let exec = run_threaded(&quick(ConfigId::Cf.build(), 3)).unwrap();
        let sim = ComponentRef::simulation(0);
        let ana = ComponentRef::analysis(0, 1);
        let writes: Vec<_> =
            exec.trace.for_component(sim).filter(|iv| iv.kind == StageKind::Write).collect();
        let reads: Vec<_> =
            exec.trace.for_component(ana).filter(|iv| iv.kind == StageKind::Read).collect();
        for (w, r) in writes.iter().zip(&reads) {
            assert!(r.end >= w.start, "read cannot finish before its write started");
        }
    }

    #[test]
    fn killed_member_fails_while_survivors_complete() {
        let baseline = run_threaded(&quick(ConfigId::C1_5.build(), 3)).unwrap();

        let mut cfg = quick(ConfigId::C1_5.build(), 3);
        cfg.fault_plan =
            Some(FaultPlan::new(42).with_kill(MemberKill { member: 1, step: 1, panic: false }));
        let exec = run_threaded(&cfg).unwrap();

        assert_eq!(exec.member_outcomes[0], MemberOutcome::Completed);
        match &exec.member_outcomes[1] {
            MemberOutcome::Failed { step, cause } => {
                assert_eq!(*step, 1);
                assert!(cause.contains("injected kill"), "{cause}");
            }
            other => panic!("member 1 must fail, got {other:?}"),
        }
        assert_eq!(exec.failed_members(), vec![1]);
        // The survivor's CV series is bit-identical to the fault-free
        // run (members couple through disjoint variables).
        let survivor = &exec.cv_series[&ComponentRef::analysis(0, 1)];
        let reference = &baseline.cv_series[&ComponentRef::analysis(0, 1)];
        assert_eq!(survivor.len(), 3);
        assert!(
            survivor.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits()),
            "survivor CVs must be unaffected by the dead member"
        );
        // The dead member's analysis produced nothing.
        assert!(!exec.cv_series.contains_key(&ComponentRef::analysis(1, 1)));
    }

    #[test]
    fn panicking_member_is_contained() {
        let mut cfg = quick(ConfigId::C1_5.build(), 3);
        cfg.fault_plan =
            Some(FaultPlan::new(7).with_kill(MemberKill { member: 0, step: 0, panic: true }));
        let exec = run_threaded(&cfg).unwrap();
        match &exec.member_outcomes[0] {
            MemberOutcome::Failed { step, cause } => {
                assert_eq!(*step, 0);
                assert!(cause.contains("panic"), "{cause}");
            }
            other => panic!("member 0 must fail, got {other:?}"),
        }
        assert_eq!(exec.member_outcomes[1], MemberOutcome::Completed);
        assert_eq!(exec.cv_series[&ComponentRef::analysis(1, 1)].len(), 3);
    }

    #[test]
    fn a_panicking_single_member_run_is_contained_on_the_callers_thread() {
        // Member 0's supervisor and its simulation run on this thread:
        // the injected panic must come back as an outcome, not unwind
        // into the caller.
        let mut cfg = quick(ConfigId::Cc.build(), 3);
        cfg.fault_plan =
            Some(FaultPlan::new(11).with_kill(MemberKill { member: 0, step: 1, panic: true }));
        let exec = run_threaded(&cfg).unwrap();
        match &exec.member_outcomes[..] {
            [MemberOutcome::Failed { step: 1, cause }] => {
                assert!(cause.contains("panic") && cause.starts_with("Sim1"), "{cause}");
            }
            other => panic!("the only member must fail at step 1, got {other:?}"),
        }
        assert!(exec.cv_series.is_empty());
        assert!(exec.trace.is_empty(), "a failed attempt leaves no intervals");
    }

    #[test]
    fn a_huge_step_count_reserves_bounded_buffers() {
        // Reserving a CV slot per step of a 10¹²-step run asked for 8 TB
        // and aborted the process; the kill ends the run at step 2.
        let mut cfg = quick(ConfigId::Cc.build(), 1_000_000_000_000);
        cfg.fault_plan =
            Some(FaultPlan::new(5).with_kill(MemberKill { member: 0, step: 2, panic: false }));
        let exec = run_threaded(&cfg).unwrap();
        assert!(
            matches!(exec.member_outcomes[..], [MemberOutcome::Failed { step: 2, .. }]),
            "{:?}",
            exec.member_outcomes
        );
    }

    #[test]
    fn restart_policy_reruns_a_killed_member() {
        let baseline = run_threaded(&quick(ConfigId::Cc.build(), 3)).unwrap();

        let mut cfg = quick(ConfigId::Cc.build(), 3);
        cfg.fault_plan =
            Some(FaultPlan::new(3).with_kill(MemberKill { member: 0, step: 1, panic: false }));
        cfg.restart = Some(RestartPolicy { max_restarts: 1 });
        let exec = run_threaded(&cfg).unwrap();

        assert_eq!(exec.member_outcomes[0], MemberOutcome::Restarted { attempts: 1 });
        // The restarted member reruns from step 0 with the same seed:
        // its CV series matches the fault-free run bit-for-bit, and the
        // failed attempt's partial trace was discarded.
        let cvs = &exec.cv_series[&ComponentRef::analysis(0, 1)];
        let reference = &baseline.cv_series[&ComponentRef::analysis(0, 1)];
        assert!(cvs.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits()));
        let sim = ComponentRef::simulation(0);
        assert_eq!(exec.trace.stage_series(sim, StageKind::Simulate).len(), 3);
    }

    #[test]
    fn retry_policy_rides_out_transient_store_faults() {
        let mut cfg = quick(ConfigId::Cc.build(), 3);
        cfg.fault_plan =
            Some(FaultPlan::new(9).with_rule(FaultRule::fail(FaultOp::Store).first_attempts(1)));
        cfg.retry = Some(RetryPolicy::with_attempts(3));
        let exec = run_threaded(&cfg).unwrap();
        assert_eq!(exec.member_outcomes, vec![MemberOutcome::Completed]);
        assert!(exec.staging_stats.retries >= 1, "{:?}", exec.staging_stats);
        assert_eq!(exec.staging_stats.giveups, 0);
        assert!(exec.fault_stats.injected_failures >= 1);
        assert_eq!(exec.cv_series[&ComponentRef::analysis(0, 1)].len(), 3);
    }

    #[test]
    fn unretried_store_fault_fails_only_that_member() {
        // No retry policy: the first store fault kills member 0's
        // writer; member 1 is untouched.
        let mut cfg = quick(ConfigId::C1_5.build(), 3);
        cfg.fault_plan = Some(
            FaultPlan::new(1)
                .with_rule(FaultRule::fail(FaultOp::Store).on_variable(0).first_attempts(1)),
        );
        let exec = run_threaded(&cfg).unwrap();
        match &exec.member_outcomes[0] {
            MemberOutcome::Failed { cause, .. } => {
                assert!(cause.contains("injected store failure"), "{cause}");
            }
            other => panic!("member 0 must fail, got {other:?}"),
        }
        assert_eq!(exec.member_outcomes[1], MemberOutcome::Completed);
        assert_eq!(exec.fault_stats.injected_failures, 1);
    }
}
