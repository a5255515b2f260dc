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
//! Every member runs under a supervisor thread. A component worker that
//! fails or panics no longer tears down the run: the worker hard-closes
//! the member's variable (unblocking its peer with
//! [`DtlError::VariableClosed`]), the supervisor records the failure
//! step and root cause, and surviving members stream to completion
//! untouched — their variables are disjoint, so a dead member cannot
//! block them. With a [`RestartPolicy`], the supervisor reopens the
//! variable ([`SyncStaging::reset_variable`]) and reruns the member
//! from step 0 with the same seed, bounded by `max_restarts`. Only a
//! successful attempt's trace is merged into the run's trace; failed
//! attempts leave no intervals behind. Fault plans
//! ([`dtl::fault::FaultPlan`]) drive deterministic chaos: store/load
//! faults through the staging tier's [`FaultInjector`], member kills at
//! a chosen step through the simulation worker.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtl::fault::{FaultInjector, FaultPlan, FaultStats};
use dtl::protocol::ReaderId;
use dtl::staging::{MemoryStore, RetryPolicy, StagingStats, SyncStaging};
use dtl::{DtlError, DtlReader, VariableId, VariableSpec};
use ensemble_core::{ComponentRef, EnsembleSpec, MemberSpec, StageKind};
use kernels::analysis::{
    ContactCount, EigenAnalysis, FrameKernel, MsdKernel, RadiusOfGyration, RmsdKernel,
};
use kernels::md::{MdConfig, MdSimulation};
use metrics::{ExecutionTrace, TraceRecorder};

use crate::error::{RuntimeError, RuntimeResult};
use crate::frame_codec::FrameCodec;

/// The staging type of threaded runs: in-memory staging behind a fault
/// injector (a passthrough when the run has no fault plan).
pub type ChaosStaging = SyncStaging<FaultInjector<MemoryStore>>;

/// Which in situ analysis kernel the threaded runtimes couple to each
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
    let mut area = SyncStaging::with_capacity(
        FaultInjector::new(MemoryStore::new(), plan.clone()),
        cfg.staging_capacity,
    );
    if let Some(retry) = &cfg.retry {
        area = area.with_retry(retry.clone());
    }
    let staging = Arc::new(area);
    let recorder = TraceRecorder::new();
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
    let results = std::thread::scope(|scope| {
        let mut supervisors = Vec::new();
        for (i, member) in cfg.spec.members.iter().enumerate() {
            let staging = Arc::clone(&staging);
            let recorder = recorder.clone();
            let plan = &plan;
            let var = variables[i];
            supervisors.push(scope.spawn(move || {
                supervise_member(SuperviseArgs {
                    cfg,
                    member_idx: i,
                    member,
                    var,
                    staging,
                    plan,
                    recorder,
                    epoch,
                    max_restarts,
                })
            }));
        }
        // Join every supervisor before reporting on any of them.
        let joined: Vec<_> = supervisors.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .map(|r| r.map_err(|_| RuntimeError::WorkerPanicked { component: "scope".into() }))
            .collect::<RuntimeResult<Vec<_>>>()
    })?;

    let mut cv_series: HashMap<ComponentRef, Vec<f64>> = HashMap::new();
    let mut member_outcomes = Vec::with_capacity(results.len());
    for (outcome, pairs) in results {
        for (cref, cvs) in pairs {
            if !cref.is_simulation() {
                cv_series.insert(cref, cvs);
            }
        }
        member_outcomes.push(outcome);
    }
    staging.close();
    let fault_stats = staging.store().stats();
    Ok(ThreadExecution {
        trace: recorder.into_trace(),
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
    staging: Arc<ChaosStaging>,
    plan: &'a FaultPlan,
    recorder: TraceRecorder,
    epoch: Instant,
    max_restarts: u32,
}

/// One worker's failure before step/component attribution.
struct WorkerFailure {
    cause: String,
    /// True when the failure is a `VariableClosed` — i.e. collateral of
    /// the peer's failure, not the root cause.
    secondary: bool,
}

/// A member attempt's failure, attributed to a step and component.
struct MemberFailure {
    step: u64,
    cause: String,
    secondary: bool,
}

/// Runs attempts of one member until success or the restart budget is
/// spent. Only a successful attempt's trace reaches the run's recorder.
fn supervise_member(args: SuperviseArgs<'_>) -> (MemberOutcome, Vec<(ComponentRef, Vec<f64>)>) {
    let mut attempt: u32 = 0;
    loop {
        let attempt_recorder = TraceRecorder::new();
        match run_member_attempt(&args, &attempt_recorder, attempt) {
            Ok(pairs) => {
                args.recorder.absorb(attempt_recorder.into_trace());
                let outcome = if attempt == 0 {
                    MemberOutcome::Completed
                } else {
                    MemberOutcome::Restarted { attempts: attempt }
                };
                return (outcome, pairs);
            }
            Err(failure) => {
                // The failed attempt's intervals are discarded with its
                // recorder; restart from a fresh protocol if allowed.
                if attempt < args.max_restarts && args.staging.reset_variable(args.var).is_ok() {
                    attempt += 1;
                    continue;
                }
                return (
                    MemberOutcome::Failed { step: failure.step, cause: failure.cause },
                    Vec::new(),
                );
            }
        }
    }
}

/// One attempt: simulation + K analyses on real threads. Every worker is
/// panic-contained; any failing worker hard-closes the member's variable
/// so its peers unblock promptly with `VariableClosed`. The returned
/// failure is the attempt's root cause (first non-secondary failure).
fn run_member_attempt(
    args: &SuperviseArgs<'_>,
    recorder: &TraceRecorder,
    attempt: u32,
) -> Result<Vec<(ComponentRef, Vec<f64>)>, MemberFailure> {
    let SuperviseArgs { cfg, member_idx, member, var, staging, plan, epoch, .. } = args;
    let (member_idx, var, epoch) = (*member_idx, *var, *epoch);
    let home_node = *member.simulation.nodes.iter().next().expect("validated");
    std::thread::scope(|scope| {
        type WorkerResult = Result<Vec<f64>, WorkerFailure>;
        let mut handles: Vec<(ComponentRef, Arc<AtomicU64>, _)> = Vec::new();

        // --- Simulation worker. ---
        let sim_ref = ComponentRef::simulation(member_idx);
        {
            let staging = Arc::clone(staging);
            let recorder = recorder.clone();
            let mut md_cfg = cfg.md.clone();
            md_cfg.seed = cfg.md.seed.wrapping_add(member_idx as u64);
            let n_steps = cfg.n_steps;
            let timeout = cfg.timeout;
            let plan = (*plan).clone();
            let progress = Arc::new(AtomicU64::new(0));
            let progress_w = Arc::clone(&progress);
            let handle = scope.spawn(move || -> WorkerResult {
                let body = || -> RuntimeResult<Vec<f64>> {
                    let mut sim = MdSimulation::new(&md_cfg);
                    let mut step_writer =
                        ManualWriter { staging: Arc::clone(&staging), var, home_node, timeout };
                    for step in 0..n_steps {
                        progress_w.store(step, Ordering::Relaxed);
                        // Kills fire on the first attempt only, so a
                        // restarted member can complete.
                        if attempt == 0 {
                            if let Some(kill) = plan.kill_for(member_idx, step) {
                                if kill.panic {
                                    panic!("injected panic (member {member_idx}, step {step})");
                                }
                                return Err(RuntimeError::InjectedKill {
                                    member: member_idx,
                                    step,
                                });
                            }
                        }
                        let t0 = epoch.elapsed().as_secs_f64();
                        let frame = sim.advance_stride();
                        let t1 = epoch.elapsed().as_secs_f64();
                        recorder.record(sim_ref, StageKind::Simulate, step, t0, t1);
                        step_writer.wait_slot(step)?;
                        let t2 = epoch.elapsed().as_secs_f64();
                        if t2 > t1 {
                            recorder.record(sim_ref, StageKind::SimIdle, step, t1, t2);
                        }
                        step_writer.write(step, &frame)?;
                        let t3 = epoch.elapsed().as_secs_f64();
                        recorder.record(sim_ref, StageKind::Write, step, t2, t3);
                    }
                    Ok(Vec::new())
                };
                finish_worker(catch_unwind(AssertUnwindSafe(body)), &staging, var)
            });
            handles.push((sim_ref, progress, handle));
        }

        // --- Analysis workers. ---
        for j in 1..=member.k() {
            let ana_ref = ComponentRef::analysis(member_idx, j);
            let staging = Arc::clone(staging);
            let recorder = recorder.clone();
            let n_steps = cfg.n_steps;
            let timeout = cfg.timeout;
            let choice = cfg.kernel.clone().unwrap_or(KernelChoice::Eigen {
                group: cfg.analysis_group_size,
                sigma: cfg.analysis_sigma,
            });
            let progress = Arc::new(AtomicU64::new(0));
            let progress_r = Arc::clone(&progress);
            let handle = scope.spawn(move || -> WorkerResult {
                let body = || -> RuntimeResult<Vec<f64>> {
                    let reader_id = ReaderId(j as u32 - 1);
                    let mut reader =
                        DtlReader::attach(Arc::clone(&staging), FrameCodec, var, reader_id);
                    reader.set_timeout(timeout);
                    let mut analysis: Option<Box<dyn FrameKernel>> = None;
                    let mut cvs = Vec::with_capacity(n_steps as usize);
                    for step in 0..n_steps {
                        progress_r.store(step, Ordering::Relaxed);
                        let t0 = epoch.elapsed().as_secs_f64();
                        staging.wait_readable(var, step, reader_id, timeout)?;
                        let t1 = epoch.elapsed().as_secs_f64();
                        if t1 > t0 {
                            recorder.record(ana_ref, StageKind::AnaIdle, step, t0, t1);
                        }
                        let frame = reader.read()?;
                        let t2 = epoch.elapsed().as_secs_f64();
                        recorder.record(ana_ref, StageKind::Read, step, t1, t2);
                        let kernel =
                            analysis.get_or_insert_with(|| choice.build(frame.num_atoms()));
                        let cv = kernel.compute(&frame);
                        let t3 = epoch.elapsed().as_secs_f64();
                        recorder.record(ana_ref, StageKind::Analyze, step, t2, t3);
                        cvs.push(cv);
                    }
                    Ok(cvs)
                };
                finish_worker(catch_unwind(AssertUnwindSafe(body)), &staging, var)
            });
            handles.push((ana_ref, progress, handle));
        }

        let mut pairs = Vec::new();
        let mut failures: Vec<MemberFailure> = Vec::new();
        for (cref, progress, handle) in handles {
            match handle.join() {
                Ok(Ok(cvs)) => pairs.push((cref, cvs)),
                Ok(Err(wf)) => failures.push(MemberFailure {
                    step: progress.load(Ordering::Relaxed),
                    cause: format!("{cref}: {}", wf.cause),
                    secondary: wf.secondary,
                }),
                // Unreachable in practice: worker bodies are
                // panic-contained above.
                Err(_) => failures.push(MemberFailure {
                    step: progress.load(Ordering::Relaxed),
                    cause: format!("{cref}: worker thread died"),
                    secondary: false,
                }),
            }
        }
        if failures.is_empty() {
            Ok(pairs)
        } else {
            let root = failures.iter().position(|f| !f.secondary).unwrap_or(0);
            Err(failures.swap_remove(root))
        }
    })
}

/// Converts a panic-contained worker body result into the worker's
/// verdict, hard-closing the member's variable on any failure so peers
/// blocked on it unblock promptly.
fn finish_worker<T>(
    result: std::thread::Result<RuntimeResult<T>>,
    staging: &ChaosStaging,
    var: VariableId,
) -> Result<T, WorkerFailure> {
    match result {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => {
            let secondary = matches!(&e, RuntimeError::Dtl(DtlError::VariableClosed { .. }));
            let _ = staging.close_variable(var);
            Err(WorkerFailure { cause: e.to_string(), secondary })
        }
        Err(panic) => {
            let _ = staging.close_variable(var);
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

/// Minimal writer used by the simulation worker: the variable is
/// pre-registered, so it stages chunks directly.
struct ManualWriter {
    staging: Arc<ChaosStaging>,
    var: dtl::VariableId,
    home_node: usize,
    timeout: Duration,
}

impl ManualWriter {
    fn wait_slot(&self, step: u64) -> RuntimeResult<()> {
        self.staging.wait_writable(self.var, step, self.timeout)?;
        Ok(())
    }

    fn write(&mut self, step: u64, frame: &kernels::md::Frame) -> RuntimeResult<()> {
        let chunk =
            dtl::Chunk::new(self.var, step, self.home_node, "md-frame-v1", frame.to_bytes());
        self.staging.put_timeout(chunk, self.timeout)?;
        Ok(())
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
