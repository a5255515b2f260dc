//! Simulated execution: runs a workflow ensemble on the modeled platform
//! with the discrete-event engine.
//!
//! Per node, [`NodeSolver`] splits each component's cores over the
//! sockets, solves the steady-state compute-stage durations of all
//! co-resident components, and slows them down if the node's draw breaks
//! the power cap; [`StagingPrices`] prices the `W`/`R` stages from chunk
//! size and data locality. Both are the only derivation of a stage time
//! in the workspace: the closed-form predictor and the scheduler's delta
//! evaluator call them too. The DES then plays out the synchronous
//! coupling protocol — simulations and analyses as resumable processes
//! rendezvousing through per-member [`StepProtocol`]s — and records the
//! same stage trace the threaded runtime produces, in virtual time.

use std::collections::{BTreeMap, HashMap};

use dtl::protocol::{ReaderId, StepProtocol};
use dtl::transport::StagingCostModel;
use ensemble_core::{AnalysisStageTimes, ComponentRef, EnsembleSpec, MemberStageTimes, StageKind};
use hpc_platform::{
    BindPolicy, CoreAllocation, InterferenceModel, NetworkSpec, NodeSpec, PerfEstimate,
    PlacedWorkload, PowerModel, Workload,
};
use kernels::rng::Xoshiro256;
use metrics::{ExecutionTrace, StageSink, StageSummary};
use sim_des::{Context, Engine, Poll, Process, RunOutcome, Signal, SimDuration};

use crate::error::{RuntimeError, RuntimeResult};
use crate::workload_map::WorkloadMap;

/// How simulations and analyses couple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingMode {
    /// The paper's protocol: the simulation blocks until every analysis
    /// consumed the previous chunk (no overwrite, no loss).
    Synchronous,
    /// In-transit style: the simulation never blocks; frames enter a
    /// bounded queue and the oldest unconsumed frames are dropped when
    /// it overflows (*lost frames*, after Taufer et al. \[26\]).
    Asynchronous {
        /// Frames retained per member variable.
        queue_capacity: usize,
    },
}

/// Configuration of a simulated run.
#[derive(Debug, Clone)]
pub struct SimRunConfig {
    /// The ensemble to execute.
    pub spec: EnsembleSpec,
    /// Workload profiles per component.
    pub workloads: WorkloadMap,
    /// Node hardware description.
    pub node_spec: NodeSpec,
    /// Interconnect description.
    pub network: NetworkSpec,
    /// Contention model (set `disabled` for the interference ablation).
    pub interference: InterferenceModel,
    /// In situ steps to execute.
    pub n_steps: u64,
    /// Fractional per-step multiplicative jitter on compute stages
    /// (0 = fully deterministic; 0.02 ≈ real-machine noise).
    pub jitter: f64,
    /// RNG seed for the jitter streams.
    pub seed: u64,
    /// Socket binding policy for core allocation.
    pub bind_policy: BindPolicy,
    /// Chunks in flight per member variable (1 = the paper's unbuffered
    /// protocol; 2 = double buffering, the buffering ablation).
    pub staging_capacity: u64,
    /// Force every read to pay the remote-transfer cost even when
    /// co-located (the data-locality ablation).
    pub force_remote_reads: bool,
    /// Synchronous (paper) or asynchronous (in-transit) coupling.
    pub coupling: CouplingMode,
    /// Node power model (used when a cap is set and for energy
    /// accounting).
    pub power_model: PowerModel,
    /// Per-node power cap in watts; nodes drawing more are
    /// frequency-scaled down (SeeSAw-style power-constrained runs).
    pub power_cap_watts: Option<f64>,
}

impl SimRunConfig {
    /// The paper's settings for an ensemble spec: Cori nodes, paper
    /// workloads at stride 800, 37 in situ steps (30 000 MD steps), a
    /// pinch of jitter so steady-state extraction is exercised.
    pub fn paper(spec: EnsembleSpec) -> Self {
        SimRunConfig {
            spec,
            workloads: WorkloadMap::paper_defaults(kernels::profile::PAPER_STRIDE),
            node_spec: hpc_platform::cori::cori_node(),
            network: hpc_platform::cori::aries_network(),
            interference: InterferenceModel::default(),
            n_steps: kernels::profile::PAPER_TOTAL_MD_STEPS / kernels::profile::PAPER_STRIDE,
            jitter: 0.01,
            seed: 2021,
            bind_policy: BindPolicy::Spread,
            staging_capacity: 1,
            force_remote_reads: false,
            coupling: CouplingMode::Synchronous,
            power_model: PowerModel::default(),
            power_cap_watts: None,
        }
    }
}

/// The most in situ steps a simulated run accepts, whatever its size.
/// The paper's runs are 37 steps.
pub const MAX_SIM_STEPS: u64 = 100_000;

/// The most component-steps (components × in situ steps) a simulated run
/// accepts: a six-component ensemble at [`MAX_SIM_STEPS`]. The DES run is
/// not interruptible and holds one duration per step and component (a
/// full trace, three intervals more), so this product — both factors
/// reach this crate straight off the service's wire — is what bounds a
/// request's time and memory: at the cap a run fires some four million
/// events (well under a second) and its full trace is ~70 MB. An
/// ensemble of more components gets proportionally fewer steps
/// ([`RuntimeError::TooManySteps`] names its share).
pub const MAX_SIM_COMPONENT_STEPS: u64 = 6 * MAX_SIM_STEPS;

/// The most nodes a simulated run addresses: component node labels are
/// `0..MAX_SIM_NODES`. Labels reach this crate straight off the
/// service's wire ([`RuntimeError::NodeOutOfRange`]). Cori has some
/// twelve thousand nodes.
pub const MAX_SIM_NODES: usize = 100_000;

/// Everything a simulated run produces.
#[derive(Debug, Clone)]
pub struct SimExecution {
    /// The stage trace, in virtual seconds.
    pub trace: ExecutionTrace,
    /// Solved steady-state performance per component.
    pub estimates: HashMap<ComponentRef, PerfEstimate>,
    /// Core allocations per component.
    pub allocations: HashMap<ComponentRef, CoreAllocation>,
    /// Frames dropped per member (always zero under synchronous
    /// coupling).
    pub lost_frames: Vec<u64>,
    /// Modeled steady-state power draw per node, watts (before any cap).
    pub node_power_watts: HashMap<usize, f64>,
}

/// A simulated run reduced as it ran: what [`run_summarized`] returns to
/// callers that only build a report
/// ([`build_summary_report`](crate::build_summary_report)).
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// The `S/W/R/A` series and component spans, in virtual seconds.
    pub stages: StageSummary,
    /// Solved steady-state performance per component.
    pub estimates: HashMap<ComponentRef, PerfEstimate>,
    /// Frames dropped per member (always zero under synchronous
    /// coupling).
    pub lost_frames: Vec<u64>,
    /// DES events the run fired.
    pub events: u64,
}

/// Per-member coupling state inside the DES.
enum Coupling {
    /// The paper's synchronous protocol.
    Sync(StepProtocol),
    /// Bounded in-transit queue with drop-oldest overflow.
    Async(AsyncQueue),
}

struct AsyncQueue {
    queue: std::collections::VecDeque<u64>,
    capacity: usize,
    lost: u64,
    finished: bool,
    last_read: Vec<Option<u64>>,
}

enum FramePoll {
    /// A frame with this step is ready for the reader.
    Ready(u64),
    /// Nothing new yet; block on the member signal.
    Wait,
    /// The producer finished and nothing newer will arrive.
    End,
}

impl Coupling {
    fn may_write(&self, step: u64) -> bool {
        match self {
            Coupling::Sync(p) => p.may_write(step),
            Coupling::Async(_) => true,
        }
    }

    fn record_write(&mut self, step: u64) {
        match self {
            Coupling::Sync(p) => p.record_write(step).expect("protocol admitted the write"),
            Coupling::Async(q) => {
                if q.queue.len() >= q.capacity {
                    q.queue.pop_front();
                    q.lost += 1;
                }
                q.queue.push_back(step);
            }
        }
    }

    fn finish_production(&mut self) {
        if let Coupling::Async(q) = self {
            q.finished = true;
        }
    }

    fn poll_frame(&self, reader: usize, sync_next: u64, sync_total: u64) -> FramePoll {
        match self {
            Coupling::Sync(p) => {
                if sync_next >= sync_total {
                    FramePoll::End
                } else if p.may_read(ReaderId(reader as u32), sync_next) {
                    FramePoll::Ready(sync_next)
                } else {
                    FramePoll::Wait
                }
            }
            Coupling::Async(q) => {
                let last = q.last_read[reader];
                match q.queue.iter().find(|&&s| last.is_none_or(|l| s > l)) {
                    Some(&s) => FramePoll::Ready(s),
                    None if q.finished => FramePoll::End,
                    None => FramePoll::Wait,
                }
            }
        }
    }

    fn record_read(&mut self, reader: usize, step: u64) {
        match self {
            Coupling::Sync(p) => {
                p.record_read(ReaderId(reader as u32), step).expect("protocol admitted the read")
            }
            Coupling::Async(q) => {
                q.last_read[reader] = Some(step);
                if q.last_read.iter().all(Option::is_some) {
                    let min_last =
                        q.last_read.iter().map(|v| v.expect("checked")).min().expect("non-empty");
                    while q.queue.front().is_some_and(|&s| s <= min_last) {
                        q.queue.pop_front();
                    }
                }
            }
        }
    }

    fn lost(&self) -> u64 {
        match self {
            Coupling::Sync(_) => 0,
            Coupling::Async(q) => q.lost,
        }
    }
}

struct SimState<'a, K> {
    couplings: Vec<Coupling>,
    /// Where the components record their stages: the caller's choice of
    /// every interval (`Vec<StageInterval>`) or the reduction reports
    /// are built from ([`StageSummary`]).
    sink: K,
    /// Fired each time a member's simulation finishes writing a step
    /// (`(member index, steps completed)`), in virtual-time order. The
    /// provisioning service threads a progress forwarder through it.
    on_step: &'a mut dyn FnMut(usize, u64),
}

fn signal_of(member: usize) -> Signal {
    Signal(member as u64)
}

enum SimPhase {
    StartStep,
    Computing,
    WaitingSlot,
    Writing,
}

/// The simulation-side process of one member.
struct SimProc {
    member: usize,
    steps: u64,
    step: u64,
    phase: SimPhase,
    compute_secs: Vec<f64>,
    write_secs: f64,
    stage_started: f64,
    idle_started: f64,
}

impl<'a, K: StageSink> Process<SimState<'a, K>> for SimProc {
    fn poll(&mut self, state: &mut SimState<'a, K>, ctx: &mut Context) -> Poll {
        let now = ctx.now().as_secs_f64();
        let me = ComponentRef::simulation(self.member);
        loop {
            match self.phase {
                SimPhase::StartStep => {
                    if self.step >= self.steps {
                        state.couplings[self.member].finish_production();
                        ctx.emit(signal_of(self.member));
                        return Poll::Done;
                    }
                    self.stage_started = now;
                    self.phase = SimPhase::Computing;
                    return Poll::Sleep(SimDuration::from_secs_f64(
                        self.compute_secs[self.step as usize],
                    ));
                }
                SimPhase::Computing => {
                    state.sink.record(me, StageKind::Simulate, self.step, self.stage_started, now);
                    if state.couplings[self.member].may_write(self.step) {
                        self.stage_started = now;
                        self.phase = SimPhase::Writing;
                        return Poll::Sleep(SimDuration::from_secs_f64(self.write_secs));
                    }
                    self.idle_started = now;
                    self.phase = SimPhase::WaitingSlot;
                    return Poll::WaitSignal(signal_of(self.member));
                }
                SimPhase::WaitingSlot => {
                    if state.couplings[self.member].may_write(self.step) {
                        state.sink.record(
                            me,
                            StageKind::SimIdle,
                            self.step,
                            self.idle_started,
                            now,
                        );
                        self.stage_started = now;
                        self.phase = SimPhase::Writing;
                        return Poll::Sleep(SimDuration::from_secs_f64(self.write_secs));
                    }
                    return Poll::WaitSignal(signal_of(self.member));
                }
                SimPhase::Writing => {
                    state.sink.record(me, StageKind::Write, self.step, self.stage_started, now);
                    state.couplings[self.member].record_write(self.step);
                    ctx.emit(signal_of(self.member));
                    self.step += 1;
                    (state.on_step)(self.member, self.step);
                    self.phase = SimPhase::StartStep;
                    // Loop: start the next step at the current instant.
                }
            }
        }
    }
}

enum AnaPhase {
    StartStep,
    WaitingData,
    Reading,
    Analyzing,
}

/// One analysis-side process. Under synchronous coupling it consumes
/// exactly `total_frames` frames in step order; under asynchronous
/// coupling it consumes whatever survives the queue until the producer
/// finishes.
struct AnaProc {
    member: usize,
    slot: usize,
    reader: usize,
    total_frames: u64,
    consumed: u64,
    current_frame: u64,
    phase: AnaPhase,
    read_secs: f64,
    compute_secs: Vec<f64>,
    stage_started: f64,
    idle_started: f64,
}

impl<'a, K: StageSink> Process<SimState<'a, K>> for AnaProc {
    fn poll(&mut self, state: &mut SimState<'a, K>, ctx: &mut Context) -> Poll {
        let now = ctx.now().as_secs_f64();
        let me = ComponentRef::analysis(self.member, self.slot);
        loop {
            match self.phase {
                AnaPhase::StartStep => {
                    match state.couplings[self.member].poll_frame(
                        self.reader,
                        self.consumed,
                        self.total_frames,
                    ) {
                        FramePoll::End => return Poll::Done,
                        FramePoll::Ready(frame) => {
                            self.current_frame = frame;
                            self.stage_started = now;
                            self.phase = AnaPhase::Reading;
                            return Poll::Sleep(SimDuration::from_secs_f64(self.read_secs));
                        }
                        FramePoll::Wait => {
                            self.idle_started = now;
                            self.phase = AnaPhase::WaitingData;
                            return Poll::WaitSignal(signal_of(self.member));
                        }
                    }
                }
                AnaPhase::WaitingData => {
                    match state.couplings[self.member].poll_frame(
                        self.reader,
                        self.consumed,
                        self.total_frames,
                    ) {
                        FramePoll::End => return Poll::Done,
                        FramePoll::Ready(frame) => {
                            // The wait for data is the analysis idle
                            // stage (paper: Iᴬ), recorded against the
                            // frame it awaited.
                            state.sink.record(
                                me,
                                StageKind::AnaIdle,
                                frame,
                                self.idle_started,
                                now,
                            );
                            self.current_frame = frame;
                            self.stage_started = now;
                            self.phase = AnaPhase::Reading;
                            return Poll::Sleep(SimDuration::from_secs_f64(self.read_secs));
                        }
                        FramePoll::Wait => return Poll::WaitSignal(signal_of(self.member)),
                    }
                }
                AnaPhase::Reading => {
                    state.sink.record(
                        me,
                        StageKind::Read,
                        self.current_frame,
                        self.stage_started,
                        now,
                    );
                    // The slot is released only when the read completes,
                    // preserving Wᵢ ≺ Rᵢ ≺ Wᵢ₊₁ under synchronous
                    // coupling.
                    state.couplings[self.member].record_read(self.reader, self.current_frame);
                    ctx.emit(signal_of(self.member));
                    self.stage_started = now;
                    self.phase = AnaPhase::Analyzing;
                    let idx = (self.consumed as usize).min(self.compute_secs.len() - 1);
                    return Poll::Sleep(SimDuration::from_secs_f64(self.compute_secs[idx]));
                }
                AnaPhase::Analyzing => {
                    state.sink.record(
                        me,
                        StageKind::Analyze,
                        self.current_frame,
                        self.stage_started,
                        now,
                    );
                    self.consumed += 1;
                    self.phase = AnaPhase::StartStep;
                }
            }
        }
    }
}

fn jittered(base: f64, steps: u64, jitter: f64, rng: &mut Xoshiro256) -> Vec<f64> {
    (0..steps)
        .map(|_| if jitter <= 0.0 { base } else { base * (1.0 + rng.uniform(-jitter, jitter)) })
        .collect()
}

/// Runs the ensemble on the simulated platform, recording every stage
/// interval.
pub fn run_simulated(cfg: &SimRunConfig) -> RuntimeResult<SimExecution> {
    let solved = solve(cfg)?;
    let budget = event_budget(cfg)?;
    // A component records at most three stages per step (idle included).
    let intervals = Vec::with_capacity(solved.allocations.len() * cfg.n_steps as usize * 3);
    let (intervals, lost_frames, _) = play(cfg, &solved, budget, intervals, &mut |_, _| {});
    Ok(SimExecution {
        trace: ExecutionTrace::new(intervals),
        estimates: solved.estimates,
        allocations: solved.allocations,
        lost_frames,
        node_power_watts: solved.node_power_watts,
    })
}

/// The same run for a caller that only wants the report: the components
/// record into a [`StageSummary`] instead of a trace, and
/// [`build_summary_report`](crate::build_summary_report) gives, bit for
/// bit, the report [`run_simulated`] + [`build_report`](crate::build_report)
/// give. `on_step(member, done)` fires each time member `member`'s
/// simulation completes writing a step (`done` = steps completed so
/// far), in virtual-time order (pass `&mut |_, _| {}` for none). The
/// observer runs inside the DES loop — keep it cheap. Observed and
/// unobserved runs are bit-identical: the hook only reads progress.
pub fn run_summarized(
    cfg: &SimRunConfig,
    on_step: &mut dyn FnMut(usize, u64),
) -> RuntimeResult<SimSummary> {
    let solved = solve(cfg)?;
    let budget = event_budget(cfg)?;
    let stages = StageSummary::new(cfg.spec.members.iter().map(|m| m.k()), cfg.n_steps as usize);
    let (stages, lost_frames, events) = play(cfg, &solved, budget, stages, on_step);
    Ok(SimSummary { stages, estimates: solved.estimates, lost_frames, events })
}

/// What settles one node's compute stages, apart from who is resident
/// on it: the hardware, the contention model, the socket binding and
/// the power cap. Every step time is derived by [`NodeSolver::solve`]:
/// the DES's, a prediction's and the scheduler's delta evaluator's.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSolver {
    node_spec: NodeSpec,
    interference: InterferenceModel,
    bind_policy: BindPolicy,
    power_model: PowerModel,
    power_cap_watts: Option<f64>,
}

/// One node's steady state, residents in the order they were allocated.
#[derive(Debug, Clone)]
pub struct SolvedNode {
    /// Each resident's cores and workload.
    pub placed: Vec<PlacedWorkload>,
    /// Each resident's steady state, the cap's slowdown applied.
    pub estimates: Vec<PerfEstimate>,
    /// The node's draw before any cap, watts.
    pub watts: f64,
}

impl NodeSolver {
    /// The node model of `cfg`'s platform.
    pub fn of(cfg: &SimRunConfig) -> Self {
        NodeSolver {
            node_spec: cfg.node_spec.clone(),
            interference: cfg.interference.clone(),
            bind_policy: cfg.bind_policy,
            power_model: cfg.power_model.clone(),
            power_cap_watts: cfg.power_cap_watts,
        }
    }

    /// Solves node `node` with `residents` — `(workload, cores)` —
    /// allocated on it in order: each allocation's socket split, the
    /// interference solve, the node's power draw, then the cap's DVFS
    /// slowdown on every resident.
    ///
    /// Only the socket split sees the order. The interference solve and
    /// the power draw run over the residents sorted by split, then by
    /// workload bits, so the step times are a function of the multiset
    /// of `(workload, split)` on the node, each resident's its own.
    pub fn solve<'w>(
        &self,
        node: usize,
        residents: impl Iterator<Item = (&'w Workload, u32)>,
    ) -> RuntimeResult<SolvedNode> {
        let mut free = vec![self.node_spec.cores_per_socket; self.node_spec.sockets as usize];
        let mut placed = residents
            .enumerate()
            .map(|(i, (workload, cores))| {
                let alloc = self.bind_policy.allocate(node, &mut free, cores)?;
                Ok((i, PlacedWorkload { alloc, workload: workload.clone() }))
            })
            .collect::<RuntimeResult<Vec<_>>>()?;
        placed.sort_by(|(_, a), (_, b)| {
            (&a.alloc.per_socket, a.workload.bits()).cmp(&(&b.alloc.per_socket, b.workload.bits()))
        });
        let (order, sorted): (Vec<usize>, Vec<PlacedWorkload>) = placed.into_iter().unzip();
        let mut estimates = self.interference.solve_node(&self.node_spec, &sorted, &[]);
        let busy_cores: u32 = sorted.iter().map(|p| p.alloc.total_cores()).sum();
        let traffic: f64 = estimates
            .iter()
            .map(|est| est.dram_bytes_per_step / est.seconds_per_step.max(f64::MIN_POSITIVE))
            .sum();
        let watts = self.power_model.node_watts(busy_cores, traffic);
        if let Some(cap) = self.power_cap_watts {
            let slowdown = self.power_model.cap_slowdown(watts, cap);
            if slowdown > 1.0 {
                for est in &mut estimates {
                    est.seconds_per_step *= slowdown;
                }
            }
        }
        // Each resident its own estimate, back in placement order.
        let mut solved: Vec<_> = order.into_iter().zip(sorted.into_iter().zip(estimates)).collect();
        solved.sort_unstable_by_key(|&(i, _)| i);
        let (placed, estimates) = solved.into_iter().map(|(_, solved)| solved).unzip();
        Ok(SolvedNode { placed, estimates, watts })
    }
}

/// What the staging stages cost: `W*` and `R*` from the chunk size and
/// data locality (DIMES: chunks homed on the producer's node), for the
/// DES and every closed form alike.
#[derive(Debug, Clone)]
pub struct StagingPrices {
    cost: StagingCostModel,
    chunk: u64,
    /// How many nodes past the simulation's a co-located read is priced
    /// from: 0, or 1 under the data-locality ablation.
    colocated_offset: usize,
}

impl StagingPrices {
    /// The staging prices of `cfg`'s platform and workloads.
    pub fn of(cfg: &SimRunConfig) -> Self {
        StagingPrices {
            cost: StagingCostModel::from_platform(&cfg.node_spec, &cfg.network),
            chunk: cfg.workloads.chunk_bytes,
            colocated_offset: usize::from(cfg.force_remote_reads),
        }
    }

    /// `W*` of a simulation on `sim_node`, which stages into its own node.
    pub fn write_seconds(&self, sim_node: usize) -> f64 {
        self.cost.write_seconds(self.chunk, sim_node, sim_node)
    }

    /// `R*` of an analysis on `ana_node` reading a chunk homed on
    /// `sim_node`.
    pub fn read_seconds(&self, sim_node: usize, ana_node: usize) -> f64 {
        let reader = if ana_node == sim_node { sim_node + self.colocated_offset } else { ana_node };
        self.cost.read_seconds(self.chunk, sim_node, reader)
    }
}

/// What is settled before the first event: where every component runs
/// and how long each of its stages takes.
pub(crate) struct Solved {
    pub(crate) estimates: HashMap<ComponentRef, PerfEstimate>,
    allocations: HashMap<ComponentRef, CoreAllocation>,
    node_power_watts: HashMap<usize, f64>,
    staging: StagingPrices,
}

impl Solved {
    /// Member `i`'s stage durations at zero jitter: what [`play`] sleeps
    /// in `S`, `W`, and each analysis's `R` and `A`.
    pub(crate) fn stage_times(&self, cfg: &SimRunConfig, i: usize) -> MemberStageTimes {
        let sim = ComponentRef::simulation(i);
        let sim_node = self.allocations[&sim].node;
        let analyses = (1..=cfg.spec.members[i].k())
            .map(|j| {
                let ana = ComponentRef::analysis(i, j);
                AnalysisStageTimes {
                    r: self.staging.read_seconds(sim_node, self.allocations[&ana].node),
                    a: self.estimates[&ana].seconds_per_step,
                }
            })
            .collect();
        MemberStageTimes {
            s: self.estimates[&sim].seconds_per_step,
            w: self.staging.write_seconds(sim_node),
            analyses,
        }
    }
}

/// Validates the run, places every component on its node and solves
/// each node's steady state: the DES's whole derivation of what its
/// stages cost, and all a prediction needs.
pub(crate) fn solve(cfg: &SimRunConfig) -> RuntimeResult<Solved> {
    cfg.spec.validate(Some(cfg.node_spec.cores_per_node()))?;
    if cfg.n_steps == 0 {
        return Err(RuntimeError::NoSamples);
    }
    if let Some(&node) = cfg.spec.node_set().last().filter(|&&node| node >= MAX_SIM_NODES) {
        return Err(RuntimeError::NodeOutOfRange { node, max: MAX_SIM_NODES });
    }

    // --- Placement: each node's residents, in flat component order. ---
    let mut residents: BTreeMap<usize, Vec<(ComponentRef, u32)>> = BTreeMap::new();
    for (i, member) in cfg.spec.members.iter().enumerate() {
        let components = std::iter::once((ComponentRef::simulation(i), &member.simulation)).chain(
            member.analyses.iter().enumerate().map(|(j, a)| (ComponentRef::analysis(i, j + 1), a)),
        );
        for (cref, comp) in components {
            if comp.nodes.len() != 1 {
                return Err(RuntimeError::MultiNodeComponent { component: cref.to_string() });
            }
            let node = *comp.nodes.iter().next().expect("validated non-empty");
            residents.entry(node).or_default().push((cref, comp.cores));
        }
    }

    // --- Contention and power: the steady state per node. ---
    let solver = NodeSolver::of(cfg);
    let mut solved = Solved {
        estimates: HashMap::new(),
        allocations: HashMap::new(),
        node_power_watts: HashMap::new(),
        staging: StagingPrices::of(cfg),
    };
    for (node, residents) in residents {
        let workloads =
            residents.iter().map(|&(cref, cores)| (cfg.workloads.workload_for(cref), cores));
        let state = solver.solve(node, workloads)?;
        solved.node_power_watts.insert(node, state.watts);
        for ((cref, _), (placed, est)) in
            residents.into_iter().zip(state.placed.into_iter().zip(state.estimates))
        {
            solved.allocations.insert(cref, placed.alloc);
            solved.estimates.insert(cref, est);
        }
    }
    Ok(solved)
}

/// The events a DES run of `cfg` may fire before it counts as
/// livelocked, refused when its step count breaks a cap: nothing the
/// event loop holds may be sized by a step count or a component-step
/// product the caps have not admitted.
fn event_budget(cfg: &SimRunConfig) -> RuntimeResult<u64> {
    let components: u64 = cfg.spec.members.iter().map(|m| 1 + m.k() as u64).sum();
    let max_steps = MAX_SIM_STEPS.min(MAX_SIM_COMPONENT_STEPS / components.max(1));
    let too_many = RuntimeError::TooManySteps { requested: cfg.n_steps, max: max_steps };
    if cfg.n_steps > max_steps {
        return Err(too_many);
    }
    // Each component needs a handful of events per step.
    components
        .checked_mul(cfg.n_steps)
        .and_then(|n| n.checked_mul(16))
        .and_then(|n| n.checked_add(10_000))
        .ok_or(too_many)
}

/// Plays the coupling protocol out on the DES, every component recording
/// into `sink`, with at most `event_budget` events. Returns the sink, the
/// frames each member lost and the number of events fired.
fn play<K: StageSink>(
    cfg: &SimRunConfig,
    solved: &Solved,
    event_budget: u64,
    sink: K,
    on_step: &mut dyn FnMut(usize, u64),
) -> (K, Vec<u64>, u64) {
    // --- Build the DES processes. ---
    let state = SimState {
        couplings: cfg
            .spec
            .members
            .iter()
            .map(|m| match cfg.coupling {
                CouplingMode::Synchronous => {
                    Coupling::Sync(StepProtocol::new(m.k() as u32, cfg.staging_capacity))
                }
                CouplingMode::Asynchronous { queue_capacity } => Coupling::Async(AsyncQueue {
                    queue: std::collections::VecDeque::new(),
                    capacity: queue_capacity.max(1),
                    lost: 0,
                    finished: false,
                    last_read: vec![None; m.k()],
                }),
            })
            .collect(),
        sink,
        on_step,
    };
    let mut engine = Engine::new(state);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    for i in 0..cfg.spec.members.len() {
        let stages = solved.stage_times(cfg, i);
        engine.spawn(Box::new(SimProc {
            member: i,
            steps: cfg.n_steps,
            step: 0,
            phase: SimPhase::StartStep,
            compute_secs: jittered(stages.s, cfg.n_steps, cfg.jitter, &mut rng),
            write_secs: stages.w,
            stage_started: 0.0,
            idle_started: 0.0,
        }));
        for (j, ana) in (1..).zip(&stages.analyses) {
            engine.spawn(Box::new(AnaProc {
                member: i,
                slot: j,
                reader: j - 1,
                total_frames: cfg.n_steps,
                consumed: 0,
                current_frame: 0,
                phase: AnaPhase::StartStep,
                read_secs: ana.r,
                compute_secs: jittered(ana.a, cfg.n_steps, cfg.jitter, &mut rng),
                stage_started: 0.0,
                idle_started: 0.0,
            }));
        }
    }

    engine.set_event_budget(event_budget);
    let outcome = engine.run();
    debug_assert_eq!(outcome, RunOutcome::Quiescent, "simulated run did not drain");
    assert!(engine.all_finished(), "some components did not complete all steps");

    let events = engine.events_fired();
    let state = engine.into_state();
    let lost_frames = state.couplings.iter().map(Coupling::lost).collect();
    (state.sink, lost_frames, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_core::ConfigId;
    use metrics::StageInterval;

    fn quick_config(id: ConfigId) -> SimRunConfig {
        let mut cfg = SimRunConfig::paper(id.build());
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.n_steps = 6;
        cfg.jitter = 0.0;
        cfg
    }

    #[test]
    fn run_produces_complete_trace() {
        let cfg = quick_config(ConfigId::Cf);
        let exec = run_simulated(&cfg).unwrap();
        let sim = ComponentRef::simulation(0);
        let ana = ComponentRef::analysis(0, 1);
        assert_eq!(exec.trace.stage_series(sim, StageKind::Simulate).len(), 6);
        assert_eq!(exec.trace.stage_series(sim, StageKind::Write).len(), 6);
        assert_eq!(exec.trace.stage_series(ana, StageKind::Read).len(), 6);
        assert_eq!(exec.trace.stage_series(ana, StageKind::Analyze).len(), 6);
        assert!(exec.estimates.contains_key(&sim));
        assert!(exec.allocations[&sim].total_cores() == 16);
    }

    #[test]
    fn step_observer_reports_every_member_step_in_order() {
        let cfg = quick_config(ConfigId::C1_5);
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let summarized =
            run_summarized(&cfg, &mut |member, done| seen.push((member, done))).unwrap();
        let members = cfg.spec.members.len();
        assert_eq!(seen.len(), members * cfg.n_steps as usize);
        // Per member: exactly n_steps reports, counting 1..=n_steps.
        for m in 0..members {
            let counts: Vec<u64> =
                seen.iter().filter(|(mem, _)| *mem == m).map(|(_, d)| *d).collect();
            assert_eq!(counts, (1..=cfg.n_steps).collect::<Vec<_>>(), "member {m}");
        }

        // Observation must not perturb the run, nor must the choice of
        // sink: observed and unobserved summaries keep, bit for bit,
        // what the full trace reduces to.
        let plain = run_simulated(&cfg).unwrap();
        let unobserved = run_summarized(&cfg, &mut |_, _| {}).unwrap();
        let from_trace = plain.trace.summarize(cfg.spec.members.iter().map(|m| m.k()));
        let bits = |summary: &StageSummary| -> Vec<u64> {
            let mut bits = Vec::new();
            for m in &summary.members {
                let series = m.samples.analyses.iter().flat_map(|(r, a)| [r, a]);
                for series in [&m.samples.s, &m.samples.w].into_iter().chain(series) {
                    bits.push(series.len() as u64);
                    bits.extend(series.iter().map(|v| v.to_bits()));
                }
                for (start, end) in m.spans.iter().map(|s| s.expect("every component ran")) {
                    bits.extend([start.to_bits(), end.to_bits()]);
                }
            }
            bits
        };
        assert_eq!(bits(&summarized.stages), bits(&from_trace));
        assert_eq!(bits(&unobserved.stages), bits(&from_trace));
        assert_eq!(summarized.lost_frames, plain.lost_frames);
        assert_eq!(summarized.events, unobserved.events);
    }

    #[test]
    fn protocol_interleaving_visible_in_trace() {
        let cfg = quick_config(ConfigId::Cf);
        let exec = run_simulated(&cfg).unwrap();
        let sim = ComponentRef::simulation(0);
        let ana = ComponentRef::analysis(0, 1);
        // Every read of step i starts after the write of step i ends and
        // before the write of step i+1 starts.
        let writes: Vec<&StageInterval> =
            exec.trace.for_component(sim).filter(|iv| iv.kind == StageKind::Write).collect();
        let reads: Vec<&StageInterval> =
            exec.trace.for_component(ana).filter(|iv| iv.kind == StageKind::Read).collect();
        for i in 0..reads.len() {
            assert!(reads[i].start >= writes[i].end - 1e-12, "R{i} before W{i} finished");
            if i + 1 < writes.len() {
                assert!(
                    writes[i + 1].start >= reads[i].end - 1e-12,
                    "W{} started before R{i} finished (no-overwrite violated)",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn deterministic_without_jitter() {
        let cfg = quick_config(ConfigId::C1_5);
        let a = run_simulated(&cfg).unwrap();
        let b = run_simulated(&cfg).unwrap();
        assert_eq!(a.trace.intervals(), b.trace.intervals());
    }

    #[test]
    fn jitter_changes_per_step_durations_but_not_counts() {
        let mut cfg = quick_config(ConfigId::Cf);
        cfg.jitter = 0.05;
        let exec = run_simulated(&cfg).unwrap();
        let s = exec.trace.stage_series(ComponentRef::simulation(0), StageKind::Simulate);
        assert_eq!(s.len(), 6);
        let spread = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - s.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0, "jitter must vary step durations");
    }

    #[test]
    fn all_members_run_in_two_member_configs() {
        let cfg = quick_config(ConfigId::C1_4);
        let exec = run_simulated(&cfg).unwrap();
        assert_eq!(exec.trace.member_indexes(), vec![0, 1]);
    }

    #[test]
    fn zero_steps_rejected() {
        let mut cfg = quick_config(ConfigId::Cf);
        cfg.n_steps = 0;
        assert!(matches!(run_simulated(&cfg), Err(RuntimeError::NoSamples)));
    }

    #[test]
    fn a_step_count_above_the_cap_is_refused_before_anything_is_sized_by_it() {
        let mut cfg = quick_config(ConfigId::Cf);
        for steps in [MAX_SIM_STEPS + 1, 4_000_000_000_000_000, u64::MAX] {
            cfg.n_steps = steps;
            let refused = |e: RuntimeError| {
                matches!(e, RuntimeError::TooManySteps { requested, max }
                    if requested == steps && max == MAX_SIM_STEPS)
            };
            assert!(run_simulated(&cfg).is_err_and(refused), "{steps}: full trace");
            assert!(run_summarized(&cfg, &mut |_, _| {}).is_err_and(refused), "{steps}: summary");
        }
    }

    #[test]
    fn a_node_label_above_the_cap_is_refused_before_a_platform_is_sized_by_it() {
        for node in [MAX_SIM_NODES, 4_000_000_000_000_000, usize::MAX] {
            let mut cfg = quick_config(ConfigId::Cf);
            cfg.spec = EnsembleSpec::new(vec![ensemble_core::MemberSpec::new(
                ensemble_core::ComponentSpec::simulation(16, 0),
                vec![ensemble_core::ComponentSpec::analysis(8, node)],
            )]);
            let refused = |e: RuntimeError| {
                matches!(e, RuntimeError::NodeOutOfRange { node: n, max }
                    if n == node && max == MAX_SIM_NODES)
            };
            assert!(run_simulated(&cfg).is_err_and(refused), "{node}: full trace");
            assert!(run_summarized(&cfg, &mut |_, _| {}).is_err_and(refused), "{node}: summary");
            assert!(crate::predict_scores(&cfg).is_err_and(refused), "{node}: closed form");
        }
    }

    #[test]
    fn many_components_share_the_component_step_cap() {
        // 1 000 one-core members on nodes of their own: 2 000 components,
        // so 300 steps each is the cap and one more is refused, although
        // the step count alone is far below `MAX_SIM_STEPS`.
        let members = (0..1000)
            .map(|i| {
                ensemble_core::MemberSpec::new(
                    ensemble_core::ComponentSpec::simulation(1, i),
                    vec![ensemble_core::ComponentSpec::analysis(1, i)],
                )
            })
            .collect();
        let mut cfg = quick_config(ConfigId::Cf);
        cfg.spec = EnsembleSpec::new(members);
        let share = MAX_SIM_COMPONENT_STEPS / 2000;
        cfg.n_steps = share + 1;
        let refused = |e: RuntimeError| {
            matches!(e, RuntimeError::TooManySteps { requested, max }
                if requested == share + 1 && max == share)
        };
        assert!(run_simulated(&cfg).is_err_and(refused), "full trace");
        assert!(run_summarized(&cfg, &mut |_, _| {}).is_err_and(refused), "summary");
        cfg.n_steps = 2;
        assert_eq!(run_simulated(&cfg).unwrap().lost_frames.len(), 1000);
    }

    #[test]
    fn double_buffering_shortens_waits() {
        // With capacity 2 the simulation never blocks on a slow analysis
        // as long as it stays one step ahead.
        let mut unbuffered = quick_config(ConfigId::Cf);
        // Make the analysis slower than the simulation so the sim idles.
        let mut slow = unbuffered.workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
        slow.instructions_per_step *= 3.0;
        unbuffered.workloads.set_override(ComponentRef::analysis(0, 1), slow.clone());
        let mut buffered = unbuffered.clone();
        buffered.staging_capacity = 2;

        let u = run_simulated(&unbuffered).unwrap();
        let b = run_simulated(&buffered).unwrap();
        let sim = ComponentRef::simulation(0);
        let idle_u = u.trace.total_in_stage(sim, StageKind::SimIdle);
        let idle_b = b.trace.total_in_stage(sim, StageKind::SimIdle);
        assert!(idle_b < idle_u, "buffering should reduce sim idle ({idle_b} vs {idle_u})");
    }

    #[test]
    fn async_coupling_never_stalls_the_simulation() {
        // Make the analysis 3x slower than the simulation: synchronous
        // coupling stalls the sim; asynchronous coupling must not, at
        // the price of lost frames.
        let mut sync_cfg = quick_config(ConfigId::Cf);
        let mut slow = sync_cfg.workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
        slow.instructions_per_step *= 3.0;
        sync_cfg.workloads.set_override(ComponentRef::analysis(0, 1), slow);
        sync_cfg.n_steps = 10;
        let mut async_cfg = sync_cfg.clone();
        async_cfg.coupling = CouplingMode::Asynchronous { queue_capacity: 1 };

        let sync_exec = run_simulated(&sync_cfg).unwrap();
        let async_exec = run_simulated(&async_cfg).unwrap();

        let sim = ComponentRef::simulation(0);
        let sync_idle = sync_exec.trace.total_in_stage(sim, StageKind::SimIdle);
        let async_idle = async_exec.trace.total_in_stage(sim, StageKind::SimIdle);
        assert!(sync_idle > 0.0, "sync coupling must stall the sim");
        assert_eq!(async_idle, 0.0, "async coupling must never stall the sim");

        // Frames are conserved: consumed + lost = produced.
        let consumed =
            async_exec.trace.stage_series(ComponentRef::analysis(0, 1), StageKind::Analyze).len()
                as u64;
        assert_eq!(consumed + async_exec.lost_frames[0], 10);
        assert!(async_exec.lost_frames[0] > 0, "slow analysis must lose frames");

        // And the sync run loses nothing.
        assert_eq!(sync_exec.lost_frames, vec![0]);
    }

    #[test]
    fn async_fast_analysis_loses_nothing() {
        let mut cfg = quick_config(ConfigId::Cf);
        cfg.coupling = CouplingMode::Asynchronous { queue_capacity: 2 };
        let exec = run_simulated(&cfg).unwrap();
        assert_eq!(exec.lost_frames, vec![0]);
        let consumed =
            exec.trace.stage_series(ComponentRef::analysis(0, 1), StageKind::Analyze).len();
        assert_eq!(consumed, 6);
    }

    #[test]
    fn async_frames_arrive_in_order_without_repeats() {
        let mut cfg = quick_config(ConfigId::Cf);
        let mut slow = cfg.workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
        slow.instructions_per_step *= 2.5;
        cfg.workloads.set_override(ComponentRef::analysis(0, 1), slow);
        cfg.coupling = CouplingMode::Asynchronous { queue_capacity: 1 };
        cfg.n_steps = 12;
        let exec = run_simulated(&cfg).unwrap();
        let mut steps: Vec<u64> = exec
            .trace
            .for_component(ComponentRef::analysis(0, 1))
            .filter(|iv| iv.kind == StageKind::Analyze)
            .map(|iv| iv.step)
            .collect();
        let sorted = steps.clone();
        steps.dedup();
        assert_eq!(steps, sorted, "frame steps must be strictly increasing");
    }

    #[test]
    fn forced_remote_reads_slow_colocated_members() {
        let local = quick_config(ConfigId::Cc);
        let mut remote = local.clone();
        remote.force_remote_reads = true;
        let l = run_simulated(&local).unwrap();
        let r = run_simulated(&remote).unwrap();
        let ana = ComponentRef::analysis(0, 1);
        let read_l: f64 = l.trace.stage_series(ana, StageKind::Read).iter().sum();
        let read_r: f64 = r.trace.stage_series(ana, StageKind::Read).iter().sum();
        assert!(read_r > read_l, "remote reads must cost more ({read_r} vs {read_l})");
    }
}
