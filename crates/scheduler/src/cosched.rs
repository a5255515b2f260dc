//! Online co-scheduling of concurrent ensembles against live residual
//! capacity — the paper's §7 future work (and the authors' follow-up,
//! "Co-scheduling Ensembles of In Situ Workflows") made operational.
//!
//! Three layers:
//!
//! * [`ResidencyMap`] — per-node committed cores and staging occupancy
//!   across every admitted-but-not-completed job. Reservations open at
//!   admission and close on completion/failure/cancellation; two
//!   conservation counters (`admitted_cores`, `released_cores`) make
//!   leak detection a subtraction.
//! * [`place_against`] — placement of one ensemble shape against the
//!   *remaining* capacity. Candidates come from the same canonical
//!   enumeration the idle-platform scan uses ([`crate::scan`]); each
//!   canonical candidate's virtual nodes are mapped injectively onto
//!   physical nodes by best-fit-decreasing against the residual frees
//!   (exact for this threshold-matching problem: if any injective
//!   mapping fits, best-fit-decreasing finds one — exchange argument),
//!   and the mapped candidate is scored **together with every resident
//!   member** through the closed-form indicator pipeline (Eqs. 5–8),
//!   so co-located members see exactly the interference the model
//!   predicts. Output is deterministic at any worker count: the scan
//!   engine's `(objective desc, enumeration index asc)` total order.
//! * [`CoScheduler`] — the admission loop: a bounded FIFO wait queue
//!   with EASY-style backfill in *virtual time*. Every placed job
//!   carries a deterministic predicted duration (its solo closed-form
//!   makespan); a queued job behind the head may start only if it fits
//!   the residual now **and** either finishes (in predicted time)
//!   before the head's shadow start, or coexists with the head's
//!   shadow placement node-for-node. With completions arriving in
//!   predicted order, the queue head's start and completion times are
//!   bit-identical to plain FIFO — the property
//!   `tests/cosched_properties.rs` checks. A structural (time-free)
//!   backfill rule cannot give that guarantee: any capacity a
//!   backfilled job takes can be exactly what the head needs at some
//!   future drain state.
//!
//! Identical request streams reproduce identical schedules: admission
//! order, tie-breaking, and scoring are all deterministic, and the
//! service journals reservations so replay rebuilds the map.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use runtime::{RuntimeError, SimRunConfig};

use crate::delta::{DeltaEvaluator, SolveCache};
use crate::enumerate::EnsembleShape;
use crate::scan::{scan_placements, Candidate, ScanOptions, ScanVisitor};
use crate::search::NodeBudget;

/// Errors from residency accounting and co-scheduling.
#[derive(Debug)]
pub enum CoschedError {
    /// A reservation for this job id is already open.
    DuplicateJob(u64),
    /// The reservation does not fit the residual capacity.
    CapacityExceeded {
        /// Node that would be overcommitted.
        node: usize,
        /// Cores the reservation asks of that node.
        requested: u32,
        /// Cores the node has free.
        available: u32,
    },
    /// The job id is neither reserved nor queued.
    UnknownJob(u64),
    /// Candidate evaluation failed.
    Eval(RuntimeError),
}

impl std::fmt::Display for CoschedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoschedError::DuplicateJob(job) => write!(f, "job {job} already holds a reservation"),
            CoschedError::CapacityExceeded { node, requested, available } => {
                write!(f, "node {node}: requested {requested} cores, {available} free")
            }
            CoschedError::UnknownJob(job) => write!(f, "job {job} is not reserved or queued"),
            CoschedError::Eval(e) => write!(f, "candidate evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for CoschedError {}

impl From<RuntimeError> for CoschedError {
    fn from(e: RuntimeError) -> Self {
        CoschedError::Eval(e)
    }
}

/// One open reservation: the physical placement a job was admitted
/// with, plus what it commits per node.
#[derive(Debug, Clone)]
pub struct Reservation {
    /// Job id (unique among open reservations).
    pub job: u64,
    /// The shape the job was submitted with.
    pub shape: EnsembleShape,
    /// Flattened physical node assignment (member-major, sim first).
    pub assignment: Vec<usize>,
    /// Committed cores per physical node.
    pub node_load: Vec<u32>,
    /// Resident components per physical node — the staging-occupancy
    /// proxy (each component stages through its node's memory).
    pub staging: Vec<u32>,
    /// Predicted completion in virtual time (admission time + solo
    /// closed-form makespan) — what backfill reasons about.
    pub predicted_end: f64,
    /// Admission sequence number (monotone; ties in `predicted_end`
    /// drain in admission order).
    pub seq: u64,
}

impl Reservation {
    /// Builds a reservation from its durable fields, recomputing the
    /// per-node load and staging vectors — what a journal replay uses
    /// (the service persists only job/shape/assignment/predicted_end/
    /// seq; the loads are a pure function of shape and assignment).
    pub fn build(
        job: u64,
        shape: EnsembleShape,
        assignment: Vec<usize>,
        nodes: usize,
        predicted_end: f64,
        seq: u64,
    ) -> Reservation {
        let (node_load, staging) = node_loads(&shape, &assignment, nodes);
        Reservation { job, shape, assignment, node_load, staging, predicted_end, seq }
    }
}

/// Computes per-node committed cores and component counts for a shape
/// placed at `assignment` on a platform of `nodes` nodes.
fn node_loads(shape: &EnsembleShape, assignment: &[usize], nodes: usize) -> (Vec<u32>, Vec<u32>) {
    let mut load = vec![0u32; nodes];
    let mut staging = vec![0u32; nodes];
    let mut slot = 0usize;
    for (sim, anas) in &shape.members {
        for &cores in std::iter::once(sim).chain(anas.iter()) {
            let n = assignment[slot];
            load[n] += cores;
            staging[n] += 1;
            slot += 1;
        }
    }
    (load, staging)
}

/// Live per-node residency across all admitted-but-not-completed jobs.
#[derive(Debug, Clone)]
pub struct ResidencyMap {
    budget: NodeBudget,
    committed: Vec<u32>,
    staging: Vec<u32>,
    reservations: BTreeMap<u64, Reservation>,
    admitted_cores: u64,
    released_cores: u64,
}

impl ResidencyMap {
    /// An empty map over `budget.max_nodes` nodes of
    /// `budget.cores_per_node` cores.
    pub fn new(budget: NodeBudget) -> Self {
        ResidencyMap {
            committed: vec![0; budget.max_nodes],
            staging: vec![0; budget.max_nodes],
            reservations: BTreeMap::new(),
            admitted_cores: 0,
            released_cores: 0,
            budget,
        }
    }

    /// The platform the map tracks.
    pub fn budget(&self) -> NodeBudget {
        self.budget
    }

    /// Free cores per node.
    pub fn residual(&self) -> Vec<u32> {
        self.committed.iter().map(|&c| self.budget.cores_per_node - c).collect()
    }

    /// Committed cores per node.
    pub fn committed(&self) -> &[u32] {
        &self.committed
    }

    /// Resident components per node (staging-occupancy proxy).
    pub fn staging(&self) -> &[u32] {
        &self.staging
    }

    /// Opens a reservation. Fails on duplicate job id or any
    /// overcommitted node; on failure the map is unchanged.
    pub fn reserve(&mut self, res: Reservation) -> Result<(), CoschedError> {
        if self.reservations.contains_key(&res.job) {
            return Err(CoschedError::DuplicateJob(res.job));
        }
        for (node, (&load, &used)) in res.node_load.iter().zip(&self.committed).enumerate() {
            let free = self.budget.cores_per_node - used;
            if load > free {
                return Err(CoschedError::CapacityExceeded {
                    node,
                    requested: load,
                    available: free,
                });
            }
        }
        for (c, l) in self.committed.iter_mut().zip(&res.node_load) {
            *c += l;
        }
        for (s, l) in self.staging.iter_mut().zip(&res.staging) {
            *s += l;
        }
        self.admitted_cores += res.node_load.iter().map(|&l| u64::from(l)).sum::<u64>();
        self.reservations.insert(res.job, res);
        Ok(())
    }

    /// Closes a reservation, returning it; `None` if the job id holds
    /// none (release is idempotent by design — completion, failure,
    /// and cancellation paths may race to it).
    pub fn release(&mut self, job: u64) -> Option<Reservation> {
        let res = self.reservations.remove(&job)?;
        for (c, l) in self.committed.iter_mut().zip(&res.node_load) {
            *c -= l;
        }
        for (s, l) in self.staging.iter_mut().zip(&res.staging) {
            *s -= l;
        }
        self.released_cores += res.node_load.iter().map(|&l| u64::from(l)).sum::<u64>();
        Some(res)
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Open reservations, in job-id order.
    pub fn reservations(&self) -> impl Iterator<Item = &Reservation> {
        self.reservations.values()
    }

    /// Open reservation count.
    pub fn open(&self) -> usize {
        self.reservations.len()
    }

    /// Total committed cores right now.
    pub fn committed_cores(&self) -> u64 {
        self.committed.iter().map(|&c| u64::from(c)).sum()
    }

    /// Core-seconds conservation counter: everything ever admitted.
    pub fn admitted_cores(&self) -> u64 {
        self.admitted_cores
    }

    /// Core-seconds conservation counter: everything ever released.
    /// Invariant: `admitted == released + committed`.
    pub fn released_cores(&self) -> u64 {
        self.released_cores
    }

    /// A scoring view of the current state: residents in job-id order.
    pub fn view(&self) -> ResidualView {
        ResidualView::with_residents(self.budget, self.residual(), self.reservations.values())
    }
}

/// A point-in-time capacity view placements are computed against:
/// per-node free cores plus the resident members that interference
/// scoring must include. Built from a [`ResidencyMap`] (live state) or
/// synthesized (shadow states during backfill checks).
#[derive(Debug, Clone)]
pub struct ResidualView {
    /// The platform.
    pub budget: NodeBudget,
    /// Free cores per node.
    pub free: Vec<u32>,
    /// Every resident member, concatenated in residency order. The
    /// order is part of the score: the solver's float sums and Spread
    /// socket round-robin run in member order. Private together with
    /// `resident_assignment` so the two cannot disagree in length.
    residents: EnsembleShape,
    /// The residents' flattened physical node assignment.
    resident_assignment: Vec<usize>,
}

impl ResidualView {
    /// An all-free view of `budget` with no residents.
    pub fn empty(budget: NodeBudget) -> Self {
        let free = vec![budget.cores_per_node; budget.max_nodes];
        ResidualView::with_residents(budget, free, std::iter::empty())
    }

    /// A view with `free` cores per node beside `reservations`, whose
    /// members become the residents in iteration order.
    pub fn with_residents<'a>(
        budget: NodeBudget,
        free: Vec<u32>,
        reservations: impl IntoIterator<Item = &'a Reservation>,
    ) -> Self {
        let mut residents = EnsembleShape { members: Vec::new() };
        let mut resident_assignment = Vec::new();
        for res in reservations {
            residents.members.extend(res.shape.members.iter().cloned());
            resident_assignment.extend_from_slice(&res.assignment);
        }
        ResidualView { budget, free, residents, resident_assignment }
    }
}

/// Where one submitted ensemble was placed, and how the decision
/// ranked.
#[derive(Debug, Clone)]
pub struct PlacementDecision {
    /// Flattened physical node assignment (member-major, sim first).
    pub assignment: Vec<usize>,
    /// The canonical (relabeled) form — the enumeration candidate the
    /// physical assignment was mapped from.
    pub canonical: Vec<usize>,
    /// Combined objective `F` over residents + this job — the
    /// interference-aware score the decision maximized.
    pub objective: f64,
    /// Predicted makespan of this job alone at its physical nodes —
    /// the deterministic duration backfill reasons with.
    pub solo_makespan: f64,
    /// Distinct nodes the job occupies.
    pub nodes_used: usize,
    /// Candidates enumerated by the scan.
    pub scanned: usize,
    /// Candidates that fit the residual capacity.
    pub feasible: usize,
    /// Whether the scheduler started this job ahead of an
    /// earlier-admitted job still waiting: EASY backfill.
    pub backfilled: bool,
}

/// Reusable buffers of [`best_fit_mapping`]: one set per scan worker,
/// not three allocations per candidate.
#[derive(Debug, Default)]
struct FitScratch {
    order: Vec<usize>,
    taken: Vec<bool>,
    mapping: Vec<usize>,
}

/// Maps each virtual node of a canonical candidate onto a distinct
/// physical node with enough free cores: virtual nodes in load-desc
/// order (ties: lower id first), each taking the fittable physical
/// node with the least free capacity (ties: lower id first). `None`
/// when no injective mapping exists — and best-fit-decreasing finds a
/// mapping whenever one exists: if the optimal solution gives the
/// largest load some node `f'`, swapping to the smallest feasible `f`
/// frees `f' ≥ f`, which any load previously on `f` also fits.
fn best_fit_mapping<'a>(
    virtual_loads: &[u32],
    free: &[u32],
    scratch: &'a mut FitScratch,
) -> Option<&'a [usize]> {
    let FitScratch { order, taken, mapping } = scratch;
    order.clear();
    order.extend(0..virtual_loads.len());
    order.sort_by_key(|&v| (std::cmp::Reverse(virtual_loads[v]), v));
    taken.clear();
    taken.resize(free.len(), false);
    mapping.clear();
    mapping.resize(virtual_loads.len(), usize::MAX);
    for &v in order.iter() {
        let need = virtual_loads[v];
        let slot = free
            .iter()
            .enumerate()
            .filter(|&(i, &f)| !taken[i] && f >= need)
            .min_by_key(|&(i, &f)| (f, i))
            .map(|(i, _)| i)?;
        taken[slot] = true;
        mapping[v] = slot;
    }
    Some(mapping)
}

/// Per-worker scan state for [`place_against`]: one evaluator over the
/// combined shape (residents, then the job), the assignment it is fed —
/// the residents' fixed nodes, then the candidate's — and the buffers
/// the candidate's physical mapping is worked out in.
struct PlaceState {
    eval: DeltaEvaluator,
    assignment: Vec<usize>,
    virtual_loads: Vec<u32>,
    fit: FitScratch,
}

/// The surviving candidate of a residual scan.
#[derive(Debug, Clone)]
struct CandidateHit {
    physical: Vec<usize>,
    canonical: Vec<usize>,
    objective: f64,
    nodes_used: usize,
}

/// The scan of [`place_against`]: each candidate mapped onto the free
/// capacity, then scored together with the residents.
struct PlaceScan<'a> {
    view: &'a ResidualView,
    base: &'a SimRunConfig,
    solves: &'a Arc<SolveCache>,
    /// Residents, then the job.
    combined: EnsembleShape,
    /// The job's per-component cores.
    cores: Vec<u32>,
}

impl ScanVisitor for PlaceScan<'_> {
    type State = PlaceState;
    /// The combined objective and the nodes the job opens.
    type Scored = (f64, usize);
    type Row = CandidateHit;
    type Error = RuntimeError;

    fn init(&self) -> PlaceState {
        let mut assignment = self.view.resident_assignment.clone();
        assignment.resize(self.combined.num_components(), 0);
        PlaceState {
            eval: DeltaEvaluator::with_solve_cache(self.base, &self.combined, self.solves),
            assignment,
            virtual_loads: Vec::new(),
            fit: FitScratch::default(),
        }
    }

    fn eval(
        &self,
        state: &mut PlaceState,
        c: Candidate<'_>,
    ) -> Result<Option<(f64, usize)>, RuntimeError> {
        let virtual_nodes = c.assignment.iter().copied().max().map_or(0, |m| m + 1);
        state.virtual_loads.clear();
        state.virtual_loads.resize(virtual_nodes, 0);
        for (&v, &demand) in c.assignment.iter().zip(&self.cores) {
            state.virtual_loads[v] += demand;
        }
        let Some(mapping) = best_fit_mapping(&state.virtual_loads, &self.view.free, &mut state.fit)
        else {
            return Ok(None);
        };
        let physical = &mut state.assignment[self.view.resident_assignment.len()..];
        for (slot, &v) in physical.iter_mut().zip(c.assignment) {
            *slot = mapping[v];
        }
        let score = state.eval.score(&state.assignment)?;
        Ok(Some((score.objective, virtual_nodes)))
    }

    fn objective(&self, &(objective, _): &(f64, usize)) -> f64 {
        objective
    }

    // Only a candidate that takes the top slot is copied out; the state
    // still holds the physical nodes `eval` just mapped it to.
    fn keep(&self, state: &mut PlaceState, c: Candidate<'_>, scored: (f64, usize)) -> CandidateHit {
        let (objective, nodes_used) = scored;
        CandidateHit {
            physical: state.assignment[self.view.resident_assignment.len()..].to_vec(),
            canonical: c.assignment.to_vec(),
            objective,
            nodes_used,
        }
    }
}

/// Places `shape` against the remaining capacity in `view`, scoring
/// every fitting candidate together with the resident members and
/// returning the best (or `None` when nothing fits). Deterministic at
/// any `opts.workers`: candidates are ranked `(combined objective
/// desc, enumeration index asc)` by the scan engine's merge.
///
/// Each candidate is one assignment of the combined shape whose
/// resident prefix never changes, so the worker's [`DeltaEvaluator`]
/// re-solves only the nodes the job's components moved between. Its
/// own diff finds them: the scan's first-changed hint describes
/// canonical neighbours, and the best-fit mapping can permute physical
/// nodes between them. Node solves, of the combined shape and of the
/// job alone, go through `solves` — pass the same cache to every call
/// that scores under `base` and each occupancy is solved once, not
/// once per call; the decision does not depend on what it holds.
pub fn place_against(
    shape: &EnsembleShape,
    view: &ResidualView,
    base: &SimRunConfig,
    solves: &Arc<SolveCache>,
    opts: &ScanOptions,
) -> Result<Option<PlacementDecision>, CoschedError> {
    let mut combined = view.residents.clone();
    combined.members.extend(shape.members.iter().cloned());
    let visitor = PlaceScan { view, base, solves, combined, cores: shape.component_cores() };
    let outcome =
        scan_placements(shape, view.budget, &ScanOptions { top_k: 1, ..*opts }, &visitor)?;
    let scanned = outcome.scanned;
    let feasible = outcome.feasible;
    let Some(best) = outcome.results.into_iter().next() else {
        return Ok(None);
    };
    let hit = best.value;
    // The job's own predicted duration: its shape scored alone.
    let solo = DeltaEvaluator::with_solve_cache(base, shape, solves).score(&hit.physical)?;
    Ok(Some(PlacementDecision {
        assignment: hit.physical,
        canonical: hit.canonical,
        objective: hit.objective,
        solo_makespan: solo.ensemble_makespan,
        nodes_used: hit.nodes_used,
        scanned,
        feasible,
        backfilled: false,
    }))
}

/// How an offered job was admitted.
#[derive(Debug, Clone)]
pub enum Admission {
    /// Reserved and ready to run at the decided placement.
    Placed(PlacementDecision),
    /// Waiting in the bounded queue at this depth (0 = head).
    Queued {
        /// Position in the wait queue.
        depth: usize,
    },
    /// The wait queue is full.
    Shed,
    /// The shape cannot fit even an idle platform.
    Infeasible,
}

/// Running totals of the admission loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoschedCounters {
    /// Jobs offered to the scheduler.
    pub submitted: u64,
    /// Jobs placed (immediately or after queueing).
    pub placed: u64,
    /// Jobs that waited in the queue at least once.
    pub queued: u64,
    /// Jobs rejected because the queue was full.
    pub shed: u64,
    /// Jobs rejected as infeasible on an idle platform.
    pub infeasible: u64,
    /// Jobs placed ahead of the queue head by backfill.
    pub backfilled: u64,
    /// Reservations released.
    pub released: u64,
    /// Queued jobs cancelled before placement.
    pub cancelled: u64,
}

/// A job waiting for capacity.
#[derive(Debug, Clone)]
struct Waiting {
    job: u64,
    shape: EnsembleShape,
}

/// Configuration of a [`CoScheduler`].
#[derive(Debug, Clone)]
pub struct CoschedConfig {
    /// The platform to schedule onto.
    pub budget: NodeBudget,
    /// Bounded wait-queue capacity; offers beyond it shed.
    pub queue_capacity: usize,
    /// Allow EASY backfill past the queue head.
    pub backfill: bool,
    /// Scan tuning for placement decisions.
    pub scan: ScanOptions,
}

impl CoschedConfig {
    /// A scheduler over `budget` with a 64-deep queue and backfill on,
    /// placing each job with a scan on one thread: a width of zero would
    /// ask the host its parallelism on every placement.
    pub fn new(budget: NodeBudget) -> Self {
        let scan = ScanOptions { workers: 1, ..ScanOptions::default() };
        CoschedConfig { budget, queue_capacity: 64, backfill: true, scan }
    }
}

/// The online admission loop: FIFO with EASY backfill, deterministic
/// end to end. Thread-unaware by design — the service wraps it in a
/// mutex and drives it from admission and completion events.
#[derive(Debug, Clone)]
pub struct CoScheduler {
    cfg: CoschedConfig,
    base: SimRunConfig,
    /// Node solves under `base`, shared by every placement decision.
    solves: Arc<SolveCache>,
    residency: ResidencyMap,
    queue: VecDeque<Waiting>,
    virtual_now: f64,
    next_seq: u64,
    counters: CoschedCounters,
}

impl CoScheduler {
    /// A scheduler placing against `cfg.budget`, scoring candidates
    /// under `base`'s platform and workloads.
    pub fn new(cfg: CoschedConfig, base: SimRunConfig) -> Self {
        CoScheduler {
            residency: ResidencyMap::new(cfg.budget),
            queue: VecDeque::new(),
            virtual_now: 0.0,
            next_seq: 0,
            counters: CoschedCounters::default(),
            solves: Arc::new(SolveCache::new(&base)),
            cfg,
            base,
        }
    }

    /// The live residency map.
    pub fn residency(&self) -> &ResidencyMap {
        &self.residency
    }

    /// Admission counters.
    pub fn counters(&self) -> CoschedCounters {
        self.counters
    }

    /// Jobs currently waiting.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Virtual clock (max predicted end over released jobs).
    pub fn virtual_now(&self) -> f64 {
        self.virtual_now
    }

    /// True when nothing is resident and nothing is queued.
    pub fn is_idle(&self) -> bool {
        self.residency.is_empty() && self.queue.is_empty()
    }

    /// Offers a job. Places it if capacity allows (directly at the
    /// head of an empty queue, or by backfill past a non-empty one),
    /// otherwise queues or sheds it.
    pub fn submit(&mut self, job: u64, shape: EnsembleShape) -> Result<Admission, CoschedError> {
        self.counters.submitted += 1;
        if self.queue.is_empty() {
            if let Some(decision) = self.try_place(job, &shape, false)? {
                return Ok(Admission::Placed(decision));
            }
        } else if self.cfg.backfill {
            if let Some(decision) = self.try_backfill(job, &shape)? {
                return Ok(Admission::Placed(decision));
            }
        }
        // Never enqueue a job that cannot fit even an idle platform.
        if self.place(&shape, &ResidualView::empty(self.cfg.budget))?.is_none() {
            self.counters.infeasible += 1;
            return Ok(Admission::Infeasible);
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.counters.shed += 1;
            return Ok(Admission::Shed);
        }
        self.queue.push_back(Waiting { job, shape });
        self.counters.queued += 1;
        Ok(Admission::Queued { depth: self.queue.len() - 1 })
    }

    /// Releases `job`'s reservation (completion, failure, or
    /// cancellation of a running job) and drains the queue: the head
    /// first, then — if backfill is on — later jobs that pass the
    /// backfill test. Returns every job started by this event, in
    /// start order. Idempotent for unknown jobs.
    pub fn release(&mut self, job: u64) -> Result<Vec<(u64, PlacementDecision)>, CoschedError> {
        if let Some(res) = self.residency.release(job) {
            self.counters.released += 1;
            if res.predicted_end > self.virtual_now {
                self.virtual_now = res.predicted_end;
            }
        }
        self.pump()
    }

    /// Rolls back a placement that was never started (e.g. the
    /// execution pool refused the job right after admission): the
    /// reservation closes, but — unlike [`CoScheduler::release`] — the
    /// virtual clock does not advance and the queue is not pumped, so
    /// the withdrawal is invisible to later scheduling decisions.
    /// Returns false if the job holds no reservation.
    pub fn withdraw(&mut self, job: u64) -> bool {
        let withdrawn = self.residency.release(job).is_some();
        if withdrawn {
            self.counters.released += 1;
        }
        withdrawn
    }

    /// Removes a queued job before placement (client cancellation or
    /// deadline expiry). Returns false if the job is not queued.
    pub fn cancel_queued(&mut self, job: u64) -> bool {
        let before = self.queue.len();
        self.queue.retain(|w| w.job != job);
        let removed = self.queue.len() < before;
        if removed {
            self.counters.cancelled += 1;
        }
        removed
    }

    /// Restores a reservation during journal replay — capacity is
    /// committed without a scheduling decision. The virtual clock
    /// advances to cover the restored job's predicted end so
    /// post-restart admissions reason about it correctly.
    pub fn restore(&mut self, res: Reservation) -> Result<(), CoschedError> {
        if res.predicted_end > self.virtual_now {
            self.virtual_now = res.predicted_end;
        }
        if res.seq >= self.next_seq {
            self.next_seq = res.seq + 1;
        }
        self.residency.reserve(res)
    }

    /// Drains the queue as far as capacity allows: head first, then
    /// backfill. Public so the service can pump after replay.
    pub fn pump(&mut self) -> Result<Vec<(u64, PlacementDecision)>, CoschedError> {
        let mut started = Vec::new();
        // The head gets strict priority.
        while let Some(head) = self.queue.front().cloned() {
            if let Some(decision) = self.try_place(head.job, &head.shape, false)? {
                self.queue.pop_front();
                started.push((head.job, decision));
                continue;
            }
            if !self.cfg.backfill {
                break;
            }
            // Head blocked: scan the rest of the queue in FIFO order
            // for the first job that passes the backfill test, place
            // it, and re-run the loop (capacity changed).
            let mut placed = None;
            for i in 1..self.queue.len() {
                let w = self.queue[i].clone();
                if let Some(decision) = self.try_backfill(w.job, &w.shape)? {
                    placed = Some((i, w.job, decision));
                    break;
                }
            }
            match placed {
                Some((i, job, decision)) => {
                    self.queue.remove(i);
                    started.push((job, decision));
                }
                None => break,
            }
        }
        Ok(started)
    }

    /// [`place_against`] under this scheduler's model, scan tuning and
    /// solve cache.
    fn place(
        &self,
        shape: &EnsembleShape,
        view: &ResidualView,
    ) -> Result<Option<PlacementDecision>, CoschedError> {
        place_against(shape, view, &self.base, &self.solves, &self.cfg.scan)
    }

    /// Places `job` against the current residual if it fits, opening
    /// its reservation.
    fn try_place(
        &mut self,
        job: u64,
        shape: &EnsembleShape,
        backfilled: bool,
    ) -> Result<Option<PlacementDecision>, CoschedError> {
        let view = self.residency.view();
        let Some(mut decision) = self.place(shape, &view)? else {
            return Ok(None);
        };
        decision.backfilled = backfilled;
        let (node_load, staging) =
            node_loads(shape, &decision.assignment, self.cfg.budget.max_nodes);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.residency.reserve(Reservation {
            job,
            shape: shape.clone(),
            assignment: decision.assignment.clone(),
            node_load,
            staging,
            predicted_end: self.virtual_now + decision.solo_makespan,
            seq,
        })?;
        self.counters.placed += 1;
        if backfilled {
            self.counters.backfilled += 1;
        }
        Ok(Some(decision))
    }

    /// EASY backfill test for a job behind a blocked head: the job
    /// must fit the residual now, and must either (by predicted time)
    /// finish before the head's shadow start, or leave the head's
    /// shadow placement intact node-for-node.
    fn try_backfill(
        &mut self,
        job: u64,
        shape: &EnsembleShape,
    ) -> Result<Option<PlacementDecision>, CoschedError> {
        let head = match self.queue.front() {
            Some(h) => h.clone(),
            None => return Ok(None),
        };
        let view = self.residency.view();
        let Some(candidate) = self.place(shape, &view)? else {
            return Ok(None);
        };
        let Some(shadow) = self.head_shadow(&head.shape)? else {
            // Head feasible now — pump will place it; don't jump it.
            return Ok(None);
        };
        let ends_before_shadow =
            self.virtual_now + candidate.solo_makespan <= shadow.start_at + 1e-9;
        if !ends_before_shadow {
            // The candidate outlives the shadow start: it must coexist
            // with the head's shadow placement on every node.
            let (cand_load, _) =
                node_loads(shape, &candidate.assignment, self.cfg.budget.max_nodes);
            let fits = cand_load
                .iter()
                .zip(&shadow.head_load)
                .zip(&shadow.free)
                .all(|((&c, &h), &f)| c + h <= f);
            if !fits {
                return Ok(None);
            }
        }
        self.try_place(job, shape, true)
    }

    /// The head's shadow: drain open reservations in predicted-end
    /// order until the head fits, and pin the placement it gets there.
    /// `None` when the head already fits the live residual.
    fn head_shadow(&self, head_shape: &EnsembleShape) -> Result<Option<HeadShadow>, CoschedError> {
        let mut order: Vec<&Reservation> = self.residency.reservations().collect();
        order.sort_by(|a, b| a.predicted_end.total_cmp(&b.predicted_end).then(a.seq.cmp(&b.seq)));
        let mut free = self.residency.residual();
        let mut remaining: Vec<&Reservation> = order.clone();
        let mut start_at = self.virtual_now;
        for k in 0..=order.len() {
            if k > 0 {
                let drained = order[k - 1];
                for (f, l) in free.iter_mut().zip(&drained.node_load) {
                    *f += l;
                }
                remaining.retain(|r| r.seq != drained.seq);
                start_at = drained.predicted_end.max(start_at);
            }
            let view = ResidualView::with_residents(
                self.cfg.budget,
                free.clone(),
                remaining.iter().copied(),
            );
            if let Some(decision) = self.place(head_shape, &view)? {
                if k == 0 {
                    return Ok(None);
                }
                let (head_load, _) =
                    node_loads(head_shape, &decision.assignment, self.cfg.budget.max_nodes);
                return Ok(Some(HeadShadow { start_at, free, head_load }));
            }
        }
        // Queued jobs are idle-platform feasible, so the full drain
        // always fits; unreachable, but fail safe (no backfill).
        Ok(Some(HeadShadow {
            start_at: f64::INFINITY,
            free: vec![0; self.cfg.budget.max_nodes],
            head_load: vec![0; self.cfg.budget.max_nodes],
        }))
    }
}

/// The head's pinned future placement during a backfill check.
struct HeadShadow {
    /// Virtual time the head is predicted to start.
    start_at: f64,
    /// Free cores per node at that point (without the backfill
    /// candidate).
    free: Vec<u32>,
    /// Cores per node the head's shadow placement takes.
    head_load: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::WorkloadMap;

    fn budget(nodes: usize) -> NodeBudget {
        NodeBudget { max_nodes: nodes, cores_per_node: 32 }
    }

    fn base(shape: &EnsembleShape) -> SimRunConfig {
        let placeholder = shape.materialize(&vec![0; shape.num_components()]);
        let mut cfg = SimRunConfig::paper(placeholder);
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.n_steps = 6;
        cfg
    }

    fn member(sim: u32, ana: u32) -> EnsembleShape {
        EnsembleShape::uniform(1, sim, 1, ana)
    }

    fn sched(nodes: usize) -> CoScheduler {
        let shape = member(16, 8);
        CoScheduler::new(CoschedConfig::new(budget(nodes)), base(&shape))
    }

    fn placed(adm: Admission) -> PlacementDecision {
        match adm {
            Admission::Placed(d) => d,
            other => panic!("expected placement, got {other:?}"),
        }
    }

    #[test]
    fn best_fit_mapping_is_exact_and_deterministic() {
        // Loads [20, 10] onto frees [12, 32, 20]: 20 → node 2 (exact
        // fit), 10 → node 0 (smallest that fits).
        let mut scratch = FitScratch::default();
        let mut fit = |loads: &[u32], free: &[u32]| {
            best_fit_mapping(loads, free, &mut scratch).map(<[usize]>::to_vec)
        };
        assert_eq!(fit(&[20, 10], &[12, 32, 20]), Some(vec![2, 0]));
        // No injective fit: two 20s into one big node. (The scratch is
        // reused across calls, as a scan worker reuses it.)
        assert_eq!(fit(&[20, 20], &[32, 12]), None);
        // Sorted-desc element-wise fit exists → mapping found.
        assert_eq!(fit(&[8, 8, 8], &[8, 8, 8]), Some(vec![0, 1, 2]));
    }

    #[test]
    fn residency_conserves_cores() {
        let mut map = ResidencyMap::new(budget(3));
        let shape = member(16, 8);
        let (node_load, staging) = node_loads(&shape, &[0, 0], 3);
        map.reserve(Reservation {
            job: 1,
            shape: shape.clone(),
            assignment: vec![0, 0],
            node_load,
            staging,
            predicted_end: 1.0,
            seq: 0,
        })
        .unwrap();
        assert_eq!(map.committed_cores(), 24);
        assert_eq!(map.admitted_cores(), 24);
        assert_eq!(map.released_cores(), 0);
        assert!(map.release(1).is_some());
        assert!(map.release(1).is_none(), "release is idempotent");
        assert!(map.is_empty());
        assert_eq!(map.admitted_cores(), map.released_cores());
    }

    #[test]
    fn reserve_rejects_overcommit_and_duplicates() {
        let mut map = ResidencyMap::new(budget(1));
        let shape = member(16, 8);
        let (node_load, staging) = node_loads(&shape, &[0, 0], 1);
        let res = Reservation {
            job: 7,
            shape,
            assignment: vec![0, 0],
            node_load: node_load.clone(),
            staging: staging.clone(),
            predicted_end: 1.0,
            seq: 0,
        };
        map.reserve(res.clone()).unwrap();
        assert!(matches!(map.reserve(res.clone()), Err(CoschedError::DuplicateJob(7))));
        let mut big = res;
        big.job = 8;
        big.node_load = vec![16];
        assert!(matches!(map.reserve(big), Err(CoschedError::CapacityExceeded { .. })));
        // Failed reserves leave the map unchanged.
        assert_eq!(map.committed_cores(), 24);
    }

    #[test]
    fn concurrent_placements_never_overlap() {
        let mut s = sched(2);
        let shape = member(16, 8);
        let d1 = placed(s.submit(1, shape.clone()).unwrap());
        let d2 = placed(s.submit(2, shape.clone()).unwrap());
        // 24 cores each on 32-core nodes: each job gets its own node.
        let n1: std::collections::BTreeSet<_> = d1.assignment.iter().collect();
        let n2: std::collections::BTreeSet<_> = d2.assignment.iter().collect();
        assert!(n1.is_disjoint(&n2), "{:?} vs {:?}", d1.assignment, d2.assignment);
        for free in s.residency().residual() {
            assert_eq!(free, 8);
        }
    }

    #[test]
    fn full_platform_queues_then_drains_fifo() {
        let mut s = sched(2);
        let shape = member(16, 8);
        placed(s.submit(1, shape.clone()).unwrap());
        placed(s.submit(2, shape.clone()).unwrap());
        assert!(matches!(s.submit(3, shape.clone()).unwrap(), Admission::Queued { depth: 0 }));
        assert!(matches!(s.submit(4, shape.clone()).unwrap(), Admission::Queued { depth: 1 }));
        let started = s.release(1).unwrap();
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].0, 3, "FIFO: job 3 before job 4");
        let started = s.release(2).unwrap();
        assert_eq!(started[0].0, 4);
        s.release(3).unwrap();
        s.release(4).unwrap();
        assert!(s.residency().is_empty(), "map must drain to empty");
        assert_eq!(s.residency().admitted_cores(), s.residency().released_cores());
    }

    #[test]
    fn infeasible_shapes_are_rejected_not_queued() {
        let mut s = sched(1);
        let too_big = EnsembleShape::uniform(2, 16, 1, 8); // 48 > 32
        assert!(matches!(s.submit(1, too_big).unwrap(), Admission::Infeasible));
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn components_wider_than_a_node_never_panic_admission() {
        // Wire shapes only have to fit u32, and the service calls
        // `submit` holding its admission locks: nothing fits, nothing
        // panics, with or without residents.
        let mut s = sched(2);
        placed(s.submit(1, member(16, 8)).unwrap());
        for (job, shape) in [(2, member(70_000, 8)), (3, member(16, 70_000)), (4, member(33, 1))] {
            assert!(matches!(s.submit(job, shape).unwrap(), Admission::Infeasible));
        }
        // A budget that claims nodes wider than the platform model's
        // lets the candidate through to the evaluator, which reports
        // the node it overflows — an error, and the next job places.
        let wide = NodeBudget { max_nodes: 1, cores_per_node: 100_000 };
        let mut s = CoScheduler::new(CoschedConfig::new(wide), base(&member(16, 8)));
        assert!(matches!(s.submit(1, member(70_000, 8)), Err(CoschedError::Eval(_))));
        placed(s.submit(2, member(16, 8)).unwrap());
    }

    #[test]
    fn a_default_config_places_on_one_scan_thread() {
        let cfg = CoschedConfig::new(budget(2));
        assert_eq!((cfg.scan.workers, cfg.queue_capacity, cfg.backfill), (1, 64, true));
    }

    #[test]
    fn bounded_queue_sheds() {
        let shape = member(16, 8);
        let mut s = CoScheduler::new(
            CoschedConfig { queue_capacity: 1, ..CoschedConfig::new(budget(1)) },
            base(&shape),
        );
        placed(s.submit(1, shape.clone()).unwrap());
        assert!(matches!(s.submit(2, shape.clone()).unwrap(), Admission::Queued { .. }));
        assert!(matches!(s.submit(3, shape.clone()).unwrap(), Admission::Shed));
        assert_eq!(s.counters().shed, 1);
    }

    #[test]
    fn cancel_queued_releases_no_capacity() {
        let mut s = sched(1);
        let shape = member(16, 8);
        placed(s.submit(1, shape.clone()).unwrap());
        assert!(matches!(s.submit(2, shape.clone()).unwrap(), Admission::Queued { .. }));
        assert!(s.cancel_queued(2));
        assert!(!s.cancel_queued(2));
        let started = s.release(1).unwrap();
        assert!(started.is_empty(), "cancelled job must not start");
        assert!(s.is_idle());
    }

    #[test]
    fn backfill_starts_a_small_job_that_fits_beside_the_shadow() {
        // Node 0 busy with a 24-core job; head wants two nodes'
        // worth (two members), blocked; a small 1-member job fits the
        // idle node 1 and coexists with the head's shadow (which
        // reuses node 0's capacity plus node 1's remainder? no: the
        // head's shadow starts after job 1 drains, and the small job
        // coexists only if shadow loads + its own fit every node).
        let shape_small = member(8, 4);
        let shape_big = EnsembleShape::uniform(2, 16, 1, 8);
        let mut s = sched(2);
        placed(s.submit(1, member(16, 8)).unwrap()); // 24 on node 0
        placed(s.submit(2, member(16, 8)).unwrap()); // 24 on node 1
        assert!(matches!(s.submit(3, shape_big.clone()).unwrap(), Admission::Queued { .. }));
        // 12 cores fit the 8+8 residual? No: 12 > 8 per node. Use a
        // genuinely small job that fits one node's 8 free cores.
        let tiny = EnsembleShape::uniform(1, 4, 1, 4);
        match s.submit(4, tiny).unwrap() {
            Admission::Placed(_) => {
                assert_eq!(s.counters().backfilled, 1);
            }
            Admission::Queued { .. } => {
                // Backfill declined: the tiny job would collide with
                // the head's shadow. Either is deterministic; what
                // matters is it never displaces the head.
            }
            other => panic!("unexpected admission {other:?}"),
        }
        let _ = shape_small;
        // Drain everything; the map must come back empty.
        for job in [1u64, 2, 3, 4] {
            let _ = s.release(job).unwrap();
        }
        while !s.residency().is_empty() {
            let open: Vec<u64> = s.residency().reservations().map(|r| r.job).collect();
            for job in open {
                let _ = s.release(job).unwrap();
            }
        }
        assert!(s.is_idle());
    }

    #[test]
    fn identical_streams_reproduce_identical_schedules() {
        let shape = member(16, 8);
        let drive = || {
            let mut s = sched(2);
            let mut log: Vec<(u64, Vec<usize>, u64)> = Vec::new();
            for job in 1..=4u64 {
                if let Admission::Placed(d) = s.submit(job, shape.clone()).unwrap() {
                    log.push((job, d.assignment, d.objective.to_bits()));
                }
            }
            for job in 1..=4u64 {
                for (j, d) in s.release(job).unwrap() {
                    log.push((j, d.assignment, d.objective.to_bits()));
                }
            }
            log
        };
        assert_eq!(drive(), drive(), "same stream, same schedule, bit for bit");
    }

    #[test]
    fn placement_scores_include_resident_interference() {
        // With a resident on node 0, a new job's best placement avoids
        // node 0 when an idle node exists.
        let mut s = sched(2);
        let shape = member(16, 8);
        let d1 = placed(s.submit(1, shape.clone()).unwrap());
        let d2 = placed(s.submit(2, shape.clone()).unwrap());
        let n1: std::collections::BTreeSet<_> = d1.assignment.iter().copied().collect();
        assert!(d2.assignment.iter().all(|n| !n1.contains(n)));
    }

    #[test]
    fn restore_rebuilds_capacity_for_new_admissions() {
        let mut s = sched(2);
        let shape = member(16, 8);
        let (node_load, staging) = node_loads(&shape, &[0, 0], 2);
        s.restore(Reservation {
            job: 9,
            shape: shape.clone(),
            assignment: vec![0, 0],
            node_load,
            staging,
            predicted_end: 5.0,
            seq: 3,
        })
        .unwrap();
        assert_eq!(s.virtual_now(), 5.0);
        let d = placed(s.submit(10, shape.clone()).unwrap());
        assert!(d.assignment.iter().all(|&n| n == 1), "restored node 0 is occupied");
    }
}
