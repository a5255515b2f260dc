//! A co-scheduled `submit`'s life between admission and a worker: the
//! [`CoScheduler`], the jobs waiting in its queue, and the tenants of
//! reservations a restart restored, behind six calls — admit, reap,
//! release (which starts what the freed capacity lets the scheduler
//! start), the rollback of a start no worker took, restore, and the
//! shutdown drain.
//!
//! Each call takes the time from its caller and returns what happened:
//! jobs to start, each with its placement, its backfill flag (decided by
//! the scheduler, nowhere else), its wait and the reservation record to
//! journal; and jobs to answer. The service carries that out — progress
//! frames, the worker queue, the journal, the ledger — under the one
//! lock it keeps this state in. Nothing here reads a clock, sends a
//! frame, appends a record or takes a lock, so a schedule replays
//! single-threaded on a fake clock.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use runtime::SimRunConfig;
use scheduler::{
    Admission, CoScheduler, CoschedConfig, CoschedError, EnsembleShape, NodeBudget,
    PlacementDecision, ScanOptions,
};

use crate::journal::ReplayedReservation;
use crate::protocol::Workloads;

/// Tuning of the optional online co-scheduler (`submit` requests).
#[derive(Debug, Clone)]
pub struct CoschedSvcConfig {
    /// The platform capacity concurrent ensembles share.
    pub budget: NodeBudget,
    /// Bounded co-scheduler wait-queue capacity; offers beyond it shed.
    pub queue_capacity: usize,
    /// Allow EASY backfill past the queue head.
    pub backfill: bool,
    /// Workload map the placement scoring models members with.
    pub workloads: Workloads,
}

impl CoschedSvcConfig {
    /// A co-scheduler over `budget`: 64-deep wait queue, backfill on,
    /// small workloads.
    pub fn new(budget: NodeBudget) -> Self {
        CoschedSvcConfig { budget, queue_capacity: 64, backfill: true, workloads: Workloads::Small }
    }
}

/// What the wait queue reads of a job it holds.
pub(crate) trait Waiter {
    fn deadline_at(&self) -> Option<Instant>;
    fn is_cancelled(&self) -> bool;
    /// The tenant its reservation is journaled under.
    fn tenant(&self) -> Option<&String>;
}

/// A job the scheduler started: it holds a reservation and is owed a
/// worker.
pub(crate) struct Start<J> {
    pub(crate) job: J,
    pub(crate) placed: Placed,
    /// The reservation record to journal once the job is on its way.
    pub(crate) reserve: ReplayedReservation,
}

/// What a started job carries to its worker.
pub(crate) struct Placed {
    /// Where it runs, and whether that start was a backfill.
    pub(crate) decision: PlacementDecision,
    /// Time spent in the wait queue; `None` when placed at admission.
    pub(crate) waited: Option<Duration>,
    /// Per-node free cores once its reservation opened.
    pub(crate) residual: Vec<u64>,
}

/// How an offered job was admitted.
pub(crate) enum Admitted<J> {
    Start(Box<Start<J>>),
    /// Waiting at this depth of the queue (0 = head).
    Queued(usize),
    /// The wait queue is full.
    Shed,
    /// The shape cannot fit even an idle platform.
    Infeasible,
}

/// What a release did: the tenant of the restored reservation it
/// retired, if it was one, and the jobs the freed capacity started.
pub(crate) struct Released<J> {
    pub(crate) retired: Option<String>,
    pub(crate) starts: Vec<Start<J>>,
}

/// The scheduler and the jobs it keeps waiting.
pub(crate) struct Cosched<J> {
    sched: CoScheduler,
    /// Waiting jobs by id, with when each was queued: exactly the ids in
    /// the scheduler's queue, which is why `sched` is read-only outside.
    waiting: BTreeMap<u64, (J, Instant)>,
    /// Tenants of reservations restored from the journal. Their jobs have
    /// no worker, so only a release retires their quota occupancy.
    restored: HashMap<u64, String>,
}

impl<J: Waiter> Cosched<J> {
    /// An idle co-scheduler over `config`, scoring placements under
    /// `base` with up to `scan_workers` threads.
    pub(crate) fn new(config: &CoschedSvcConfig, base: SimRunConfig, scan_workers: usize) -> Self {
        let scan = ScanOptions { workers: scan_workers.max(1), ..ScanOptions::default() };
        let (budget, queue_capacity, backfill) =
            (config.budget, config.queue_capacity, config.backfill);
        let sched =
            CoScheduler::new(CoschedConfig { budget, queue_capacity, backfill, scan }, base);
        Cosched { sched, waiting: BTreeMap::new(), restored: HashMap::new() }
    }

    pub(crate) fn scheduler(&self) -> &CoScheduler {
        &self.sched
    }

    pub(crate) fn waiter(&self, id: u64) -> Option<&J> {
        self.waiting.get(&id).map(|(job, _)| job)
    }

    /// Re-opens a reservation a journal left open, held by `tenant`.
    pub(crate) fn restore(
        &mut self,
        r: &ReplayedReservation,
        tenant: Option<String>,
    ) -> Result<(), CoschedError> {
        let shape = EnsembleShape { members: r.members.clone() };
        let max_nodes = self.sched.residency().budget().max_nodes;
        let (assignment, end) = (r.assignment.clone(), r.predicted_end);
        let reservation =
            scheduler::Reservation::build(r.job, shape, assignment, max_nodes, end, r.seq);
        self.sched.restore(reservation)?;
        self.restored.extend(tenant.map(|tenant| (r.job, tenant)));
        Ok(())
    }

    /// Offers job `id` of `shape` at `now`: it starts, waits, or is
    /// refused. An id that already waits or holds a reservation is a
    /// duplicate the scheduler never sees.
    pub(crate) fn admit(
        &mut self,
        id: u64,
        shape: EnsembleShape,
        job: J,
        now: Instant,
    ) -> Result<Admitted<J>, CoschedError> {
        if self.waiting.contains_key(&id) || self.holds(id) {
            return Err(CoschedError::DuplicateJob(id));
        }
        Ok(match self.sched.submit(id, shape)? {
            Admission::Placed(decision) => {
                Admitted::Start(Box::new(self.start(id, job, decision, None)))
            }
            Admission::Queued { depth } => {
                self.waiting.insert(id, (job, now));
                Admitted::Queued(depth)
            }
            Admission::Shed => Admitted::Shed,
            Admission::Infeasible => Admitted::Infeasible,
        })
    }

    /// Evicts, in id order, every waiting job that was cancelled or whose
    /// deadline is at or before `now`. Waiting jobs hold no reservation,
    /// so this frees queue slots only.
    pub(crate) fn reap(&mut self, now: Instant) -> Vec<J> {
        let dead = |job: &J| job.is_cancelled() || job.deadline_at().is_some_and(|at| at <= now);
        let ids: Vec<u64> =
            self.waiting.iter().filter(|(_, (job, _))| dead(job)).map(|(&id, _)| id).collect();
        for &id in &ids {
            self.sched.cancel_queued(id);
        }
        ids.iter().filter_map(|id| self.waiting.remove(id)).map(|(job, _)| job).collect()
    }

    /// Closes `id`'s reservation at `now` and starts every waiting job
    /// the freed capacity lets the scheduler start. `None` when `id`
    /// holds no reservation (withdrawn, or already released).
    pub(crate) fn release(&mut self, id: u64, now: Instant) -> Option<Released<J>> {
        if !self.holds(id) {
            return None;
        }
        // A placement scan that fails while pumping starts nothing now;
        // the reservation closes either way.
        let started = self.sched.release(id).unwrap_or_default();
        Some(Released { retired: self.restored.remove(&id), starts: self.waited(started, now) })
    }

    /// Rolls back a start at admission whose job could not be handed to
    /// a worker; nothing else moves.
    pub(crate) fn withdraw(&mut self, id: u64) {
        self.sched.withdraw(id);
    }

    /// Rolls back a start out of the wait queue whose job could not be
    /// handed to a worker, and starts at `now` every waiting job the
    /// capacity it gave back lets the scheduler start. The release that
    /// started it has pumped the queue already: without a second pump, a
    /// job behind it could wait on an idle platform forever.
    pub(crate) fn withdraw_waited(&mut self, id: u64, now: Instant) -> Vec<Start<J>> {
        self.sched.withdraw(id);
        let started = self.sched.pump().unwrap_or_default();
        self.waited(started, now)
    }

    /// Empties the wait queue at shutdown, handing back every waiting job.
    pub(crate) fn drain(&mut self) -> Vec<J> {
        let waiting = std::mem::take(&mut self.waiting);
        for &id in waiting.keys() {
            self.sched.cancel_queued(id);
        }
        waiting.into_values().map(|(job, _)| job).collect()
    }

    /// The starts of waiting jobs the scheduler just started, at `now`.
    fn waited(&mut self, started: Vec<(u64, PlacementDecision)>, now: Instant) -> Vec<Start<J>> {
        let mut starts = Vec::with_capacity(started.len());
        for (job_id, decision) in started {
            let (job, queued) = self.waiting.remove(&job_id).expect("a queued job waits here");
            let waited = Some(now.saturating_duration_since(queued));
            starts.push(self.start(job_id, job, decision, waited));
        }
        starts
    }

    fn holds(&self, id: u64) -> bool {
        self.sched.residency().reservations().any(|r| r.job == id)
    }

    fn start(
        &self,
        id: u64,
        job: J,
        decision: PlacementDecision,
        waited: Option<Duration>,
    ) -> Start<J> {
        let residency = self.sched.residency();
        let r =
            residency.reservations().find(|r| r.job == id).expect("a start holds its reservation");
        let reserve = ReplayedReservation {
            job: id,
            members: r.shape.members.clone(),
            assignment: r.assignment.clone(),
            predicted_end: r.predicted_end,
            seq: r.seq,
            tenant: job.tenant().cloned(),
        };
        let residual = residency.residual().into_iter().map(u64::from).collect();
        Start { job, placed: Placed { decision, waited, residual }, reserve }
    }
}

#[cfg(test)]
mod tests;
