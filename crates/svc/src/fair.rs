//! The admission state: per-tenant policy, the tenant rows, and the
//! weighted fair worker queue, under one lock.
//!
//! [`TenantPolicy`] is the operator-facing configuration: per-tenant
//! slot quotas (admission-time back-pressure), per-tenant dequeue
//! weights, and an optional default quota for tenants not named
//! explicitly. When the policy is inactive — no quota, no weight, no
//! default — the service routes every request through one implicit
//! lane and behavior is bit-identical to a plain bounded FIFO.
//!
//! [`FairQueue`] is the one admission state — the lanes, the tenant rows,
//! the policy, the capacity and the closed flag — behind one `Mutex` and
//! its `Condvar`. Resolving a tenant to its row and lane, the quota check,
//! the push and the ledger entry are one call under that lock; workers
//! pop from it. Nothing here reads a clock: callers hand in durations.
//! It dequeues by deterministic weighted round-robin across per-tenant
//! FIFO lanes:
//!
//! * **Lanes** are created on first push, in first-push order, and
//!   never reordered. Untagged traffic shares one implicit lane.
//! * **Pop order** is a pure function of the push/pop sequence: a
//!   cursor walks the lanes in creation order; on entering a lane its
//!   credit recharges to its weight, and each pop from the lane spends
//!   one credit. No clocks, no hashes, no randomness — identical
//!   serial submission streams reproduce identical dequeue orders
//!   bit for bit.
//! * **No starvation**: every nonempty lane is visited — and served at
//!   least once — within one full cursor cycle, so a lane waits at most
//!   one weighted round (the sum of the other lanes' weights) for
//!   service no matter how fast another tenant submits.
//! * **FIFO within a lane**: each lane is a `VecDeque`; tenant-local
//!   ordering is submission order.
//! * **Work conservation**: empty lanes are skipped without consuming
//!   the round, so idle tenants donate their share instead of idling
//!   the pool.
//!
//! Producers never block: a push hands the item back when the *total*
//! queued count is at capacity (the caller sheds load with an
//! `Overloaded` response). Consumers block in `pop` until an item
//! arrives or the queue is closed *and* drained — the graceful-shutdown
//! semantic: close, then let workers finish what was admitted.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::protocol::{ErrorKind, Response};
use crate::stats::{LatencyHistogram, SvcStats};

/// Why a `try_push` was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue no longer accepts work (shutting down).
    Closed(T),
}

/// Per-tenant admission quotas and fair-dequeue weights.
///
/// Inactive by default: an empty policy changes nothing — no quota is
/// enforced and every request shares one dequeue lane, preserving the
/// untenanted single-user pop order byte for byte.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Per-tenant slot quotas: the maximum number of requests a tenant
    /// may hold admitted-but-unfinished (queued + in flight) at once.
    /// Tenants not listed fall back to [`TenantPolicy::default_quota`].
    pub quotas: BTreeMap<String, u64>,
    /// Per-tenant dequeue weights (items served per round-robin visit).
    /// Tenants not listed — and the untagged lane — weigh 1.
    pub weights: BTreeMap<String, u64>,
    /// Quota applied to tenants without an explicit entry. `None`
    /// means unlimited.
    pub default_quota: Option<u64>,
    /// Distinct tenants tracked in the accounting table before
    /// overflow tags fold into the shared `other` row (the cap that
    /// keeps a client cycling random tags from growing service memory
    /// without bound).
    pub max_tracked: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            quotas: BTreeMap::new(),
            weights: BTreeMap::new(),
            default_quota: None,
            max_tracked: TenantPolicy::DEFAULT_MAX_TRACKED,
        }
    }
}

impl TenantPolicy {
    /// Default cap on distinct tracked tenants.
    pub const DEFAULT_MAX_TRACKED: usize = 64;

    /// Row name overflow tenants fold into once the tracking cap is
    /// reached.
    pub const OVERFLOW_TENANT: &'static str = "other";

    /// True when any quota, weight, or default quota is configured —
    /// i.e. when admission control and fair dequeueing are on. An
    /// inactive policy leaves wire behavior identical to a service
    /// without tenant support.
    pub fn is_active(&self) -> bool {
        !self.quotas.is_empty() || !self.weights.is_empty() || self.default_quota.is_some()
    }

    /// The slot quota applied to `tenant` (`None` = unlimited).
    pub fn quota_for(&self, tenant: &str) -> Option<u64> {
        self.quotas.get(tenant).copied().or(self.default_quota)
    }

    /// The dequeue weight of `tenant` (≥ 1).
    pub fn weight_for(&self, tenant: &str) -> u64 {
        self.weights.get(tenant).copied().unwrap_or(1).max(1)
    }
}

/// What the admission state reads of a request it holds.
pub trait Tagged {
    /// The tenant tag it is booked under; `None` for untagged traffic.
    fn tag(&self) -> Option<&str>;
}

/// Why admission refused a request; the caller words the reply.
pub(crate) enum Refusal {
    /// Shed behind this backlog: the queue's depth, or the tenant's
    /// occupancy at its quota.
    Overloaded(u64),
    Closed,
}

/// How a request reaches the worker queue.
pub(crate) enum Entry {
    /// From the door: its quota is checked; booked admitted or refused.
    Fresh,
    /// Placed by the co-scheduler after [`FairQueue::hold`] took its
    /// slot: booked like `Fresh`, and the slot given back either way.
    Held,
    /// Started out of the co-scheduler's wait queue, where it was
    /// admitted: no quota check, and nothing booked.
    Waited,
}

/// A step in a request's life, as [`count`] books it.
pub(crate) enum Step<'a> {
    /// Answered at the door with this reply; never admitted. A refusal
    /// carries no latency; a score answered from the cache carries its
    /// door-to-answer time, which the latency histogram records.
    Door { reply: &'a Response, latency: Option<Duration> },
    /// Accepted into the worker queue or the co-scheduler's wait queue.
    Admit,
    /// A reservation restored from the journal: its request belongs to
    /// a previous process, but it holds its tenant's quota, with no
    /// worker, until the operator releases it.
    Restore,
    /// Popped by a worker after waiting this long.
    Start { waited: Duration },
    /// Answered with its final frame.
    Settle { reply: &'a Response, from: Stage },
    /// A restored reservation released.
    Retire,
}

/// Where an admitted job was when its final frame was decided.
pub(crate) enum Stage {
    /// In the worker queue or the co-scheduler's wait queue: reaped,
    /// rolled back at dispatch, or refused at shutdown.
    Queued,
    /// On a worker. `busy` is the time its body ran, `None` when it was
    /// drained already expired or cancelled; `latency` is
    /// submit-to-answer.
    Worker { busy: Option<Duration>, latency: Duration },
}

/// Live per-tenant accounting: the monotone counters and gauges behind
/// a tenant's `tenant_<tag>_*` metrics rows, plus the queue-wait
/// histogram.
#[derive(Default)]
pub(crate) struct TenantState {
    pub(crate) admitted: u64,
    pub(crate) executed: u64,
    pub(crate) shed: u64,
    pub(crate) expired: u64,
    pub(crate) cancelled: u64,
    /// Requests admitted but not yet picked up by a worker (worker
    /// queue or co-scheduler wait queue alike).
    pub(crate) in_queue: u64,
    /// Requests currently on a worker — or, for journal-restored
    /// orphan reservations, holding capacity with no worker.
    pub(crate) in_flight: u64,
    /// Submits holding a quota slot while the co-scheduler places them.
    deciding: u64,
    /// Submit→worker-pickup wait distribution.
    pub(crate) queue_wait: LatencyHistogram,
}

struct Lane<T> {
    /// The row it serves; `None` for the implicit lane.
    name: Option<String>,
    weight: u64,
    /// Remaining pops before the cursor must move on; recharged to
    /// `weight` each time the cursor enters the lane.
    credit: u64,
    items: VecDeque<T>,
}

/// What [`FairQueue`] locks.
pub(crate) struct Admission<T> {
    pub(crate) policy: TenantPolicy,
    capacity: usize,
    /// Made on first sight up to the policy's `max_tracked`, and never
    /// evicted, so a tag resolves to one row for good.
    pub(crate) rows: BTreeMap<String, TenantState>,
    lanes: Vec<Lane<T>>,
    cursor: usize,
    len: usize,
    closed: bool,
}

impl<T> Admission<T> {
    /// The row name `tenant` is tracked under: itself while the table
    /// has room (or the tenant is already tracked), the overflow row
    /// otherwise.
    fn resolve<'a>(&self, tenant: &'a str) -> &'a str {
        if self.rows.contains_key(tenant) || self.rows.len() < self.policy.max_tracked.max(1) {
            tenant
        } else {
            TenantPolicy::OVERFLOW_TENANT
        }
    }

    fn row(&mut self, tenant: &str) -> &mut TenantState {
        self.rows.entry(self.resolve(tenant).to_string()).or_default()
    }

    /// The index of lane `name`, made on first use. Born fully charged:
    /// the cursor may already be pointing there (it wraps to new lanes),
    /// and an uncharged lane would forfeit its first round.
    fn lane(&mut self, name: Option<&str>) -> usize {
        if let Some(idx) = self.lanes.iter().position(|lane| lane.name.as_deref() == name) {
            return idx;
        }
        let weight = name.map_or(1, |name| self.policy.weight_for(name));
        let name = name.map(str::to_string);
        self.lanes.push(Lane { name, weight, credit: weight, items: VecDeque::new() });
        self.lanes.len() - 1
    }

    /// Why `tenant` may not take another slot: it holds its quota's
    /// worth — queued, in flight, or being placed by the co-scheduler.
    fn over_quota(&mut self, tenant: &str) -> Option<Refusal> {
        let quota = self.policy.quota_for(self.resolve(tenant))?;
        let row = self.row(tenant);
        let occupancy = row.in_queue + row.in_flight + row.deciding;
        (occupancy >= quota).then_some(Refusal::Overloaded(occupancy))
    }

    /// Why the queue takes nothing more: it is closed, or holds
    /// `capacity` items across all lanes.
    fn full(&self) -> Option<Refusal> {
        if self.closed {
            return Some(Refusal::Closed);
        }
        (self.len >= self.capacity).then_some(Refusal::Overloaded(self.len as u64))
    }

    /// One weighted-round-robin pop, `None` when nothing is queued.
    ///
    /// The cursor stays on a lane while it has both items and credit;
    /// otherwise it advances (wrapping) and recharges the entered lane's
    /// credit to its weight. Empty lanes are skipped without spending the
    /// round — at most one full cycle runs before an item is found, so
    /// the walk is O(lanes) worst case and O(1) amortized.
    fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            let n = self.lanes.len();
            let lane = &mut self.lanes[self.cursor % n];
            if lane.credit > 0 && !lane.items.is_empty() {
                lane.credit -= 1;
                self.len -= 1;
                return lane.items.pop_front();
            }
            self.cursor = (self.cursor + 1) % n;
            let entered = &mut self.lanes[self.cursor];
            entered.credit = entered.weight;
        }
    }

    /// [`count`]s `step` for a request of `tenant`.
    fn book(&mut self, stats: &SvcStats, tenant: Option<&str>, step: Step<'_>) {
        count(stats, tenant.map(|tenant| (self, tenant)), step);
    }
}

/// The one ledger of a request's life: every counter a request moves is
/// moved here, the global ones and its tenant's row (`None` for
/// untagged traffic) together.
///
/// A final reply lands in the global bucket its kind names: `completed`
/// for a result, `rejected` for `overloaded`, `cancelled`,
/// `deadline_expired`, and `errored` for any other error (`invalid`,
/// `shutting_down`, ...). A tenant row counts an overload refusal as a
/// shed and no other answer at the door (a cached score included), and
/// settles an admitted job as `executed` when its body ran, else
/// `expired` when its deadline ended it, else `cancelled`. So, at every
/// quiescent point,
///
/// `submitted = completed + errored + rejected + cancelled +
/// deadline_expired + queue_depth + cosched_queue_depth + in_flight`
///
/// and, per tenant, `admitted = executed + expired + cancelled +
/// in_queue + in_flight`.
fn count<T>(stats: &SvcStats, tenant: Option<(&mut Admission<T>, &str)>, step: Step<'_>) {
    match &step {
        Step::Door { latency, .. } => {
            stats.submitted.fetch_add(1, Ordering::Relaxed);
            if let Some(latency) = latency {
                stats.latency.record(*latency);
            }
        }
        Step::Admit => {
            stats.submitted.fetch_add(1, Ordering::Relaxed);
            stats.accepted.fetch_add(1, Ordering::Relaxed);
        }
        Step::Start { .. } => {
            stats.in_flight.fetch_add(1, Ordering::Relaxed);
        }
        Step::Settle { from: Stage::Worker { busy, latency }, .. } => {
            stats.in_flight.fetch_sub(1, Ordering::Relaxed);
            // Only jobs whose body actually ran feed the service-time
            // mean. Jobs drained from the queue already expired or
            // cancelled finish in microseconds; folding them in deflated
            // the mean and made the retry hint tell shed clients to
            // hammer an overloaded pool.
            if let Some(busy) = busy {
                stats.executed.fetch_add(1, Ordering::Relaxed);
                stats.busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
            }
            stats.latency.record(*latency);
        }
        Step::Settle { from: Stage::Queued, .. } | Step::Restore | Step::Retire => {}
    }
    if let Step::Door { reply, .. } | Step::Settle { reply, .. } = &step {
        match reply {
            Response::Overloaded { .. } => stats.rejected.fetch_add(1, Ordering::Relaxed),
            Response::Error { kind: ErrorKind::Cancelled, .. } => {
                stats.cancelled.fetch_add(1, Ordering::Relaxed)
            }
            Response::Error { kind: ErrorKind::Deadline, .. } => {
                stats.deadline_expired.fetch_add(1, Ordering::Relaxed)
            }
            Response::Error { .. } => stats.errored.fetch_add(1, Ordering::Relaxed),
            _ => stats.completed.fetch_add(1, Ordering::Relaxed),
        };
    }
    let Some((state, tenant)) = tenant else { return };
    // `shed` counts only the overload refusals of jobs that never got
    // in; any other answer at the door leaves the row (and the table)
    // untouched.
    if let Step::Door { reply, .. } = &step {
        if !matches!(reply, Response::Overloaded { .. }) {
            return;
        }
    }
    let row = state.row(tenant);
    match step {
        Step::Door { .. } => row.shed += 1,
        Step::Admit => {
            row.admitted += 1;
            row.in_queue += 1;
        }
        Step::Restore => {
            row.admitted += 1;
            row.in_flight += 1;
        }
        Step::Start { waited } => {
            row.in_queue = row.in_queue.saturating_sub(1);
            row.in_flight += 1;
            row.queue_wait.record(waited);
        }
        Step::Settle { reply, from } => {
            let ran = match from {
                Stage::Queued => {
                    row.in_queue = row.in_queue.saturating_sub(1);
                    false
                }
                Stage::Worker { busy, .. } => {
                    row.in_flight = row.in_flight.saturating_sub(1);
                    busy.is_some()
                }
            };
            if ran {
                row.executed += 1;
            } else if matches!(reply, Response::Error { kind: ErrorKind::Deadline, .. }) {
                row.expired += 1;
            } else {
                row.cancelled += 1;
            }
        }
        // The job's real fate was decided by the previous process; this
        // one never ran it.
        Step::Retire => {
            row.in_flight = row.in_flight.saturating_sub(1);
            row.cancelled += 1;
        }
    }
}

/// A bounded MPMC queue with deterministic weighted round-robin dequeue
/// across per-tenant FIFO lanes, and the tenant rows it books, under one
/// lock. See the module docs.
pub struct FairQueue<T> {
    state: Mutex<Admission<T>>,
    notify: Condvar,
}

impl<T> FairQueue<T> {
    /// A queue admitting at most `capacity` items in total (minimum 1),
    /// serving lanes by `weights` (absent lanes weigh 1).
    pub fn new(capacity: usize, weights: BTreeMap<String, u64>) -> Self {
        FairQueue::with_policy(capacity, TenantPolicy { weights, ..TenantPolicy::default() })
    }

    /// A queue of `capacity` items in total (minimum 1) that admits and
    /// serves tenants by `policy`. Every tenant the policy names has a
    /// row from the start: it is visible from the first snapshot, and
    /// never folds into the overflow row however many tags come first.
    pub fn with_policy(capacity: usize, policy: TenantPolicy) -> Self {
        let named = policy.quotas.keys().chain(policy.weights.keys());
        let rows = named.map(|name| (name.clone(), TenantState::default())).collect();
        let (capacity, lanes) = (capacity.max(1), Vec::new());
        let state = Admission { policy, capacity, rows, lanes, cursor: 0, len: 0, closed: false };
        FairQueue { state: Mutex::new(state), notify: Condvar::new() }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Admission<T>> {
        self.state.lock().expect("admission lock")
    }

    /// Total admission capacity (shared across lanes).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Total queued items across lanes (racy by nature; gauges and
    /// hints only).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push into `lane` (`None` = the implicit untagged
    /// lane): enqueues or returns the item back. The capacity check is
    /// global — fair dequeueing, not per-lane reservation, is what bounds
    /// cross-tenant interference. It checks no quota and books nothing.
    pub fn try_push(&self, lane: Option<&str>, item: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        match state.full() {
            Some(Refusal::Closed) => return Err(PushError::Closed(item)),
            Some(Refusal::Overloaded(_)) => return Err(PushError::Full(item)),
            None => {}
        }
        let idx = state.lane(lane);
        state.lanes[idx].items.push_back(item);
        state.len += 1;
        drop(state);
        self.notify.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (`Some`) or the queue is
    /// closed and fully drained (`None`). Weighted round-robin across
    /// nonempty lanes; see the module docs.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.pop() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.notify.wait(state).expect("admission lock");
        }
    }

    /// Stops admissions. Already-queued items remain poppable; blocked
    /// consumers wake, drain, then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.notify.notify_all();
    }

    /// True once [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

impl<T: Tagged> FairQueue<T> {
    /// The admission of `item` into the worker queue, one step under the
    /// lock: its tenant's quota checked as `entry` says, then the room,
    /// then the push onto its row's lane, and the outcome booked. A
    /// refusal hands the item back with the reply `refuse` words. Under an
    /// inactive policy every push lands in the implicit lane, which makes
    /// the queue the exact FIFO an untenanted service has.
    pub(crate) fn admit(
        &self,
        stats: &SvcStats,
        item: T,
        entry: Entry,
        refuse: impl FnOnce(Refusal) -> Response,
    ) -> Result<(), Box<(T, Response)>> {
        let mut state = self.lock();
        let tenant = item.tag();
        let quota = match (&entry, tenant) {
            (Entry::Fresh, Some(tenant)) => state.over_quota(tenant),
            _ => None,
        };
        let refusal = quota.or_else(|| state.full());
        if let (Entry::Held, Some(tenant)) = (&entry, tenant) {
            state.row(tenant).deciding -= 1;
        }
        let Some(refusal) = refusal else {
            if !matches!(entry, Entry::Waited) {
                state.book(stats, tenant, Step::Admit);
            }
            let lane = tenant.filter(|_| state.policy.is_active()).map(|name| state.resolve(name));
            let idx = state.lane(lane);
            state.lanes[idx].items.push_back(item);
            state.len += 1;
            drop(state);
            self.notify.notify_one();
            return Ok(());
        };
        let reply = refuse(refusal);
        if !matches!(entry, Entry::Waited) {
            state.book(stats, tenant, Step::Door { reply: &reply, latency: None });
        }
        Err(Box::new((item, reply)))
    }

    /// Takes a slot of `tenant`'s quota for a submit the co-scheduler is
    /// about to place, so that the check and the slot taken are one step
    /// and no lock of this state is held through the scan; `Err` is the
    /// booked refusal. The [`Entry::Held`] push or [`decided`](Self::decided)
    /// gives the slot back. An untagged submit takes no lock.
    pub(crate) fn hold(
        &self,
        stats: &SvcStats,
        tenant: Option<&str>,
        refuse: impl FnOnce(Refusal) -> Response,
    ) -> Result<(), Response> {
        let Some(tenant) = tenant else { return Ok(()) };
        let mut state = self.lock();
        if let Some(refusal) = state.over_quota(tenant) {
            let reply = refuse(refusal);
            state.book(stats, Some(tenant), Step::Door { reply: &reply, latency: None });
            return Err(reply);
        }
        state.row(tenant).deciding += 1;
        Ok(())
    }

    /// Books a held submit the co-scheduler left waiting (`None`) or
    /// refused, and gives its slot back.
    pub(crate) fn decided(
        &self,
        stats: &SvcStats,
        tenant: Option<&str>,
        refused: Option<&Response>,
    ) {
        let step = match refused {
            Some(reply) => Step::Door { reply, latency: None },
            None => Step::Admit,
        };
        let Some(tenant) = tenant else { return count::<T>(stats, None, step) };
        let mut state = self.lock();
        state.row(tenant).deciding -= 1;
        state.book(stats, Some(tenant), step);
    }

    /// Books `step` for a request of `tenant`, locking only when there is
    /// a row to move: untagged requests take no lock.
    pub(crate) fn book(&self, stats: &SvcStats, tenant: Option<&str>, step: Step<'_>) {
        match tenant {
            Some(tenant) => self.lock().book(stats, Some(tenant), step),
            None => count::<T>(stats, None, step),
        }
    }
}

#[cfg(test)]
mod tests;
