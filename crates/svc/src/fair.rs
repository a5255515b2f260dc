//! Per-tenant admission policy and the weighted fair submission queue.
//!
//! [`TenantPolicy`] is the operator-facing configuration: per-tenant
//! slot quotas (admission-time back-pressure), per-tenant dequeue
//! weights, and an optional default quota for tenants not named
//! explicitly. When the policy is inactive — no quota, no weight, no
//! default — the service routes every request through one implicit
//! lane and behavior is bit-identical to a plain bounded FIFO.
//!
//! [`FairQueue`] dequeues by deterministic weighted round-robin across
//! per-tenant FIFO lanes:
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
//! Built on `std::sync` (`Mutex` + `Condvar`). Producers never block:
//! `try_push` hands the item back when the *total* queued count is at
//! capacity (the caller sheds load with an `Overloaded` response).
//! Consumers block in `pop` until an item arrives or the queue is
//! closed *and* drained — the graceful-shutdown semantic: close, then
//! let workers finish what was admitted.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

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

struct Lane<T> {
    weight: u64,
    /// Remaining pops before the cursor must move on; recharged to
    /// `weight` each time the cursor enters the lane.
    credit: u64,
    items: VecDeque<T>,
}

struct Inner<T> {
    lanes: Vec<Lane<T>>,
    /// Lane index by key — lookup only; iteration always walks `lanes`
    /// in creation order so pop order never depends on hash order.
    index: HashMap<Option<String>, usize>,
    cursor: usize,
    len: usize,
    closed: bool,
}

/// Bounded MPMC queue with deterministic weighted round-robin dequeue
/// across per-tenant FIFO lanes. See the module docs for the fairness
/// and determinism guarantees.
pub struct FairQueue<T> {
    inner: Mutex<Inner<T>>,
    notify: Condvar,
    capacity: usize,
    weights: BTreeMap<String, u64>,
}

impl<T> FairQueue<T> {
    /// A queue admitting at most `capacity` items in total (minimum 1),
    /// serving lanes by `weights` (absent lanes weigh 1).
    pub fn new(capacity: usize, weights: BTreeMap<String, u64>) -> Self {
        FairQueue {
            inner: Mutex::new(Inner {
                lanes: Vec::new(),
                index: HashMap::new(),
                cursor: 0,
                len: 0,
                closed: false,
            }),
            notify: Condvar::new(),
            capacity: capacity.max(1),
            weights,
        }
    }

    /// Total admission capacity (shared across lanes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total queued items across lanes (racy by nature; gauges and
    /// hints only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission into `lane` (`None` = the implicit
    /// untagged lane): enqueues or returns the item back. The capacity
    /// check is global — fair dequeueing, not per-lane reservation,
    /// is what bounds cross-tenant interference; per-tenant *quotas*
    /// are enforced by the service before the push.
    pub fn try_push(&self, lane: Option<&str>, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.len >= self.capacity {
            return Err(PushError::Full(item));
        }
        let idx = match inner.index.get(&lane.map(str::to_string)) {
            Some(&idx) => idx,
            None => {
                let key = lane.map(str::to_string);
                let weight =
                    lane.map_or(1, |name| self.weights.get(name).copied().unwrap_or(1).max(1));
                let idx = inner.lanes.len();
                // Born fully charged: the cursor may already be
                // pointing here (it wraps to new lanes), and an
                // uncharged lane would forfeit its first round.
                inner.lanes.push(Lane { weight, credit: weight, items: VecDeque::new() });
                inner.index.insert(key, idx);
                idx
            }
        };
        inner.lanes[idx].items.push_back(item);
        inner.len += 1;
        drop(inner);
        self.notify.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (`Some`) or the queue is
    /// closed and fully drained (`None`). Weighted round-robin across
    /// nonempty lanes; see the module docs.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.len > 0 {
                return Some(pop_locked(&mut inner));
            }
            if inner.closed {
                return None;
            }
            inner = self.notify.wait(inner).expect("queue lock");
        }
    }

    /// Stops admissions. Already-queued items remain poppable; blocked
    /// consumers wake, drain, then observe `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.notify.notify_all();
    }

    /// True once [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock").closed
    }
}

/// One weighted-round-robin pop. Caller guarantees `inner.len > 0`.
///
/// The cursor stays on a lane while it has both items and credit;
/// otherwise it advances (wrapping) and recharges the entered lane's
/// credit to its weight. Empty lanes are skipped without spending the
/// round — at most one full cycle runs before an item is found, so the
/// walk is O(lanes) worst case and O(1) amortized.
fn pop_locked<T>(inner: &mut Inner<T>) -> T {
    debug_assert!(inner.len > 0);
    loop {
        let n = inner.lanes.len();
        let lane = &mut inner.lanes[inner.cursor % n];
        if lane.credit > 0 && !lane.items.is_empty() {
            lane.credit -= 1;
            inner.len -= 1;
            return lane.items.pop_front().expect("lane checked nonempty");
        }
        inner.cursor = (inner.cursor + 1) % n;
        let entered = &mut inner.lanes[inner.cursor];
        entered.credit = entered.weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn weights(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, w)| (k.to_string(), *w)).collect()
    }

    #[test]
    fn single_lane_is_plain_fifo() {
        // The inactive-policy configuration: every push lands in the
        // implicit lane, so pop order is push order.
        let q = FairQueue::new(8, BTreeMap::new());
        for i in 0..5 {
            q.try_push(None, i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sheds_on_global_capacity_and_closed() {
        let q = FairQueue::new(2, BTreeMap::new());
        q.try_push(Some("a"), 1).unwrap();
        q.try_push(Some("b"), 2).unwrap();
        assert_eq!(q.try_push(Some("c"), 3), Err(PushError::Full(3)));
        q.close();
        assert_eq!(q.try_push(None, 4), Err(PushError::Closed(4)));
        assert!(q.is_closed());
    }

    #[test]
    fn round_robin_interleaves_equal_weight_lanes() {
        let q = FairQueue::new(16, BTreeMap::new());
        for i in 0..3 {
            q.try_push(Some("a"), format!("a{i}")).unwrap();
        }
        for i in 0..3 {
            q.try_push(Some("b"), format!("b{i}")).unwrap();
        }
        q.close();
        let drained: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn weights_skew_service_toward_heavy_lanes() {
        let q = FairQueue::new(32, weights(&[("heavy", 3)]));
        for i in 0..6 {
            q.try_push(Some("heavy"), format!("h{i}")).unwrap();
        }
        for i in 0..2 {
            q.try_push(Some("light"), format!("l{i}")).unwrap();
        }
        q.close();
        let drained: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        // Three heavy pops per visit, one light pop per visit; light is
        // still served every round — weighted, not starved.
        assert_eq!(drained, vec!["h0", "h1", "h2", "l0", "h3", "h4", "h5", "l1"]);
    }

    #[test]
    fn empty_lanes_donate_their_round() {
        let q = FairQueue::new(16, weights(&[("a", 4)]));
        q.try_push(Some("a"), "a0").unwrap();
        q.try_push(Some("b"), "b0").unwrap();
        // Lane a drains; lane b must be served immediately after with
        // no idle visits to the empty lane.
        assert_eq!(q.pop(), Some("a0"));
        assert_eq!(q.pop(), Some("b0"));
        q.try_push(Some("b"), "b1").unwrap();
        assert_eq!(q.pop(), Some("b1"));
    }

    #[test]
    fn identical_streams_reproduce_identical_pop_orders() {
        let run = || {
            let q = FairQueue::new(64, weights(&[("x", 2), ("y", 5)]));
            for i in 0..30u32 {
                let lane = match i % 3 {
                    0 => Some("x"),
                    1 => Some("y"),
                    _ => None,
                };
                q.try_push(lane, i).unwrap();
            }
            q.close();
            std::iter::from_fn(|| q.pop()).collect::<Vec<u32>>()
        };
        assert_eq!(run(), run(), "pop order is a pure function of the push sequence");
    }

    #[test]
    fn wakes_blocked_consumer_on_push_and_close() {
        let q = Arc::new(FairQueue::new(4, BTreeMap::new()));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(Some("t"), 7usize).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything_once() {
        let q = Arc::new(FairQueue::new(1024, weights(&[("p1", 2)])));
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                let lane = format!("p{p}");
                for i in 0..100u64 {
                    loop {
                        if q.try_push(Some(&lane), p * 1000 + i).is_ok() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let expect: Vec<u64> =
            (0..4u64).flat_map(|p| (0..100u64).map(move |i| p * 1000 + i)).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn policy_activity_and_lookups() {
        let inactive = TenantPolicy::default();
        assert!(!inactive.is_active());
        assert_eq!(inactive.quota_for("anyone"), None);
        assert_eq!(inactive.weight_for("anyone"), 1);

        let mut policy = TenantPolicy::default();
        policy.quotas.insert("batch".into(), 8);
        policy.weights.insert("interactive".into(), 4);
        policy.default_quota = Some(16);
        assert!(policy.is_active());
        assert_eq!(policy.quota_for("batch"), Some(8));
        assert_eq!(policy.quota_for("unlisted"), Some(16), "default quota covers the rest");
        assert_eq!(policy.weight_for("interactive"), 4);
        assert_eq!(policy.weight_for("batch"), 1);

        let weight_only = TenantPolicy { weights: weights(&[("a", 2)]), ..TenantPolicy::default() };
        assert!(weight_only.is_active(), "weights alone activate fair dequeueing");
        assert_eq!(weight_only.quota_for("a"), None);
    }

    #[test]
    fn zero_weight_is_clamped_to_one() {
        // A misconfigured zero weight must not wedge the lane (zero
        // credit forever = starvation by operator typo).
        let q = FairQueue::new(8, weights(&[("z", 0)]));
        q.try_push(Some("z"), 1).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(TenantPolicy::default().weight_for("z"), 1);
    }
}
