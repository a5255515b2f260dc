//! The fair queue's unit tests, and seeded single-threaded schedules of
//! the admission state behind it.

use super::*;
use std::sync::Arc;

use testkit::Gen;

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
    let expect: Vec<u64> = (0..4u64).flat_map(|p| (0..100u64).map(move |i| p * 1000 + i)).collect();
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

// Seeded single-threaded schedules of the admission state: each case
// draws a policy (quotas, weights, a default quota, a `max_tracked` small
// enough to fold tenants into `other`) and a stream of tagged and
// untagged offers at the door, co-scheduled submits (their slot held
// through the placement, then started, left waiting or refused), pops,
// settles from a worker and from the co-scheduler's wait queue (a start
// out of it, a reap, a shutdown drain), restores, retires and closes. It
// drives the shell itself, on one thread, popping only when an item is
// queued, and checks after every step that each tenant row balances and
// matches where the schedule's requests are, that no quota'd tenant holds
// more than its quota beside what restores put there, that the queue
// holds no more than its capacity, and that the global ledger balances.
// The same stream replays to the same pop order and the same rows.

/// A request of a schedule: its id and its tenant tag.
#[derive(Debug, Clone)]
struct Ticket {
    id: u64,
    tag: Option<String>,
}

impl Tagged for Ticket {
    fn tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }
}

const TENANTS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// What the co-scheduler does with a held submit.
#[derive(Debug, Clone, Copy)]
enum Placement {
    Start,
    Wait,
    Refuse,
}

#[derive(Debug, Clone)]
enum Event {
    /// A score or run at the door; `None` is untagged.
    Offer(Option<usize>),
    /// A co-scheduled submit.
    Submit(Option<usize>, Placement),
    Pop,
    /// The `n`-th running request's worker answers: 0 ran and
    /// succeeded, 1 ran and failed, 2 drained expired, 3 drained
    /// cancelled.
    Finish {
        n: usize,
        fate: u8,
    },
    /// The `n`-th waiting submit starts (a release freed room for it).
    Release(usize),
    /// The `n`-th waiting submit is reaped, expired or cancelled.
    Reap {
        n: usize,
        expired: bool,
    },
    /// A journaled reservation of a tenant comes back.
    Restore(usize),
    /// The `n`-th restored reservation is released.
    Retire(usize),
    /// Shutdown: close the queue and drain the co-scheduler's waiters.
    Close,
}

fn event(g: &mut Gen) -> Event {
    let tenant = |g: &mut Gen| g.option(|g| g.range(0..TENANTS.len()));
    match g.range(0u32..20) {
        0..=4 => Event::Offer(tenant(g)),
        5..=7 => {
            let placement = g.select(&[Placement::Start, Placement::Wait, Placement::Refuse]);
            Event::Submit(tenant(g), placement)
        }
        8..=11 => Event::Pop,
        12..=14 => Event::Finish { n: g.range(0usize..8), fate: g.range(0u8..4) },
        15 => Event::Release(g.range(0usize..4)),
        16 => Event::Reap { n: g.range(0usize..4), expired: g.bool() },
        17 => Event::Restore(g.range(0..TENANTS.len())),
        18 => Event::Retire(g.range(0usize..4)),
        _ => Event::Close,
    }
}

fn policy(g: &mut Gen) -> (usize, TenantPolicy) {
    let mut policy = TenantPolicy { max_tracked: g.range(2usize..=4), ..TenantPolicy::default() };
    if g.range(0u32..4) > 0 {
        for name in &TENANTS[..2] {
            if let Some(quota) = g.option(|g| g.range(1u64..=3)) {
                policy.quotas.insert(name.to_string(), quota);
            }
        }
        for name in &TENANTS[1..3] {
            if let Some(weight) = g.option(|g| g.range(1u64..=3)) {
                policy.weights.insert(name.to_string(), weight);
            }
        }
        policy.default_quota = g.option(|g| g.range(1u64..=2));
    }
    (g.range(1usize..=6), policy)
}

/// What a schedule took, beyond its invariants: each kind must show up
/// across the cases.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    QuotaShed,
    FullShed,
    ClosedRefusal,
    WaitedRefusal,
    Folded,
}

/// One run of a stream: the shell, and where each request is.
struct Schedule {
    q: FairQueue<Ticket>,
    stats: SvcStats,
    next_id: u64,
    running: Vec<Ticket>,
    waiting: Vec<Ticket>,
    restored: Vec<String>,
    pops: Vec<u64>,
    took: Vec<Path>,
}

fn refuse(id: u64) -> impl FnOnce(Refusal) -> Response {
    move |refusal| match refusal {
        Refusal::Overloaded(backlog) => Response::Overloaded { id, retry_after_ms: backlog },
        Refusal::Closed => {
            Response::Error { id, kind: ErrorKind::ShuttingDown, message: String::new() }
        }
    }
}

fn error(id: u64, kind: ErrorKind) -> Response {
    Response::Error { id, kind, message: String::new() }
}

impl Schedule {
    fn new(capacity: usize, policy: TenantPolicy) -> Schedule {
        Schedule {
            q: FairQueue::with_policy(capacity, policy),
            stats: SvcStats::default(),
            next_id: 1,
            running: Vec::new(),
            waiting: Vec::new(),
            restored: Vec::new(),
            pops: Vec::new(),
            took: Vec::new(),
        }
    }

    fn ticket(&mut self, tenant: Option<usize>) -> Ticket {
        self.next_id += 1;
        Ticket { id: self.next_id, tag: tenant.map(|t| TENANTS[t].to_string()) }
    }

    /// Notes which refusal `reply` was.
    fn refused(&mut self, reply: &Response, ticket: &Ticket, quota_checked: bool) {
        let quota = |state: &Admission<Ticket>| {
            ticket.tag.as_deref().is_some_and(|tag| {
                state.policy.quota_for(state.resolve(tag)).is_some() && state.len < state.capacity
            })
        };
        let path = match reply {
            Response::Overloaded { .. } if quota_checked && quota(&self.q.lock()) => {
                Path::QuotaShed
            }
            Response::Overloaded { .. } => Path::FullShed,
            _ => Path::ClosedRefusal,
        };
        self.took.push(path);
    }

    fn apply(&mut self, event: &Event) {
        match *event {
            Event::Offer(tenant) => {
                let ticket = self.ticket(tenant);
                let id = ticket.id;
                if let Err(refused) = self.q.admit(&self.stats, ticket, Entry::Fresh, refuse(id)) {
                    self.refused(&refused.1, &refused.0, true);
                }
            }
            Event::Submit(tenant, placement) => {
                let ticket = self.ticket(tenant);
                let (id, tag) = (ticket.id, ticket.tag.clone());
                if let Err(reply) = self.q.hold(&self.stats, tag.as_deref(), refuse(id)) {
                    return self.refused(&reply, &ticket, true);
                }
                match placement {
                    Placement::Start => {
                        if let Err(refused) =
                            self.q.admit(&self.stats, ticket, Entry::Held, refuse(id))
                        {
                            self.refused(&refused.1, &refused.0, false);
                        }
                    }
                    Placement::Wait => {
                        self.q.decided(&self.stats, tag.as_deref(), None);
                        self.waiting.push(ticket);
                    }
                    Placement::Refuse => {
                        let reply = error(id, ErrorKind::Invalid);
                        self.q.decided(&self.stats, tag.as_deref(), Some(&reply));
                    }
                }
            }
            Event::Pop => {
                if !self.q.is_empty() {
                    let ticket = self.q.pop().expect("an item is queued");
                    let waited = Duration::from_micros(ticket.id * 37);
                    self.q.book(&self.stats, ticket.tag(), Step::Start { waited });
                    self.pops.push(ticket.id);
                    self.running.push(ticket);
                }
            }
            Event::Finish { n, fate } => {
                if self.running.is_empty() {
                    return;
                }
                let ticket = self.running.remove(n % self.running.len());
                let id = ticket.id;
                let (reply, busy) = match fate {
                    0 => {
                        let members = Vec::new();
                        let reply = Response::RunResult {
                            id,
                            ensemble_makespan: 1.0,
                            members,
                            elapsed_ms: 0.0,
                        };
                        (reply, Some(Duration::from_micros(id)))
                    }
                    1 => (error(id, ErrorKind::Invalid), Some(Duration::from_micros(id))),
                    2 => (error(id, ErrorKind::Deadline), None),
                    _ => (error(id, ErrorKind::Cancelled), None),
                };
                let from = Stage::Worker { busy, latency: Duration::from_micros(id * 41) };
                self.q.book(&self.stats, ticket.tag(), Step::Settle { reply: &reply, from });
            }
            Event::Release(n) => {
                if self.waiting.is_empty() {
                    return;
                }
                let ticket = self.waiting.remove(n % self.waiting.len());
                let id = ticket.id;
                // A refused start is answered from the queue, as the
                // service's `answer_queued` does.
                if let Err(refused) = self.q.admit(&self.stats, ticket, Entry::Waited, refuse(id)) {
                    let (ticket, reply) = *refused;
                    let from = Stage::Queued;
                    self.q.book(&self.stats, ticket.tag(), Step::Settle { reply: &reply, from });
                    self.took.push(Path::WaitedRefusal);
                }
            }
            Event::Reap { n, expired } => {
                if self.waiting.is_empty() {
                    return;
                }
                let ticket = self.waiting.remove(n % self.waiting.len());
                let kind = if expired { ErrorKind::Deadline } else { ErrorKind::Cancelled };
                let reply = error(ticket.id, kind);
                let from = Stage::Queued;
                self.q.book(&self.stats, ticket.tag(), Step::Settle { reply: &reply, from });
            }
            Event::Restore(tenant) => {
                self.q.book(&self.stats, Some(TENANTS[tenant]), Step::Restore);
                self.restored.push(TENANTS[tenant].to_string());
            }
            Event::Retire(n) => {
                if self.restored.is_empty() {
                    return;
                }
                let tenant = self.restored.remove(n % self.restored.len());
                self.q.book(&self.stats, Some(&tenant), Step::Retire);
            }
            Event::Close => {
                self.q.close();
                for ticket in std::mem::take(&mut self.waiting) {
                    let reply = error(ticket.id, ErrorKind::ShuttingDown);
                    let from = Stage::Queued;
                    self.q.book(&self.stats, ticket.tag(), Step::Settle { reply: &reply, from });
                }
            }
        }
    }

    /// The invariants, checked between steps.
    fn check(&self) {
        let state = self.q.lock();
        let queued: Vec<&Ticket> = state.lanes.iter().flat_map(|lane| &lane.items).collect();
        assert!(
            state.len <= state.capacity,
            "{} queued past capacity {}",
            state.len,
            state.capacity
        );
        assert_eq!(queued.len(), state.len, "the lanes hold what the queue counts");
        let row_of = |tag: &str| state.resolve(tag).to_string();
        // Per row: requests queued or waiting, on a worker or restored,
        // and restored.
        let mut placed: BTreeMap<String, [u64; 3]> = BTreeMap::new();
        let mut place = |tag: &Option<String>, at: &[usize]| {
            if let Some(tag) = tag {
                let row = placed.entry(row_of(tag)).or_default();
                at.iter().for_each(|&i| row[i] += 1);
            }
        };
        for ticket in queued.iter().copied().chain(&self.waiting) {
            place(&ticket.tag, &[0]);
        }
        for ticket in &self.running {
            place(&ticket.tag, &[1]);
        }
        for tenant in &self.restored {
            place(&Some(tenant.clone()), &[1, 2]);
        }
        for (name, row) in &state.rows {
            assert_eq!(
                row.admitted,
                row.executed + row.expired + row.cancelled + row.in_queue + row.in_flight,
                "row {name} balances"
            );
            let [in_queue, in_flight, restores] = placed.remove(name).unwrap_or_default();
            assert_eq!((row.in_queue, row.in_flight), (in_queue, in_flight), "row {name}");
            assert_eq!(row.deciding, 0, "row {name}: no placement is being decided");
            if let Some(quota) = state.policy.quota_for(name) {
                let occupancy = row.in_queue + row.in_flight;
                assert!(
                    occupancy - restores <= quota,
                    "row {name} holds {occupancy} ({restores} restored) over its quota {quota}"
                );
            }
        }
        assert!(placed.is_empty(), "requests booked under no row: {placed:?}");
        let load = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);
        let s = &self.stats;
        let answered = load(&s.completed)
            + load(&s.errored)
            + load(&s.rejected)
            + load(&s.cancelled)
            + load(&s.deadline_expired);
        let held = (state.len + self.waiting.len()) as u64 + load(&s.in_flight);
        assert_eq!(load(&s.submitted), answered + held, "the global ledger balances");
        assert_eq!(load(&s.in_flight), self.running.len() as u64);
    }

    /// What two runs of one stream must agree on: the pop order and
    /// every row.
    fn outcome(&self) -> (Vec<u64>, Vec<(String, [u64; 7])>) {
        let state = self.q.lock();
        let rows = state.rows.iter().map(|(name, r)| {
            let counts =
                [r.admitted, r.executed, r.shed, r.expired, r.cancelled, r.in_queue, r.in_flight];
            (name.clone(), counts)
        });
        (self.pops.clone(), rows.collect())
    }
}

/// Runs one drawn stream twice; returns the paths it took.
fn admission_schedule(g: &mut Gen, events: usize) -> Vec<Path> {
    let (capacity, policy) = policy(g);
    let stream = g.vec(events..=events, event);
    let run = || {
        let mut s = Schedule::new(capacity, policy.clone());
        for event in &stream {
            s.apply(event);
            s.check();
        }
        if s.q.lock().rows.contains_key(TenantPolicy::OVERFLOW_TENANT) {
            s.took.push(Path::Folded);
        }
        (s.outcome(), s.took)
    };
    let (first, took) = run();
    assert_eq!(first, run().0, "one stream, one pop order and one set of rows");
    took
}

fn admission_schedules(cases: u32, events: usize) {
    let mut took = Vec::new();
    testkit::check(cases, |g| took.extend(admission_schedule(g, events)));
    for path in
        [Path::QuotaShed, Path::FullShed, Path::ClosedRefusal, Path::WaitedRefusal, Path::Folded]
    {
        assert!(took.contains(&path), "no schedule took {path:?}");
    }
}

#[test]
fn seeded_admission_schedules_balance_every_row_and_hold_every_quota() {
    admission_schedules(64, 60);
}

#[test]
#[ignore = "long seeded schedules: run explicitly or nightly"]
fn long_seeded_admission_schedules_balance_every_row_and_hold_every_quota() {
    admission_schedules(1000, 300);
}
