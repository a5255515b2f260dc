//! Seeded single-threaded schedules of [`Cosched`] on a fake clock: each
//! case draws a stream of admissions (with and without deadlines, some
//! reusing a live id), releases (some of whose first start the shell
//! refuses, as a full worker queue does), cancellations, clock advances
//! and reaps, runs it against the real scheduler, and checks that every
//! admitted job is started or answered exactly once, that no job waits
//! while the platform holds no reservation, that nothing is left
//! resident or waiting once every start is released and every deadline
//! has passed, that the same stream replays to the same schedule, and
//! that a start is flagged backfilled exactly when an earlier-admitted
//! job still waited.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use runtime::{SimRunConfig, WorkloadMap};
use scheduler::{CoschedError, EnsembleShape, NodeBudget};
use testkit::Gen;

use super::*;

/// Two 32-core nodes and a four-deep wait queue: shapes of 8 to 48
/// cores contend, queue, backfill and shed; the last never fits.
fn shapes() -> [EnsembleShape; 6] {
    [
        EnsembleShape::uniform(1, 16, 1, 8),
        EnsembleShape::uniform(1, 8, 1, 4),
        EnsembleShape::uniform(1, 4, 1, 4),
        EnsembleShape::uniform(2, 8, 1, 8),
        EnsembleShape::uniform(1, 32, 1, 16),
        EnsembleShape::uniform(3, 16, 1, 16),
    ]
}

fn cosched() -> Cosched<TestJob> {
    let mut config = CoschedSvcConfig::new(NodeBudget { max_nodes: 2, cores_per_node: 32 });
    config.queue_capacity = 4;
    let placeholder = EnsembleShape::uniform(1, 16, 1, 8).materialize(&[0; 2]);
    let mut base = SimRunConfig::paper(placeholder);
    base.workloads = WorkloadMap::small_defaults();
    base.n_steps = 6;
    Cosched::new(&config, base)
}

struct TestJob {
    id: u64,
    deadline_at: Option<Instant>,
    cancelled: Rc<Cell<bool>>,
    tenant: Option<String>,
}

impl Waiter for TestJob {
    fn deadline_at(&self) -> Option<Instant> {
        self.deadline_at
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

impl Tagged for TestJob {
    fn tag(&self) -> Option<&str> {
        self.tenant.as_deref()
    }
}

#[derive(Debug, Clone)]
enum Event {
    /// Offer a job of `shapes()[shape]`; `reuse` picks a live id to
    /// offer again instead of a fresh one.
    Admit {
        shape: usize,
        deadline_ms: Option<u64>,
        reuse: Option<usize>,
        tenant: bool,
    },
    /// Release the `n`-th running job (modulo how many run); with
    /// `refuse`, the shell refuses the first job the release starts.
    Release {
        n: usize,
        refuse: bool,
    },
    /// Cancel the `n`-th live job, waiting or running.
    Cancel(usize),
    Advance(u64),
    Reap,
}

fn event(g: &mut Gen) -> Event {
    match g.range(0u32..10) {
        0..=3 => Event::Admit {
            shape: g.range(0usize..6),
            deadline_ms: g.option(|g| g.range(0u64..40)),
            reuse: (g.range(0u32..8) == 0).then(|| g.range(0usize..8)),
            tenant: g.bool(),
        },
        4 | 5 => Event::Release { n: g.range(0usize..8), refuse: g.bool() },
        6 => Event::Cancel(g.range(0usize..8)),
        7 | 8 => Event::Advance(g.range(1u64..30)),
        _ => Event::Reap,
    }
}

/// What the schedule did, in order: the record two runs of one stream
/// must agree on.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Started {
        id: u64,
        assignment: Vec<usize>,
        backfilled: bool,
        waited: Option<Duration>,
    },
    Queued {
        id: u64,
        depth: usize,
    },
    Refused {
        id: u64,
        why: String,
    },
    Answered {
        id: u64,
        cancelled: bool,
    },
    /// A start out of the wait queue the shell refused.
    Withdrawn {
        id: u64,
    },
    Drained {
        id: u64,
    },
    Released {
        id: u64,
        retired: Option<String>,
    },
}

/// A restored reservation's job id; admitted ids count up from 1.
const RESTORED: u64 = 1_000_000;

/// One run of a stream, with the test's own view of the schedule.
struct Schedule {
    cosched: Cosched<TestJob>,
    now: Instant,
    next_id: u64,
    /// Waiting jobs by admission sequence: the backfill oracle's view.
    waiting: BTreeMap<u64, u64>,
    seq_of: HashMap<u64, u64>,
    /// Started, unreleased ids in start order.
    running: Vec<u64>,
    flags: HashMap<u64, Rc<Cell<bool>>>,
    /// Starts plus answers per admitted id.
    fates: HashMap<u64, u32>,
    refused: HashSet<u64>,
    trace: Vec<Seen>,
}

impl Schedule {
    fn new(restore: bool) -> Schedule {
        let mut cosched = cosched();
        let mut running = Vec::new();
        if restore {
            let members = EnsembleShape::uniform(1, 8, 1, 8).members;
            let r = ReplayedReservation {
                job: RESTORED,
                members,
                assignment: vec![1, 1],
                predicted_end: 10.0,
                seq: 0,
                tenant: None,
            };
            cosched.restore(&r, Some("t".to_string())).expect("an idle platform holds it");
            running.push(RESTORED);
        }
        Schedule {
            cosched,
            now: Instant::now(),
            next_id: 1,
            waiting: BTreeMap::new(),
            seq_of: HashMap::new(),
            running,
            flags: HashMap::new(),
            fates: HashMap::new(),
            refused: HashSet::new(),
            trace: Vec::new(),
        }
    }

    /// Admitted ids not yet finished: waiting, or started and unreleased.
    fn live(&self) -> Vec<u64> {
        let mut live: Vec<u64> = self.waiting.values().copied().collect();
        live.extend(self.running.iter().filter(|&&id| id != RESTORED));
        live
    }

    fn apply(&mut self, event: &Event) {
        match *event {
            Event::Admit { shape, deadline_ms, reuse, tenant } => {
                self.admit(shape, deadline_ms, reuse, tenant)
            }
            Event::Release { n, refuse } if !self.running.is_empty() => {
                let id = self.running.remove(n % self.running.len());
                self.release(id, refuse);
            }
            Event::Cancel(n) => {
                let live = self.live();
                if !live.is_empty() {
                    self.flags[&live[n % live.len()]].set(true);
                }
            }
            Event::Advance(ms) => self.now += Duration::from_millis(ms),
            Event::Reap => self.reap(),
            Event::Release { .. } => {}
        }
        let open = self.cosched.sched.residency().open();
        assert!(self.waiting.is_empty() || open > 0, "a job waits on an idle platform");
    }

    fn admit(
        &mut self,
        shape: usize,
        deadline_ms: Option<u64>,
        reuse: Option<usize>,
        tenant: bool,
    ) {
        let live = self.live();
        let reused = reuse.filter(|_| !live.is_empty()).map(|n| live[n % live.len()]);
        let id = reused.unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        });
        let cancelled = Rc::new(Cell::new(false));
        let job = TestJob {
            id,
            deadline_at: deadline_ms.map(|ms| self.now + Duration::from_millis(ms)),
            cancelled: Rc::clone(&cancelled),
            tenant: tenant.then(|| "t".to_string()),
        };
        let admitted = self.cosched.admit(id, shapes()[shape].clone(), job, self.now);
        if reused.is_some() {
            assert!(
                matches!(admitted, Err(CoschedError::DuplicateJob(dup)) if dup == id),
                "a live id offered again is refused as a duplicate"
            );
            self.trace.push(Seen::Refused { id, why: "duplicate".to_string() });
            return;
        }
        let why = match admitted {
            Ok(Admitted::Start(start)) => {
                self.admitted(id, cancelled);
                self.start(*start);
                return;
            }
            Ok(Admitted::Queued(depth)) => {
                let seq = self.admitted(id, cancelled);
                self.waiting.insert(seq, id);
                assert_eq!(depth, self.waiting.len() - 1, "the queue and the waiters agree");
                self.trace.push(Seen::Queued { id, depth });
                return;
            }
            Ok(Admitted::Shed) => "shed".to_string(),
            Ok(Admitted::Infeasible) => "infeasible".to_string(),
            Err(e) => e.to_string(),
        };
        self.refused.insert(id);
        self.trace.push(Seen::Refused { id, why });
    }

    /// Books a newly admitted id; returns its admission sequence.
    fn admitted(&mut self, id: u64, cancelled: Rc<Cell<bool>>) -> u64 {
        let seq = self.seq_of.len() as u64;
        assert!(self.seq_of.insert(id, seq).is_none(), "job {id} admitted twice");
        self.flags.insert(id, cancelled);
        seq
    }

    fn start(&mut self, start: Start<TestJob>) {
        let Start { job, placed, reserve } = start;
        let seq = self.seq_of[&job.id];
        self.waiting.remove(&seq);
        let behind = self.waiting.range(..seq).next().is_some();
        assert_eq!(
            placed.decision.backfilled, behind,
            "job {} is backfilled exactly when an earlier-admitted job still waits",
            job.id
        );
        assert_eq!((reserve.job, &reserve.tenant), (job.id, &job.tenant));
        assert_eq!(reserve.assignment, placed.decision.assignment);
        *self.fates.entry(job.id).or_default() += 1;
        self.running.push(job.id);
        self.trace.push(Seen::Started {
            id: job.id,
            assignment: placed.decision.assignment,
            backfilled: placed.decision.backfilled,
            waited: placed.waited,
        });
    }

    /// Releases `id`; with `refuse`, the shell refuses the first job the
    /// release starts, which is withdrawn and answered.
    fn release(&mut self, id: u64, mut refuse: bool) {
        let released = self.cosched.release(id, self.now).expect("a running job holds capacity");
        assert_eq!(released.retired.is_some(), id == RESTORED, "only a restored job retires");
        self.trace.push(Seen::Released { id, retired: released.retired });
        let mut starts = VecDeque::from(released.starts);
        while let Some(start) = starts.pop_front() {
            if !std::mem::take(&mut refuse) {
                self.start(start);
                continue;
            }
            let refused = start.job.id;
            assert!(self.waiting.remove(&self.seq_of[&refused]).is_some(), "a waiter started");
            *self.fates.entry(refused).or_default() += 1;
            self.trace.push(Seen::Withdrawn { id: refused });
            starts.extend(self.cosched.withdraw_waited(refused, self.now));
        }
        assert!(self.cosched.release(id, self.now).is_none(), "a second release is a no-op");
    }

    fn reap(&mut self) {
        for job in self.cosched.reap(self.now) {
            let (id, cancelled) = (job.id, job.cancelled.get());
            assert!(cancelled || job.deadline_at.is_some_and(|at| at <= self.now));
            assert!(self.waiting.remove(&self.seq_of[&id]).is_some(), "only waiters are reaped");
            *self.fates.entry(id).or_default() += 1;
            self.trace.push(Seen::Answered { id, cancelled });
        }
        for id in self.waiting.values() {
            let job = self.cosched.waiter(*id).expect("every waiter is held");
            assert!(!job.cancelled.get() && job.deadline_at.is_none_or(|at| at > self.now));
        }
    }

    /// Ends the schedule: optionally drains the queue as a shutdown does,
    /// then releases every start and lets every deadline pass until
    /// nothing runs or waits.
    fn finish(&mut self, drain: bool) {
        if drain {
            for job in self.cosched.drain() {
                let id = job.id;
                assert!(self.waiting.remove(&self.seq_of[&id]).is_some());
                *self.fates.entry(id).or_default() += 1;
                self.trace.push(Seen::Drained { id });
            }
        }
        for _ in 0..=self.seq_of.len() + 1 {
            for id in std::mem::take(&mut self.running) {
                self.release(id, false);
            }
            self.now += Duration::from_secs(3600);
            self.reap();
        }
        assert!(self.running.is_empty() && self.waiting.is_empty(), "the schedule drained");
        let sched = &self.cosched.sched;
        assert_eq!(sched.residency().open(), 0, "no reservation left open");
        assert_eq!(sched.residency().committed_cores(), 0, "no capacity leaked");
        assert_eq!(sched.queue_depth(), 0, "no job left in the scheduler's queue");
        assert!(self.cosched.waiting.is_empty(), "no waiter left behind");
        for &id in self.seq_of.keys() {
            assert_eq!(self.fates.get(&id), Some(&1), "job {id} started or answered once");
        }
        for id in &self.refused {
            assert!(!self.fates.contains_key(id), "refused job {id} was never started");
        }
    }
}

/// Runs one drawn stream twice; returns what it did.
fn schedule(g: &mut Gen, events: usize) -> Vec<Seen> {
    let restore = g.bool();
    let drain = g.bool();
    let stream = g.vec(events..=events, event);
    let run = |stream: &[Event]| {
        let mut s = Schedule::new(restore);
        for event in stream {
            s.apply(event);
        }
        s.finish(drain);
        s.trace
    };
    let first = run(&stream);
    assert_eq!(first, run(&stream), "one stream, one schedule");
    first
}

/// Runs `cases` streams of `events` and checks that together they took
/// every path the invariants speak about.
fn schedules(cases: u32, events: usize) {
    let mut seen = Vec::new();
    testkit::check(cases, |g| seen.extend(schedule(g, events)));
    let took = |path: &dyn Fn(&Seen) -> bool| seen.iter().any(path);
    assert!(took(&|s| matches!(s, Seen::Started { backfilled: true, .. })));
    assert!(took(&|s| matches!(s, Seen::Started { backfilled: false, waited: Some(_), .. })));
    assert!(took(&|s| matches!(s, Seen::Answered { cancelled: false, .. })));
    assert!(took(&|s| matches!(s, Seen::Answered { cancelled: true, .. })));
    assert!(took(&|s| matches!(s, Seen::Drained { .. })));
    assert!(took(&|s| matches!(s, Seen::Withdrawn { .. })));
    assert!(took(&|s| matches!(s, Seen::Released { retired: Some(_), .. })));
    for why in ["shed", "infeasible", "duplicate"] {
        assert!(took(&|s| matches!(s, Seen::Refused { why: w, .. } if w == why)), "no {why}");
    }
}

/// The shell refuses a start a release issued while another job waits:
/// the capacity it gives back starts that job, which would otherwise
/// wait on an idle platform with no release left to pump the queue.
#[test]
fn a_start_refused_after_a_release_hands_its_capacity_to_the_next_waiter() {
    let mut cosched = cosched();
    let now = Instant::now();
    let job = |id| TestJob { id, deadline_at: None, cancelled: Rc::default(), tenant: None };
    let ids = |starts: &[Start<TestJob>]| starts.iter().map(|s| s.job.id).collect::<Vec<_>>();
    // Job 1 fills both nodes; job 2 (48 cores) and job 3 (32) wait.
    let both = EnsembleShape::uniform(2, 16, 1, 16);
    assert!(matches!(cosched.admit(1, both, job(1), now), Ok(Admitted::Start(_))));
    let wide = EnsembleShape::uniform(1, 32, 1, 16);
    assert!(matches!(cosched.admit(2, wide, job(2), now), Ok(Admitted::Queued(0))));
    let narrow = EnsembleShape::uniform(1, 16, 1, 16);
    assert!(matches!(cosched.admit(3, narrow, job(3), now), Ok(Admitted::Queued(1))));
    let released = cosched.release(1, now).expect("job 1 holds a reservation");
    assert_eq!(ids(&released.starts), [2], "job 3 does not fit beside job 2");
    let later = now + Duration::from_millis(5);
    let starts = cosched.withdraw_waited(2, later);
    assert_eq!(ids(&starts), [3], "job 3 takes the capacity job 2 gave back");
    assert_eq!(starts[0].placed.waited, Some(Duration::from_millis(5)));
    assert_eq!(cosched.sched.residency().open(), 1);
    assert_eq!(cosched.sched.queue_depth(), 0);
}

#[test]
fn seeded_schedules_start_or_answer_every_job_once_and_leak_nothing() {
    schedules(24, 40);
}

#[test]
#[ignore = "long seeded schedules: run explicitly or nightly"]
fn long_seeded_schedules_start_or_answer_every_job_once_and_leak_nothing() {
    schedules(400, 200);
}
