//! Property-based tests of the discrete-event engine: determinism,
//! causal ordering, and clock monotonicity under arbitrary schedules.

use std::collections::BTreeMap;

use sim_des::{Context, Engine, Poll, Process, RunOutcome, Signal, SimDuration, SimTime};
use testkit::check;

/// One poll of a scripted process: optionally emit, then sleep or wait
/// (a script that ran out answers `Done`).
#[derive(Debug, Clone, Copy)]
enum Op {
    Sleep(u64),
    Wait(u64),
    EmitThenSleep(u64, u64),
}

/// `(time, process)` of every poll, in firing order.
type Log = Vec<(u64, usize)>;

struct Scripted {
    me: usize,
    script: Vec<Op>,
    pc: usize,
}

impl Process<Log> for Scripted {
    fn poll(&mut self, log: &mut Log, ctx: &mut Context) -> Poll {
        log.push((ctx.now().as_nanos(), self.me));
        let op = self.script.get(self.pc).copied();
        self.pc += 1;
        match op {
            None => Poll::Done,
            Some(Op::Sleep(d)) => Poll::Sleep(SimDuration::from_nanos(d)),
            Some(Op::Wait(sig)) => Poll::WaitSignal(Signal(sig)),
            Some(Op::EmitThenSleep(sig, d)) => {
                ctx.emit(Signal(sig));
                Poll::Sleep(SimDuration::from_nanos(d))
            }
        }
    }
}

/// The reference the engine's order is checked against: pending polls
/// in a `Vec`, the next one found by sorting on `(time, seq)`.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, usize)>,
    next_seq: u64,
    now: u64,
    pcs: Vec<usize>,
    waiters: BTreeMap<u64, Vec<usize>>,
    fired: Log,
}

impl Model {
    fn push(&mut self, at: u64, process: usize) {
        self.pending.push((at, self.next_seq, process));
        self.next_seq += 1;
    }

    fn emit(&mut self, sig: u64) {
        for pid in self.waiters.remove(&sig).unwrap_or_default() {
            self.push(self.now, pid);
        }
    }

    /// Fires polls within `budget`, as `run` does.
    fn run(&mut self, budget: usize, scripts: &[Vec<Op>]) {
        while self.fired.len() < budget && !self.pending.is_empty() {
            self.pending.sort_by_key(|&(time, seq, _)| (time, seq));
            let (time, _, p) = self.pending.remove(0);
            self.now = time;
            self.fired.push((time, p));
            let op = scripts[p].get(self.pcs[p]).copied();
            self.pcs[p] += 1;
            match op {
                None => {}
                Some(Op::Sleep(d)) => self.push(time + d, p),
                Some(Op::Wait(sig)) => self.waiters.entry(sig).or_default().push(p),
                Some(Op::EmitThenSleep(sig, d)) => {
                    self.push(time + d, p);
                    self.emit(sig);
                }
            }
        }
    }
}

fn run_scripts(scripts: &[Vec<Op>]) -> Engine<Log> {
    let mut engine = Engine::new(Log::new());
    for (me, script) in scripts.iter().enumerate() {
        engine.spawn(Box::new(Scripted { me, script: script.clone(), pc: 0 }));
    }
    engine.run();
    engine
}

const CASES: u32 = 64;

#[test]
fn polls_fire_in_nondecreasing_time_order() {
    check(CASES, |g| {
        let delays = g.vec(1..100, |g| g.range(0u64..1_000_000));
        let scripts: Vec<Vec<Op>> = delays.iter().map(|&d| vec![Op::Sleep(d)]).collect();
        let engine = run_scripts(&scripts);
        // Every process is polled at zero and again when its sleep ends.
        let log = &engine.state()[delays.len()..];
        assert_eq!(log.len(), delays.len());
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "clock went backwards");
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        assert_eq!(log.iter().map(|&(time, _)| time).collect::<Vec<_>>(), sorted);
    });
}

#[test]
fn identical_schedules_replay_identically() {
    check(CASES, |g| {
        let delays = g.vec(1..60, |g| g.range(0u64..1_000_000));
        let scripts: Vec<Vec<Op>> = delays.iter().map(|&d| vec![Op::Sleep(d)]).collect();
        assert_eq!(run_scripts(&scripts).into_state(), run_scripts(&scripts).into_state());
    });
}

#[test]
fn processes_advance_clock_by_their_sleeps() {
    check(CASES, |g| {
        let sleeps = g.vec(1..50, |g| g.range(1u64..1_000_000));
        let total: u64 = sleeps.iter().sum();
        let engine = run_scripts(&[sleeps.into_iter().map(Op::Sleep).collect()]);
        assert_eq!(engine.now(), SimTime::from_nanos(total));
        assert!(engine.all_finished());
    });
}

#[test]
fn signals_wake_every_waiter_exactly_once() {
    check(CASES, |g| {
        let (waiters, fire_at) = (g.range(1usize..20), g.range(1u64..1_000_000));
        let mut scripts = vec![vec![Op::Wait(9)]; waiters];
        scripts.push(vec![Op::Sleep(fire_at), Op::EmitThenSleep(9, 0)]);
        let engine = run_scripts(&scripts);
        let woken = engine.state().iter().filter(|&&(time, p)| time == fire_at && p < waiters);
        assert_eq!(woken.count(), waiters);
        assert!(engine.all_finished());
    });
}

/// A seeded mix of sleepers, waiters and emitters over a few signals
/// under an event budget: the engine fires exactly what the reference
/// queue fires, in the same order.
#[test]
fn fired_sequence_matches_the_reference_queue() {
    check(CASES, |g| {
        let mut draw = |n: u64| g.range(0..n);
        let signals = 1 + draw(3);
        let scripts: Vec<Vec<Op>> = (0..2 + draw(6))
            .map(|_| {
                (0..draw(12))
                    .map(|_| match draw(4) {
                        0 => Op::Wait(draw(signals)),
                        1 => Op::EmitThenSleep(draw(signals), draw(4) * 10),
                        _ => Op::Sleep(draw(5) * 10),
                    })
                    .collect()
            })
            .collect();
        let budget = if draw(3) == 0 { 5 + draw(40) } else { u64::MAX };

        let mut engine = Engine::new(Log::new());
        engine.set_event_budget(budget);
        let mut model = Model { pcs: vec![0; scripts.len()], ..Model::default() };
        for (me, script) in scripts.iter().enumerate() {
            engine.spawn(Box::new(Scripted { me, script: script.clone(), pc: 0 }));
            model.push(0, me);
        }

        let budget = usize::try_from(budget).unwrap_or(usize::MAX);
        let outcome = engine.run();
        model.run(budget, &scripts);
        let expected = if model.fired.len() >= budget {
            RunOutcome::EventBudgetExhausted
        } else {
            RunOutcome::Quiescent
        };
        assert_eq!(outcome, expected);
        assert_eq!(engine.state(), &model.fired);
        assert_eq!(engine.events_fired(), model.fired.len() as u64);
        assert_eq!(engine.now().as_nanos(), model.now);
    });
}
