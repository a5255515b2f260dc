//! Property-based tests of the discrete-event engine: determinism,
//! causal ordering, and clock monotonicity under arbitrary schedules.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sim_des::{Context, Engine, EventId, Poll, Process, RunOutcome, Signal, SimDuration, SimTime};

/// Who fired: process `i` was polled, or closure `i` ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Who {
    Proc(usize),
    Call(usize),
}

/// One poll of a scripted process: optionally emit, then sleep or wait
/// (a script that ran out answers `Done`).
#[derive(Debug, Clone, Copy)]
enum Op {
    Sleep(u64),
    Wait(u64),
    EmitThenSleep(u64, u64),
}

type Log = Vec<(u64, Who)>;

struct Scripted {
    me: usize,
    script: Vec<Op>,
    pc: usize,
}

impl Process<Log> for Scripted {
    fn poll(&mut self, log: &mut Log, ctx: &mut Context) -> Poll {
        log.push((ctx.now().as_nanos(), Who::Proc(self.me)));
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

/// The reference the engine's order is checked against: pending events
/// in a `Vec`, the next one found by sorting on `(time, seq)`.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, Who)>,
    next_seq: u64,
    now: u64,
    pcs: Vec<usize>,
    waiters: BTreeMap<u64, Vec<usize>>,
    fired: Log,
}

impl Model {
    fn push(&mut self, at: u64, who: Who) -> u64 {
        self.pending.push((at, self.next_seq, who));
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let before = self.pending.len();
        self.pending.retain(|&(_, s, _)| s != seq);
        self.pending.len() < before
    }

    fn emit(&mut self, sig: u64) {
        for pid in self.waiters.remove(&sig).unwrap_or_default() {
            self.push(self.now, Who::Proc(pid));
        }
    }

    /// Fires events up to `horizon` within `budget`, as `run_until` does.
    fn run_until(
        &mut self,
        horizon: u64,
        budget: usize,
        scripts: &[Vec<Op>],
        calls: &[Option<u64>],
    ) {
        while self.fired.len() < budget {
            self.pending.sort_by_key(|&(time, seq, _)| (time, seq));
            match self.pending.first() {
                Some(&(time, _, _)) if time <= horizon => {}
                _ => return,
            }
            let (time, _, who) = self.pending.remove(0);
            self.now = time;
            self.fired.push((time, who));
            match who {
                Who::Call(c) => calls[c].into_iter().for_each(|sig| self.emit(sig)),
                Who::Proc(p) => {
                    let op = scripts[p].get(self.pcs[p]).copied();
                    self.pcs[p] += 1;
                    match op {
                        None => {}
                        Some(Op::Sleep(d)) => drop(self.push(time + d, who)),
                        Some(Op::Wait(sig)) => self.waiters.entry(sig).or_default().push(p),
                        Some(Op::EmitThenSleep(sig, d)) => {
                            self.push(time + d, who);
                            self.emit(sig);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn events_fire_in_nondecreasing_time_order(
        delays in prop::collection::vec(0u64..1_000_000, 1..100)
    ) {
        let mut engine = Engine::new(Vec::<u64>::new());
        for &d in &delays {
            engine.schedule_in(SimDuration::from_nanos(d), move |log: &mut Vec<u64>, ctx| {
                log.push(ctx.now().as_nanos());
            });
        }
        engine.run();
        let log = engine.state();
        prop_assert_eq!(log.len(), delays.len());
        prop_assert!(log.windows(2).all(|w| w[0] <= w[1]), "clock went backwards");
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        prop_assert_eq!(log, &sorted);
    }

    #[test]
    fn identical_schedules_replay_identically(
        delays in prop::collection::vec(0u64..1_000_000, 1..60)
    ) {
        let run = |delays: &[u64]| {
            let mut engine = Engine::new(Vec::<(u64, usize)>::new());
            for (i, &d) in delays.iter().enumerate() {
                engine.schedule_in(
                    SimDuration::from_nanos(d),
                    move |log: &mut Vec<(u64, usize)>, ctx| {
                        log.push((ctx.now().as_nanos(), i));
                    },
                );
            }
            engine.run();
            engine.into_state()
        };
        prop_assert_eq!(run(&delays), run(&delays));
    }

    #[test]
    fn processes_advance_clock_by_their_sleeps(
        sleeps in prop::collection::vec(1u64..1_000_000, 1..50)
    ) {
        struct Sleeper {
            sleeps: Vec<u64>,
            idx: usize,
        }
        impl Process<()> for Sleeper {
            fn poll(&mut self, _s: &mut (), _ctx: &mut Context) -> Poll {
                if self.idx < self.sleeps.len() {
                    let d = self.sleeps[self.idx];
                    self.idx += 1;
                    Poll::Sleep(SimDuration::from_nanos(d))
                } else {
                    Poll::Done
                }
            }
        }
        let total: u64 = sleeps.iter().sum();
        let mut engine = Engine::new(());
        engine.spawn(Box::new(Sleeper { sleeps, idx: 0 }));
        engine.run();
        prop_assert_eq!(engine.now(), SimTime::from_nanos(total));
        prop_assert!(engine.all_finished());
    }

    #[test]
    fn signals_wake_every_waiter_exactly_once(
        waiters in 1usize..20,
        fire_at in 1u64..1_000_000
    ) {
        let mut engine = Engine::new(0u32);
        for _ in 0..waiters {
            // Closure process: first poll waits on the signal, the
            // wake-up poll counts itself and finishes.
            let mut waited = false;
            engine.spawn(Box::new(move |count: &mut u32, _ctx: &mut Context| {
                if !waited {
                    waited = true;
                    Poll::WaitSignal(Signal(9))
                } else {
                    *count += 1;
                    Poll::Done
                }
            }));
        }
        engine.schedule_in(SimDuration::from_nanos(fire_at), |_s, ctx| ctx.emit(Signal(9)));
        engine.run();
        prop_assert_eq!(*engine.state(), waiters as u32);
        prop_assert!(engine.all_finished());
    }

    /// A seeded mix of sleepers, waiters and emitters over a few signals,
    /// closures (some emitting), cancels before and in the middle of the
    /// run, and an event budget: the engine fires exactly what the
    /// reference queue fires, in the same order.
    #[test]
    fn fired_sequence_matches_the_reference_queue(seed in any::<u64>()) {
        let mut rng = seed;
        let mut draw = move |n: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
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
        // Closure `c` fires at `delay` and emits `calls[c]`, if any.
        let delays: Vec<u64> = (0..draw(10)).map(|_| draw(30) * 10).collect();
        let calls: Vec<Option<u64>> =
            delays.iter().map(|_| (draw(2) == 0).then(|| draw(signals))).collect();
        let budget = if draw(3) == 0 { 5 + draw(40) } else { u64::MAX };
        let horizon = draw(20) * 10;

        let mut engine = Engine::new(Log::new());
        engine.set_event_budget(budget);
        let mut model = Model { pcs: vec![0; scripts.len()], ..Model::default() };
        for (me, script) in scripts.iter().enumerate() {
            engine.spawn(Box::new(Scripted { me, script: script.clone(), pc: 0 }));
            model.push(0, Who::Proc(me));
        }
        let mut ids: Vec<(EventId, u64)> = Vec::new();
        for (c, (&delay, &emits)) in delays.iter().zip(&calls).enumerate() {
            let id = engine.schedule_in(SimDuration::from_nanos(delay), move |log: &mut Log, ctx| {
                log.push((ctx.now().as_nanos(), Who::Call(c)));
                if let Some(sig) = emits {
                    ctx.emit(Signal(sig));
                }
            });
            ids.push((id, model.push(delay, Who::Call(c))));
        }

        let budget = usize::try_from(budget).unwrap_or(usize::MAX);
        // Two rounds of cancels: before anything fired, and at the
        // horizon, where some of the ids have fired already.
        for round in 0..2 {
            for &(id, seq) in &ids {
                if draw(4) == 0 {
                    prop_assert_eq!(engine.cancel(id), model.cancel(seq), "cancel of seq {}", seq);
                }
            }
            prop_assert_eq!(engine.pending_events(), model.pending.len());
            let until = if round == 0 { horizon } else { u64::MAX };
            let outcome = engine.run_until(SimTime::from_nanos(until));
            model.run_until(until, budget, &scripts, &calls);
            let expected = if model.fired.len() >= budget {
                RunOutcome::EventBudgetExhausted
            } else if model.pending.is_empty() {
                RunOutcome::Quiescent
            } else {
                RunOutcome::HorizonReached
            };
            prop_assert_eq!(outcome, expected);
            prop_assert_eq!(engine.state(), &model.fired);
            prop_assert_eq!(engine.events_fired(), model.fired.len() as u64);
            prop_assert_eq!(engine.pending_events(), model.pending.len());
            prop_assert_eq!(engine.now().as_nanos(), model.now);
        }
    }
}
