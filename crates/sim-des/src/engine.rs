//! The discrete-event engine: a virtual clock, a pending-event queue, and a
//! registry of [`Process`]es.
//!
//! Determinism guarantees:
//! * events at equal times fire in the order they were scheduled;
//! * signal wake-ups are scheduled in process-registration order;
//! * no wall-clock or OS entropy is consulted anywhere.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::process::{Poll, Process, Signal};
use crate::queue::EventQueue;
use crate::time::SimTime;

/// Execution context passed into process polls.
///
/// It carries the current virtual time and collects side requests (signal
/// emissions) that the engine applies after the poll returns.
pub struct Context {
    now: SimTime,
    emitted: Vec<Signal>,
}

impl Context {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Emits a signal, waking every process blocked on it. Wake-ups happen
    /// at the current virtual time, after the running poll completes.
    pub fn emit(&mut self, signal: Signal) {
        self.emitted.push(signal);
    }
}

/// Outcome of [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: no process can make further progress.
    Quiescent,
    /// The configured event budget was exhausted (livelock guard).
    EventBudgetExhausted,
}

struct ProcessSlot<S> {
    process: Box<dyn Process<S>>,
    finished: bool,
}

/// Hashes a [`Signal`] with one multiply. Signals are numbers the model
/// picks for itself (a member index, a small constant), never input from
/// outside the program, so the default hasher's flood resistance would be
/// paid on every wait and every emit for nothing.
#[derive(Default)]
struct SignalHasher(u64);

impl Hasher for SignalHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministic discrete-event simulation engine over shared state `S`.
pub struct Engine<S> {
    state: S,
    now: SimTime,
    queue: EventQueue,
    processes: Vec<ProcessSlot<S>>,
    /// Wait lists are emptied in place by an emit and keep their
    /// allocation for the next round of waiters.
    waiters: HashMap<Signal, Vec<u32>, BuildHasherDefault<SignalHasher>>,
    /// The buffer every [`Context`] collects emissions into, handed from
    /// one event to the next.
    emitted: Vec<Signal>,
    events_fired: u64,
    event_budget: u64,
}

impl<S> Engine<S> {
    /// Creates an engine owning `state`, with the clock at zero.
    pub fn new(state: S) -> Self {
        Engine {
            state,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processes: Vec::new(),
            waiters: HashMap::default(),
            emitted: Vec::new(),
            events_fired: 0,
            event_budget: u64::MAX,
        }
    }

    /// Caps the total number of events the engine will fire (livelock
    /// guard for zero-delay loops). Default: unlimited.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared state accessor.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Consumes the engine, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Total number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Registers a process and schedules its first poll at the current time.
    pub fn spawn(&mut self, process: Box<dyn Process<S>>) {
        let index = u32::try_from(self.processes.len()).expect("more than u32::MAX processes");
        self.processes.push(ProcessSlot { process, finished: false });
        self.queue.push(self.now, index);
    }

    /// True iff every registered process has finished.
    pub fn all_finished(&self) -> bool {
        self.processes.iter().all(|p| p.finished)
    }

    fn fire(&mut self, time: SimTime, index: u32) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.events_fired += 1;

        let mut ctx = Context { now: time, emitted: std::mem::take(&mut self.emitted) };
        let slot = &mut self.processes[index as usize];
        debug_assert!(!slot.finished, "a finished process is never scheduled");
        // The process table and the shared state are separate fields, so
        // the process can take `&mut state` where it stands.
        match slot.process.poll(&mut self.state, &mut ctx) {
            Poll::Sleep(d) => self.queue.push(time + d, index),
            Poll::WaitSignal(sig) => self.waiters.entry(sig).or_default().push(index),
            Poll::Done => slot.finished = true,
        }
        let mut emitted = ctx.emitted;
        for signal in emitted.drain(..) {
            let Some(waiting) = self.waiters.get_mut(&signal) else {
                continue;
            };
            for waiter in waiting.drain(..) {
                // Wake-up = a poll scheduled at the current instant;
                // schedule order (and therefore wait order) is preserved.
                self.queue.push(time, waiter);
            }
        }
        self.emitted = emitted;
    }

    /// Runs until the queue drains or the event budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            if self.events_fired >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            match self.queue.pop() {
                Some((time, index)) => self.fire(time, index),
                None => return RunOutcome::Quiescent,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A process that sleeps `delay`, then runs `then` once and finishes.
    fn after<S: 'static>(
        delay: SimDuration,
        mut then: impl FnMut(&mut S, &mut Context) + Send + 'static,
    ) -> Box<dyn Process<S>> {
        let mut slept = false;
        Box::new(move |state: &mut S, ctx: &mut Context| {
            if slept {
                then(state, ctx);
                Poll::Done
            } else {
                slept = true;
                Poll::Sleep(delay)
            }
        })
    }

    #[test]
    fn polls_fire_in_time_order_and_advance_clock() {
        let mut engine = Engine::new(Vec::<u32>::new());
        for secs in [2, 1, 3] {
            engine.spawn(after(SimDuration::from_secs(secs), move |s: &mut Vec<u32>, _| {
                s.push(secs as u32)
            }));
        }
        assert_eq!(engine.run(), RunOutcome::Quiescent);
        assert_eq!(engine.state(), &vec![1, 2, 3]);
        assert_eq!(engine.now(), SimTime::from_secs_f64(3.0));
        assert_eq!(engine.events_fired(), 6);
    }

    #[test]
    fn simultaneous_polls_fire_in_schedule_order() {
        let mut engine = Engine::new(Vec::<u32>::new());
        for i in 0..10u32 {
            engine.spawn(after(SimDuration::from_secs(1), move |s: &mut Vec<u32>, _| s.push(i)));
        }
        engine.run();
        assert_eq!(engine.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn a_process_is_polled_at_the_end_of_each_sleep() {
        // A process that sleeps twice then finishes.
        struct TwoSleeps {
            polls: u32,
        }
        impl Process<Vec<SimTime>> for TwoSleeps {
            fn poll(&mut self, state: &mut Vec<SimTime>, ctx: &mut Context) -> Poll {
                state.push(ctx.now());
                self.polls += 1;
                if self.polls <= 2 {
                    Poll::Sleep(SimDuration::from_secs(5))
                } else {
                    Poll::Done
                }
            }
        }
        let mut engine = Engine::new(Vec::new());
        engine.spawn(Box::new(TwoSleeps { polls: 0 }));
        engine.run();
        assert!(engine.all_finished());
        assert_eq!(
            engine.state(),
            &vec![SimTime::ZERO, SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(10.0)]
        );
    }

    #[test]
    fn signal_wakes_waiting_process() {
        // Producer emits a signal at t=3; consumer waits for it.
        struct Consumer {
            woke: bool,
        }
        impl Process<Option<SimTime>> for Consumer {
            fn poll(&mut self, state: &mut Option<SimTime>, ctx: &mut Context) -> Poll {
                if self.woke {
                    *state = Some(ctx.now());
                    Poll::Done
                } else {
                    self.woke = true;
                    Poll::WaitSignal(Signal(7))
                }
            }
        }
        let mut engine = Engine::new(None);
        engine.spawn(Box::new(Consumer { woke: false }));
        engine.spawn(after(SimDuration::from_secs(3), |_s, ctx| ctx.emit(Signal(7))));
        assert_eq!(engine.run(), RunOutcome::Quiescent);
        assert_eq!(*engine.state(), Some(SimTime::from_secs_f64(3.0)));
    }

    #[test]
    fn condvar_semantics_recheck_condition() {
        // Consumer needs state >= 2; two increments are needed, each
        // followed by a signal. The consumer must re-wait after the first.
        struct Consumer;
        impl Process<(u32, bool)> for Consumer {
            fn poll(&mut self, state: &mut (u32, bool), _ctx: &mut Context) -> Poll {
                if state.0 >= 2 {
                    state.1 = true;
                    Poll::Done
                } else {
                    Poll::WaitSignal(Signal(1))
                }
            }
        }
        let mut engine = Engine::new((0u32, false));
        engine.spawn(Box::new(Consumer));
        for secs in [1, 2] {
            engine.spawn(after(SimDuration::from_secs(secs), |s: &mut (u32, bool), ctx| {
                s.0 += 1;
                ctx.emit(Signal(1));
            }));
        }
        engine.run();
        assert!(engine.state().1, "consumer should have observed the condition");
    }

    #[test]
    fn event_budget_guards_livelock() {
        // A process that never advances time.
        struct Spinner;
        impl Process<()> for Spinner {
            fn poll(&mut self, _s: &mut (), _ctx: &mut Context) -> Poll {
                Poll::Sleep(SimDuration::ZERO)
            }
        }
        let mut engine = Engine::new(());
        engine.spawn(Box::new(Spinner));
        engine.set_event_budget(100);
        assert_eq!(engine.run(), RunOutcome::EventBudgetExhausted);
        assert_eq!(engine.events_fired(), 100);
        assert!(!engine.all_finished());
    }
}
