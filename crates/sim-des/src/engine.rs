//! The discrete-event engine: a virtual clock, a pending-event queue, and a
//! registry of [`Process`]es.
//!
//! Determinism guarantees:
//! * events at equal times fire in the order they were scheduled;
//! * signal wake-ups are scheduled in process-registration order;
//! * no wall-clock or OS entropy is consulted anywhere.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::event::{EventAction, EventId};
use crate::process::{Poll, Process, ProcessId, Signal};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Execution context passed into event actions and process polls.
///
/// It carries the current virtual time and collects side requests (signal
/// emissions) that the engine applies after the action returns.
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
    /// at the current virtual time, after the running action completes.
    pub fn emit(&mut self, signal: Signal) {
        self.emitted.push(signal);
    }
}

/// Outcome of [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: no process can make further progress.
    Quiescent,
    /// The configured horizon was reached with events still pending.
    HorizonReached,
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
    queue: EventQueue<S>,
    processes: Vec<ProcessSlot<S>>,
    /// Wait lists are emptied in place by an emit and keep their
    /// allocation for the next round of waiters.
    waiters: HashMap<Signal, Vec<ProcessId>, BuildHasherDefault<SignalHasher>>,
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

    /// Mutable shared state accessor.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the engine, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Total number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of pending events; a cancelled event stops counting at once.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `action` to run at absolute time `at` (must not be in the
    /// past). Returns an id that can cancel the event.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut S, &mut Context) + Send + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        self.queue.push_call(at, Box::new(action))
    }

    /// Schedules `action` to run after `delay`.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut S, &mut Context) + Send + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Cancels a pending event. Returns true if it had not fired yet —
    /// false for an event that fired, was already cancelled, or was never
    /// issued by this engine.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Registers a process and schedules its first poll at the current time.
    pub fn spawn(&mut self, process: Box<dyn Process<S>>) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.processes.push(ProcessSlot { process, finished: false });
        self.queue.push_poll(self.now, id);
        id
    }

    /// True iff the given process has returned [`Poll::Done`].
    pub fn is_finished(&self, id: ProcessId) -> bool {
        self.processes[id.0].finished
    }

    /// True iff every registered process has finished.
    pub fn all_finished(&self) -> bool {
        self.processes.iter().all(|p| p.finished)
    }

    /// Fires the single earliest pending event. Returns false if the queue
    /// was empty.
    pub fn step(&mut self) -> bool {
        let Some((time, action)) = self.queue.pop_due(SimTime::MAX) else {
            return false;
        };
        self.fire(time, action);
        true
    }

    fn fire(&mut self, time: SimTime, action: EventAction<S>) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.events_fired += 1;

        let mut ctx = Context { now: time, emitted: std::mem::take(&mut self.emitted) };
        match action {
            EventAction::Call(f) => f(&mut self.state, &mut ctx),
            EventAction::PollProcess(pid) => self.poll_process(pid, &mut ctx),
        }
        let mut emitted = ctx.emitted;
        for signal in emitted.drain(..) {
            self.fire_signal(signal);
        }
        self.emitted = emitted;
    }

    fn poll_process(&mut self, pid: ProcessId, ctx: &mut Context) {
        let slot = &mut self.processes[pid.0];
        if slot.finished {
            return;
        }
        // The process table and the shared state are separate fields, so
        // the process can take `&mut state` where it stands.
        match slot.process.poll(&mut self.state, ctx) {
            Poll::Sleep(d) => self.queue.push_poll(self.now + d, pid),
            Poll::WaitSignal(sig) => self.waiters.entry(sig).or_default().push(pid),
            Poll::Done => slot.finished = true,
        }
    }

    fn fire_signal(&mut self, signal: Signal) {
        let Some(waiting) = self.waiters.get_mut(&signal) else {
            return;
        };
        for pid in waiting.drain(..) {
            // Wake-up = a poll scheduled at the current instant; schedule
            // order (and therefore wait order) is preserved.
            self.queue.push_poll(self.now, pid);
        }
    }

    /// Emits a signal from outside any event (e.g. before starting the run).
    pub fn emit_signal(&mut self, signal: Signal) {
        self.fire_signal(signal);
    }

    /// Runs until the queue drains, `horizon` is passed, or the event budget
    /// is exhausted.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.events_fired >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            match self.queue.pop_due(horizon) {
                Some((time, action)) => self.fire(time, action),
                None if self.queue.len() == 0 => return RunOutcome::Quiescent,
                None => return RunOutcome::HorizonReached,
            }
        }
    }

    /// Runs until the queue drains or the event budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Poll;

    #[test]
    fn events_fire_in_time_order_and_advance_clock() {
        let mut engine = Engine::new(Vec::<u32>::new());
        engine.schedule_in(SimDuration::from_secs(2), |s: &mut Vec<u32>, _| s.push(2));
        engine.schedule_in(SimDuration::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        engine.schedule_in(SimDuration::from_secs(3), |s: &mut Vec<u32>, _| s.push(3));
        assert_eq!(engine.run(), RunOutcome::Quiescent);
        assert_eq!(engine.state(), &vec![1, 2, 3]);
        assert_eq!(engine.now(), SimTime::from_secs_f64(3.0));
        assert_eq!(engine.events_fired(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut engine = Engine::new(Vec::<u32>::new());
        for i in 0..10u32 {
            engine.schedule_in(SimDuration::from_secs(1), move |s: &mut Vec<u32>, _| s.push(i));
        }
        engine.run();
        assert_eq!(engine.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_event_does_not_fire() {
        let mut engine = Engine::new(0u32);
        let id = engine.schedule_in(SimDuration::from_secs(1), |s: &mut u32, _| *s += 1);
        engine.schedule_in(SimDuration::from_secs(2), |s: &mut u32, _| *s += 10);
        assert!(engine.cancel(id));
        engine.run();
        assert_eq!(*engine.state(), 10);
    }

    #[test]
    fn cancel_is_true_only_for_an_event_still_pending() {
        let mut engine = Engine::new(0u32);
        let early = engine.schedule_in(SimDuration::from_secs(1), |s: &mut u32, _| *s += 1);
        let late = engine.schedule_in(SimDuration::from_secs(5), |s: &mut u32, _| *s += 10);
        assert_eq!(engine.pending_events(), 2);

        assert!(engine.cancel(late));
        assert_eq!(engine.pending_events(), 1, "the count drops at cancel, not at the head");
        assert!(!engine.cancel(late), "double cancel");

        assert!(engine.step());
        assert!(!engine.cancel(early), "cancel after fire");
        assert!(!engine.cancel(EventId { seq: 1 << 40, slot: 3 }), "an id never issued");
        assert_eq!(engine.pending_events(), 0);

        // The freed slots are let again; the stale ids stay dead.
        let next = engine.schedule_in(SimDuration::from_secs(1), |s: &mut u32, _| *s += 100);
        assert!(!engine.cancel(early) && !engine.cancel(late));
        assert_eq!(engine.pending_events(), 1);
        assert_eq!(engine.run(), RunOutcome::Quiescent);
        assert_eq!(*engine.state(), 101);
        assert_eq!(engine.events_fired(), 2, "a cancelled event never counts as fired");
        assert!(!engine.cancel(next));
    }

    #[test]
    fn events_can_schedule_into_engine_via_processes() {
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
        let pid = engine.spawn(Box::new(TwoSleeps { polls: 0 }));
        engine.run();
        assert!(engine.is_finished(pid));
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
        engine.schedule_in(SimDuration::from_secs(3), |_s, ctx| ctx.emit(Signal(7)));
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
        engine.schedule_in(SimDuration::from_secs(1), |s: &mut (u32, bool), ctx| {
            s.0 += 1;
            ctx.emit(Signal(1));
        });
        engine.schedule_in(SimDuration::from_secs(2), |s: &mut (u32, bool), ctx| {
            s.0 += 1;
            ctx.emit(Signal(1));
        });
        engine.run();
        assert!(engine.state().1, "consumer should have observed the condition");
    }

    #[test]
    fn run_until_horizon_stops_early() {
        let mut engine = Engine::new(0u32);
        engine.schedule_in(SimDuration::from_secs(1), |s: &mut u32, _| *s += 1);
        engine.schedule_in(SimDuration::from_secs(10), |s: &mut u32, _| *s += 1);
        let outcome = engine.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(*engine.state(), 1);
        assert_eq!(engine.pending_events(), 1);
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
    }

    #[test]
    fn closure_processes_work() {
        let mut polls = 0;
        let proc = move |s: &mut u32, _ctx: &mut Context| {
            polls += 1;
            *s += 1;
            if polls < 3 {
                Poll::Sleep(SimDuration::from_secs(1))
            } else {
                Poll::Done
            }
        };
        let mut engine = Engine::new(0u32);
        engine.spawn(Box::new(proc));
        engine.run();
        assert_eq!(*engine.state(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut engine = Engine::new(0u32);
        engine.schedule_in(SimDuration::from_secs(1), |_s, _c| {});
        engine.run();
        engine.schedule_at(SimTime::ZERO, |_s, _c| {});
    }
}
