//! The decisions of one [`SyncStaging`] shard, as pure functions of what
//! the shard holds under its lock: whether a waiter proceeds, spins or
//! parks ([`next`]), how parked waiters are counted ([`Parked`]), and
//! whom a recorded change wakes ([`record`]). `SyncStaging` makes each
//! of these decisions here and nowhere else, and the tests below check
//! them over every interleaving of a 1-writer, 2-reader, 3-step coupling.
//!
//! # Spin, then park
//!
//! A waiter whose step is not ready watches the shard's progress word
//! for at most [`SPIN`], yielding the CPU between looks, and only then
//! parks on its side's condvar. Every recorded write, read and close
//! bumps the word under the shard lock, so a spinner sees every change
//! that could let it proceed; it then retakes the lock and decides
//! again. A change notifies a condvar only when a waiter is counted as
//! parked on it: the count is kept under the same lock as the decision
//! to park, so a notifier that finds it zero has nobody to wake.
//!
//! [`SyncStaging`]: super::SyncStaging

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a waiter watches the progress word before it parks.
///
/// In the synchronous coupling a reader waits for one MD stride plus a
/// write, and a writer for one read plus an analysis. At the frame size
/// of the threaded benchmark (27 atoms) a stride takes 8.3 µs, and a
/// hand-off that always parks 13.5 µs, about 6.7 µs of futex park and
/// wake per side (`staging_throughput`'s `md/stride_us/27` and
/// `staging/handoff_us` on a 2-core x86-64 host). The bound is twice
/// that stride run 1.7× slow (the slowdown such a shared host shows for
/// minutes at a time), rounded up: the common wait is covered, and a
/// wait that outlasts it (a 125-atom stride, an eigen analysis: hundreds
/// of µs) pays a spin of at most a tenth of itself before it parks.
/// Computing each Lennard-Jones pair once has since shortened the stride
/// (`md/stride_us/27` 12.4 → 10.1 µs, medians of seven runs a side on
/// the same host), which leaves the bound more room. The spinner yields
/// between looks, so on an oversubscribed host the thread it waits for
/// gets the core.
pub(crate) const SPIN: Duration = Duration::from_micros(30);

/// The side of a coupling a waiter is on; each side parks on its own
/// condvar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Side {
    /// The variable's writer, waiting for its previous chunk to be read.
    Writer,
    /// One of the variable's readers, waiting for its next step.
    Reader,
}

/// What a waiter does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Next {
    /// The area is closed: fail with `Closed`.
    Closed,
    /// The variable is closed: fail with `VariableClosed`.
    VariableClosed,
    /// The step is ready: do the operation under the lock now held.
    Proceed,
    /// Release the lock and watch the progress word.
    Spin,
    /// Count this waiter as parked and wait on its side's condvar.
    Park,
}

/// The decision of a waiter holding the shard lock. `may_spin` is false
/// once this operation's spin bound has run out.
pub(crate) fn next(area_closed: bool, variable_closed: bool, ready: bool, may_spin: bool) -> Next {
    if area_closed {
        Next::Closed
    } else if variable_closed {
        Next::VariableClosed
    } else if ready {
        Next::Proceed
    } else if may_spin {
        Next::Spin
    } else {
        Next::Park
    }
}

/// Waiters parked on a shard's condvars, kept under the shard lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct Parked {
    writers: u32,
    readers: u32,
}

impl Parked {
    /// Counts a waiter that is about to wait on `side`'s condvar.
    pub(crate) fn park(&mut self, side: Side) {
        *self.count(side) += 1;
    }

    /// Uncounts a waiter that returned from its condvar wait.
    pub(crate) fn unpark(&mut self, side: Side) {
        *self.count(side) -= 1;
    }

    fn count(&mut self, side: Side) -> &mut u32 {
        match side {
            Side::Writer => &mut self.writers,
            Side::Reader => &mut self.readers,
        }
    }
}

/// A change to a shard's state that a waiter may be waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Change {
    /// A chunk was staged: its readers may proceed.
    Write,
    /// A reader consumed a chunk: the writer may proceed. Reads never
    /// enable other reads.
    Read,
    /// The variable or the whole area was closed: everyone fails.
    Close,
}

/// The condvars a change must notify.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Wake {
    /// Notify the writer side.
    pub(crate) writers: bool,
    /// Notify the reader side.
    pub(crate) readers: bool,
}

/// Records `change` on the shard's progress word, under the shard lock,
/// and returns the condvars to notify: a side is woken only when the
/// change concerns it and a waiter is parked on it.
pub(crate) fn record(progress: &AtomicU64, change: Change, parked: Parked) -> Wake {
    // The word publishes no data: a spinner that sees it move retakes
    // the lock, and the lock orders everything else.
    progress.fetch_add(1, Ordering::Relaxed);
    Wake {
        writers: parked.writers > 0 && matches!(change, Change::Read | Change::Close),
        readers: parked.readers > 0 && matches!(change, Change::Write | Change::Close),
    }
}

/// Watches `progress` until it moves off `seen` or `until` passes,
/// yielding the CPU between looks. True when the word moved.
pub(crate) fn spin(progress: &AtomicU64, seen: u64, until: Instant) -> bool {
    loop {
        if progress.load(Ordering::Relaxed) != seen {
            return true;
        }
        if Instant::now() >= until {
            return false;
        }
        std::thread::yield_now();
    }
}

/// An exhaustive check of the decisions above: every interleaving of one
/// writer and two readers coupled for three steps through a one-slot
/// variable, with one failed store the writer retries, and with or
/// without a `close_variable` at any point. Each thread is a program of
/// `wait_writable`/`put` (writer) or `wait_readable`/`get` (readers)
/// calls; each lock hold is one atomic transition that makes its
/// decision through [`next`], [`Parked`] and [`record`], exactly as
/// `SyncStaging` does. Condvar waits have no timeout and never wake
/// spuriously, so a lost wakeup shows as a state where nothing can move
/// while some thread has not finished.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ReaderId, StepProtocol};
    use std::collections::HashSet;

    const STEPS: u64 = 3;
    const READERS: usize = 2;
    /// The put whose first store fails, leaving the protocol untouched;
    /// the writer calls `put` again.
    const FAILING_STORE_STEP: u64 = 1;

    /// A defect injected where the model calls the decisions; the checker
    /// must find each one.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Mutation {
        None,
        /// A change notifies nobody, even with a peer parked.
        SkipNotify,
        /// A parking waiter is not counted.
        UncountedPark,
        /// A close leaves the progress word where it was.
        CloseWithoutBump,
    }

    /// When a spinner's bound runs out.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Bound {
        /// After any look, including before the first: every schedule of
        /// spin and park a real bound can produce.
        AnyPoint,
        /// Never: the waiter leaves its spin only when the word moves.
        Never,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Call {
        WaitWritable(u64),
        Put(u64),
        WaitReadable(u64),
        Get(u64),
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Pc {
        /// Takes the lock and decides.
        Check { may_spin: bool },
        /// Lock released, watching the progress word.
        Spinning { seen: u64 },
        /// Counted (unless mutated) and waiting on its side's condvar.
        Parked,
        /// Notified: retakes the lock, uncounts itself and decides.
        Woken,
        /// Returned from its last call, or failed with `VariableClosed`.
        Done { closed: bool },
    }

    /// Threads 0 (writer) and 1..=READERS (readers); the closer is a flag.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct State {
        protocol: StepProtocol,
        variable_closed: bool,
        parked: Parked,
        progress: u64,
        store_failed: bool,
        calls: [usize; 1 + READERS],
        pcs: [Pc; 1 + READERS],
    }

    fn side(thread: usize) -> Side {
        if thread == 0 {
            Side::Writer
        } else {
            Side::Reader
        }
    }

    fn program(thread: usize) -> Vec<Call> {
        (0..STEPS)
            .flat_map(|s| {
                if thread == 0 {
                    [Call::WaitWritable(s), Call::Put(s)]
                } else {
                    [Call::WaitReadable(s), Call::Get(s)]
                }
            })
            .collect()
    }

    struct Checker {
        mutation: Mutation,
        bound: Bound,
        close: bool,
        programs: Vec<Vec<Call>>,
    }

    impl Checker {
        fn new(mutation: Mutation, bound: Bound, close: bool) -> Self {
            Checker { mutation, bound, close, programs: (0..=READERS).map(program).collect() }
        }

        fn initial(&self) -> State {
            State {
                protocol: StepProtocol::new(READERS as u32, 1),
                variable_closed: false,
                parked: Parked::default(),
                progress: 0,
                store_failed: false,
                calls: [0; 1 + READERS],
                pcs: [Pc::Check { may_spin: true }; 1 + READERS],
            }
        }

        /// A recorded change: the bump and the notifies of `record`.
        fn publish(&self, s: &mut State, change: Change) {
            let progress = AtomicU64::new(s.progress);
            let mut wake = record(&progress, change, s.parked);
            if self.mutation == Mutation::SkipNotify {
                wake = Wake::default();
            }
            if !(self.mutation == Mutation::CloseWithoutBump && change == Change::Close) {
                s.progress = progress.into_inner();
            }
            for t in 0..=READERS {
                let notified = match side(t) {
                    Side::Writer => wake.writers,
                    Side::Reader => wake.readers,
                };
                if notified && s.pcs[t] == Pc::Parked {
                    s.pcs[t] = Pc::Woken;
                }
            }
        }

        fn finish_call(&self, s: &mut State, t: usize) {
            s.calls[t] += 1;
            s.pcs[t] = if s.calls[t] == self.programs[t].len() {
                Pc::Done { closed: false }
            } else {
                Pc::Check { may_spin: true }
            };
        }

        /// One lock hold of thread `t`, as `SyncStaging::wait_for` and
        /// the operation after it run it.
        fn decide(&self, s: &mut State, t: usize, may_spin: bool) -> Result<(), String> {
            let call = self.programs[t][s.calls[t]];
            let reader = ReaderId(t.saturating_sub(1) as u32);
            let ready = match call {
                Call::WaitWritable(step) | Call::Put(step) => s.protocol.may_write(step),
                Call::WaitReadable(step) | Call::Get(step) => s.protocol.may_read(reader, step),
            };
            match next(false, s.variable_closed, ready, may_spin) {
                Next::Closed => return Err("the area was never closed".into()),
                Next::VariableClosed => s.pcs[t] = Pc::Done { closed: true },
                Next::Proceed if s.variable_closed => {
                    return Err(format!("{call:?} proceeded on a closed variable"))
                }
                Next::Proceed => match call {
                    Call::WaitWritable(_) | Call::WaitReadable(_) => self.finish_call(s, t),
                    Call::Put(step) if step == FAILING_STORE_STEP && !s.store_failed => {
                        // The store failed before the protocol moved; the
                        // writer calls `put` again.
                        s.store_failed = true;
                        s.pcs[t] = Pc::Check { may_spin: true };
                    }
                    Call::Put(step) => {
                        s.protocol.record_write(step).map_err(|e| e.to_string())?;
                        self.publish(s, Change::Write);
                        self.finish_call(s, t);
                    }
                    Call::Get(step) => {
                        s.protocol.record_read(reader, step).map_err(|e| e.to_string())?;
                        self.publish(s, Change::Read);
                        self.finish_call(s, t);
                    }
                },
                Next::Spin => s.pcs[t] = Pc::Spinning { seen: s.progress },
                Next::Park => {
                    if self.mutation != Mutation::UncountedPark {
                        s.parked.park(side(t));
                    }
                    s.pcs[t] = Pc::Parked;
                }
            }
            Ok(())
        }

        /// Every state one transition from `s`.
        fn successors(&self, s: &State) -> Result<Vec<State>, String> {
            let mut out = Vec::new();
            for t in 0..=READERS {
                match s.pcs[t] {
                    Pc::Check { may_spin } => {
                        let mut n = s.clone();
                        self.decide(&mut n, t, may_spin)?;
                        out.push(n);
                    }
                    Pc::Spinning { seen } => {
                        if s.progress != seen {
                            let mut n = s.clone();
                            n.pcs[t] = Pc::Check { may_spin: true };
                            out.push(n);
                        }
                        if self.bound == Bound::AnyPoint {
                            let mut n = s.clone();
                            n.pcs[t] = Pc::Check { may_spin: false };
                            out.push(n);
                        }
                    }
                    Pc::Woken => {
                        let mut n = s.clone();
                        if self.mutation != Mutation::UncountedPark {
                            n.parked.unpark(side(t));
                        }
                        self.decide(&mut n, t, false)?;
                        out.push(n);
                    }
                    Pc::Parked | Pc::Done { .. } => {}
                }
            }
            if self.close && !s.variable_closed {
                let mut n = s.clone();
                n.variable_closed = true;
                self.publish(&mut n, Change::Close);
                out.push(n);
            }
            Ok(out)
        }

        /// What must hold where no transition is left.
        fn check_terminal(&self, s: &State) -> Result<(), String> {
            if s.pcs.iter().any(|pc| !matches!(pc, Pc::Done { .. })) {
                return Err(format!("deadlock or lost wakeup: {:?}", s.pcs));
            }
            if !s.variable_closed {
                let all_read = (0..READERS as u32)
                    .all(|r| s.protocol.next_read_step(ReaderId(r)).ok() == Some(STEPS));
                if s.protocol.next_write_step() != STEPS || !all_read {
                    return Err(format!("finished without handing off every step: {s:?}"));
                }
            }
            Ok(())
        }

        /// Explores every reachable state; the number of states, or the
        /// first violation found.
        fn run(&self) -> Result<usize, String> {
            let mut seen = HashSet::new();
            let mut stack = vec![self.initial()];
            while let Some(s) = stack.pop() {
                if !seen.insert(s.clone()) {
                    continue;
                }
                if s.protocol.next_write_step() > s.protocol.oldest_unread() + 1 {
                    return Err(format!("a chunk was overwritten before it was read: {s:?}"));
                }
                let next = self.successors(&s)?;
                if next.is_empty() {
                    self.check_terminal(&s)?;
                }
                stack.extend(next);
            }
            Ok(seen.len())
        }
    }

    #[test]
    fn every_interleaving_hands_off_every_step_and_sees_the_close() {
        for bound in [Bound::AnyPoint, Bound::Never] {
            for close in [false, true] {
                let states = Checker::new(Mutation::None, bound, close)
                    .run()
                    .unwrap_or_else(|e| panic!("{bound:?}, close {close}: {e}"));
                // 1 160 / 3 430 states (without / with the close) when
                // the bound may run out anywhere, 236 / 974 when it never
                // does.
                assert!(states > 200, "{bound:?}, close {close}: only {states} states");
            }
        }
    }

    #[test]
    fn each_injected_defect_is_caught() {
        for (mutation, bound, close) in [
            (Mutation::SkipNotify, Bound::AnyPoint, false),
            (Mutation::UncountedPark, Bound::AnyPoint, false),
            (Mutation::CloseWithoutBump, Bound::Never, true),
        ] {
            let verdict = Checker::new(mutation, bound, close).run();
            let err = verdict.expect_err(&format!("{mutation:?} went unnoticed"));
            assert!(err.contains("lost wakeup"), "{mutation:?}: {err}");
        }
    }

    #[test]
    fn next_orders_close_before_readiness() {
        assert_eq!(next(true, true, true, true), Next::Closed);
        assert_eq!(next(false, true, true, true), Next::VariableClosed);
        assert_eq!(next(false, false, true, false), Next::Proceed);
        assert_eq!(next(false, false, false, true), Next::Spin);
        assert_eq!(next(false, false, false, false), Next::Park);
    }

    #[test]
    fn a_change_wakes_only_a_parked_side_it_concerns() {
        let progress = AtomicU64::new(0);
        let none = Parked::default();
        for change in [Change::Write, Change::Read, Change::Close] {
            assert_eq!(record(&progress, change, none), Wake::default(), "{change:?}");
        }
        assert_eq!(progress.load(Ordering::Relaxed), 3, "every change bumps the word");
        let mut both = Parked::default();
        both.park(Side::Writer);
        both.park(Side::Reader);
        assert_eq!(record(&progress, Change::Write, both), Wake { writers: false, readers: true });
        assert_eq!(record(&progress, Change::Read, both), Wake { writers: true, readers: false });
        assert_eq!(record(&progress, Change::Close, both), Wake { writers: true, readers: true });
        both.unpark(Side::Reader);
        assert_eq!(record(&progress, Change::Write, both), Wake::default());
    }
}
