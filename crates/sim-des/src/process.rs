//! A light process abstraction on top of the event engine.
//!
//! A [`Process`] is a resumable state machine: the engine repeatedly calls
//! [`Process::poll`], and the process answers with what it wants to do next —
//! sleep for a virtual duration, block on a [`Signal`], or finish. Blocking
//! on a signal has condition-variable semantics: a process woken by a signal
//! re-runs its `poll`, re-checks its condition against the shared state, and
//! may decide to wait again.

use crate::engine::Context;
use crate::time::SimDuration;

/// A broadcast wake-up channel. Every process blocked on a signal is woken
/// when it is emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signal(pub u64);

/// What a process wants to do after being polled.
#[derive(Debug)]
pub enum Poll {
    /// Advance virtual time by `0` or more nanoseconds, then poll again.
    Sleep(SimDuration),
    /// Block until the signal is emitted, then poll again.
    WaitSignal(Signal),
    /// The process has finished and will never be polled again.
    Done,
}

/// A resumable simulation actor operating on shared state `S`.
pub trait Process<S>: Send {
    /// Resumes the process. Returns what it wants to do next.
    ///
    /// `ctx` exposes the current virtual time and lets the process emit
    /// signals that wake other processes.
    fn poll(&mut self, state: &mut S, ctx: &mut Context) -> Poll;
}

/// Blanket impl so plain closures can act as processes in tests and simple
/// simulations.
impl<S, F> Process<S> for F
where
    F: FnMut(&mut S, &mut Context) -> Poll + Send,
{
    fn poll(&mut self, state: &mut S, ctx: &mut Context) -> Poll {
        self(state, ctx)
    }
}
