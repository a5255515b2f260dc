//! Lock acquisition that survives a panicking holder.
//!
//! Fault plans panic members on purpose while their peers wait on the
//! same shard. Every update made under these locks is complete before
//! the next fallible call, so the data behind a poisoned lock is valid:
//! the peers take it and carry on, and the supervisor reports the panic
//! through the member's join handle.

use std::sync::{Condvar, LockResult, MutexGuard, PoisonError};
use std::time::Instant;

/// The guard (or value) of a lock call, poisoned or not.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` until notified or until `deadline`; the flag is true
/// when the deadline passed first.
pub(crate) fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Instant,
) -> (MutexGuard<'a, T>, bool) {
    let timeout = deadline.saturating_duration_since(Instant::now());
    let (guard, wait) = recover(cv.wait_timeout(guard, timeout));
    (guard, wait.timed_out())
}
