//! Asynchronous (in-transit style) staging: the producer never blocks.
//!
//! The paper's protocol is synchronous — the simulation stalls until its
//! previous chunk is consumed. In-transit analytics (Taufer et al.,
//! cited as \[26\]) instead let the simulation run free: chunks enter a
//! bounded queue and, when the analysis cannot keep up, the **oldest
//! unconsumed frames are dropped** and counted as *lost frames* — the
//! domain metric that work characterizes. This tier implements that
//! semantic for real threaded runs.
//!
//! Like [`SyncStaging`](crate::staging::SyncStaging), the area is
//! sharded per variable: each variable's queue lives behind its own
//! mutex and condition variable, so independent members never contend.
//! A `put` wakes only the readers of that variable; consuming a chunk
//! wakes nobody (puts never block, so nothing waits on consumption).
//!
//! Payloads live in a [`ChunkStore`] backing tier (in-memory by
//! default), so the queue holds handles, not bytes — and the fallible
//! store/load hop can carry a [`RetryPolicy`] for transient I/O faults,
//! with the same error-path guarantee as the synchronous tier: a failed
//! store drops no frames and a failed load leaves the reader's cursor
//! untouched, so the op stays retryable.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use crate::chunk::{Chunk, ChunkId, ChunkMeta};
use crate::error::{DtlError, DtlResult};
use crate::locks::{recover, wait_until};
use crate::protocol::ReaderId;
use crate::staging::retry::{op_key, run_with_retry, RetryPolicy};
use crate::staging::store::{ChunkStore, MemoryStore};
use crate::variable::{VariableId, VariableRegistry, VariableSpec};

/// A queued frame: identity + metadata in the queue, payload in the
/// backing store.
struct Staged<H> {
    id: ChunkId,
    meta: ChunkMeta,
    handle: H,
}

struct AsyncVar<H> {
    /// Retained frames, oldest first.
    queue: VecDeque<Staged<H>>,
    /// Highest step each reader has consumed (readers skip forward).
    last_consumed: HashMap<ReaderId, Option<u64>>,
    /// Frames dropped because the queue was full.
    lost: u64,
    /// Total frames staged.
    produced: u64,
    /// Producer finished.
    finished: bool,
}

/// One variable's queue with its own lock and reader wakeup channel.
struct AsyncShard<H> {
    state: Mutex<AsyncVar<H>>,
    /// Readers block here for new data, `finish`, or `close`.
    cv: Condvar,
}

/// A bounded non-blocking staging area with drop-oldest overflow.
pub struct AsyncStaging<B: ChunkStore = MemoryStore> {
    capacity: usize,
    store: B,
    retry: Option<RetryPolicy>,
    /// Read-mostly: written only by `register`.
    registry: RwLock<Registry<B::Handle>>,
    closed: AtomicBool,
    total_lost: AtomicU64,
    retries: AtomicU64,
    giveups: AtomicU64,
}

struct Registry<H> {
    names: VariableRegistry,
    /// Indexed by `VariableId` (dense ids, registration order).
    shards: Vec<Arc<AsyncShard<H>>>,
}

impl AsyncStaging<MemoryStore> {
    /// Creates an in-memory area retaining at most `capacity` chunks per
    /// variable.
    pub fn new(capacity: usize) -> Self {
        AsyncStaging::with_store(MemoryStore::new(), capacity)
    }
}

impl<B: ChunkStore> AsyncStaging<B> {
    /// Creates an area over `store` retaining at most `capacity` chunks
    /// per variable.
    pub fn with_store(store: B, capacity: usize) -> Self {
        assert!(capacity > 0);
        AsyncStaging {
            capacity,
            store,
            retry: None,
            registry: RwLock::new(Registry { names: VariableRegistry::new(), shards: Vec::new() }),
            closed: AtomicBool::new(false),
            total_lost: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            giveups: AtomicU64::new(0),
        }
    }

    /// Enables retries of transient store errors on `put`/`next`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// The backing store.
    pub fn store(&self) -> &B {
        &self.store
    }

    /// Store/load retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Transient errors returned to callers because the retry budget ran
    /// out.
    pub fn giveups(&self) -> u64 {
        self.giveups.load(Ordering::Relaxed)
    }

    /// Registers a variable.
    pub fn register(&self, spec: VariableSpec) -> DtlResult<VariableId> {
        let mut registry = recover(self.registry.write());
        let readers = spec.expected_readers;
        let id = registry.names.register(spec)?;
        if (id.0 as usize) >= registry.shards.len() {
            registry.shards.push(Arc::new(AsyncShard {
                state: Mutex::new(AsyncVar {
                    queue: VecDeque::new(),
                    last_consumed: (0..readers).map(|r| (ReaderId(r), None)).collect(),
                    lost: 0,
                    produced: 0,
                    finished: false,
                }),
                cv: Condvar::new(),
            }));
            debug_assert_eq!(registry.shards.len(), id.0 as usize + 1);
        }
        Ok(id)
    }

    /// The shard of `var`, or `UnknownVariable`.
    fn shard(&self, var: VariableId) -> DtlResult<Arc<AsyncShard<B::Handle>>> {
        recover(self.registry.read())
            .shards
            .get(var.0 as usize)
            .cloned()
            .ok_or_else(|| DtlError::UnknownVariable { name: format!("id {}", var.0) })
    }

    /// Stages a chunk without blocking. If the queue is full the oldest
    /// retained chunk is dropped (a lost frame). A failed store drops
    /// nothing: the queue and counters are untouched, so the put stays
    /// retryable.
    pub fn put(&self, chunk: Chunk) -> DtlResult<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(DtlError::Closed);
        }
        let var = chunk.id.variable;
        let shard = self.shard(var)?;
        let mut state = recover(shard.state.lock());
        if state.finished {
            return Err(DtlError::ProtocolViolation {
                detail: "producer already finished this variable".into(),
            });
        }
        let handle = run_with_retry(
            self.retry.as_ref(),
            None,
            op_key(var, chunk.id.step, 1),
            &self.retries,
            &self.giveups,
            || self.store.store(chunk.id, chunk.data.clone()),
        )?;
        if state.queue.len() >= self.capacity {
            if let Some(victim) = state.queue.pop_front() {
                let _ = self.store.remove(victim.handle);
            }
            state.lost += 1;
            self.total_lost.fetch_add(1, Ordering::Relaxed);
        }
        state.produced += 1;
        state.queue.push_back(Staged { id: chunk.id, meta: chunk.meta, handle });
        // Wake only this variable's readers.
        shard.cv.notify_all();
        Ok(())
    }

    /// Marks a variable's production as finished, letting readers drain
    /// and then observe end-of-stream.
    pub fn finish(&self, var: VariableId) -> DtlResult<()> {
        let shard = self.shard(var)?;
        let mut state = recover(shard.state.lock());
        state.finished = true;
        shard.cv.notify_all();
        Ok(())
    }

    /// Fetches the next chunk newer than the reader's last one, blocking
    /// until one exists. Returns `Ok(None)` at end of stream. Frames the
    /// reader skipped (dropped before it arrived) are simply absent. A
    /// failed load leaves the reader's cursor untouched, so the next
    /// call retries the same frame.
    pub fn next(
        &self,
        var: VariableId,
        reader: ReaderId,
        timeout: Duration,
    ) -> DtlResult<Option<Chunk>> {
        let deadline = std::time::Instant::now() + timeout;
        let shard = self.shard(var)?;
        let mut state = recover(shard.state.lock());
        loop {
            let last = *state.last_consumed.get(&reader).ok_or_else(|| {
                DtlError::ProtocolViolation { detail: format!("unknown reader {reader:?}") }
            })?;
            let found = state.queue.iter().position(|c| last.is_none_or(|l| c.id.step > l));
            if let Some(idx) = found {
                let id = state.queue[idx].id;
                let meta = state.queue[idx].meta;
                // Load before mutating the cursor (the error-path
                // guarantee): a failed load leaves the frame consumable.
                let data = run_with_retry(
                    self.retry.as_ref(),
                    Some(deadline),
                    op_key(var, id.step, 0),
                    &self.retries,
                    &self.giveups,
                    || self.store.load(&state.queue[idx].handle),
                )?;
                state.last_consumed.insert(reader, Some(id.step));
                // Garbage-collect chunks every reader has passed. Nobody
                // waits on consumption (puts never block), so no wakeup.
                let min_last: Option<u64> =
                    state.last_consumed.values().map(|v| v.unwrap_or(0)).min();
                let all_started = state.last_consumed.values().all(Option::is_some);
                if all_started {
                    if let Some(min_last) = min_last {
                        while state.queue.front().is_some_and(|c| c.id.step <= min_last) {
                            if let Some(dead) = state.queue.pop_front() {
                                let _ = self.store.remove(dead.handle);
                            }
                        }
                    }
                }
                return Ok(Some(Chunk { id, meta, data }));
            }
            if state.finished {
                return Ok(None);
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(DtlError::Closed);
            }
            let (guard, timed_out) = wait_until(&shard.cv, state, deadline);
            state = guard;
            if timed_out {
                return Err(DtlError::Timeout {
                    operation: "next",
                    variable: format!("id {}", var.0),
                    step: 0,
                });
            }
        }
    }

    /// Frames dropped for `var` so far.
    pub fn lost_frames(&self, var: VariableId) -> u64 {
        self.shard(var).map_or(0, |shard| recover(shard.state.lock()).lost)
    }

    /// Frames staged for `var` so far.
    pub fn produced_frames(&self, var: VariableId) -> u64 {
        self.shard(var).map_or(0, |shard| recover(shard.state.lock()).produced)
    }

    /// Total dropped frames across variables.
    pub fn total_lost(&self) -> u64 {
        self.total_lost.load(Ordering::Relaxed)
    }

    /// Closes the area, waking all blocked readers with an error.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let shards: Vec<_> = recover(self.registry.read()).shards.to_vec();
        for shard in shards {
            let _guard = recover(shard.state.lock());
            shard.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spec(readers: u32) -> VariableSpec {
        VariableSpec { name: "traj".into(), expected_readers: readers, home_node: 0 }
    }

    fn chunk(var: VariableId, step: u64) -> Chunk {
        Chunk::new(var, step, 0, "raw", Arc::from(vec![step as u8]))
    }

    #[test]
    fn producer_never_blocks_and_drops_oldest() {
        let s = AsyncStaging::new(2);
        let var = s.register(spec(1)).unwrap();
        for step in 0..5 {
            s.put(chunk(var, step)).unwrap();
        }
        assert_eq!(s.produced_frames(var), 5);
        assert_eq!(s.lost_frames(var), 3, "capacity 2 keeps only the newest 2 of 5");
        // Reader sees only steps 3 and 4.
        let c = s.next(var, ReaderId(0), Duration::from_millis(50)).unwrap().unwrap();
        assert_eq!(c.id.step, 3);
        let c = s.next(var, ReaderId(0), Duration::from_millis(50)).unwrap().unwrap();
        assert_eq!(c.id.step, 4);
    }

    #[test]
    fn end_of_stream_after_finish() {
        let s = AsyncStaging::new(4);
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0)).unwrap();
        s.finish(var).unwrap();
        assert!(s.next(var, ReaderId(0), Duration::from_millis(50)).unwrap().is_some());
        assert!(s.next(var, ReaderId(0), Duration::from_millis(50)).unwrap().is_none());
        // Producing after finish is a violation.
        assert!(matches!(s.put(chunk(var, 1)), Err(DtlError::ProtocolViolation { .. })));
    }

    #[test]
    fn slow_reader_loses_frames_fast_reader_does_not() {
        let s = Arc::new(AsyncStaging::new(3));
        let var = s.register(spec(1)).unwrap();
        let producer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for step in 0..50u64 {
                    s.put(chunk(var, step)).unwrap();
                    std::thread::sleep(Duration::from_micros(200));
                }
                s.finish(var).unwrap();
            })
        };
        let mut seen = Vec::new();
        while let Some(c) = s.next(var, ReaderId(0), Duration::from_secs(5)).unwrap() {
            seen.push(c.id.step);
            // A deliberately slow consumer.
            std::thread::sleep(Duration::from_millis(1));
        }
        producer.join().unwrap();
        // Steps are strictly increasing (never reordered, never repeated).
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.produced_frames(var), 50);
        assert_eq!(s.lost_frames(var) + count_retained(&seen, 50), 50);
    }

    fn count_retained(seen: &[u64], _total: u64) -> u64 {
        // Frames the reader consumed plus frames still skipped between
        // its reads were either consumed or dropped; with one reader and
        // a drained stream, consumed + lost = produced.
        seen.len() as u64
    }

    #[test]
    fn two_readers_progress_independently() {
        let s = AsyncStaging::new(8);
        let var = s.register(spec(2)).unwrap();
        for step in 0..4 {
            s.put(chunk(var, step)).unwrap();
        }
        // Reader 0 consumes two; reader 1 none yet.
        assert_eq!(
            s.next(var, ReaderId(0), Duration::from_millis(10)).unwrap().unwrap().id.step,
            0
        );
        assert_eq!(
            s.next(var, ReaderId(0), Duration::from_millis(10)).unwrap().unwrap().id.step,
            1
        );
        // Reader 1 still starts at step 0 (retained: capacity not hit).
        assert_eq!(
            s.next(var, ReaderId(1), Duration::from_millis(10)).unwrap().unwrap().id.step,
            0
        );
    }

    #[test]
    fn close_unblocks_waiting_reader() {
        let s = Arc::new(AsyncStaging::new(2));
        let var = s.register(spec(1)).unwrap();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.next(var, ReaderId(0), Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(30));
        s.close();
        assert!(matches!(reader.join().unwrap(), Err(DtlError::Closed)));
    }

    #[test]
    fn timeout_when_no_data() {
        let s = AsyncStaging::new(2);
        let var = s.register(spec(1)).unwrap();
        let err = s.next(var, ReaderId(0), Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, DtlError::Timeout { .. }));
    }

    #[test]
    fn unknown_variable_rejected() {
        let s = AsyncStaging::new(2);
        let bogus = VariableId(7);
        assert!(matches!(s.put(chunk(bogus, 0)), Err(DtlError::UnknownVariable { .. })));
        assert!(matches!(
            s.next(bogus, ReaderId(0), Duration::from_millis(10)),
            Err(DtlError::UnknownVariable { .. })
        ));
        assert!(matches!(s.finish(bogus), Err(DtlError::UnknownVariable { .. })));
    }

    #[test]
    fn consumed_and_dropped_frames_release_store_bytes() {
        let s = AsyncStaging::new(2);
        let var = s.register(spec(1)).unwrap();
        for step in 0..6 {
            s.put(chunk(var, step)).unwrap();
        }
        // Overflow drops released their payloads: only 2 frames held.
        assert_eq!(s.store().bytes_held(), 2);
        s.finish(var).unwrap();
        while s.next(var, ReaderId(0), Duration::from_millis(50)).unwrap().is_some() {}
        assert_eq!(s.store().bytes_held(), 0, "drained queue holds no payloads");
    }

    #[test]
    fn retry_clears_transient_faults_on_both_sides() {
        use crate::fault::{FaultInjector, FaultOp, FaultPlan, FaultRule};
        let plan = FaultPlan::new(11)
            .with_rule(FaultRule::fail(FaultOp::Store).first_attempts(1))
            .with_rule(FaultRule::fail(FaultOp::Load).first_attempts(1));
        let s = AsyncStaging::with_store(FaultInjector::new(MemoryStore::new(), plan), 4)
            .with_retry(RetryPolicy::with_attempts(3));
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0)).unwrap();
        let got = s.next(var, ReaderId(0), Duration::from_millis(500)).unwrap().unwrap();
        assert_eq!(got.id.step, 0);
        assert_eq!(s.retries(), 2, "one store retry + one load retry");
        assert_eq!(s.giveups(), 0);
        assert_eq!(s.produced_frames(var), 1);
    }

    #[test]
    fn failed_store_drops_no_frames() {
        use crate::fault::{FaultInjector, FaultOp, FaultPlan, FaultRule};
        let plan = FaultPlan::new(0).with_rule(FaultRule::fail(FaultOp::Store).first_attempts(1));
        let s = AsyncStaging::with_store(FaultInjector::new(MemoryStore::new(), plan), 1);
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0)).unwrap_err();
        assert_eq!(s.produced_frames(var), 0);
        assert_eq!(s.lost_frames(var), 0, "a failed store must not evict the queue");
        // The same put succeeds on retry by the caller.
        s.put(chunk(var, 0)).unwrap();
        assert_eq!(s.produced_frames(var), 1);
    }
}
