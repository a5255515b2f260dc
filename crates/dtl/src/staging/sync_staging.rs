//! The synchronous staging area: blocking put/get with the paper's
//! no-overwrite protocol, payloads held in memory.
//!
//! # Concurrency model
//!
//! The staging area is sharded **per variable**: each registered
//! variable owns its own mutex (protocol state + slots) and a pair of
//! condition variables (one for the writer side, one for the reader
//! side). Operations on distinct variables — i.e. distinct ensemble
//! members — never contend on a shared lock, so the threaded runtime
//! measures the coupling protocol instead of lock contention. The
//! name → shard registry is behind a read-mostly `RwLock`: lookups on
//! the hot path take a shared read lock, only `register` takes the
//! write lock.
//!
//! A waiter spins briefly on its shard's progress word before it parks,
//! and a change notifies a condvar only when a waiter is parked on it:
//! a `put` wakes only the variable's parked readers, a consuming `get`
//! only its parked writer (see `handoff` for the decisions and their
//! exhaustive check).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use crate::chunk::{Chunk, ChunkId, ChunkMeta};
use crate::error::{DtlError, DtlResult};
use crate::fault::{FaultInjector, FaultOp, FaultPlan, FaultStats};
use crate::locks::{recover, wait_until};
use crate::protocol::{ReaderId, StepProtocol};
use crate::staging::handoff::{self, Change, Next, Parked, Side};
use crate::staging::retry::{op_key as retry_key, run_with_retry, RetryPolicy};
use crate::variable::{VariableId, VariableRegistry, VariableSpec};

/// Operation counters of a staging area.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagingStats {
    /// Chunks staged.
    pub puts: u64,
    /// Chunk reads served.
    pub gets: u64,
    /// Payload bytes staged.
    pub bytes_staged: u64,
    /// Payload bytes served to readers.
    pub bytes_served: u64,
    /// Transient store errors cleared by a retry.
    pub retries: u64,
    /// Transient store errors returned to the caller because the retry
    /// budget (attempts or deadline) ran out.
    pub giveups: u64,
}

/// A staged chunk: its payload stays here until its last reader has
/// consumed it.
struct Slot {
    id: ChunkId,
    meta: ChunkMeta,
    data: Arc<[u8]>,
    remaining: u32,
}

struct VarState {
    protocol: StepProtocol,
    slots: Vec<Slot>,
    expected_readers: u32,
    /// Hard-closed independently of the whole area (member failure).
    closed: bool,
    /// Waiters on `writer_cv` / `reader_cv`.
    parked: Parked,
}

/// One variable's share of the staging area: its protocol state behind
/// its own lock, plus role-specific condition variables so wakeups only
/// reach threads coupled through this variable.
struct VarShard {
    state: Mutex<VarState>,
    /// The writer blocks here until the previous chunk is fully consumed.
    writer_cv: Condvar,
    /// Readers block here until the writer stages their next step.
    reader_cv: Condvar,
    /// Bumped under `state`'s lock on every recorded write, read and
    /// close; spinning waiters watch it without the lock.
    progress: AtomicU64,
}

impl VarShard {
    /// Publishes `change`, made under the lock whose state is `state`:
    /// bumps the progress word and notifies each side that has a parked
    /// waiter the change concerns.
    fn publish(&self, state: &VarState, change: Change) {
        let wake = handoff::record(&self.progress, change, state.parked);
        if wake.writers {
            self.writer_cv.notify_all();
        }
        if wake.readers {
            self.reader_cv.notify_all();
        }
    }
}

/// One blocking operation's wait: what it reports if it fails.
struct Wait {
    operation: &'static str,
    var: VariableId,
    step: u64,
    side: Side,
    /// When the operation began; its spin bound runs from here.
    start: Instant,
    deadline: Instant,
}

/// A blocking staging area enforcing `W₀ R₀ W₁ R₁ …` per variable.
///
/// With `capacity = 1` this is the paper's DIMES-style unbuffered
/// in-memory staging; higher capacities model burst-buffer-like queueing
/// (the buffering ablation).
pub struct SyncStaging {
    capacity: u64,
    /// Retry policy for transient store errors; `None` = fail fast.
    retry: Option<RetryPolicy>,
    /// The store-level part of the run's fault plan (empty by default).
    faults: FaultInjector,
    /// Read-mostly: written only by `register`, read on every operation.
    registry: RwLock<Registry>,
    closed: AtomicBool,
    /// How long a waiter spins before it parks: `handoff::SPIN`, which
    /// only tests change.
    spin: Duration,
    puts: AtomicU64,
    gets: AtomicU64,
    bytes_staged: AtomicU64,
    bytes_served: AtomicU64,
    retries: AtomicU64,
    giveups: AtomicU64,
}

struct Registry {
    names: VariableRegistry,
    /// Indexed by `VariableId` (dense ids, registration order).
    shards: Vec<Arc<VarShard>>,
}

/// Default timeout for blocking operations — generous enough for real
/// kernels, small enough that a deadlocked test fails quickly.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

fn variable_closed(var: VariableId) -> DtlError {
    DtlError::VariableClosed { variable: format!("id {}", var.0) }
}

impl SyncStaging {
    /// Creates a staging area with the given in-flight chunk capacity
    /// per variable, injecting no faults.
    pub fn with_capacity(capacity: u64) -> Self {
        assert!(capacity > 0);
        SyncStaging {
            capacity,
            retry: None,
            faults: FaultInjector::new(FaultPlan::default()),
            registry: RwLock::new(Registry { names: VariableRegistry::new(), shards: Vec::new() }),
            closed: AtomicBool::new(false),
            spin: handoff::SPIN,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            bytes_staged: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            giveups: AtomicU64::new(0),
        }
    }

    /// Enables retry of transient store errors on the put/get paths.
    /// Backoff sleeps happen with only the affected variable's shard
    /// locked: the peer of that variable cannot progress until the op
    /// settles anyway, and other variables are untouched.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Applies the store-level rules of `plan` where a payload crosses
    /// the area, under the variable's lock and before the protocol
    /// advances: a `put` runs the payload through the `store` rules, a
    /// `get` runs the copy it serves through the `load` rules. The
    /// plan's member kills are the runtime's to act on.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultInjector::new(plan);
        self
    }

    /// Registers a variable.
    pub fn register(&self, spec: VariableSpec) -> DtlResult<VariableId> {
        let mut registry = recover(self.registry.write());
        let readers = spec.expected_readers;
        let id = registry.names.register(spec)?;
        if (id.0 as usize) >= registry.shards.len() {
            registry.shards.push(Arc::new(VarShard {
                state: Mutex::new(VarState {
                    protocol: StepProtocol::new(readers, self.capacity),
                    slots: Vec::new(),
                    expected_readers: readers,
                    closed: false,
                    parked: Parked::default(),
                }),
                writer_cv: Condvar::new(),
                reader_cv: Condvar::new(),
                progress: AtomicU64::new(0),
            }));
            debug_assert_eq!(registry.shards.len(), id.0 as usize + 1);
        }
        Ok(id)
    }

    /// The shard of `var`, or `UnknownVariable`. Takes the registry read
    /// lock only long enough to clone the `Arc`.
    fn shard(&self, var: VariableId) -> DtlResult<Arc<VarShard>> {
        recover(self.registry.read())
            .shards
            .get(var.0 as usize)
            .cloned()
            .ok_or_else(|| DtlError::UnknownVariable { name: format!("id {}", var.0) })
    }

    /// Waits, holding `state` of `shard` to begin with, until `ready`
    /// holds or the area or variable closes, and returns the lock with
    /// `ready` true. Spins on the progress word for up to `self.spin`
    /// from the operation's start, then parks (`handoff::next` decides).
    fn wait_for<'a>(
        &self,
        shard: &'a VarShard,
        mut state: MutexGuard<'a, VarState>,
        wait: Wait,
        ready: impl Fn(&VarState) -> bool,
    ) -> DtlResult<MutexGuard<'a, VarState>> {
        let mut may_spin = true;
        loop {
            let area_closed = self.closed.load(Ordering::Acquire);
            match handoff::next(area_closed, state.closed, ready(&state), may_spin) {
                Next::Closed => return Err(DtlError::Closed),
                Next::VariableClosed => return Err(variable_closed(wait.var)),
                Next::Proceed => return Ok(state),
                Next::Spin => {
                    let seen = shard.progress.load(Ordering::Relaxed);
                    drop(state);
                    may_spin = handoff::spin(&shard.progress, seen, wait.start + self.spin);
                    state = recover(shard.state.lock());
                }
                Next::Park => {
                    let cv = match wait.side {
                        Side::Writer => &shard.writer_cv,
                        Side::Reader => &shard.reader_cv,
                    };
                    state.parked.park(wait.side);
                    let (guard, timed_out) = wait_until(cv, state, wait.deadline);
                    state = guard;
                    state.parked.unpark(wait.side);
                    if timed_out {
                        return Err(DtlError::Timeout {
                            operation: wait.operation,
                            variable: format!("id {}", wait.var.0),
                            step: wait.step,
                        });
                    }
                }
            }
        }
    }

    /// Stages a chunk, blocking (up to `timeout`) until the protocol
    /// admits it — i.e. until the previous chunk is fully consumed when
    /// `capacity == 1`.
    pub fn put_timeout(&self, chunk: Chunk, timeout: Duration) -> DtlResult<()> {
        let start = Instant::now();
        let deadline = start + timeout;
        let var = chunk.id.variable;
        let step = chunk.id.step;
        let shard = self.shard(var)?;
        let state = recover(shard.state.lock());
        if state.closed {
            return Err(variable_closed(var));
        }
        // Fail fast on out-of-sequence writes: they can never become valid.
        if step != state.protocol.next_write_step() {
            return Err(DtlError::ProtocolViolation {
                detail: format!(
                    "writer staged step {step} but the protocol expects step {}",
                    state.protocol.next_write_step()
                ),
            });
        }
        let wait = Wait { operation: "put", var, step, side: Side::Writer, start, deadline };
        let mut state = self.wait_for(&shard, state, wait, |s| s.protocol.may_write(step))?;
        // Store the payload before advancing the protocol so a failing
        // store leaves the protocol state untouched and the writer can
        // retry. A configured retry policy does that retrying in place
        // (still before any protocol mutation), budgeted against this
        // op's deadline.
        let remaining = state.expected_readers;
        let data_len = chunk.data.len() as u64;
        let data = run_with_retry(
            self.retry.as_ref(),
            Some(deadline),
            retry_key(var, step, 1),
            &self.retries,
            &self.giveups,
            || self.faults.apply(FaultOp::Store, chunk.id, chunk.data.clone()),
        )?;
        state.protocol.record_write(step).expect("may_write checked under the same lock");
        state.slots.push(Slot { id: chunk.id, meta: chunk.meta, data, remaining });
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_staged.fetch_add(data_len, Ordering::Relaxed);
        shard.publish(&state, Change::Write);
        Ok(())
    }

    /// Stages a chunk with the default timeout.
    pub fn put(&self, chunk: Chunk) -> DtlResult<()> {
        self.put_timeout(chunk, DEFAULT_TIMEOUT)
    }

    /// Fetches the chunk of `step`, blocking until the writer stages it.
    /// Each reader must consume steps in order, exactly once.
    ///
    /// The protocol read is recorded only after the payload load
    /// succeeds: an injected load failure leaves the protocol state
    /// untouched, so the reader can retry the same step.
    pub fn get_timeout(
        &self,
        var: VariableId,
        step: u64,
        reader: ReaderId,
        timeout: Duration,
    ) -> DtlResult<Chunk> {
        let start = Instant::now();
        let deadline = start + timeout;
        let shard = self.shard(var)?;
        let state = recover(shard.state.lock());
        if state.closed {
            return Err(variable_closed(var));
        }
        let expected = state.protocol.next_read_step(reader)?;
        if step != expected {
            return Err(DtlError::ProtocolViolation {
                detail: format!(
                    "{reader:?} requested step {step} but must consume step {expected} next"
                ),
            });
        }
        // Closed staging serves nothing, including already-staged chunks
        // (see `close`).
        let wait = Wait { operation: "get", var, step, side: Side::Reader, start, deadline };
        let mut state =
            self.wait_for(&shard, state, wait, |s| s.protocol.may_read(reader, step))?;
        // Load the payload *before* touching any protocol state: if the
        // load fails here nothing has been consumed and the reader may
        // retry. A configured retry policy does that retrying in place,
        // still ahead of any mutation.
        let idx = state
            .slots
            .iter()
            .position(|s| s.id.step == step)
            .expect("protocol admitted a read, slot must exist");
        let slot = &mut state.slots[idx];
        let data = run_with_retry(
            self.retry.as_ref(),
            Some(deadline),
            retry_key(var, step, 0),
            &self.retries,
            &self.giveups,
            || self.faults.apply(FaultOp::Load, slot.id, slot.data.clone()),
        )?;
        let chunk = Chunk { id: slot.id, meta: slot.meta, data };
        slot.remaining -= 1;
        if slot.remaining == 0 {
            // The last reader releases the payload.
            state.slots.remove(idx);
        }
        state.protocol.record_read(reader, step).expect("may_read checked under the same lock");
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_served.fetch_add(chunk.data.len() as u64, Ordering::Relaxed);
        shard.publish(&state, Change::Read);
        Ok(chunk)
    }

    /// Fetches with the default timeout.
    pub fn get(&self, var: VariableId, step: u64, reader: ReaderId) -> DtlResult<Chunk> {
        self.get_timeout(var, step, reader, DEFAULT_TIMEOUT)
    }

    /// Blocks until the writer may stage `step` (all consumers of the
    /// previous chunk done under capacity 1) *without* writing — lets
    /// callers separate the idle wait (`Iˢ`) from the write itself (`W`)
    /// when measuring stages.
    pub fn wait_writable(&self, var: VariableId, step: u64, timeout: Duration) -> DtlResult<()> {
        let start = Instant::now();
        let shard = self.shard(var)?;
        let state = recover(shard.state.lock());
        let wait = Wait {
            operation: "wait_writable",
            var,
            step,
            side: Side::Writer,
            start,
            deadline: start + timeout,
        };
        self.wait_for(&shard, state, wait, |s| s.protocol.may_write(step)).map(drop)
    }

    /// Blocks until `reader` may consume `step` *without* reading — lets
    /// callers separate the data wait (`Iᴬ`) from the read itself (`R`).
    pub fn wait_readable(
        &self,
        var: VariableId,
        step: u64,
        reader: ReaderId,
        timeout: Duration,
    ) -> DtlResult<()> {
        let start = Instant::now();
        let shard = self.shard(var)?;
        let state = recover(shard.state.lock());
        let wait = Wait {
            operation: "wait_readable",
            var,
            step,
            side: Side::Reader,
            start,
            deadline: start + timeout,
        };
        self.wait_for(&shard, state, wait, |s| s.protocol.may_read(reader, step)).map(drop)
    }

    /// Closes the area: pending and future blocking operations — puts
    /// *and* gets, including gets of already-staged chunks — fail with
    /// [`DtlError::Closed`]. Close is a hard teardown, not a drain:
    /// producers call it after consumers finish, and anything still in
    /// flight is an abort. (Use a capacity > 1 area and drain before
    /// closing if stragglers must finish.)
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Publish the close on every shard so waiters observe the flag.
        // Taking each shard lock orders the store before any waiter's
        // re-check.
        let shards: Vec<_> = recover(self.registry.read()).shards.to_vec();
        for shard in shards {
            let state = recover(shard.state.lock());
            shard.publish(&state, Change::Close);
        }
    }

    /// Whether [`SyncStaging::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Hard-closes one variable while the rest of the area keeps
    /// running: pending and future operations on it — puts *and* gets —
    /// fail with [`DtlError::VariableClosed`]. Used by member
    /// supervision to unblock a failed member's peer without tearing
    /// the whole run down.
    pub fn close_variable(&self, var: VariableId) -> DtlResult<()> {
        let shard = self.shard(var)?;
        let mut state = recover(shard.state.lock());
        state.closed = true;
        shard.publish(&state, Change::Close);
        Ok(())
    }

    /// Reopens `var` with fresh protocol state and no staged chunks —
    /// the supervisor's restart path (the member reruns from step 0).
    /// Must only be called once the variable's old writer and readers
    /// have all returned.
    pub fn reset_variable(&self, var: VariableId) -> DtlResult<()> {
        let shard = self.shard(var)?;
        let mut state = recover(shard.state.lock());
        state.closed = false;
        let readers = state.expected_readers;
        state.protocol = StepProtocol::new(readers, self.capacity);
        state.slots.clear();
        Ok(())
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StagingStats {
        StagingStats {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            bytes_staged: self.bytes_staged.load(Ordering::Relaxed),
            bytes_served: self.bytes_served.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            giveups: self.giveups.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of what the fault plan saw and injected.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Replaces the spin bound, so a test can hold a waiter in its spin.
    #[cfg(test)]
    fn with_spin(mut self, spin: Duration) -> Self {
        self.spin = spin;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn staging(capacity: u64) -> Arc<SyncStaging> {
        Arc::new(SyncStaging::with_capacity(capacity))
    }

    fn spec(readers: u32) -> VariableSpec {
        VariableSpec { name: "traj".into(), expected_readers: readers, home_node: 0 }
    }

    fn chunk(var: VariableId, step: u64, payload: &'static [u8]) -> Chunk {
        Chunk::new(var, step, 0, "raw", Arc::from(payload))
    }

    #[test]
    fn put_get_roundtrip() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0, b"frame0")).unwrap();
        let got = s.get(var, 0, ReaderId(0)).unwrap();
        assert_eq!(got.data, Arc::from(*b"frame0"));
        let stats = s.stats();
        assert_eq!((stats.puts, stats.gets), (1, 1));
        assert_eq!(stats.bytes_staged, 6);
    }

    #[test]
    fn writer_blocks_until_all_readers_consume() {
        let s = staging(1);
        let var = s.register(spec(2)).unwrap();
        s.put(chunk(var, 0, b"a")).unwrap();
        // Second put must time out while readers are pending.
        let err = s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, DtlError::Timeout { operation: "put", .. }), "{err}");
        s.get(var, 0, ReaderId(0)).unwrap();
        let err = s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, DtlError::Timeout { .. }), "still one reader pending");
        s.get(var, 0, ReaderId(1)).unwrap();
        s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(50)).unwrap();
    }

    #[test]
    fn reader_blocks_until_chunk_arrives() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        let err = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, DtlError::Timeout { operation: "get", .. }));
        s.put(chunk(var, 0, b"x")).unwrap();
        assert!(s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(50)).is_ok());
    }

    #[test]
    fn cross_thread_producer_consumer() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        let producer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for step in 0..20u64 {
                    let c = Chunk::new(var, step, 0, "raw", Arc::from(vec![step as u8; 64]));
                    s.put(c).unwrap();
                }
            })
        };
        let consumer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for step in 0..20u64 {
                    let c = s.get(var, step, ReaderId(0)).unwrap();
                    assert_eq!(c.data[0], step as u8);
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        assert_eq!(s.stats().puts, 20);
        assert_eq!(s.stats().gets, 20);
    }

    #[test]
    fn fan_out_to_k_readers() {
        let s = staging(1);
        let var = s.register(spec(3)).unwrap();
        let payload: Arc<[u8]> = Arc::from(vec![1u8; 8]);
        let producer = {
            let (s, payload) = (Arc::clone(&s), payload.clone());
            std::thread::spawn(move || {
                for step in 0..10u64 {
                    s.put(Chunk::new(var, step, 0, "raw", payload.clone())).unwrap();
                }
            })
        };
        let consumers: Vec<_> = (0..3u32)
            .map(|r| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for step in 0..10u64 {
                        s.get(var, step, ReaderId(r)).unwrap();
                    }
                })
            })
            .collect();
        producer.join().unwrap();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(s.stats().gets, 30);
        // All payloads released: the area keeps no reference to one.
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn out_of_order_put_rejected_immediately() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        let err = s.put_timeout(chunk(var, 5, b"x"), Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, DtlError::ProtocolViolation { .. }));
    }

    #[test]
    fn double_read_rejected() {
        let s = staging(1);
        let var = s.register(spec(2)).unwrap();
        s.put(chunk(var, 0, b"x")).unwrap();
        s.get(var, 0, ReaderId(0)).unwrap();
        let err = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, DtlError::ProtocolViolation { .. }));
    }

    #[test]
    fn close_wakes_blocked_reader() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.get_timeout(var, 0, ReaderId(0), Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(50));
        s.close();
        let res = reader.join().unwrap();
        assert!(matches!(res, Err(DtlError::Closed)));
        assert!(s.is_closed());
    }

    #[test]
    fn close_wakes_blocked_writer() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0, b"a")).unwrap();
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.put_timeout(chunk(var, 1, b"b"), Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(50));
        s.close();
        assert!(matches!(writer.join().unwrap(), Err(DtlError::Closed)));
    }

    #[test]
    fn close_prevents_reading_already_staged_chunks() {
        // Close is a hard teardown: a chunk staged before close is not
        // served after it.
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0, b"x")).unwrap();
        s.close();
        let err = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, DtlError::Closed), "{err}");
        // The waiting probes observe the same teardown.
        assert!(matches!(
            s.wait_readable(var, 0, ReaderId(0), Duration::from_millis(50)),
            Err(DtlError::Closed)
        ));
        assert!(matches!(
            s.wait_writable(var, 1, Duration::from_millis(50)),
            Err(DtlError::Closed)
        ));
    }

    /// A waiter that spins far longer than the test runs, so whenever
    /// the close lands it is still in its bounded wait, never parked: it
    /// can only learn of the close through the progress word.
    fn close_reaches_a_spinning_waiter(whole_area: bool) {
        let s = Arc::new(SyncStaging::with_capacity(1).with_spin(Duration::from_secs(20)));
        let var = s.register(spec(2)).unwrap();
        s.put(chunk(var, 0, b"x")).unwrap();
        let entered = Arc::new(std::sync::Barrier::new(3));
        let waiters: Vec<_> = [true, false]
            .into_iter()
            .map(|writer| {
                let (s, entered) = (Arc::clone(&s), Arc::clone(&entered));
                std::thread::spawn(move || {
                    entered.wait();
                    let started = std::time::Instant::now();
                    let res = if writer {
                        s.wait_writable(var, 1, DEFAULT_TIMEOUT)
                    } else {
                        s.wait_readable(var, 1, ReaderId(0), DEFAULT_TIMEOUT)
                    };
                    (res, started.elapsed())
                })
            })
            .collect();
        entered.wait();
        if whole_area {
            s.close();
        } else {
            s.close_variable(var).unwrap();
        }
        for waiter in waiters {
            let (res, waited) = waiter.join().unwrap();
            assert!(waited < Duration::from_secs(10), "the close took {waited:?} to be seen");
            match res {
                Err(DtlError::Closed) if whole_area => {}
                Err(DtlError::VariableClosed { .. }) if !whole_area => {}
                other => panic!("whole area {whole_area}: {other:?}"),
            }
        }
        assert_eq!(recover(s.shard(var).unwrap().state.lock()).parked, Parked::default());
    }

    #[test]
    fn close_reaches_waiters_still_in_their_bounded_wait() {
        close_reaches_a_spinning_waiter(true);
    }

    #[test]
    fn close_variable_reaches_waiters_still_in_their_bounded_wait() {
        close_reaches_a_spinning_waiter(false);
    }

    #[test]
    fn put_after_close_fails() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        s.close();
        assert!(matches!(s.put(chunk(var, 0, b"x")), Err(DtlError::Closed)));
    }

    #[test]
    fn capacity_two_allows_pipelining() {
        let s = staging(2);
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0, b"a")).unwrap();
        // With double buffering the second put succeeds before any read.
        s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(50)).unwrap();
        let err = s.put_timeout(chunk(var, 2, b"c"), Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, DtlError::Timeout { .. }));
        s.get(var, 0, ReaderId(0)).unwrap();
        s.put_timeout(chunk(var, 2, b"c"), Duration::from_millis(50)).unwrap();
    }

    #[test]
    fn unknown_variable_rejected() {
        let s = staging(1);
        let bogus = VariableId(42);
        assert!(matches!(s.put(chunk(bogus, 0, b"x")), Err(DtlError::UnknownVariable { .. })));
        assert!(matches!(
            s.get_timeout(bogus, 0, ReaderId(0), Duration::from_millis(10)),
            Err(DtlError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn close_variable_poisons_only_that_variable() {
        let s = staging(1);
        let a = s.register(spec(1)).unwrap();
        let b = s
            .register(VariableSpec { name: "other".into(), expected_readers: 1, home_node: 0 })
            .unwrap();
        s.close_variable(a).unwrap();
        assert!(matches!(s.put(chunk(a, 0, b"x")), Err(DtlError::VariableClosed { .. })));
        assert!(matches!(
            s.get_timeout(a, 0, ReaderId(0), Duration::from_millis(10)),
            Err(DtlError::VariableClosed { .. })
        ));
        // The sibling variable still works end to end.
        s.put(chunk(b, 0, b"y")).unwrap();
        assert_eq!(s.get(b, 0, ReaderId(0)).unwrap().data, Arc::from(*b"y"));
    }

    #[test]
    fn close_variable_wakes_blocked_peer() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.get_timeout(var, 0, ReaderId(0), Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(50));
        s.close_variable(var).unwrap();
        assert!(matches!(reader.join().unwrap(), Err(DtlError::VariableClosed { .. })));
        assert!(!s.is_closed(), "the area itself stays open");
    }

    #[test]
    fn reset_variable_reopens_with_fresh_protocol() {
        let s = staging(1);
        let var = s.register(spec(1)).unwrap();
        let stale: Arc<[u8]> = Arc::from(*b"stale");
        s.put(Chunk::new(var, 0, 0, "raw", stale.clone())).unwrap();
        assert_eq!(Arc::strong_count(&stale), 2, "the area holds the staged payload");
        s.close_variable(var).unwrap();
        s.reset_variable(var).unwrap();
        // The variable reopened, the protocol restarted from step 0 and the stale chunk is gone.
        s.put(chunk(var, 0, b"fresh")).unwrap();
        assert_eq!(s.get(var, 0, ReaderId(0)).unwrap().data, Arc::from(*b"fresh"));
        assert_eq!(Arc::strong_count(&stale), 1, "stale payload was released");
    }

    #[test]
    fn retry_policy_clears_transient_store_faults() {
        use crate::fault::FaultRule;
        let plan = FaultPlan::new(5)
            .with_rule(FaultRule::fail(FaultOp::Store).first_attempts(1))
            .with_rule(FaultRule::fail(FaultOp::Load).first_attempts(2));
        let s = SyncStaging::with_capacity(1)
            .with_faults(plan)
            .with_retry(crate::staging::retry::RetryPolicy::with_attempts(4));
        let var = s.register(spec(1)).unwrap();
        s.put(chunk(var, 0, b"frame")).unwrap();
        let got = s.get(var, 0, ReaderId(0)).unwrap();
        assert_eq!(got.data, Arc::from(*b"frame"));
        let stats = s.stats();
        assert_eq!(stats.retries, 3, "one store retry + two load retries");
        assert_eq!(stats.giveups, 0);
        assert_eq!((stats.puts, stats.gets), (1, 1));
    }

    #[test]
    fn exhausted_retries_count_as_giveups() {
        use crate::fault::FaultRule;
        let plan = FaultPlan::new(0).with_rule(FaultRule::fail(FaultOp::Store));
        let s = SyncStaging::with_capacity(1)
            .with_faults(plan)
            .with_retry(crate::staging::retry::RetryPolicy::with_attempts(2));
        let var = s.register(spec(1)).unwrap();
        let err = s.put_timeout(chunk(var, 0, b"x"), Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, DtlError::Io(_)), "{err}");
        let stats = s.stats();
        assert_eq!((stats.retries, stats.giveups, stats.puts), (1, 1, 0));
    }

    #[test]
    fn reregistration_reuses_the_shard() {
        let s = staging(1);
        let a = s.register(spec(1)).unwrap();
        let b = s.register(spec(1)).unwrap();
        assert_eq!(a, b);
        // The shard still works after idempotent re-registration.
        s.put(chunk(a, 0, b"x")).unwrap();
        s.get(b, 0, ReaderId(0)).unwrap();
    }
}
