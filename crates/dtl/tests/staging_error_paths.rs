//! Error-path regressions for the staging protocol, driven by the
//! library's own fault injector.
//!
//! The protocol state machine must only advance when the operation it
//! gates actually happened. A store that fails mid-operation (the PFS
//! tier does real I/O) must leave the protocol exactly where it was, so
//! the caller can retry — not silently consume a read it never served.

use std::sync::Arc;
use std::time::Duration;

use dtl::staging::{MemoryStore, SyncStaging};
use dtl::{Chunk, DtlError, FaultInjector, FaultOp, FaultPlan, FaultRule, ReaderId, VariableSpec};

/// Staging over a fault-injecting memory store — stands in for a flaky
/// parallel file system. Each rule's `first_attempts(1)` window models
/// a transient fault that clears on retry.
fn staging(plan: FaultPlan) -> SyncStaging<FaultInjector<MemoryStore>> {
    SyncStaging::with_capacity(FaultInjector::new(MemoryStore::new(), plan), 1)
}

fn spec(readers: u32) -> VariableSpec {
    VariableSpec { name: "traj".into(), expected_readers: readers, home_node: 0 }
}

fn chunk(var: dtl::VariableId, step: u64, payload: &'static [u8]) -> Chunk {
    Chunk::new(var, step, 0, "raw", Arc::from(payload))
}

#[test]
fn failed_load_leaves_the_read_retryable() {
    let plan = FaultPlan::new(1).with_rule(FaultRule::fail(FaultOp::Load).first_attempts(1));
    let s = staging(plan);
    let var = s.register(spec(1)).unwrap();
    s.put(chunk(var, 0, b"frame0")).unwrap();

    // First read attempt hits the injected store failure.
    let err = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(50)).unwrap_err();
    assert!(matches!(err, DtlError::Io(_)), "load failure must surface as Io, got {err}");
    assert_eq!(s.store().stats().loads, 1);

    // Nothing was consumed: no get recorded, no bytes served.
    let stats = s.stats();
    assert_eq!(stats.gets, 0, "a failed load must not count as a served read");
    assert_eq!(stats.bytes_served, 0);

    // The fault window has passed; the *same* step must still be
    // readable.
    let got = s
        .get_timeout(var, 0, ReaderId(0), Duration::from_millis(200))
        .expect("step 0 must remain consumable after a transient load failure");
    assert_eq!(got.data, Arc::from(*b"frame0"));
    let stats = s.stats();
    assert_eq!((stats.gets, stats.bytes_served), (1, 6));
    assert_eq!(s.store().stats().injected_failures, 1);
}

#[test]
fn failed_load_does_not_unblock_the_writer() {
    let plan = FaultPlan::new(2).with_rule(FaultRule::fail(FaultOp::Load).first_attempts(1));
    let s = staging(plan);
    let var = s.register(spec(1)).unwrap();
    s.put(chunk(var, 0, b"a")).unwrap();

    let _ = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(50)).unwrap_err();

    // Step 0 was *not* consumed, so capacity-1 staging must still refuse
    // the next write.
    let err = s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(50)).unwrap_err();
    assert!(
        matches!(err, DtlError::Timeout { .. }),
        "writer must stay blocked after a failed read, got {err}"
    );

    // After a successful retry the writer proceeds.
    s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(200)).unwrap();
    s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(200)).unwrap();
}

#[test]
fn failed_load_with_two_readers_only_retries_the_failed_one() {
    // Reader 0's load is the key's first attempt (passes); reader 1's is
    // the second (fails); reader 1's retry is the third (passes again).
    let plan = FaultPlan::new(3)
        .with_rule(FaultRule::fail(FaultOp::Load).after_attempts(1).first_attempts(1));
    let s = staging(plan);
    let var = s.register(spec(2)).unwrap();
    s.put(chunk(var, 0, b"xy")).unwrap();

    s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(200)).unwrap();
    let _ = s.get_timeout(var, 0, ReaderId(1), Duration::from_millis(50)).unwrap_err();

    // Reader 1 retries its step; reader 0 must not be able to re-read.
    s.get_timeout(var, 0, ReaderId(1), Duration::from_millis(200)).unwrap();
    let err = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(50)).unwrap_err();
    assert!(matches!(err, DtlError::ProtocolViolation { .. }));

    let stats = s.stats();
    assert_eq!(stats.gets, 2);
    assert_eq!(stats.bytes_served, 4);
}

#[test]
fn failed_store_leaves_the_write_retryable() {
    let plan = FaultPlan::new(4).with_rule(FaultRule::fail(FaultOp::Store).first_attempts(1));
    let s = staging(plan);
    let var = s.register(spec(1)).unwrap();

    let err = s.put_timeout(chunk(var, 0, b"a"), Duration::from_millis(50)).unwrap_err();
    assert!(matches!(err, DtlError::Io(_)), "{err}");
    assert_eq!(s.stats().puts, 0, "a failed store must not count as staged");

    // Same step writes fine once the fault window passes — the protocol
    // never advanced.
    s.put_timeout(chunk(var, 0, b"a"), Duration::from_millis(200)).unwrap();
    let got = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(200)).unwrap();
    assert_eq!(got.data, Arc::from(*b"a"));
    assert_eq!(s.store().stats().injected_failures, 1);
}
