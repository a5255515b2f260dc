//! Error-path regressions for the staging protocol, driven by the
//! staging area's own fault plan.
//!
//! The protocol state machine must only advance when the operation it
//! gates actually happened. A put or get hit by an injected failure must
//! leave the protocol exactly where it was, so the caller can retry —
//! not silently consume a read it never served.

use std::sync::Arc;
use std::time::Duration;

use dtl::{
    Chunk, DtlError, DtlResult, FaultOp, FaultPlan, FaultRule, ReaderId, SyncStaging, VariableSpec,
};

/// Unbuffered staging under `plan`. Each rule's `first_attempts(1)`
/// window models a transient fault that clears on retry.
fn staging(plan: FaultPlan) -> SyncStaging {
    SyncStaging::with_capacity(1).with_faults(plan)
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
    assert_eq!(s.fault_stats().loads, 1);

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
    assert_eq!(s.fault_stats().injected_failures, 1);
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
    let (s, var, reads) = read_by_two("fail=load:first=1");
    assert!(matches!(reads[0], Err(DtlError::Io(_))), "{:?}", reads[0]);
    assert!(reads[1].is_ok());
    // Step 0 stays unconsumed until reader 0 retries it: the writer still
    // waits, reader 1 may not read it again, and reader 0's retry succeeds.
    let err = s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(50)).unwrap_err();
    assert!(matches!(err, DtlError::Timeout { .. }), "{err}");
    let err = s.get_timeout(var, 0, ReaderId(1), Duration::from_millis(50)).unwrap_err();
    assert!(matches!(err, DtlError::ProtocolViolation { .. }));
    let retried = s.get_timeout(var, 0, ReaderId(0), Duration::from_millis(200)).unwrap();
    assert_eq!(*retried.data, *b"frame");
    s.put_timeout(chunk(var, 1, b"b"), Duration::from_millis(200)).unwrap();
    assert_eq!((s.stats().gets, s.stats().bytes_served), (2, 10));
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
    assert_eq!(s.fault_stats().injected_failures, 1);
}

/// Stages step 0 of a two-reader variable under `plan` (the
/// `--fault-plan` grammar) and reads it as reader 0, then as reader 1.
fn read_by_two(plan: &str) -> (SyncStaging, dtl::VariableId, Vec<DtlResult<Arc<[u8]>>>) {
    let s = staging(FaultPlan::parse(plan).unwrap());
    let var = s.register(spec(2)).unwrap();
    s.put(chunk(var, 0, b"frame")).unwrap();
    let reads = (0..2)
        .map(|r| s.get_timeout(var, 0, ReaderId(r), Duration::from_millis(50)).map(|c| c.data))
        .collect();
    (s, var, reads)
}

#[test]
fn a_store_fault_corrupts_the_one_payload_both_readers_are_served() {
    let (s, _, reads) = read_by_two("corrupt=store");
    let (first, second) = (reads[0].as_ref().unwrap(), reads[1].as_ref().unwrap());
    assert!(**first != *b"frame" && first == second, "{first:?} {second:?}");
    assert_eq!(s.fault_stats().injected_corruptions, 1);
}

#[test]
fn a_load_fault_corrupts_only_the_read_it_lands_on() {
    let (s, _, reads) = read_by_two("corrupt=load:first=1");
    assert_ne!(**reads[0].as_ref().unwrap(), *b"frame");
    assert_eq!(**reads[1].as_ref().unwrap(), *b"frame");
    assert_eq!(s.fault_stats().injected_corruptions, 1);
}
