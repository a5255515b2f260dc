//! One router for every caller: an in-process [`Service::submit`] is
//! answered the way the TCP listener answers the same request.
//! `metrics` and `attach` are answered inline — no queue slot, no
//! worker, no ledger step — so they work under overload in process as
//! on the wire, and `replicate`, which takes over a TCP connection, is
//! refused in process without being counted.

use std::time::{Duration, Instant};

use svc::{
    serve, small_score_request, ErrorKind, JournalConfig, Rejected, Request, RequestBody, Response,
    Service, SvcClient, SvcConfig,
};

fn request(id: u64, body: RequestBody) -> Request {
    Request { id, deadline: None, progress: None, tenant: None, body }
}

/// The lifecycle counters a request moves when it is counted.
fn ledger(svc: &Service) -> [u64; 8] {
    let m = svc.metrics();
    [
        "requests_submitted",
        "requests_accepted",
        "requests_rejected_overload",
        "requests_completed",
        "requests_executed",
        "requests_cancelled",
        "requests_deadline_expired",
        "requests_errored",
    ]
    .map(|row| m.get(row) as u64)
}

fn names(rows: &[(String, f64)]) -> Vec<&str> {
    rows.iter().map(|(name, _)| name.as_str()).collect()
}

#[test]
fn in_process_metrics_are_the_wire_rows_and_move_no_counter() {
    let handle = serve("127.0.0.1:0", SvcConfig { workers: 1, ..SvcConfig::default() }).unwrap();
    let svc = handle.service();
    let mut client = SvcClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    // One counted request, so the ledger has something to move.
    let scored = client.request(&small_score_request(1, 2, 16, 1, 8, 3)).unwrap();
    assert!(matches!(scored, Response::ScoreResult { .. }), "{scored:?}");
    let wire = match client.request(&request(2, RequestBody::Metrics)).unwrap() {
        Response::Metrics { rows, .. } => rows,
        other => panic!("expected metrics on the wire, got {other:?}"),
    };
    let before = ledger(svc);
    let in_process = match svc.submit(request(3, RequestBody::Metrics)).unwrap().wait() {
        Response::Metrics { id, rows } => {
            assert_eq!(id, 3);
            rows
        }
        other => panic!("expected metrics in process, got {other:?}"),
    };
    assert_eq!(ledger(svc), before, "an inline metrics request is counted nowhere");
    assert_eq!(names(&in_process), names(&wire));
    assert_eq!(in_process.len(), 50, "the global rows, no tenant has been seen");
    handle.shutdown();
}

#[test]
fn in_process_attach_and_metrics_are_answered_while_the_queue_sheds() {
    let svc = Service::start(SvcConfig { workers: 1, queue_capacity: 1, ..SvcConfig::default() });
    // Hold the one worker until the test cancels it, and fill the one
    // queue slot behind it.
    let held = svc.submit(svc::held_score_request(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().get("in_flight") == 0.0 {
        assert!(Instant::now() < deadline, "the worker never picked up the held score");
        std::thread::yield_now();
    }
    let queued = svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap();
    assert!(matches!(
        svc.submit(small_score_request(3, 2, 16, 1, 8, 3)),
        Err(Rejected::Overloaded { .. })
    ));
    let before = ledger(&svc);
    match svc.submit(request(4, RequestBody::Attach { job: 99 })) {
        Ok(pending) => match pending.wait() {
            Response::Error { id: 4, kind: ErrorKind::NotFound, .. } => {}
            other => panic!("expected not_found, got {other:?}"),
        },
        Err(shed) => panic!("attach was shed: {shed:?}"),
    }
    match svc.submit(request(5, RequestBody::Metrics)) {
        Ok(pending) => match pending.wait() {
            Response::Metrics { id: 5, rows } => assert_eq!(rows.len(), 50),
            other => panic!("expected metrics, got {other:?}"),
        },
        Err(shed) => panic!("metrics was shed: {shed:?}"),
    }
    assert_eq!(ledger(&svc), before, "inline answers move no lifecycle counter");
    held.cancel();
    assert!(matches!(held.wait(), Response::Error { kind: ErrorKind::Cancelled, .. }));
    assert!(matches!(queued.wait(), Response::ScoreResult { .. }));
    svc.shutdown();
}

#[test]
fn in_process_replicate_is_refused_inline_and_counted_nowhere() {
    let path = std::env::temp_dir().join(format!("svc-router-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journaled = SvcConfig { journal: Some(JournalConfig::new(&path)), ..SvcConfig::default() };
    for config in [SvcConfig::default(), journaled] {
        let svc = Service::start(config);
        match svc.submit(request(7, RequestBody::Replicate)).unwrap().wait() {
            Response::Error { id: 7, kind: ErrorKind::Invalid, message } => {
                assert!(message.contains("replication"), "{message}");
            }
            other => panic!("expected an invalid refusal, got {other:?}"),
        }
        assert_eq!(ledger(&svc), [0; 8], "a refused replicate is counted nowhere");
        svc.shutdown();
    }
    for suffix in ["", ".epoch", ".hb"] {
        let mut name = path.clone().into_os_string();
        name.push(suffix);
        let _ = std::fs::remove_file(name);
    }
}
