//! End-to-end tests of opt-in progress streaming over real sockets.
//!
//! A progress-opted request sees `{"type":"progress"}` lines before its
//! final on the same connection; a legacy (non-opted) request sees the
//! exact pre-streaming wire bytes; a watcher that disconnects after the
//! first frame cancels the remaining scan; and overload shedding treats
//! opted requests exactly like any other.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use svc::{
    serve, small_score_request, ProgressBody, ProgressSpec, Request, RequestBody, Response,
    ScoreRequest, ServerHandle, SvcClient, SvcConfig, Workloads,
};

fn server(workers: usize, queue_capacity: usize) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        SvcConfig {
            workers,
            queue_capacity,
            cache_capacity: 64,
            default_deadline: None,
            journal: None,
            panic_on_request_id: None,
            scan_workers: 0,
            cosched: None,
            tenant_policy: svc::TenantPolicy::default(),
        },
    )
    .expect("bind ephemeral port")
}

/// A score over a ~4k-candidate space: dozens of per-64-candidate
/// progress frames before the final, but still seconds of scan even in
/// debug builds on a one-core runner.
fn medium_score_request(id: u64) -> Request {
    Request {
        id,
        deadline: None,
        progress: Some(ProgressSpec { every_candidates: Some(64), every_ms: None }),
        tenant: None,
        body: RequestBody::Score(ScoreRequest {
            shape: scheduler::EnsembleShape::uniform(4, 4, 1, 4),
            budget: scheduler::NodeBudget { max_nodes: 6, cores_per_node: 32 },
            top_k: 0,
            steps: 6,
            workloads: Workloads::Small,
            workers: 1,
        }),
    }
}

fn medium_space_total() -> u64 {
    scheduler::enumerate_placements(&scheduler::EnsembleShape::uniform(4, 4, 1, 4), 6, 32).len()
        as u64
}

/// A score over a space no scan finishes within a test's patience, in
/// any build ([`svc::held_score_request`]), streaming progress — so it
/// stays in flight until its watcher disconnects. Only used where the
/// scan is cancelled.
fn big_score_request(id: u64) -> Request {
    let mut req = svc::held_score_request(id);
    req.progress = Some(ProgressSpec { every_candidates: Some(4096), every_ms: None });
    req
}

/// The size of `big_score_request`'s space: the set partitions of
/// eleven 5-core and eleven 3-core components into blocks of at most 32
/// cores.
const BIG_SPACE_TOTAL: u64 = 4_462_641_615_066_328;

/// A DES run long enough to hold a worker while other requests arrive.
/// Unlike a score, its duration does not shrink as the scan path gets
/// faster, so tests that need a busy worker stay deterministic.
fn run_request(id: u64, steps: u64) -> Request {
    Request {
        id,
        deadline: None,
        progress: None,
        tenant: None,
        body: RequestBody::Run(svc::RunRequest {
            spec: ensemble_core::ConfigId::C1_5.build(),
            steps,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    }
}

fn metric(client: &mut SvcClient, name: &str) -> f64 {
    let req =
        Request { id: 0, deadline: None, progress: None, tenant: None, body: RequestBody::Metrics };
    match client.request(&req) {
        Ok(Response::Metrics { rows, .. }) => rows
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric '{name}' missing from {rows:?}")),
        other => panic!("expected metrics response, got {other:?}"),
    }
}

#[test]
fn opted_score_streams_progress_frames_then_exactly_one_final() {
    let handle = server(1, 4);
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    let mut counts = Vec::new();
    let response = client
        .request_streaming(&medium_score_request(7), |p| {
            assert_eq!(p.id, 7);
            match &p.body {
                ProgressBody::Score { candidates_scanned, .. } => counts.push(*candidates_scanned),
                other => panic!("expected score progress, got {other:?}"),
            }
        })
        .expect("request");
    let total = medium_space_total();
    match response {
        Response::ScoreResult { id, candidates_scanned, .. } => {
            assert_eq!(id, 7);
            assert_eq!(candidates_scanned, total);
        }
        other => panic!("expected score result, got {other:?}"),
    }
    assert!(counts.len() >= 2, "expected several interim frames, got {counts:?}");
    assert!(counts.windows(2).all(|w| w[0] < w[1]), "monotone counts: {counts:?}");
    // The connection is clean after the final: a follow-up request on
    // the same client gets its own answer (no leftover frames).
    let m = metric(&mut client, "progress_frames_sent");
    assert_eq!(m as usize, counts.len());
    // The scan ran on the delta evaluator: its cache counters are
    // visible over the wire alongside the legacy metrics.
    assert!(metric(&mut client, "delta_solve_misses") >= 1.0, "a real scan runs solves");
    assert!(
        metric(&mut client, "delta_solve_hits") >= 1.0,
        "a 4k-candidate sweep revisits node-occupancy signatures"
    );
    assert!(metric(&mut client, "delta_members_recomputed") >= 1.0);
    handle.shutdown();
}

#[test]
fn opted_run_streams_member_steps() {
    let handle = server(1, 4);
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    let request = Request {
        id: 11,
        deadline: None,
        progress: Some(ProgressSpec { every_candidates: Some(1), every_ms: None }),
        tenant: None,
        body: RequestBody::Run(svc::RunRequest {
            spec: ensemble_core::ConfigId::C1_5.build(),
            steps: 10,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    };
    let mut frames = Vec::new();
    let response = client
        .request_streaming(&request, |p| match &p.body {
            ProgressBody::Run { steps, member_steps } => {
                frames.push((*steps, member_steps.clone()))
            }
            other => panic!("expected run progress, got {other:?}"),
        })
        .expect("request");
    assert!(matches!(response, Response::RunResult { id: 11, .. }), "got {response:?}");
    assert_eq!(frames.len(), 20, "2 members x 10 steps, one frame per step event");
    let (steps, members) = frames.last().expect("frames");
    assert_eq!(*steps, 10);
    assert!(members.iter().all(|&s| s == 10));
    handle.shutdown();
}

#[test]
fn legacy_requests_see_byte_identical_wire_behavior() {
    // Drive the protocol over a raw socket with a request line that has
    // no `progress` field: the reply must be exactly one line, with no
    // progress frames before it — byte-compatible with the
    // pre-streaming protocol.
    let handle = server(1, 4);
    let mut legacy = TcpStream::connect(handle.addr()).expect("connect");
    let mut line = small_score_request(21, 2, 16, 1, 8, 3).to_json();
    assert!(!line.contains("progress"), "legacy line must not opt in: {line}");
    line.push('\n');
    legacy.write_all(line.as_bytes()).expect("send");
    let mut reader = BufReader::new(legacy.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(
        !reply.contains("\"type\":\"progress\""),
        "a non-opted request must never receive a progress frame: {reply}"
    );
    let response = Response::from_json(reply.trim_end()).expect("final parses as a response");
    assert!(matches!(response, Response::ScoreResult { id: 21, .. }), "got {response:?}");
    // Nothing further is in flight for this request: a short read
    // timeout finds the socket silent.
    legacy.set_read_timeout(Some(Duration::from_millis(100))).expect("timeout");
    let mut probe = [0u8; 1];
    match legacy.read(&mut probe) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} extra bytes after the final response"),
        Err(e) => assert!(
            matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "unexpected read error {e:?}"
        ),
    }
    assert_eq!(handle.metrics().get("progress_frames_sent"), 0.0);
    handle.shutdown();
}

#[test]
fn watcher_disconnecting_after_the_first_frame_cancels_the_scan() {
    let handle = server(1, 4);
    let addr = handle.addr();
    {
        let mut watcher = TcpStream::connect(addr).expect("connect");
        let mut line = big_score_request(31).to_json();
        line.push('\n');
        watcher.write_all(line.as_bytes()).expect("send");
        let mut reader = BufReader::new(watcher.try_clone().expect("clone"));
        let mut frame = String::new();
        reader.read_line(&mut frame).expect("read first frame");
        assert!(
            frame.contains("\"type\":\"progress\""),
            "the first line of an opted big scan is a progress frame: {frame}"
        );
        // Drop the socket mid-stream: the server's next progress write
        // fails, which must cancel the in-flight scan.
    }
    // The worker notices at its next cancellation probe; poll metrics
    // (served inline, never queued) until the cancel lands.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut probe = SvcClient::connect(addr).expect("connect probe");
    while metric(&mut probe, "requests_cancelled") < 1.0 {
        assert!(
            Instant::now() < deadline,
            "scan was never cancelled after the watcher disconnected"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let scanned = metric(&mut probe, "candidates_scanned") as u64;
    let total = BIG_SPACE_TOTAL;
    assert!(
        scanned < total / 2,
        "the abandoned scan must stop well short of the space: {scanned} of {total}"
    );
    handle.shutdown();
}

#[test]
fn overload_sheds_progress_opted_requests_like_any_other() {
    // One worker, one queue slot: occupy both, then an opted request
    // must get `overloaded` as its single final frame — no progress
    // frames, no hang.
    let handle = server(1, 1);
    let addr = handle.addr();
    // Hold the single worker with a scan of the big space: reading its
    // first progress frame proves it is in flight, and it stays in
    // flight until this socket is dropped (watcher-disconnect cancels
    // it) — no race against how fast the evaluator scores.
    let blocker = TcpStream::connect(addr).expect("connect blocker");
    let mut line = big_score_request(41).to_json();
    line.push('\n');
    (&blocker).write_all(line.as_bytes()).expect("send blocker");
    let mut blocker_reader = BufReader::new(blocker.try_clone().expect("clone"));
    let mut frame = String::new();
    blocker_reader.read_line(&mut frame).expect("read first frame");
    assert!(frame.contains("\"type\":\"progress\""), "blocker not in flight: {frame}");
    let queued = std::thread::spawn(move || {
        let mut c = SvcClient::connect(addr).expect("connect queued");
        c.request(&run_request(42, 100)).expect("queued result")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().get("queue_depth") == 0.0 {
        assert!(Instant::now() < deadline, "second request never queued");
        std::thread::yield_now();
    }
    let mut shed_client = SvcClient::connect(addr).expect("connect shed");
    let mut frames = 0usize;
    let shed = shed_client
        .request_streaming(&medium_score_request(43), |_| frames += 1)
        .expect("shed response");
    match shed {
        Response::Overloaded { id, retry_after_ms } => {
            assert_eq!(id, 43);
            assert!(retry_after_ms >= 1);
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert_eq!(frames, 0, "a shed request must not stream progress");
    // Release the worker: the abandoned blocker scan cancels, and the
    // queued run gets its turn.
    drop(blocker_reader);
    drop(blocker);
    assert!(matches!(queued.join().expect("queued"), Response::RunResult { .. }));
    handle.shutdown();
}

#[test]
fn connection_handles_are_reaped_not_leaked() {
    // Regression for the accept-loop leak: the server used to push one
    // JoinHandle per connection ever served and only reap at shutdown,
    // so a long-lived server grew without bound under connect/disconnect
    // churn. With the sweep, tracked handles stay bounded by live
    // connections (+1 for a race with the reaper).
    let handle = server(1, 4);
    let addr = handle.addr();
    for i in 0..100 {
        let mut c = SvcClient::connect(addr).expect("connect");
        let response = c
            .request(&Request {
                id: i,
                deadline: None,
                progress: None,
                tenant: None,
                body: RequestBody::Metrics,
            })
            .expect("metrics");
        assert!(matches!(response, Response::Metrics { .. }));
        drop(c);
    }
    // The sweep runs on each accept, so poll by opening a fresh
    // connection each round until the finished handles are reaped.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let probe = TcpStream::connect(addr).expect("probe connect");
        std::thread::sleep(Duration::from_millis(20));
        drop(probe);
        let n = handle.tracked_connections();
        if n <= 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "tracked connection handles never shrank: {n} still held after 100 closed connections"
        );
    }
    handle.shutdown();
}

/// Long-running soak used by the nightly CI job (ignored in the normal
/// suite): a progress-opted watcher issuing repeated big scans while a
/// legacy client hammers small queries, asserting frame ordering and
/// connection health throughout.
#[test]
#[ignore = "nightly soak; run with --ignored"]
fn soak_progress_watcher_alongside_legacy_traffic() {
    let handle = server(2, 16);
    let addr = handle.addr();
    let legacy = std::thread::spawn(move || {
        let mut c = SvcClient::connect(addr).expect("connect legacy");
        for i in 0..200u64 {
            let r = c.request(&small_score_request(1000 + i, 2, 16, 1, 8, 3)).expect("small");
            assert!(matches!(r, Response::ScoreResult { .. }));
        }
    });
    let mut watcher = SvcClient::connect(addr).expect("connect watcher");
    for round in 0..5u64 {
        let mut req = medium_score_request(round);
        // Vary the cadence between candidate-count and wall-clock.
        if round % 2 == 1 {
            req.progress = Some(ProgressSpec { every_candidates: None, every_ms: Some(10) });
        }
        let mut last = 0u64;
        let response = watcher
            .request_streaming(&req, |p| {
                if let ProgressBody::Score { candidates_scanned, .. } = &p.body {
                    assert!(*candidates_scanned >= last, "monotone within a request");
                    last = *candidates_scanned;
                }
            })
            .expect("watched scan");
        assert!(matches!(response, Response::ScoreResult { .. }), "round {round}: {response:?}");
    }
    legacy.join().expect("legacy client");
    assert!(handle.metrics().get("progress_frames_sent") > 0.0);
    handle.shutdown();
}
