//! End-to-end tests of the JSON-lines-over-TCP service front end.
//!
//! Everything binds `127.0.0.1:0` (ephemeral ports) and drives the real
//! server through real sockets: concurrent clients under mixed load,
//! admission-control shedding, graceful-shutdown draining, and the
//! failure paths (deadline expiry, client disconnect, malformed input).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ensemble_core::ConfigId;
use svc::{
    serve, small_score_request, ErrorKind, Request, RequestBody, Response, RunRequest,
    ServerHandle, SvcClient, SvcConfig, Workloads,
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
            scan_workers: 0,
            cosched: None,
            tenant_policy: svc::TenantPolicy::default(),
        },
    )
    .expect("bind ephemeral port")
}

fn run_request(id: u64, steps: u64) -> Request {
    Request {
        id,
        deadline: None,
        progress: None,
        tenant: None,
        body: RequestBody::Run(RunRequest {
            spec: ConfigId::C1_5.build(),
            steps,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    }
}

fn metrics_row(handle: &ServerHandle, client: &mut SvcClient, name: &str) -> f64 {
    let _ = handle; // metrics go over the wire on purpose
    match client.request(&Request {
        id: 0,
        deadline: None,
        progress: None,
        tenant: None,
        body: RequestBody::Metrics,
    }) {
        Ok(Response::Metrics { rows, .. }) => rows
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric '{name}' missing from {rows:?}")),
        other => panic!("expected metrics response, got {other:?}"),
    }
}

/// Pins the server's one worker until the test lets it go
/// ([`svc::held_score_request`]), submitted in process so the test holds
/// its handle. Returns once the worker holds it, so however fast the
/// build, every client that follows meets a busy pool.
fn hold(handle: &ServerHandle) -> svc::service::Pending {
    let req = svc::held_score_request(1);
    let held = handle.service().submit(req).expect("an idle server admits the held score");
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.service().metrics().get("in_flight") == 0.0 {
        assert!(Instant::now() < deadline, "the worker never picked up the held score");
        std::thread::yield_now();
    }
    held
}

/// Lets the held score go and checks that its final frame is `cancelled`.
fn release(held: svc::service::Pending) {
    held.cancel();
    match held.wait() {
        Response::Error { kind: ErrorKind::Cancelled, .. } => {}
        other => panic!("the held score ends cancelled, got {other:?}"),
    }
}

/// Polls the wire metrics endpoint until `pred` holds or the deadline
/// passes (metrics are served inline, so this works even under load).
fn wait_for_metric(
    handle: &ServerHandle,
    client: &mut SvcClient,
    name: &str,
    pred: impl Fn(f64) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if pred(metrics_row(handle, client, name)) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting on metric '{name}'");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn eight_concurrent_clients_mixed_score_and_run() {
    let handle = server(2, 32);
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(8));
    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = SvcClient::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                barrier.wait();
                let mut responses = Vec::new();
                for round in 0..2u64 {
                    let id = 100 * i + round;
                    // Even clients score (all identical → cache hits),
                    // odd clients run short simulations.
                    let request = if i % 2 == 0 {
                        small_score_request(id, 2, 16, 1, 8, 3)
                    } else {
                        run_request(id, 4)
                    };
                    responses.push((id, client.request(&request).expect("response")));
                }
                responses
            })
        })
        .collect();
    let mut scores = 0;
    let mut runs = 0;
    let mut cached = 0;
    for t in threads {
        for (id, response) in t.join().expect("client thread") {
            assert_eq!(response.id(), id, "ids must be echoed");
            match response {
                Response::ScoreResult { placements, cached: c, .. } => {
                    scores += 1;
                    cached += usize::from(c);
                    assert!(!placements.is_empty());
                    for w in placements.windows(2) {
                        assert!(w[0].objective >= w[1].objective);
                    }
                }
                Response::RunResult { ensemble_makespan, members, .. } => {
                    runs += 1;
                    assert!(ensemble_makespan > 0.0);
                    assert_eq!(members.len(), 2);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    assert_eq!(scores, 8);
    assert_eq!(runs, 8);
    assert!(cached >= 6, "identical score queries must hit the cache, got {cached} hits");

    // The full snapshot is visible over the wire: percentiles populated
    // and ordered, cache hit rate consistent with what clients saw.
    let mut probe = SvcClient::connect(addr).expect("connect probe");
    assert_eq!(metrics_row(&handle, &mut probe, "requests_completed"), 16.0);
    let p50 = metrics_row(&handle, &mut probe, "latency_p50_ms");
    let p95 = metrics_row(&handle, &mut probe, "latency_p95_ms");
    let p99 = metrics_row(&handle, &mut probe, "latency_p99_ms");
    assert!(p50 > 0.0, "p50 must populate after 16 requests");
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be ordered: {p50} {p95} {p99}");
    let hit_rate = metrics_row(&handle, &mut probe, "cache_hit_rate");
    assert!(hit_rate > 0.0 && hit_rate <= 1.0, "hit rate {hit_rate} out of range");
    handle.shutdown();
}

#[test]
fn overload_sheds_excess_clients_without_blocking() {
    // One worker, one queue slot: with the worker pinned by a held
    // score, at most one of the concurrent clients can be admitted —
    // everyone else must get `overloaded` immediately, never a stalled
    // socket.
    let handle = server(1, 1);
    let addr = handle.addr();

    let held = hold(&handle);
    let mut probe = SvcClient::connect(addr).expect("connect probe");

    let barrier = Arc::new(Barrier::new(8));
    let overloaded = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let overloaded = Arc::clone(&overloaded);
            std::thread::spawn(move || {
                let mut client = SvcClient::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(120))).unwrap();
                barrier.wait();
                let started = Instant::now();
                let response = client.request(&small_score_request(10 + i, 2, 16, 1, 8, 3));
                let elapsed = started.elapsed();
                match response.expect("every client gets an answer") {
                    Response::Overloaded { retry_after_ms, .. } => {
                        assert!(retry_after_ms >= 1, "hint must be actionable");
                        assert!(
                            elapsed < Duration::from_secs(5),
                            "shed responses must be prompt, took {elapsed:?}"
                        );
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Response::ScoreResult { .. } => {} // the one admitted
                    other => panic!("unexpected response {other:?}"),
                }
            })
        })
        .collect();
    // The admitted client waits behind the held score; the rest are
    // answered while the worker is still pinned.
    wait_for_metric(&handle, &mut probe, "requests_rejected_overload", |v| v >= 7.0);
    release(held);
    for t in threads {
        t.join().expect("no client thread may panic");
    }
    let shed = overloaded.load(Ordering::Relaxed);
    assert!(shed >= 7, "queue capacity 1 admits at most one of 8; shed {shed}");
    assert!(metrics_row(&handle, &mut probe, "requests_rejected_overload") >= 7.0);
    handle.shutdown();
}

#[test]
fn shutdown_drains_accepted_tcp_requests() {
    let handle = server(1, 8);
    let addr = handle.addr();

    // Pin the worker, then queue three more requests behind it.
    let held = hold(&handle);
    let mut probe = SvcClient::connect(addr).expect("connect probe");
    let queued: Vec<_> = (0..3u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = SvcClient::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(120))).unwrap();
                client.request(&small_score_request(20 + i, 2, 16, 1, 8, 3)).expect("drained")
            })
        })
        .collect();
    wait_for_metric(&handle, &mut probe, "requests_accepted", |v| v >= 4.0);
    drop(probe);

    // Graceful shutdown must still answer all four admitted requests:
    // the held score, let go as the drain begins, and the three queued
    // behind it.
    held.cancel();
    handle.shutdown();
    release(held);
    for t in queued {
        assert!(matches!(t.join().expect("queued client"), Response::ScoreResult { .. }));
    }

    // And the endpoint is gone: connects are refused (or any surviving
    // socket yields no response).
    match SvcClient::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_timeout(Some(Duration::from_millis(200))).unwrap();
            assert!(late.request(&small_score_request(99, 2, 16, 1, 8, 3)).is_err());
        }
    }
}

#[test]
fn deadline_expiry_is_a_structured_error() {
    let handle = server(1, 8);
    let addr = handle.addr();
    let mut probe = SvcClient::connect(addr).expect("connect probe");

    // An already-expired deadline is deterministic in every
    // interleaving: the worker's checkpoint fires before (or during)
    // evaluation and answers with the structured deadline error.
    let mut victim = SvcClient::connect(addr).expect("connect victim");
    victim.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut request = small_score_request(42, 2, 16, 1, 8, 3);
    request.deadline = Some(Duration::ZERO);
    match victim.request(&request).expect("victim response") {
        Response::Error { id, kind: ErrorKind::Deadline, message } => {
            assert_eq!(id, 42);
            assert!(message.contains("deadline expired"), "{message}");
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    assert!(metrics_row(&handle, &mut probe, "requests_deadline_expired") >= 1.0);

    // The connection (and service) keep working after the expiry.
    match victim.request(&small_score_request(43, 2, 16, 1, 8, 3)).expect("next request") {
        Response::ScoreResult { id, .. } => assert_eq!(id, 43),
        other => panic!("expected score result, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn client_disconnect_before_response_leaves_server_healthy() {
    let handle = server(2, 8);
    let addr = handle.addr();

    // Fire a long run and vanish before the answer can be written.
    {
        use std::io::Write;
        let mut doomed = std::net::TcpStream::connect(addr).expect("connect doomed");
        let mut line = run_request(7, 400).to_json();
        line.push('\n');
        doomed.write_all(line.as_bytes()).expect("send then vanish");
    } // dropped: socket closed with the request in flight

    // The server keeps serving new clients while (and after) absorbing
    // the failed response write.
    let mut client = SvcClient::connect(addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    match client.request(&small_score_request(8, 2, 16, 1, 8, 3)).expect("healthy response") {
        Response::ScoreResult { id, placements, .. } => {
            assert_eq!(id, 8);
            assert!(!placements.is_empty());
        }
        other => panic!("expected score result, got {other:?}"),
    }
    // The orphaned run still completes and is accounted for.
    wait_for_metric(&handle, &mut client, "requests_completed", |v| v >= 2.0);
    handle.shutdown();
}

#[test]
fn malformed_json_yields_structured_error_not_a_dead_connection() {
    let handle = server(1, 8);
    let addr = handle.addr();
    let mut client = SvcClient::connect(addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    for (raw, expect_id) in [
        ("this is not json", 0),
        ("{\"type\":\"score\"", 0),
        ("{\"type\":\"frobnicate\",\"id\":7}", 7),
        ("{\"type\":\"score\",\"id\":9,\"members\":[]}", 9),
        // 2⁵³ + 1 is not an id any `f64` holds: refused, never answered
        // under the neighbouring id it rounds to.
        ("{\"type\":\"metrics\",\"id\":9007199254740993}", 0),
    ] {
        match client.request_raw(raw).expect("structured error line") {
            Response::Error { id, kind: ErrorKind::Malformed, message } => {
                assert_eq!(id, expect_id, "id echoed when recoverable: {raw}");
                assert!(!message.is_empty());
            }
            other => panic!("{raw:?}: expected malformed error, got {other:?}"),
        }
    }

    // Same connection still serves valid work afterwards.
    match client.request(&small_score_request(11, 2, 16, 1, 8, 3)).expect("recovered") {
        Response::ScoreResult { id, .. } => assert_eq!(id, 11),
        other => panic!("expected score result, got {other:?}"),
    }
    // Malformed lines are refused at the protocol layer, before
    // admission: the service's work counters only see the valid request.
    assert_eq!(metrics_row(&handle, &mut client, "requests_submitted"), 1.0);
    handle.shutdown();
}

#[test]
fn absurd_max_nodes_is_the_component_count_not_an_allocation() {
    // `max_nodes` comes off the wire as a bare integer. The enumerator
    // once sized a vector by it, so this line aborted the whole server
    // process on a 16-petabyte allocation. No component can sit above
    // the node numbered like it, so the space — and the ranking — is
    // exactly that of `max_nodes = components`.
    let handle = server(1, 8);
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let score = |max_nodes: u64| {
        format!(
            "{{\"type\":\"score\",\"id\":{max_nodes},\"members\":[{{\"sim_cores\":16,\"analyses\":[8]}},\
             {{\"sim_cores\":16,\"analyses\":[8]}}],\"max_nodes\":{max_nodes},\"cores_per_node\":32,\
             \"steps\":6,\"workloads\":\"small\"}}"
        )
    };
    let mut ranking = |max_nodes: u64| match client.request_raw(&score(max_nodes)).expect("reply") {
        Response::ScoreResult { placements, cached, candidates_scanned, .. } => {
            assert!(!cached, "the budget is part of the cache key");
            (placements.to_vec(), candidates_scanned)
        }
        other => panic!("max_nodes {max_nodes}: expected a ranking, got {other:?}"),
    };
    let absurd = ranking(4_000_000_000_000_000);
    let at_components = ranking(4);
    assert!(!absurd.0.is_empty());
    assert_eq!(absurd, at_components);
    // And the server is still there for the next request.
    match client.request(&small_score_request(11, 2, 16, 1, 8, 3)).expect("still serving") {
        Response::ScoreResult { id, .. } => assert_eq!(id, 11),
        other => panic!("expected score result, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn absurd_top_k_ranks_the_whole_space_not_an_allocation() {
    // `top_k` comes off the wire as a bare integer, and each scan worker
    // once reserved room for that many rows up front: `top_k` 2³⁰
    // aborted the server on a 72 GiB allocation. More rows than the
    // space holds is the whole space, ranked.
    let handle = server(1, 8);
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let score = |id: u64, top_k: u64| {
        format!(
            "{{\"type\":\"score\",\"id\":{id},\"members\":[{{\"sim_cores\":16,\"analyses\":[8]}},\
             {{\"sim_cores\":16,\"analyses\":[8]}}],\"max_nodes\":3,\"cores_per_node\":32,\
             \"top_k\":{top_k},\"steps\":6,\"workloads\":\"small\"}}"
        )
    };
    let mut ranking =
        |id: u64, top_k: u64| match client.request_raw(&score(id, top_k)).expect("reply") {
            Response::ScoreResult { placements, candidates_scanned, .. } => {
                (placements.to_vec(), candidates_scanned)
            }
            other => panic!("top_k {top_k}: expected a ranking, got {other:?}"),
        };
    let absurd = ranking(1, 1 << 30);
    let full = ranking(2, 0);
    assert_eq!(absurd.1, 11, "the whole space");
    assert_eq!(absurd, full, "every row, ranked");
    // (Answered from the full ranking now cached: no scan, same rows.)
    assert_eq!(ranking(3, (1 << 53) - 1).0, full.0, "the largest top_k the wire carries");
    // And the server is still there for the next request.
    match client.request(&small_score_request(11, 2, 16, 1, 8, 3)).expect("still serving") {
        Response::ScoreResult { id, .. } => assert_eq!(id, 11),
        other => panic!("expected score result, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn a_space_past_2_pow_53_candidates_is_an_invalid_error_not_an_inexact_count() {
    // A bounded walk counts the subtrees it skips, so how fast it
    // enumerates no longer limits `candidates_scanned`: 24 one-core
    // components on up to 24 nodes are Bell(24) ≈ 4.5 × 10¹⁷ placements,
    // past the integers a JSON number carries exactly (a client reads
    // such a count back as 0). The request is refused before any scan.
    let handle = server(1, 8);
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let members = [r#"{"sim_cores":1,"analyses":[1]}"#; 12].join(",");
    let line = format!(
        "{{\"type\":\"score\",\"id\":31,\"members\":[{members}],\"max_nodes\":24,\
         \"cores_per_node\":32,\"top_k\":1,\"steps\":6,\"workloads\":\"small\"}}"
    );
    match client.request_raw(&line).expect("structured error line") {
        Response::Error { id: 31, kind: ErrorKind::Invalid, message } => {
            assert!(message.contains("placement space"), "{message}");
        }
        other => panic!("expected an invalid error, got {other:?}"),
    }
    assert_eq!(metrics_row(&handle, &mut client, "candidates_scanned"), 0.0);
    // And the server is still there for the next request.
    match client.request(&small_score_request(32, 2, 16, 1, 8, 3)).expect("still serving") {
        Response::ScoreResult { id, candidates_scanned, .. } => {
            assert_eq!((id, candidates_scanned), (32, 11));
        }
        other => panic!("expected score result, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn absurd_step_count_is_an_invalid_error_not_an_allocation() {
    // `steps` comes off the wire as a bare integer too, and the simulated
    // run sizes one duration vector per component by it: this line once
    // aborted the server on a 32-petabyte allocation, out of reach of the
    // panic supervisor. The library refuses anything above its cap.
    let handle = server(1, 8);
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let run = |id: u64, steps: u64| {
        format!(
            "{{\"type\":\"run\",\"id\":{id},\"members\":[{{\"sim_cores\":16,\"sim_node\":0,\
             \"analyses\":[{{\"cores\":8,\"node\":0}}]}}],\"steps\":{steps},\"workloads\":\"small\"}}"
        )
    };
    for (id, steps) in [(21, 4_000_000_000_000_000), (22, runtime::MAX_SIM_STEPS + 1)] {
        match client.request_raw(&run(id, steps)).expect("structured error line") {
            Response::Error { id: echoed, kind: ErrorKind::Invalid, message } => {
                assert_eq!(echoed, id);
                assert!(message.contains("steps"), "{message}");
            }
            other => panic!("steps {steps}: expected an invalid error, got {other:?}"),
        }
    }
    // Steps below the cap on an ensemble of thousands of components are
    // the same allocation by another route: the cap is on the product,
    // and the error names the steps this ensemble may have.
    let members: Vec<String> = (0..2000)
        .map(|n| {
            format!(
                "{{\"sim_cores\":1,\"sim_node\":{n},\"analyses\":[{{\"cores\":1,\"node\":{n}}}]}}"
            )
        })
        .collect();
    let wide = format!(
        "{{\"type\":\"run\",\"id\":24,\"members\":[{}],\"steps\":{},\"workloads\":\"small\"}}",
        members.join(","),
        runtime::MAX_SIM_STEPS
    );
    match client.request_raw(&wide).expect("structured error line") {
        Response::Error { id: 24, kind: ErrorKind::Invalid, message } => {
            let share = runtime::MAX_SIM_COMPONENT_STEPS / 4000;
            assert!(message.contains(&format!("at most {share}")), "{message}");
        }
        other => panic!("4000 components: expected an invalid error, got {other:?}"),
    }
    // The same connection runs the same ensemble at a sane step count.
    match client.request_raw(&run(23, 6)).expect("still serving") {
        Response::RunResult { id, members, .. } => {
            assert_eq!(id, 23);
            assert_eq!(members.len(), 1);
        }
        other => panic!("expected a run result, got {other:?}"),
    }
    assert_eq!(metrics_row(&handle, &mut client, "requests_errored"), 3.0);
    handle.shutdown();
}

#[test]
fn absurd_node_label_is_an_invalid_error_not_an_allocation() {
    // A node label is a bare wire integer as well, and the simulated
    // platform holds one entry per node up to the largest label: this
    // line once aborted the server the way `steps` did.
    let handle = server(1, 8);
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let run = |id: u64, sim_node: u64, node: u64| {
        format!(
            "{{\"type\":\"run\",\"id\":{id},\"members\":[{{\"sim_cores\":16,\"sim_node\":{sim_node},\
             \"analyses\":[{{\"cores\":8,\"node\":{node}}}]}}],\"steps\":6,\"workloads\":\"small\"}}"
        )
    };
    let absurd = 4_000_000_000_000_000;
    for (id, sim_node, node) in [(31, absurd, 0), (32, 0, absurd)] {
        match client.request_raw(&run(id, sim_node, node)).expect("structured error line") {
            Response::Error { id: echoed, kind: ErrorKind::Invalid, message } => {
                assert_eq!(echoed, id);
                assert!(message.contains("MAX_SIM_NODES"), "{message}");
                assert!(message.contains(&runtime::MAX_SIM_NODES.to_string()), "{message}");
            }
            other => panic!("request {id}: expected an invalid error, got {other:?}"),
        }
    }
    // The same connection runs the same member on nodes that exist.
    match client.request_raw(&run(33, 0, 1)).expect("still serving") {
        Response::RunResult { id, members, .. } => {
            assert_eq!(id, 33);
            assert_eq!(members.len(), 1);
        }
        other => panic!("expected a run result, got {other:?}"),
    }
    assert_eq!(metrics_row(&handle, &mut client, "requests_errored"), 2.0);
    handle.shutdown();
}

#[test]
fn client_submit_rides_out_real_overload() {
    // One worker, one queue slot, a held score pinning the worker: a
    // `submit` with a generous retry budget eventually lands where a
    // bare `request` would have returned `overloaded`.
    let handle = server(1, 1);
    let addr = handle.addr();
    let held = hold(&handle);
    let mut probe = SvcClient::connect(addr).expect("connect probe");
    // Occupy the single queue slot too, so the submit below is shed at
    // least once before the backlog drains.
    let filler = std::thread::spawn(move || {
        let mut client = SvcClient::connect(addr).expect("connect filler");
        client.set_timeout(Some(Duration::from_secs(120))).unwrap();
        client.request(&small_score_request(4, 3, 16, 1, 8, 3)).expect("filler response")
    });
    wait_for_metric(&handle, &mut probe, "requests_accepted", |v| v >= 2.0);

    let retrying = std::thread::spawn(move || {
        let mut client = SvcClient::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(120))).unwrap();
        let policy =
            svc::ClientRetryPolicy { max_attempts: 2000, max_backoff: Duration::from_millis(50) };
        client.submit(&small_score_request(5, 2, 16, 1, 8, 3), &policy).expect("submit")
    });
    // Let the backlog drain only once the submit has been shed.
    wait_for_metric(&handle, &mut probe, "requests_rejected_overload", |v| v >= 1.0);
    release(held);
    match retrying.join().expect("retrying client") {
        Response::ScoreResult { id, .. } => assert_eq!(id, 5),
        other => panic!("expected the retried score to land, got {other:?}"),
    }
    assert!(matches!(filler.join().expect("filler"), Response::ScoreResult { .. }));
    handle.shutdown();
}

/// Sustained mixed load with retry-on-overload from a dozen clients.
/// Slow by design; run with `cargo test -p svc -- --ignored`.
#[test]
#[ignore = "soak test: minutes of sustained load, exercised by the nightly CI step"]
fn soak_sustained_mixed_load_stays_consistent() {
    let handle = server(2, 4);
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(12));
    let threads: Vec<_> = (0..12u64)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = SvcClient::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(120))).unwrap();
                barrier.wait();
                let mut completed = 0u64;
                for round in 0..30u64 {
                    let id = 1000 * i + round;
                    let request = match (i + round) % 3 {
                        0 => small_score_request(id, 2, 16, 1, 8, 3),
                        1 => small_score_request(id, 3, 16, 1, 8, (2 + round % 3) as usize + 2),
                        _ => run_request(id, 4 + round % 4),
                    };
                    // Honor the backpressure contract: back off and retry
                    // on overload, bounded so the soak always terminates.
                    for _attempt in 0..50 {
                        match client.request(&request).expect("response under soak") {
                            Response::Overloaded { retry_after_ms, .. } => {
                                std::thread::sleep(Duration::from_millis(retry_after_ms.min(50)));
                            }
                            Response::ScoreResult { .. } | Response::RunResult { .. } => {
                                completed += 1;
                                break;
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                }
                completed
            })
        })
        .collect();
    let completed: u64 = threads.into_iter().map(|t| t.join().expect("soak client")).sum();
    assert_eq!(completed, 12 * 30, "every request eventually lands under retry");

    let mut probe = SvcClient::connect(addr).expect("connect probe");
    let submitted = metrics_row(&handle, &mut probe, "requests_submitted");
    let accepted = metrics_row(&handle, &mut probe, "requests_accepted");
    let rejected = metrics_row(&handle, &mut probe, "requests_rejected_overload");
    assert_eq!(submitted, accepted + rejected, "admission accounting must balance");
    assert!(metrics_row(&handle, &mut probe, "requests_completed") >= 360.0);
    assert!(metrics_row(&handle, &mut probe, "latency_p99_ms") > 0.0);
    assert!(metrics_row(&handle, &mut probe, "cache_hit_rate") > 0.0);
    drop(probe);
    handle.shutdown();
}
