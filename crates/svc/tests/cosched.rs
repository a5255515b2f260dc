//! Co-scheduler integration tests: concurrent ensembles against live
//! residual capacity, admission-queue dynamics (FIFO + EASY backfill),
//! deadline expiry of queued submits, journal-replayed reservations,
//! and the wire-level `submit` protocol with per-tenant accounting.
//!
//! Platform sizing used throughout: nodes of 32 cores; a "large" member
//! is 16 sim + 8 analysis = 24 cores (two cannot share a node), a
//! "small" member is 4 + 4 = 8 cores (fits beside a large one).

use std::time::{Duration, Instant};

use ensemble_core::ConfigId;
use scheduler::{EnsembleShape, NodeBudget};
use svc::{
    serve, CoschedSvcConfig, ErrorKind, Journal, JournalConfig, ReplayedReservation, Request,
    RequestBody, Response, RunRequest, Service, SubmitRequest, SvcClient, SvcConfig, Workloads,
};

fn cosched_config(nodes: usize, workers: usize) -> SvcConfig {
    SvcConfig {
        workers,
        queue_capacity: 32,
        cache_capacity: 32,
        default_deadline: None,
        journal: None,
        scan_workers: 0,
        cosched: Some(CoschedSvcConfig::new(NodeBudget { max_nodes: nodes, cores_per_node: 32 })),
        tenant_policy: svc::TenantPolicy::default(),
    }
}

fn submit_request(id: u64, members: usize, sim_cores: u32, ana_cores: u32) -> Request {
    Request {
        id,
        deadline: None,
        progress: None,
        tenant: None,
        body: RequestBody::Submit(SubmitRequest {
            shape: EnsembleShape::uniform(members, sim_cores, 1, ana_cores),
            steps: 4,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    }
}

fn large(id: u64) -> Request {
    submit_request(id, 1, 16, 8) // 24 cores: two cannot share a node
}

fn small(id: u64) -> Request {
    submit_request(id, 1, 4, 4) // 8 cores: fits beside a large member
}

/// A long plain `run` that occupies one worker for a couple of seconds
/// (~20 µs/step unoptimized) — holds the pool busy so admissions made
/// behind it are decided while earlier reservations are provably still
/// open, without any sleep-and-hope timing.
fn blocker(id: u64) -> Request {
    Request {
        id,
        deadline: None,
        progress: None,
        tenant: None,
        body: RequestBody::Run(RunRequest {
            spec: ConfigId::C1_5.build(),
            steps: 100_000,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    }
}

fn expect_submit(response: Response) -> (Vec<usize>, bool, f64) {
    match response {
        Response::SubmitResult { assignment, backfilled, queue_wait_ms, residual, .. } => {
            assert!(!assignment.is_empty());
            assert!(!residual.is_empty());
            (assignment, backfilled, queue_wait_ms)
        }
        other => panic!("expected submit result, got {other:?}"),
    }
}

#[test]
fn concurrent_submits_never_overlap_node_assignments() {
    let svc = Service::start(cosched_config(2, 1));
    // The single worker is pinned on the blocker, so both submits are
    // admitted — and their reservations opened — before either run can
    // start: the second placement sees the first's committed capacity,
    // not an idle platform.
    let blocked = svc.submit(blocker(100)).unwrap();
    let a = svc.submit(large(1)).unwrap();
    let b = svc.submit(large(2)).unwrap();
    let m = svc.metrics();
    assert_eq!(m.get("cosched_open_reservations"), 2.0, "both reservations open concurrently");
    assert_eq!(m.get("cosched_committed_cores"), 48.0);
    let (nodes_a, _, _) = expect_submit(a.wait());
    let (nodes_b, _, _) = expect_submit(b.wait());
    assert!(matches!(blocked.wait(), Response::RunResult { .. }));
    assert!(
        nodes_a.iter().all(|n| !nodes_b.contains(n)),
        "24-core members cannot share a 32-core node: {nodes_a:?} vs {nodes_b:?}"
    );
    let m = svc.metrics();
    assert_eq!(m.get("cosched_open_reservations"), 0.0, "drained service holds no residency");
    assert_eq!(m.get("cosched_committed_cores"), 0.0);
    assert_eq!(m.get("cosched_placed"), 2.0);
    svc.shutdown();
}

#[test]
fn backfill_places_a_small_job_past_a_blocked_head() {
    let svc = Service::start(cosched_config(1, 1));
    let blocked = svc.submit(blocker(100)).unwrap(); // pins the worker
    let a = svc.submit(large(1)).unwrap(); // node 0: 24/32 committed
    let b = svc.submit(large(2)).unwrap(); // blocked: 24 > 8 residual
    assert_eq!(svc.metrics().get("cosched_queue_depth"), 1.0);
    let c = svc.submit(small(3)).unwrap(); // 8 cores fit the residual
    let (_, backfilled_c, wait_c) = expect_submit(c.wait());
    assert!(matches!(blocked.wait(), Response::RunResult { .. }));
    assert!(backfilled_c, "the small job jumped the blocked queue head");
    assert_eq!(wait_c, 0.0, "backfilled at admission, never queued");
    let (nodes_a, backfilled_a, _) = expect_submit(a.wait());
    let (nodes_b, _, wait_b) = expect_submit(b.wait());
    assert!(!backfilled_a, "first admission onto an idle platform is not a backfill");
    assert_eq!(nodes_a, nodes_b, "one-node platform: the head reuses the freed node");
    assert!(wait_b > 0.0, "the blocked head observed queue wait");
    let m = svc.metrics();
    assert_eq!(m.get("cosched_backfilled"), 1.0);
    assert_eq!(m.get("cosched_open_reservations"), 0.0);
    assert_eq!(m.get("cosched_committed_cores"), 0.0);
    svc.shutdown();
}

#[test]
fn identical_request_streams_reproduce_identical_schedules() {
    let run = || {
        let svc = Service::start(cosched_config(2, 1));
        let mut placements = Vec::new();
        for id in 1..=6u64 {
            let request = if id % 2 == 0 { small(id) } else { large(id) };
            match svc.submit(request).unwrap().wait() {
                Response::SubmitResult { assignment, objective, .. } => {
                    placements.push((assignment, objective.to_bits()));
                }
                other => panic!("expected submit result, got {other:?}"),
            }
        }
        svc.shutdown();
        placements
    };
    assert_eq!(run(), run(), "same stream, same schedule, bit-identical objectives");
}

#[test]
fn deadline_expired_backlog_leaks_no_residual_capacity() {
    let svc = Service::start(cosched_config(1, 1));
    let blocked = svc.submit(blocker(100)).unwrap(); // pins the worker
    let a = svc.submit(large(1)).unwrap();
    // Two more large jobs cannot fit while `a` holds its reservation;
    // their zero deadlines expire the moment they start waiting. The
    // regression this guards: an expired waiter must free its queue
    // slot without leaking any committed capacity.
    let queued: Vec<_> = (2..=3u64)
        .map(|id| {
            let mut request = large(id);
            request.deadline = Some(Duration::ZERO);
            svc.submit(request).unwrap()
        })
        .collect();
    assert!(matches!(blocked.wait(), Response::RunResult { .. }));
    expect_submit(a.wait());
    for pending in queued {
        match pending.wait() {
            Response::Error { kind: ErrorKind::Deadline, message, .. } => {
                assert!(message.contains("queued"), "{message}");
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
    }
    let m = svc.metrics();
    assert_eq!(m.get("requests_deadline_expired"), 2.0);
    assert_eq!(m.get("cosched_queue_depth"), 0.0, "expired waiters freed their slots");
    assert_eq!(m.get("cosched_open_reservations"), 0.0, "no reservation leaked");
    assert_eq!(m.get("cosched_committed_cores"), 0.0, "no residual capacity leaked");
    svc.shutdown();
}

#[test]
fn journaled_reservations_rebuild_residency_after_restart() {
    let path =
        std::env::temp_dir().join(format!("svc-cosched-replay-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // A reserve record with no matching release — what a crash between
    // admission and completion leaves behind.
    {
        let (journal, _) = Journal::open(JournalConfig::new(&path)).unwrap();
        journal.append_reserve(&ReplayedReservation {
            job: 7,
            members: vec![(16, vec![8])],
            // One slot per component: the sim and its analysis both on
            // node 0 — 24 cores committed there.
            assignment: vec![0, 0],
            predicted_end: 50.0,
            seq: 1,
            tenant: None,
        });
    }
    let mut config = cosched_config(2, 1);
    config.journal = Some(JournalConfig::new(&path));
    let svc = Service::start(config);
    let m = svc.metrics();
    assert_eq!(m.get("cosched_open_reservations"), 1.0, "restart restored the orphan reservation");
    assert_eq!(m.get("cosched_committed_cores"), 24.0);
    // New admissions see the restored residency: node 0 has 8 free, so
    // a large member must land elsewhere.
    let (nodes, _, _) = expect_submit(svc.submit(large(8)).unwrap().wait());
    assert!(!nodes.contains(&0), "placement avoided the restored reservation: {nodes:?}");
    // The operator path releases the orphan (its worker died with the
    // old process); a second release is a no-op.
    assert!(svc.release_reservation(7));
    assert!(!svc.release_reservation(7));
    let m = svc.metrics();
    assert_eq!(m.get("cosched_open_reservations"), 0.0);
    assert_eq!(m.get("cosched_committed_cores"), 0.0);
    svc.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn submit_over_the_wire_reports_placement_and_tenant_rows() {
    let handle = serve("127.0.0.1:0", cosched_config(2, 2)).expect("bind");
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut request = large(1);
    request.tenant = Some("team-a".to_string());
    match client.request(&request).expect("response") {
        Response::SubmitResult { id, assignment, nodes_used, residual, members, .. } => {
            assert_eq!(id, 1);
            assert_eq!(assignment.len(), 2, "one slot per component (sim + analysis)");
            assert_eq!(nodes_used, 1);
            assert_eq!(residual.len(), 2, "one residual entry per node");
            assert_eq!(members.len(), 1);
        }
        other => panic!("expected submit result, got {other:?}"),
    }
    let metrics =
        Request { id: 2, deadline: None, progress: None, tenant: None, body: RequestBody::Metrics };
    match client.request(&metrics).expect("metrics") {
        Response::Metrics { rows, .. } => {
            let get = |name: &str| {
                rows.iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("missing row {name}"))
                    .1
            };
            assert_eq!(get("cosched_enabled"), 1.0);
            assert_eq!(get("cosched_placed"), 1.0);
            assert_eq!(get("cosched_open_reservations"), 0.0);
            assert_eq!(get("tenant_team-a_admitted"), 1.0);
            assert_eq!(get("tenant_team-a_executed"), 1.0);
            assert_eq!(get("tenant_team-a_shed"), 0.0);
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn submit_without_cosched_is_rejected_with_a_clear_error() {
    let mut config = cosched_config(2, 1);
    config.cosched = None;
    let svc = Service::start(config);
    match svc.submit(large(1)).unwrap().wait() {
        Response::Error { kind: ErrorKind::Invalid, message, .. } => {
            assert!(message.contains("--cosched"), "{message}");
        }
        other => panic!("expected invalid, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn infeasible_ensembles_are_refused_at_admission() {
    let svc = Service::start(cosched_config(1, 1));
    // 4 members × 24 cores = 96 cores can never fit one 32-core node.
    match svc.submit(submit_request(1, 4, 16, 8)).unwrap().wait() {
        Response::Error { kind: ErrorKind::Invalid, message, .. } => {
            assert!(message.contains("cannot fit"), "{message}");
        }
        other => panic!("expected invalid, got {other:?}"),
    }
    assert_eq!(svc.metrics().get("cosched_infeasible"), 1.0);
    svc.shutdown();
}

#[test]
fn an_oversized_component_is_refused_and_admission_keeps_answering() {
    let svc = Service::start(cosched_config(2, 1));
    // The wire only bounds cores by u32; nothing this wide fits a node,
    // and the refusal must leave the admission locks usable.
    match svc.submit(submit_request(1, 1, 70_000, 8)).unwrap().wait() {
        Response::Error { kind: ErrorKind::Invalid, message, .. } => {
            assert!(message.contains("cannot fit"), "{message}");
        }
        other => panic!("expected invalid, got {other:?}"),
    }
    expect_submit(svc.submit(large(2)).unwrap().wait());
    let metrics = svc.metrics();
    assert_eq!(metrics.get("cosched_infeasible"), 1.0);
    assert_eq!(metrics.get("cosched_placed"), 1.0);
    svc.shutdown();
}

#[test]
fn a_submit_above_the_step_cap_is_refused_and_its_reservation_released() {
    let svc = Service::start(cosched_config(2, 1));
    let mut absurd = large(1);
    if let RequestBody::Submit(submit) = &mut absurd.body {
        submit.steps = 4_000_000_000_000_000;
    }
    // The job is placed (its shape fits), then the simulated run refuses
    // the step count: a structured error, and the nodes are free again.
    match svc.submit(absurd).unwrap().wait() {
        Response::Error { kind: ErrorKind::Invalid, message, .. } => {
            assert!(message.contains("steps"), "{message}");
        }
        other => panic!("expected invalid, got {other:?}"),
    }
    expect_submit(svc.submit(large(2)).unwrap().wait());
    expect_submit(svc.submit(large(3)).unwrap().wait());
    assert_eq!(svc.metrics().get("cosched_open_reservations"), 0.0);
    svc.shutdown();
}

/// Sustained mixed interactive/batch stream against the co-scheduler —
/// the nightly leak check: after the stream drains, the residency map
/// must be empty and committed capacity exactly zero. Run with
/// `-- --ignored`.
#[test]
#[ignore = "soak test: sustained co-scheduled load, run explicitly or nightly"]
fn soak_mixed_stream_leaks_no_residual_capacity() {
    let handle = serve("127.0.0.1:0", cosched_config(2, 3)).expect("bind");
    let addr = handle.addr();
    let stop_at = Instant::now() + Duration::from_secs(15);
    let threads: Vec<_> = (0..3u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = SvcClient::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let mut round = 0u64;
                let mut answered = 0u64;
                while Instant::now() < stop_at {
                    let id = 100_000 * (t + 1) + round;
                    let mut request = match round % 4 {
                        0 => small(id),
                        1 => large(id),
                        // Interactive lane: score queries share the pool
                        // with co-scheduled runs.
                        _ => svc::small_score_request(id, 2, 16, 1, 8, 2),
                    };
                    if round.is_multiple_of(5) {
                        // Some submits expire while queued — the leak
                        // the drain assertion below would catch.
                        request.deadline = Some(Duration::from_millis(1));
                    }
                    request.tenant = Some(if t == 0 { "interactive" } else { "batch" }.to_string());
                    match client.request(&request) {
                        Ok(Response::Overloaded { retry_after_ms, .. }) => {
                            std::thread::sleep(Duration::from_millis(retry_after_ms.min(20)));
                        }
                        Ok(_) => answered += 1,
                        Err(e) => panic!("wire failure under soak: {e}"),
                    }
                    round += 1;
                }
                answered
            })
        })
        .collect();
    let answered: u64 = threads.into_iter().map(|t| t.join().expect("soak thread")).sum();
    assert!(answered > 0);
    let m = handle.metrics();
    assert_eq!(m.get("cosched_open_reservations"), 0.0, "drained soak leaked reservations: {m:?}");
    assert_eq!(m.get("cosched_committed_cores"), 0.0, "drained soak leaked capacity: {m:?}");
    assert_eq!(m.get("cosched_queue_depth"), 0.0);
    assert!(m.get("cosched_placed") > 0.0, "soak exercised placements: {m:?}");
    handle.shutdown();
}
