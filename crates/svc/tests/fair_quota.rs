//! Per-tenant quota and weighted-fair-admission integration tests.
//!
//! The headline demo is the starvation flip: with no tenant policy the
//! queue is one global FIFO and a batch flood starves an interactive
//! request (documented baseline); with lanes on, the interactive tenant
//! is served within one weighted round no matter how deep the batch
//! backlog is. The rest covers the accounting holes this PR closes:
//! quota shed with tenant-sized hints, the bounded tenant table, dead
//! waiters holding slots on a quiet server, and the conservation
//! invariant `admitted = executed + expired + cancelled + in_queue +
//! in_flight` per tenant — and its global twin, every request offered
//! to admission answered in one reply bucket or still held, through
//! shutdown and under seeded schedules.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ensemble_core::ConfigId;
use scheduler::{EnsembleShape, NodeBudget};
use svc::stats::MetricsSnapshot;
use svc::{
    serve, CoschedSvcConfig, ErrorKind, Journal, JournalConfig, Rejected, ReplayedReservation,
    Request, RequestBody, Response, RunRequest, Service, SubmitRequest, SvcClient, SvcConfig,
    TenantPolicy, Workloads,
};

fn config(workers: usize, queue: usize, policy: TenantPolicy) -> SvcConfig {
    SvcConfig {
        workers,
        queue_capacity: queue,
        cache_capacity: 32,
        default_deadline: None,
        journal: None,
        scan_workers: 0,
        cosched: None,
        tenant_policy: policy,
    }
}

fn run_request(id: u64, tenant: Option<&str>, steps: u64) -> Request {
    Request {
        id,
        deadline: None,
        progress: None,
        tenant: tenant.map(str::to_string),
        body: RequestBody::Run(RunRequest {
            spec: ConfigId::C1_5.build(),
            steps,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    }
}

/// Pins the pool's one worker with an untagged score until the test
/// cancels it ([`svc::held_score_request`]). Returns once the worker
/// holds it, so admission decisions happen against a provably busy pool
/// however fast the build.
fn hold(svc: &Service) -> svc::service::Pending {
    let req = svc::held_score_request(100);
    let held = svc.submit(req).expect("an idle service admits the held score");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while svc.metrics().get("in_flight") == 0.0 {
        assert!(std::time::Instant::now() < deadline, "the worker never picked up the held score");
        std::thread::yield_now();
    }
    held
}

/// Lets the held score go and checks that it ends as cancelled.
fn release(held: svc::service::Pending) {
    held.cancel();
    match held.wait() {
        Response::Error { kind: ErrorKind::Cancelled, .. } => {}
        other => panic!("the held score ends cancelled, got {other:?}"),
    }
}

/// One tenant's `tenant_<tag>_*` rows of one snapshot.
struct TenantRows {
    m: MetricsSnapshot,
    tag: String,
}

impl TenantRows {
    /// The counter row `tenant_<tag>_<counter>`; panics when the tenant
    /// is missing from the snapshot.
    fn get(&self, counter: &str) -> u64 {
        self.m.get(&format!("tenant_{}_{counter}", self.tag)) as u64
    }
}

fn tenant_row(svc: &Service, tag: &str) -> TenantRows {
    TenantRows { m: svc.metrics(), tag: tag.to_string() }
}

/// The tags of every tenant row in `m`, in wire order.
fn tenant_tags(m: &MetricsSnapshot) -> Vec<String> {
    let rows = m.clone().all_rows();
    let tag =
        |name: &str| Some(name.strip_prefix("tenant_")?.strip_suffix("_admitted")?.to_string());
    rows.iter().filter_map(|(name, _)| tag(name)).collect()
}

fn assert_conserved(row: &TenantRows) {
    let [admitted, executed, expired, cancelled, queued, in_flight] =
        ["admitted", "executed", "expired", "cancelled", "queued", "in_flight"]
            .map(|counter| row.get(counter));
    assert_eq!(
        admitted,
        executed + expired + cancelled + queued + in_flight,
        "conservation broken for '{}': {admitted} admitted, {executed} executed, \
         {expired} expired, {cancelled} cancelled, {queued} queued, {in_flight} in flight",
        row.tag
    );
}

/// Baseline (policy off): one global FIFO, so every batch item admitted
/// ahead of the interactive request executes first. This is the
/// documented starvation the fair queue exists to fix — the companion
/// test below flips it by turning the policy on.
#[test]
fn fifo_baseline_starves_interactive_behind_a_batch_flood() {
    let svc = Service::start(config(1, 16, TenantPolicy::default()));
    let blocked = hold(&svc);
    let batch: Vec<_> =
        (0..4).map(|i| svc.submit(run_request(i, Some("batch"), 10_000)).unwrap()).collect();
    let interactive = svc.submit(run_request(50, Some("interactive"), 4)).unwrap();
    release(blocked);
    assert!(matches!(interactive.wait(), Response::RunResult { .. }));
    let row = tenant_row(&svc, "batch");
    assert_eq!(
        row.get("executed"),
        4,
        "FIFO baseline: the whole batch backlog ran before the interactive request"
    );
    for b in batch {
        assert!(matches!(b.wait(), Response::RunResult { .. }));
    }
}

/// The flip: same traffic, policy on. Batch and interactive ride
/// separate lanes, so the interactive request is dequeued within one
/// weighted round — almost the whole batch backlog is still waiting
/// when its result lands.
#[test]
fn fair_lanes_serve_interactive_while_batch_saturates() {
    let mut policy = TenantPolicy::default();
    policy.weights.insert("interactive".to_string(), 2);
    let svc = Service::start(config(1, 16, policy));
    let blocked = hold(&svc);
    let batch: Vec<_> =
        (0..4).map(|i| svc.submit(run_request(i, Some("batch"), 10_000)).unwrap()).collect();
    let interactive = svc.submit(run_request(50, Some("interactive"), 4)).unwrap();
    release(blocked);
    assert!(matches!(interactive.wait(), Response::RunResult { .. }));
    let row = tenant_row(&svc, "batch");
    assert!(
        row.get("executed") <= 2,
        "fair dequeue served interactive within one round; batch executed = {}",
        row.get("executed")
    );
    for b in batch {
        assert!(matches!(b.wait(), Response::RunResult { .. }));
    }
    let interactive_row = tenant_row(&svc, "interactive");
    assert_eq!(interactive_row.get("weight"), 2, "configured weight is visible in the snapshot");
}

/// Quota exhaustion sheds the over-quota tenant with a hint sized to
/// *its* backlog while the global queue still admits everyone else.
#[test]
fn quota_exhaustion_sheds_with_tenant_hint_while_others_admit() {
    let mut policy = TenantPolicy::default();
    policy.quotas.insert("batch".to_string(), 2);
    let svc = Service::start(config(1, 32, policy));
    let blocked = hold(&svc);
    let b0 = svc.submit(run_request(1, Some("batch"), 4)).unwrap();
    let b1 = svc.submit(run_request(2, Some("batch"), 4)).unwrap();
    match svc.submit(run_request(3, Some("batch"), 4)) {
        Err(Rejected::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "hint must be actionable, got {retry_after_ms}");
        }
        other => panic!("third batch submit must be quota-shed, got {other:?}"),
    }
    // The global queue had 29 free slots: the shed was the tenant's
    // quota, not capacity — untagged and other-tenant traffic sails on.
    let ok = svc.submit(run_request(4, None, 4)).unwrap();
    let other = svc.submit(run_request(5, Some("team-a"), 4)).unwrap();
    let row = tenant_row(&svc, "batch");
    assert_eq!(row.get("admitted"), 2);
    assert_eq!(row.get("shed"), 1);
    assert_eq!(row.get("quota"), 2, "configured quota is visible in the snapshot");
    release(blocked);
    for p in [b0, b1, ok, other] {
        assert!(matches!(p.wait(), Response::RunResult { .. }));
    }
    // Quota slots freed by completion: the tenant admits again.
    let again = svc.submit(run_request(6, Some("batch"), 4)).unwrap();
    assert!(matches!(again.wait(), Response::RunResult { .. }));
    let row = tenant_row(&svc, "batch");
    assert_conserved(&row);
    assert_eq!(row.get("executed"), 3);
}

/// A client cycling random tenant tags cannot grow service memory (or
/// the metrics payload) without bound: past the cap, fresh tags fold
/// into the shared `other` row.
#[test]
fn tenant_flood_cannot_grow_the_table_unbounded() {
    let svc = Service::start(config(2, 256, TenantPolicy::default()));
    let pendings: Vec<_> = (0..100u64)
        .map(|i| svc.submit(run_request(i, Some(&format!("flood-{i}")), 1)).unwrap())
        .collect();
    for p in pendings {
        assert!(matches!(p.wait(), Response::RunResult { .. }));
    }
    let m = svc.metrics();
    let cap = TenantPolicy::DEFAULT_MAX_TRACKED;
    let tracked = tenant_tags(&m).len();
    assert!(
        tracked <= cap + 1,
        "{tracked} tenant rows leaked past the cap of {cap} (+1 overflow row)"
    );
    let overflow = tenant_row(&svc, TenantPolicy::OVERFLOW_TENANT);
    assert_eq!(
        overflow.get("admitted"),
        100 - cap as u64,
        "every tag past the cap folded into '{}'",
        TenantPolicy::OVERFLOW_TENANT
    );
    assert_conserved(&overflow);
}

/// Unusable tenant tags are refused with a structured `invalid` error —
/// in-process and over the wire — and never mint a table row.
#[test]
fn invalid_tenant_tags_are_rejected_with_a_structured_error() {
    // In-process: validation happens before admission.
    let svc = Service::start(config(1, 8, TenantPolicy::default()));
    let mut bad = run_request(1, None, 1);
    bad.tenant = Some("has space".to_string());
    match svc.submit(bad).unwrap().wait() {
        Response::Error { kind: ErrorKind::Invalid, message, .. } => {
            assert!(message.starts_with("invalid tenant"), "unexpected message: {message}");
        }
        other => panic!("expected invalid-tenant error, got {other:?}"),
    }
    assert!(tenant_tags(&svc.metrics()).is_empty(), "a rejected tag must not mint a row");
    drop(svc);

    // Over the wire: the decoder rejects the tag, the server maps it to
    // `invalid` (not `malformed` — the JSON itself was fine).
    let handle = serve("127.0.0.1:0", config(1, 8, TenantPolicy::default())).expect("bind");
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    let line = run_request(2, Some("placeholder"), 1).to_json().replace("placeholder", "no;semis");
    match client.request_raw(&line).expect("response") {
        Response::Error { kind: ErrorKind::Invalid, message, .. } => {
            assert!(message.starts_with("invalid tenant"), "unexpected message: {message}");
        }
        other => panic!("expected invalid-tenant error over the wire, got {other:?}"),
    }
    // The connection survives: the next well-formed request answers.
    let ok = client.request(&run_request(3, Some("fine-tag"), 1)).expect("response");
    assert!(matches!(ok, Response::RunResult { .. }));
    handle.shutdown();
}

fn cosched_config(policy: TenantPolicy) -> SvcConfig {
    SvcConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
        default_deadline: None,
        journal: None,
        scan_workers: 0,
        cosched: Some(CoschedSvcConfig::new(NodeBudget { max_nodes: 1, cores_per_node: 32 })),
        tenant_policy: policy,
    }
}

fn submit_request(id: u64, tenant: Option<&str>, deadline: Option<Duration>) -> Request {
    Request {
        id,
        deadline,
        progress: None,
        tenant: tenant.map(str::to_string),
        body: RequestBody::Submit(SubmitRequest {
            // 24 of 32 cores: two can never hold reservations at once,
            // so the second submit waits in the co-scheduler queue.
            shape: EnsembleShape::uniform(1, 16, 1, 8),
            steps: 4,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    }
}

/// PR 7 hole: on a quiet server a deadline-expired waiting submit held
/// its queue slot (and now its quota slot) forever, because reaping
/// only ran inside *other* requests' admissions. A metrics scrape now
/// reaps too.
#[test]
fn metrics_scrape_reaps_a_lone_expired_waiter() {
    let svc = Service::start(cosched_config(TenantPolicy::default()));
    let blocked = hold(&svc);
    let placed = svc.submit(submit_request(1, Some("t"), None)).unwrap();
    // Already past its deadline: admission does not check deadlines, so
    // the waiter queues dead.
    let waiting = svc.submit(submit_request(2, Some("t"), Some(Duration::ZERO))).unwrap();
    // No further traffic — the scrape itself must evict the dead waiter.
    let m = svc.metrics();
    assert_eq!(m.get("cosched_queue_depth"), 0.0, "metrics() reaped the expired waiter");
    release(blocked);
    match waiting.wait() {
        Response::Error { kind: ErrorKind::Deadline, .. } => {}
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    assert!(matches!(placed.wait(), Response::SubmitResult { .. }));
    let row = tenant_row(&svc, "t");
    assert_eq!(row.get("expired"), 1, "the reaped waiter lands in the expired bucket");
    assert_conserved(&row);
}

/// Same hole from the caller's side: the waiter's own `wait_timeout`
/// expiry triggers the reap, so a lone client gets its deadline answer
/// with no other request ever arriving.
#[test]
fn wait_timeout_reaps_a_lone_expired_waiter() {
    let svc = Service::start(cosched_config(TenantPolicy::default()));
    let blocked = hold(&svc);
    let placed = svc.submit(submit_request(1, Some("t"), None)).unwrap();
    let waiting =
        svc.submit(submit_request(2, Some("t"), Some(Duration::from_millis(50)))).unwrap();
    match waiting.wait_timeout(Duration::from_millis(150)) {
        Ok(Response::Error { kind: ErrorKind::Deadline, .. }) => {}
        Ok(other) => panic!("expected deadline expiry, got {other:?}"),
        Err(_) => panic!("wait_timeout expiry must reap and deliver the deadline answer"),
    }
    let row = tenant_row(&svc, "t");
    assert_eq!(row.get("expired"), 1);
    assert_conserved(&row);
    release(blocked);
    assert!(matches!(placed.wait(), Response::SubmitResult { .. }));
}

/// Same hole over TCP, where a connection blocks in its reply handle's
/// frame receive: a lone waiting submit's own deadline reaps it, with
/// no other traffic reaching the server.
#[test]
fn over_tcp_a_lone_waiters_deadline_is_answered_without_other_traffic() {
    let handle = serve("127.0.0.1:0", cosched_config(TenantPolicy::default())).expect("bind");
    let blocked = hold(handle.service());
    let send = |request: &Request| {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(format!("{}\n", request.to_json()).as_bytes()).expect("send");
        stream
    };
    let placed = send(&submit_request(1, None, None));
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().get("cosched_open_reservations") == 0.0 {
        assert!(Instant::now() < deadline, "the first submit never reserved");
        std::thread::yield_now();
    }
    let waiting = send(&submit_request(2, None, Some(Duration::from_millis(50))));
    waiting.set_read_timeout(Some(Duration::from_secs(1))).expect("timeout");
    let mut reply = String::new();
    let read = BufReader::new(&waiting).read_line(&mut reply);
    // Let the worker go before any assertion, so a failure cannot hang
    // the server's shutdown behind the held score.
    release(blocked);
    read.expect("answered within 1 s");
    match Response::from_json(reply.trim_end()).expect("a response line") {
        Response::Error { id: 2, kind: ErrorKind::Deadline, .. } => {}
        other => panic!("expected the waiter's deadline error, got {other:?}"),
    }
    let mut reply = String::new();
    BufReader::new(&placed).read_line(&mut reply).expect("placed submit answered");
    let response = Response::from_json(reply.trim_end()).expect("a response line");
    assert!(matches!(response, Response::SubmitResult { id: 1, .. }), "got {response:?}");
    handle.shutdown();
}

/// Every admitted job lands in exactly one terminal bucket — executed,
/// expired, or cancelled — across all three exits (worker drain, waiter
/// reap, cancellation), so the per-tenant sum closes at quiescence.
#[test]
fn per_tenant_accounting_conserves_every_admitted_job() {
    let svc = Service::start(config(1, 16, TenantPolicy::default()));
    let blocked = hold(&svc);
    let executed = svc.submit(run_request(1, Some("t"), 4)).unwrap();
    // Admitted already past its deadline, so it expires in the queue
    // however fast the first job runs.
    let mut with_deadline = run_request(2, Some("t"), 4);
    with_deadline.deadline = Some(Duration::ZERO);
    let expired = svc.submit(with_deadline).unwrap();
    let cancelled = svc.submit(run_request(3, Some("t"), 4)).unwrap();
    cancelled.cancel();
    release(blocked);
    assert!(matches!(executed.wait(), Response::RunResult { .. }));
    match expired.wait() {
        Response::Error { kind: ErrorKind::Deadline, .. } => {}
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    match cancelled.wait() {
        Response::Error { kind: ErrorKind::Cancelled, .. } => {}
        other => panic!("expected cancellation, got {other:?}"),
    }
    let row = tenant_row(&svc, "t");
    assert_eq!(
        (row.get("admitted"), row.get("executed"), row.get("expired"), row.get("cancelled")),
        (3, 1, 1, 1)
    );
    assert_eq!(
        (row.get("queued"), row.get("in_flight")),
        (0, 0),
        "quiescent service holds nothing"
    );
    assert_conserved(&row);
    assert!(row.m.get("tenant_t_queue_wait_p95_ms") >= 0.0, "queue-wait quantiles populated");
}

/// Restart rebuilds per-tenant quota occupancy from the journal: an
/// orphan reservation left by a crash keeps holding its tenant's quota
/// in the new process until explicitly released.
#[test]
fn journaled_reservation_reoccupies_tenant_quota_after_restart() {
    let path = std::env::temp_dir().join(format!("svc-fair-replay-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let (journal, _) = Journal::open(JournalConfig::new(&path)).unwrap();
        journal.append_reserve(&ReplayedReservation {
            job: 7,
            members: vec![(16, vec![8])],
            assignment: vec![0, 0],
            predicted_end: 50.0,
            seq: 1,
            tenant: Some("t".to_string()),
        });
    }
    let mut policy = TenantPolicy::default();
    policy.quotas.insert("t".to_string(), 1);
    let mut cfg = cosched_config(policy);
    cfg.journal = Some(JournalConfig::new(&path));
    let svc = Service::start(cfg);
    let row = tenant_row(&svc, "t");
    assert_eq!((row.get("admitted"), row.get("in_flight")), (1, 1), "orphan re-occupies the quota");
    // Quota 1 is fully held by the orphan: a live submit is shed even
    // though the platform and queue are otherwise empty.
    match svc.submit(submit_request(10, Some("t"), None)) {
        Err(Rejected::Overloaded { .. }) => {}
        other => panic!("orphan must hold the quota, got {other:?}"),
    }
    assert!(svc.release_reservation(7), "operator releases the orphan");
    let row = tenant_row(&svc, "t");
    assert_eq!(
        (row.get("in_flight"), row.get("cancelled")),
        (0, 1),
        "released orphan retires as cancelled"
    );
    assert_conserved(&row);
    let admitted = svc.submit(submit_request(11, Some("t"), None)).unwrap();
    assert!(matches!(admitted.wait(), Response::SubmitResult { .. }));
    let row = tenant_row(&svc, "t");
    assert_conserved(&row);
    drop(svc);
    let _ = std::fs::remove_file(&path);
}

/// Both books at a quiescent point: the global rows account for every
/// request offered to admission — answered in exactly one reply bucket,
/// or still queued or in flight — and each tenant row for every job it
/// admitted.
fn assert_books_balance(svc: &Service) {
    let m = svc.metrics();
    let sum = |rows: &[&str]| rows.iter().map(|row| m.get(row)).sum::<f64>();
    let answered = sum(&[
        "requests_completed",
        "requests_errored",
        "requests_rejected_overload",
        "requests_cancelled",
        "requests_deadline_expired",
    ]);
    let held = sum(&["queue_depth", "cosched_queue_depth", "in_flight"]);
    assert_eq!(m.get("requests_submitted"), answered + held, "global conservation broken: {m:?}");
    for tag in tenant_tags(&m) {
        assert_conserved(&TenantRows { m: m.clone(), tag });
    }
}

/// A request refused because the service shut down was still offered
/// and answered: its `shutting_down` reply is counted `errored`.
#[test]
fn a_refusal_after_shutdown_balances_the_global_books() {
    let svc = Service::start(config(1, 4, TenantPolicy::default()));
    let done = svc.submit(run_request(1, Some("t"), 4)).unwrap();
    assert!(matches!(done.wait(), Response::RunResult { .. }));
    svc.shutdown();
    assert_eq!(svc.submit(run_request(2, Some("t"), 4)).err(), Some(Rejected::ShuttingDown));
    let m = svc.metrics();
    assert_eq!(
        (m.get("requests_submitted"), m.get("requests_completed"), m.get("requests_errored")),
        (2.0, 1.0, 1.0)
    );
    assert_books_balance(&svc);
}

/// A co-scheduled `submit` still waiting for capacity when the service
/// shuts down is answered `shutting_down` — here by the completion that
/// would have dispatched it into the now-closed worker queue — and
/// counted in both books.
#[test]
fn a_submit_waiting_behind_a_running_job_at_shutdown_balances_both_books() {
    let mut cfg = cosched_config(TenantPolicy::default());
    cfg.queue_capacity = 2;
    let svc = Service::start(cfg);
    let blocked = hold(&svc);
    let placed = svc.submit(submit_request(1, Some("t"), None)).unwrap();
    let waiting = svc.submit(submit_request(2, Some("t"), None)).unwrap();
    assert_eq!(
        svc.metrics().get("cosched_queue_depth"),
        1.0,
        "the second submit waits for capacity"
    );
    let filler = svc.submit(run_request(3, None, 4)).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| svc.shutdown());
        // The worker queue is full, so a probe is shed while admissions
        // are open and refused once shutdown has closed them: the
        // placed job cannot dispatch its waiter before the close.
        loop {
            match svc.submit(run_request(9, None, 1)) {
                Err(Rejected::ShuttingDown) => break,
                Err(Rejected::Overloaded { .. }) => std::thread::yield_now(),
                Ok(_) => panic!("a full queue admitted the probe"),
            }
        }
        release(blocked);
    });
    assert!(matches!(placed.wait(), Response::SubmitResult { .. }));
    assert!(matches!(waiting.wait(), Response::Error { kind: ErrorKind::ShuttingDown, .. }));
    assert!(matches!(filler.wait(), Response::RunResult { .. }));
    assert_eq!(tenant_row(&svc, "t").get("cancelled"), 1);
    assert_books_balance(&svc);
}

/// The same answer from shutdown itself: a submit waiting behind a
/// journal-restored reservation, which no worker will ever release.
#[test]
fn a_submit_waiting_behind_an_orphan_at_shutdown_balances_both_books() {
    let path = std::env::temp_dir().join(format!("svc-fair-orphan-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let (journal, _) = Journal::open(JournalConfig::new(&path)).unwrap();
        journal.append_reserve(&ReplayedReservation {
            job: 7,
            members: vec![(16, vec![8])],
            assignment: vec![0, 0],
            predicted_end: 50.0,
            seq: 1,
            tenant: None,
        });
    }
    let mut cfg = cosched_config(TenantPolicy::default());
    cfg.journal = Some(JournalConfig::new(&path));
    let svc = Service::start(cfg);
    let waiting = svc.submit(submit_request(1, Some("t"), None)).unwrap();
    assert_eq!(svc.metrics().get("cosched_queue_depth"), 1.0, "the orphan holds the capacity");
    svc.shutdown();
    assert!(matches!(waiting.wait(), Response::Error { kind: ErrorKind::ShuttingDown, .. }));
    let m = svc.metrics();
    assert_eq!((m.get("requests_submitted"), m.get("requests_errored")), (1.0, 1.0));
    assert_books_balance(&svc);
    drop(svc);
    let _ = std::fs::remove_file(&path);
}

/// Seeded schedules of tagged and untagged `run` and `score`,
/// co-scheduled `submit`, cancellation, zero deadlines and a quota'd
/// tenant against small queues, then shutdown: both books balance at
/// every quiescent point.
#[test]
fn random_schedules_balance_both_books_at_every_quiescent_point() {
    testkit::check(24, |g| {
        let mut policy = TenantPolicy::default();
        policy.quotas.insert("q".to_string(), 1);
        let mut cfg = cosched_config(policy);
        cfg.workers = g.range(1usize..=2);
        cfg.queue_capacity = g.range(1usize..=4);
        if let Some(cosched) = &mut cfg.cosched {
            cosched.queue_capacity = g.range(1usize..=2);
        }
        let svc = Service::start(cfg);
        let mut pending = Vec::new();
        for id in 0..g.range(1u64..=12) {
            let tenant = g.select(&[None, Some("t"), Some("q")]);
            let mut req = match g.range(0u8..3) {
                0 => run_request(id, tenant, g.range(1u64..=4)),
                1 => svc::small_score_request(id, 2, 16, 1, 8, g.range(2usize..=3)),
                _ => submit_request(id, tenant, None),
            };
            req.tenant = tenant.map(str::to_string);
            if g.range(0u8..4) == 0 {
                req.deadline = Some(Duration::ZERO);
            }
            if let Ok(p) = svc.submit(req) {
                pending.push(p);
            }
            match g.range(0u8..4) {
                0 if !pending.is_empty() => pending[g.range(0..pending.len())].cancel(),
                1 => {
                    for p in pending.drain(..) {
                        p.wait();
                    }
                    assert_books_balance(&svc);
                }
                _ => {}
            }
        }
        svc.shutdown();
        for p in pending {
            p.wait();
        }
        assert_books_balance(&svc);
    });
}

/// Nightly soak: a batch flood and an interactive stream share a
/// quota'd server for hundreds of requests. The interactive tenant
/// finishes everything (zero starvation), shed batch requests retry to
/// completion, and the drained server's queues close at zero with both
/// tenants' books balanced.
#[test]
#[ignore = "multi-second soak; run with --ignored in the nightly lane"]
fn two_tenant_soak_drains_clean_with_no_starvation() {
    let mut policy = TenantPolicy::default();
    policy.quotas.insert("batch".to_string(), 4);
    policy.weights.insert("interactive".to_string(), 2);
    let handle = serve("127.0.0.1:0", config(2, 8, policy)).expect("bind");
    let addr = handle.addr();
    let batch = std::thread::spawn(move || {
        let mut client = SvcClient::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut completed = 0u64;
        for i in 0..200u64 {
            loop {
                match client.request(&run_request(1000 + i, Some("batch"), 200)).expect("response")
                {
                    Response::RunResult { .. } => {
                        completed += 1;
                        break;
                    }
                    Response::Overloaded { .. } => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    other => panic!("unexpected batch response: {other:?}"),
                }
            }
        }
        completed
    });
    let interactive = std::thread::spawn(move || {
        let mut client = SvcClient::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut completed = 0u64;
        for i in 0..50u64 {
            match client.request(&run_request(2000 + i, Some("interactive"), 200)).expect("resp") {
                Response::RunResult { .. } => completed += 1,
                other => panic!("interactive starved or errored: {other:?}"),
            }
        }
        completed
    });
    assert_eq!(batch.join().expect("batch client"), 200);
    assert_eq!(interactive.join().expect("interactive client"), 50);
    let svc = handle.service();
    let m = svc.metrics();
    assert_eq!(m.get("queue_depth"), 0.0, "drained server queues at zero");
    for name in ["batch", "interactive"] {
        let row = tenant_row(svc, name);
        assert_eq!((row.get("queued"), row.get("in_flight")), (0, 0), "'{name}' drained clean");
        assert_conserved(&row);
    }
    let interactive_row = tenant_row(svc, "interactive");
    assert_eq!(
        interactive_row.get("executed"),
        50,
        "zero starvation: every interactive run finished"
    );
    handle.shutdown();
}
