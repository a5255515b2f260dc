//! The rows of a `metrics` reply, pinned by name and order against
//! `fixtures/metrics_rows.txt`: a primary's global rows, the eleven rows
//! each tagged tenant adds, and a standby's rows. Each service is read
//! in process (`Service::metrics().all_rows()`) and over the wire, and
//! the two must agree row for row; a scripted workload then checks the
//! deterministic counters it leaves behind.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ensemble_core::ConfigId;
use scheduler::{EnsembleShape, NodeBudget};
use svc::{
    serve, small_score_request, CoschedSvcConfig, JournalConfig, Request, RequestBody, Response,
    RunRequest, ServerHandle, Standby, StandbyConfig, StandbySource, SubmitRequest, SvcClient,
    SvcConfig, TenantPolicy, Workloads,
};

/// The fixture's `[global]`, `[tenant]` and `[standby]` sections.
fn fixture() -> [Vec<String>; 3] {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/metrics_rows.txt");
    let text = std::fs::read_to_string(path).expect("metrics_rows.txt");
    let mut sections: [Vec<String>; 3] = Default::default();
    let mut at = None;
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        match line {
            "[global]" => at = Some(0),
            "[tenant]" => at = Some(1),
            "[standby]" => at = Some(2),
            name => sections[at.expect("a row name before any section")].push(name.to_string()),
        }
    }
    sections
}

/// The names a primary with `tenants` tagged (sorted) must answer with.
fn primary_names(tenants: &[&str]) -> Vec<String> {
    let [global, suffixes, _] = fixture();
    let mut names = global;
    for tag in tenants {
        names.extend(suffixes.iter().map(|suffix| format!("tenant_{tag}_{suffix}")));
    }
    names
}

fn names(rows: &[(String, f64)]) -> Vec<String> {
    rows.iter().map(|(name, _)| name.clone()).collect()
}

fn value(rows: &[(String, f64)], name: &str) -> f64 {
    match rows.iter().find(|(row, _)| row == name) {
        Some(&(_, v)) => v,
        None => panic!("no row '{name}'"),
    }
}

fn wire_rows(addr: std::net::SocketAddr) -> Vec<(String, f64)> {
    let request =
        Request { id: 9, deadline: None, progress: None, tenant: None, body: RequestBody::Metrics };
    match SvcClient::connect(addr).expect("connect").request(&request).expect("reply") {
        Response::Metrics { id: 9, rows } => rows,
        other => panic!("expected metrics, got {other:?}"),
    }
}

/// A primary's rows read in process, checked against the fixture's
/// names for `tenants` and against the wire reply.
fn pinned_rows(handle: &ServerHandle, tenants: &[&str]) -> Vec<(String, f64)> {
    let rows = handle.service().metrics().all_rows();
    assert_eq!(names(&rows), primary_names(tenants));
    assert_eq!(wire_rows(handle.addr()), rows, "the wire carries the in-process rows");
    rows
}

fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("svc-rows-{}-{name}.jsonl", std::process::id()));
    cleanup(&path);
    path
}

fn cleanup(path: &Path) {
    for suffix in ["", ".epoch", ".quarantine", ".hb"] {
        let mut name = path.file_name().expect("file name").to_os_string();
        name.push(suffix);
        let _ = std::fs::remove_file(path.with_file_name(name));
    }
}

/// A plain service; then a journaled, co-scheduled service with two
/// tagged tenants — one with a quota, one with a weight — after a
/// submit, a run and the same score twice; then a standby that followed
/// its journal.
#[test]
fn each_kind_of_service_answers_the_pinned_rows() {
    let plain = serve("127.0.0.1:0", SvcConfig { workers: 1, ..SvcConfig::default() }).unwrap();
    pinned_rows(&plain, &[]);
    plain.shutdown();

    let path = temp_journal("primary");
    let mut policy = TenantPolicy::default();
    policy.quotas.insert("team-a".to_string(), 4);
    policy.weights.insert("team-b".to_string(), 2);
    let config = SvcConfig {
        workers: 1,
        journal: Some(JournalConfig::new(&path)),
        cosched: Some(CoschedSvcConfig::new(NodeBudget { max_nodes: 2, cores_per_node: 32 })),
        tenant_policy: policy,
        ..SvcConfig::default()
    };
    let handle = serve("127.0.0.1:0", config).unwrap();
    let svc = handle.service();
    let submit = Request {
        id: 1,
        deadline: None,
        progress: None,
        tenant: Some("team-a".to_string()),
        body: RequestBody::Submit(SubmitRequest {
            shape: EnsembleShape::uniform(1, 16, 1, 8),
            steps: 4,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    };
    assert!(matches!(svc.submit(submit).unwrap().wait(), Response::SubmitResult { .. }));
    let run = Request {
        id: 2,
        deadline: None,
        progress: None,
        tenant: Some("team-b".to_string()),
        body: RequestBody::Run(RunRequest {
            spec: ConfigId::C1_5.build(),
            steps: 2,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    };
    assert!(matches!(svc.submit(run).unwrap().wait(), Response::RunResult { .. }));
    for id in [3, 4] {
        let score = svc.submit(small_score_request(id, 2, 16, 1, 8, 3)).unwrap().wait();
        assert!(matches!(score, Response::ScoreResult { .. }), "{score:?}");
    }

    let rows = pinned_rows(&handle, &["team-a", "team-b"]);
    for (name, expected) in [
        ("requests_submitted", 4.0),
        ("requests_accepted", 4.0),
        ("requests_rejected_overload", 0.0),
        ("requests_completed", 4.0),
        ("requests_cancelled", 0.0),
        ("requests_deadline_expired", 0.0),
        ("requests_errored", 0.0),
        ("requests_executed", 4.0),
        ("cache_hits", 1.0),
        ("cache_misses", 1.0),
        ("cache_entries", 1.0),
        ("cache_hit_rate", 0.5),
        ("candidates_scanned", 11.0),
        ("candidates_pruned", 0.0),
        ("run_index_entries", 1.0),
        ("journal_enabled", 1.0),
        ("journal_appended", 8.0),
        ("journal_degraded", 0.0),
        ("cosched_enabled", 1.0),
        ("cosched_queue_depth", 0.0),
        ("cosched_open_reservations", 0.0),
        ("cosched_committed_cores", 0.0),
        ("cosched_placed", 1.0),
        ("cosched_queued", 0.0),
        ("cosched_released", 1.0),
        ("tenant_team-a_admitted", 1.0),
        ("tenant_team-a_executed", 1.0),
        ("tenant_team-a_shed", 0.0),
        ("tenant_team-a_queued", 0.0),
        ("tenant_team-a_in_flight", 0.0),
        ("tenant_team-a_quota", 4.0),
        ("tenant_team-a_weight", 1.0),
        ("tenant_team-b_admitted", 1.0),
        ("tenant_team-b_executed", 1.0),
        ("tenant_team-b_quota", 0.0),
        ("tenant_team-b_weight", 2.0),
    ] {
        assert_eq!(value(&rows, name), expected, "{name}");
    }

    let appended = svc.journal_stats().expect("journaled").appended;
    let mut standby_config = StandbyConfig::new(StandbySource::File(path.clone()));
    standby_config.serve_addr = Some("127.0.0.1:0".to_string());
    let standby = Standby::start(standby_config).unwrap();
    let start = Instant::now();
    while standby.status().records_applied < appended {
        assert!(start.elapsed() < Duration::from_secs(10), "the standby never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    let rows = wire_rows(standby.addr().expect("standby listener"));
    let [_, _, standby_names] = fixture();
    assert_eq!(names(&rows), standby_names);
    let status = standby.status();
    for (name, expected) in [
        ("standby_records_applied", status.records_applied),
        ("standby_admits", 4),
        ("standby_scores", 1),
        ("standby_runs_indexed", 1),
        ("standby_open_reservations", 0),
        ("standby_corrupt", 0),
        ("standby_epoch", 0),
    ] {
        assert_eq!(value(&rows, name), expected as f64, "{name}");
    }
    drop(standby);
    handle.shutdown();
    cleanup(&path);
}
