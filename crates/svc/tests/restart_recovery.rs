//! Restart-recovery tests for the journaled service: a service
//! restarted against its journal answers previously-seen queries from
//! the warmed cache, serves completed runs via `attach { job }`, shrugs
//! off a torn journal tail, and keeps the file bounded under rotation.
//!
//! In-process tests drive [`Service`] directly (restart = drop +
//! re-start against the same path); the wire test goes through a real
//! TCP server on an ephemeral port.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ensemble_core::ConfigId;
use svc::{
    serve, small_score_request, ErrorKind, FsyncPolicy, JournalConfig, Request, RequestBody,
    Response, RunRequest, Service, SvcClient, SvcConfig, Workloads,
};

fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir()
        .join(format!("svc-restart-recovery-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn config_with_journal(journal: JournalConfig) -> SvcConfig {
    SvcConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 32,
        default_deadline: None,
        journal: Some(journal),
        scan_workers: 0,
        cosched: None,
        tenant_policy: svc::TenantPolicy::default(),
    }
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

#[test]
fn replay_warms_the_score_cache_across_restart() {
    let path = temp_journal("warm-cache");
    {
        let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
        match svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { cached, .. } => assert!(!cached, "fresh query is a miss"),
            other => panic!("expected score result, got {other:?}"),
        }
        svc.shutdown();
    }
    // Restart against the same journal: the very first request of the
    // new process must be served from the replayed cache.
    let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
    let m = svc.metrics();
    assert_eq!(m.get("journal_enabled"), 1.0);
    assert_eq!(m.get("journal_replayed_scores"), 1.0, "replay recovered the scored query");
    assert_eq!(m.get("cache_entries"), 1.0, "cache warmed before any request");
    match svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { cached, placements, .. } => {
            assert!(cached, "first post-restart query of a seen shape must hit");
            assert!(!placements.is_empty());
        }
        other => panic!("expected score result, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!(m.get("cache_hits"), 1.0, "the hit is metrics-visible");
    assert_eq!(m.get("cache_misses"), 0.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn attach_returns_a_completed_run_after_restart() {
    let path = temp_journal("attach");
    let makespan = {
        let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
        let done = svc.submit(run_request(41, 6)).unwrap().wait();
        let Response::RunResult { ensemble_makespan, .. } = done else {
            panic!("expected run result, got {done:?}");
        };
        svc.shutdown();
        ensemble_makespan
    };
    let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
    assert_eq!(svc.metrics().get("journal_replayed_runs"), 1.0);
    assert_eq!(svc.metrics().get("run_index_entries"), 1.0);
    match svc.attach(7, 41) {
        Response::RunResult { id, ensemble_makespan, members, .. } => {
            assert_eq!(id, 7, "attach answers under its own correlation id");
            assert_eq!(ensemble_makespan.to_bits(), makespan.to_bits());
            assert_eq!(members.len(), 2, "C1.5 has two members");
        }
        other => panic!("expected run result, got {other:?}"),
    }
    match svc.attach(8, 999) {
        Response::Error { kind: ErrorKind::NotFound, message, .. } => {
            assert!(message.contains("999"), "{message}");
        }
        other => panic!("expected not_found, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// The wire refuses a seed from 2⁵³ on (no JSON number holds it
/// exactly), but an in-process caller may pass any `u64`; the admit
/// record the service journals for it must replay, not be quarantined.
#[test]
fn an_in_process_run_with_a_seed_past_2_pow_53_replays() {
    let path = temp_journal("wide-seed");
    {
        let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
        let mut run = run_request(5, 2);
        if let RequestBody::Run(ref mut r) = run.body {
            r.seed = u64::MAX;
        }
        assert!(matches!(svc.submit(run).unwrap().wait(), Response::RunResult { .. }));
        svc.shutdown();
    }
    let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
    let m = svc.metrics();
    assert_eq!(m.get("journal_quarantined"), 0.0, "the service's own admit record is not corrupt");
    assert_eq!(m.get("journal_replayed_runs"), 1.0);
    assert!(matches!(svc.attach(6, 5), Response::RunResult { .. }));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("jsonl.quarantine"));
}

#[test]
fn torn_journal_tail_replays_cleanly() {
    let path = temp_journal("torn-tail");
    {
        let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
        assert!(matches!(
            svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait(),
            Response::ScoreResult { .. }
        ));
        assert!(matches!(
            svc.submit(run_request(2, 6)).unwrap().wait(),
            Response::RunResult { .. }
        ));
        svc.shutdown();
    }
    // Simulate a crash mid-append: a truncated final line, no newline.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rec\":\"score\",\"key\":\"torn-off-mid").unwrap();
    }
    let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
    let m = svc.metrics();
    assert_eq!(m.get("journal_replay_dropped"), 1.0, "torn tail dropped, not fatal");
    assert_eq!(m.get("journal_replayed_scores"), 1.0, "intact records still recovered");
    assert_eq!(m.get("journal_replayed_runs"), 1.0);
    match svc.submit(small_score_request(3, 2, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { cached, .. } => assert!(cached, "warm-up survived the tear"),
        other => panic!("expected score result, got {other:?}"),
    }
    assert!(matches!(svc.attach(9, 2), Response::RunResult { .. }));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rotation_keeps_the_journal_under_the_size_cap() {
    let path = temp_journal("rotation");
    let mut journal = JournalConfig::new(&path);
    journal.max_bytes = 4096;
    // Keep the retained set well under the cap (a single-member score
    // record runs ~1.5 KiB, so two fit a 4 KiB cap with room to grow).
    let svc = Service::start(SvcConfig { cache_capacity: 2, ..config_with_journal(journal) });
    // Distinct queries (steps varies the cache key) so every score is a
    // fresh journaled record.
    for steps in 1..=40u64 {
        let mut request = small_score_request(steps, 1, 16, 1, 8, 2);
        let RequestBody::Score(score) = &mut request.body else { unreachable!() };
        score.steps = steps;
        assert!(matches!(svc.submit(request).unwrap().wait(), Response::ScoreResult { .. }));
    }
    let m = svc.metrics();
    assert!(m.get("journal_rotations") >= 1.0, "rotation must have triggered, stats: {m:?}");
    assert!(
        m.get("journal_bytes") <= 4096.0 + 1024.0,
        "journal stays near its cap after compaction, got {} bytes",
        m.get("journal_bytes")
    );
    assert_eq!(m.get("journal_append_errors"), 0.0);
    drop(svc);
    let disk = std::fs::metadata(&path).unwrap().len();
    assert!(disk <= 4096 + 1024, "on-disk size bounded, got {disk} bytes");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn attach_works_over_the_wire_across_server_restart() {
    let path = temp_journal("tcp-attach");
    let mut journal = JournalConfig::new(&path);
    journal.fsync = FsyncPolicy::PerRecord;
    let makespan = {
        let handle = serve("127.0.0.1:0", config_with_journal(journal.clone())).unwrap();
        let mut client = SvcClient::connect(handle.addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let done = client.request(&run_request(77, 6)).unwrap();
        let Response::RunResult { ensemble_makespan, .. } = done else {
            panic!("expected run result, got {done:?}");
        };
        handle.shutdown();
        ensemble_makespan
    };
    // A brand-new server process (new port, same journal) serves the
    // finished run to a brand-new client.
    let handle = serve("127.0.0.1:0", config_with_journal(journal)).unwrap();
    let mut client = SvcClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    match client.attach(5, 77).unwrap() {
        Response::RunResult { id, ensemble_makespan, .. } => {
            assert_eq!(id, 5);
            assert_eq!(ensemble_makespan.to_bits(), makespan.to_bits());
        }
        other => panic!("expected run result, got {other:?}"),
    }
    match client.attach(6, 12345).unwrap() {
        Response::Error { kind: ErrorKind::NotFound, .. } => {}
        other => panic!("expected not_found, got {other:?}"),
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Sustained mixed load with a journal attached and an aggressive
/// rotation cap — catches fsync/rotation races. Run with `-- --ignored`
/// (the nightly soak does).
#[test]
#[ignore = "soak test: sustained journaled load, run explicitly or nightly"]
fn soak_journaled_service_under_sustained_load() {
    let path = temp_journal("soak");
    let mut journal = JournalConfig::new(&path);
    journal.max_bytes = 64 * 1024;
    let handle =
        serve("127.0.0.1:0", SvcConfig { cache_capacity: 16, ..config_with_journal(journal) })
            .unwrap();
    let addr = handle.addr();
    let stop_at = Instant::now() + Duration::from_secs(20);
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = SvcClient::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let mut round = 0u64;
                while Instant::now() < stop_at {
                    let id = 1000 * t + round;
                    let response = if round.is_multiple_of(4) {
                        client.request(&run_request(id, 4))
                    } else {
                        let mut request = small_score_request(id, 2, 16, 1, 8, 3);
                        let RequestBody::Score(score) = &mut request.body else { unreachable!() };
                        score.steps = 1 + (round % 24);
                        client.request(&request)
                    };
                    match response.expect("request survives") {
                        Response::ScoreResult { .. } | Response::RunResult { .. } => {}
                        Response::Overloaded { retry_after_ms, .. } => {
                            std::thread::sleep(Duration::from_millis(retry_after_ms.min(50)));
                        }
                        other => panic!("unexpected response under soak: {other:?}"),
                    }
                    round += 1;
                }
                round
            })
        })
        .collect();
    let rounds: u64 = threads.into_iter().map(|t| t.join().expect("soak thread")).sum();
    assert!(rounds > 0);
    let m = handle.metrics();
    assert_eq!(m.get("journal_append_errors"), 0.0, "no fsync/rotation races under load: {m:?}");
    assert!(m.get("journal_rotations") >= 1.0, "the cap was aggressive enough to rotate: {m:?}");
    handle.shutdown();
    // The journal must still replay cleanly after the pounding.
    let svc = Service::start(config_with_journal(JournalConfig::new(&path)));
    assert_eq!(svc.metrics().get("journal_replay_dropped"), 0.0);
    let _ = std::fs::remove_file(&path);
}
