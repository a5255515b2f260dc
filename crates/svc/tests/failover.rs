//! Warm-standby failover tests: crash the primary at deterministic
//! journal offsets (via a [`FaultPlan`]), follow it from a standby
//! (shared file and TCP replication), promote, and assert the promoted
//! service answers with the dead primary's warm state — cache hits
//! visible in metrics, attach results bit-identical — while the
//! deposed primary's late appends are fenced off by the epoch.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dtl::FaultPlan;
use ensemble_core::ConfigId;
use svc::{
    serve, small_score_request, ErrorKind, FailoverClient, FailoverPolicy, FsyncPolicy,
    JournalConfig, Request, RequestBody, Response, RunRequest, Service, Standby, StandbyConfig,
    StandbySource, SvcClient, SvcConfig, Workloads,
};

fn temp_path(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("svc-failover-{}-{name}.jsonl", std::process::id()));
    cleanup(&path);
    path
}

/// Remove the journal and every sidecar a test may have produced.
fn cleanup(path: &Path) {
    for suffix in ["", ".epoch", ".quarantine", ".hb"] {
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(suffix);
        let _ = std::fs::remove_file(path.with_file_name(name));
    }
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

fn per_record_journal(path: &PathBuf, fault: Option<FaultPlan>) -> JournalConfig {
    let mut journal = JournalConfig::new(path);
    journal.fsync = FsyncPolicy::PerRecord;
    journal.fault = fault;
    journal
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

fn makespan_bits(response: &Response) -> u64 {
    match response {
        Response::RunResult { ensemble_makespan, .. } => ensemble_makespan.to_bits(),
        other => panic!("expected a run result, got {other:?}"),
    }
}

/// Polls `done` until it returns true or `deadline` elapses.
fn wait_for(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The core harness: the primary's journal crashes (torn tail
/// included) at a deterministic append, a file-follow standby picks up
/// everything durable, and promotion yields a service whose cache and
/// run index answer exactly as the dead primary would have.
#[test]
fn crash_point_promotion_preserves_warm_cache_and_runs() {
    let path = temp_path("crash-promote");
    // Appends: score → admit(1) + score(2); run → admit(3) + run(4);
    // the journal crashes at append 4 leaving a torn fragment, so the
    // run record is the last durable line.
    let fault = FaultPlan { crash_after_append: Some(4), torn_tail: true, ..FaultPlan::default() };
    let primary = Service::start(config_with_journal(per_record_journal(&path, Some(fault))));
    match primary.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { cached, .. } => assert!(!cached),
        other => panic!("expected score result, got {other:?}"),
    }
    let original = primary.submit(run_request(2, 2)).unwrap().wait();
    let original_bits = makespan_bits(&original);
    let stats = primary.journal_stats().expect("journalled");
    assert!(stats.degraded, "crash_after=4 must have degraded the journal");
    assert_eq!(stats.appended, 4);
    primary.shutdown();

    let standby = Standby::start(StandbyConfig::new(StandbySource::File(path.clone()))).unwrap();
    wait_for("standby catch-up", Duration::from_secs(10), || standby.status().records_applied >= 4);
    let status = standby.status();
    assert_eq!(status.admits, 2);
    assert_eq!(status.scores, 1);
    assert_eq!(status.runs_indexed, 1);
    // Read-only attach from the standby image matches the primary's
    // answer bit for bit.
    assert_eq!(makespan_bits(&standby.attach(70, 2)), original_bits);

    let promoted = standby
        .promote(SvcConfig { journal: None, ..config_with_journal(JournalConfig::new(&path)) })
        .unwrap();
    let m = promoted.metrics();
    assert_eq!(m.get("journal_replayed_scores"), 1.0, "score cache warmed");
    assert_eq!(m.get("journal_replayed_runs"), 1.0, "run index rebuilt");
    assert_eq!(m.get("journal_replay_dropped"), 1.0, "the torn tail was sealed");
    assert_eq!(m.get("journal_epoch"), 1.0, "promotion bumped the fencing epoch");
    match promoted.submit(small_score_request(10, 2, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { cached, .. } => {
            assert!(cached, "the first post-promotion score of a seen shape must hit");
        }
        other => panic!("expected score result, got {other:?}"),
    }
    assert!(promoted.metrics().get("cache_hits") >= 1.0, "the warm hit is metrics-visible");
    assert_eq!(makespan_bits(&promoted.attach(11, 2)), original_bits, "attach is bit-identical");
    promoted.shutdown();
    cleanup(&path);
}

/// Split brain: after a standby promotes over the shared journal, the
/// deposed primary's next append is rejected by the fencing epoch and
/// its journal degrades loudly instead of forking history.
#[test]
fn split_brain_deposed_primary_appends_are_fenced() {
    let path = temp_path("split-brain");
    let deposed = Service::start(config_with_journal(per_record_journal(&path, None)));
    match deposed.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { .. } => {}
        other => panic!("expected score result, got {other:?}"),
    }

    let standby = Standby::start(StandbyConfig::new(StandbySource::File(path.clone()))).unwrap();
    wait_for("standby catch-up", Duration::from_secs(10), || standby.status().records_applied >= 2);
    let promoted = standby
        .promote(SvcConfig { journal: None, ..config_with_journal(JournalConfig::new(&path)) })
        .unwrap();
    assert_eq!(promoted.metrics().get("journal_epoch"), 1.0);

    // The deposed primary is still running and still answers requests —
    // but its journal appends are fenced, so nothing it does after the
    // takeover reaches the shared history.
    match deposed.submit(small_score_request(2, 3, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { .. } => {}
        other => panic!("expected score result, got {other:?}"),
    }
    let stats = deposed.journal_stats().expect("journalled");
    assert!(stats.fenced_appends >= 1, "late appends must be fenced, got {stats:?}");
    assert!(stats.degraded, "a fenced journal degrades to read-only");
    let m = deposed.metrics();
    assert!(m.get("journal_fenced_appends") >= 1.0, "fencing is metrics-visible");
    assert_eq!(m.get("journal_degraded"), 1.0);

    // The promoted side keeps appending normally at the higher epoch.
    match promoted.submit(small_score_request(3, 4, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { .. } => {}
        other => panic!("expected score result, got {other:?}"),
    }
    let promoted_stats = promoted.journal_stats().expect("journalled");
    assert!(!promoted_stats.degraded);
    assert!(promoted_stats.appended >= 2);
    deposed.shutdown();
    promoted.shutdown();
    cleanup(&path);
}

/// Network replication end to end: the standby streams records over a
/// `replicate` connection, survives an injected mid-stream drop by
/// reconnecting, refuses writes while read-only, and a failover client
/// rotates past it to the primary.
#[test]
fn network_standby_follows_through_a_dropped_stream_and_promotes() {
    let primary_path = temp_path("net-primary");
    let local_path = temp_path("net-local");
    // The first replication session drops after 2 record frames; the
    // standby must reconnect and restream to catch up.
    let fault = FaultPlan { drop_stream_after: Some(2), ..FaultPlan::default() };
    let handle =
        serve("127.0.0.1:0", config_with_journal(per_record_journal(&primary_path, Some(fault))))
            .unwrap();
    let addr = handle.addr().to_string();
    let mut client = SvcClient::connect(&addr).unwrap();
    match client.request(&small_score_request(1, 2, 16, 1, 8, 3)).unwrap() {
        Response::ScoreResult { .. } => {}
        other => panic!("expected score result, got {other:?}"),
    }
    let original_bits = makespan_bits(&client.request(&run_request(2, 2)).unwrap());

    let mut standby_config = StandbyConfig::new(StandbySource::Primary {
        addr: addr.clone(),
        local: local_path.clone(),
    });
    standby_config.serve_addr = Some("127.0.0.1:0".to_string());
    let standby = Standby::start(standby_config).unwrap();
    wait_for("standby catch-up through the drop", Duration::from_secs(10), || {
        let s = standby.status();
        s.records_applied >= 4 && s.runs_indexed >= 1
    });
    let status = standby.status();
    assert!(status.resets >= 1, "the injected drop forced at least one restream: {status:?}");
    assert!(status.beats >= 1, "heartbeats observed");

    // The standby's own front end serves metrics and attach read-only
    // and refuses work with the dedicated error kind.
    let standby_addr = standby.addr().expect("standby listener").to_string();
    let mut ro = SvcClient::connect(&standby_addr).unwrap();
    match ro
        .request(&Request {
            id: 5,
            deadline: None,
            progress: None,
            tenant: None,
            body: RequestBody::Metrics,
        })
        .unwrap()
    {
        Response::Metrics { rows, .. } => {
            let applied =
                rows.iter().find(|(k, _)| k == "standby_records_applied").map(|(_, v)| *v).unwrap();
            assert!(applied >= 4.0, "standby metrics expose the applied count, got {applied}");
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    match ro.request(&small_score_request(6, 2, 16, 1, 8, 3)).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Standby),
        other => panic!("a standby must refuse writes, got {other:?}"),
    }
    assert_eq!(makespan_bits(&ro.attach(7, 2).unwrap()), original_bits, "read-only attach matches");

    // A failover client pointed at [standby, primary] rotates past the
    // read-only refusal and lands on the primary.
    let mut failover = FailoverClient::new(
        vec![standby_addr, addr.clone()],
        FailoverPolicy { initial_backoff: Duration::from_millis(5), ..FailoverPolicy::default() },
    );
    match failover.request(&small_score_request(8, 2, 16, 1, 8, 3)).unwrap() {
        Response::ScoreResult { cached, .. } => assert!(cached, "primary answers from cache"),
        other => panic!("expected the primary's score result, got {other:?}"),
    }
    assert_eq!(failover.current_addr(), addr, "the failover client settled on the primary");

    // Kill the primary; heartbeats stop; the standby flags it dead and
    // promotes from its local journal copy.
    handle.shutdown();
    wait_for("primary declared dead", Duration::from_secs(10), || standby.primary_dead());
    let promoted = standby
        .promote(SvcConfig {
            journal: None,
            ..config_with_journal(JournalConfig::new(&local_path))
        })
        .unwrap();
    let m = promoted.metrics();
    assert_eq!(m.get("journal_replayed_runs"), 1.0);
    assert_eq!(m.get("journal_epoch"), 1.0);
    assert_eq!(makespan_bits(&promoted.attach(9, 2)), original_bits);
    promoted.shutdown();
    cleanup(&primary_path);
    cleanup(&local_path);
}

/// A fault-plan crash degrades the primary's journal mid-flight; the
/// very next replication heartbeat carries `degraded:1`, so the
/// standby declares the primary dead within roughly one heartbeat
/// interval instead of waiting out a multi-beat timeout.
#[test]
fn degraded_primary_is_detected_within_a_heartbeat() {
    let primary_path = temp_path("degraded-primary");
    let local_path = temp_path("degraded-local");
    let fault = FaultPlan { crash_after_append: Some(4), torn_tail: true, ..FaultPlan::default() };
    let handle =
        serve("127.0.0.1:0", config_with_journal(per_record_journal(&primary_path, Some(fault))))
            .unwrap();
    let addr = handle.addr().to_string();
    let mut client = SvcClient::connect(&addr).unwrap();
    match client.request(&small_score_request(1, 2, 16, 1, 8, 3)).unwrap() {
        Response::ScoreResult { .. } => {}
        other => panic!("expected score result, got {other:?}"),
    }
    let original_bits = makespan_bits(&client.request(&run_request(2, 2)).unwrap());
    assert!(handle.service().journal_stats().unwrap().degraded, "crash point reached");

    let standby = Standby::start(StandbyConfig::new(StandbySource::Primary {
        addr,
        local: local_path.clone(),
    }))
    .unwrap();
    let started = Instant::now();
    wait_for("degraded primary declared dead", Duration::from_secs(5), || standby.primary_dead());
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "death by degraded heartbeat must not wait out the full timeout, took {:?}",
        started.elapsed()
    );
    wait_for("records before promotion", Duration::from_secs(5), || {
        standby.status().records_applied >= 4
    });
    let promoted = standby
        .promote(SvcConfig {
            journal: None,
            ..config_with_journal(JournalConfig::new(&local_path))
        })
        .unwrap();
    assert_eq!(makespan_bits(&promoted.attach(3, 2)), original_bits);
    match promoted.submit(small_score_request(4, 2, 16, 1, 8, 3)).unwrap().wait() {
        Response::ScoreResult { cached, .. } => assert!(cached, "warm cache survived failover"),
        other => panic!("expected score result, got {other:?}"),
    }
    promoted.shutdown();
    handle.shutdown();
    cleanup(&primary_path);
    cleanup(&local_path);
}

/// The standby's read-only listener reads request lines the way the
/// primary's does: a line that outgrows the 1 MiB cap without ending is
/// answered `malformed` rather than buffered without bound, and a bad
/// tenant tag is `invalid` on both sides.
#[test]
fn both_listeners_cap_request_lines_and_classify_bad_tags_alike() {
    const MAX_LINE_BYTES: usize = 1 << 20;
    let path = temp_path("line-cap");
    let primary = serve("127.0.0.1:0", config_with_journal(JournalConfig::new(&path))).unwrap();
    let mut standby_config = StandbyConfig::new(StandbySource::File(path.clone()));
    standby_config.serve_addr = Some("127.0.0.1:0".to_string());
    let standby = Standby::start(standby_config).unwrap();
    let mut bad_tag = run_request(1, 1);
    bad_tag.tenant = Some("placeholder".to_string());
    let bad_tag = bad_tag.to_json().replace("placeholder", "no;semis");
    for addr in [primary.addr(), standby.addr().expect("standby listener")] {
        // One byte past the cap and no newline. The listener reads all
        // of it before refusing, so its close cannot reset the reply.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("a reply within the timeout");
        match Response::from_json(reply.trim_end()).unwrap() {
            Response::Error { kind: ErrorKind::Malformed, message, .. } => {
                assert!(message.contains("exceeds"), "{addr}: {message}");
            }
            other => panic!("{addr}: expected malformed, got {other:?}"),
        }
        match SvcClient::connect(addr).unwrap().request_raw(&bad_tag).unwrap() {
            Response::Error { kind: ErrorKind::Invalid, message, .. } => {
                assert!(message.starts_with("invalid tenant"), "{addr}: {message}");
            }
            other => panic!("{addr}: expected invalid, got {other:?}"),
        }
    }
    drop(standby);
    primary.shutdown();
    cleanup(&path);
}

/// Nightly soak: generations of crash → follow → promote. Every run
/// whose record provably reached the journal before the crash must
/// remain attachable, bit-identical, after every later failover.
#[test]
#[ignore = "multi-generation failover soak; run with --ignored in the nightly job"]
fn soak_generations_of_crash_and_promotion_conserve_the_run_index() {
    let path = temp_path("soak");
    const GENERATIONS: u64 = 6;
    const RUNS_PER_GEN: u64 = 4;
    // Every generation's journal crashes around its last run's appends
    // (promoted generations spend one extra append on the epoch
    // record), so each cycle loses its tail and keeps the rest.
    let fault = FaultPlan {
        crash_after_append: Some(2 * RUNS_PER_GEN),
        torn_tail: true,
        ..FaultPlan::default()
    };
    let mut expected: Vec<(u64, u64)> = Vec::new(); // (job, makespan bits)
    let mut service =
        Service::start(config_with_journal(per_record_journal(&path, Some(fault.clone()))));
    for generation in 0..GENERATIONS {
        for i in 0..RUNS_PER_GEN {
            let job = generation * 100 + i + 1;
            let before = service.journal_stats().unwrap().appended;
            let response = service.submit(run_request(job, 1)).unwrap().wait();
            let stats = service.journal_stats().unwrap();
            // Admit + run both durable ⇒ the run must survive failover.
            if stats.appended >= before + 2 {
                expected.push((job, makespan_bits(&response)));
            }
        }
        service.shutdown();

        let standby =
            Standby::start(StandbyConfig::new(StandbySource::File(path.clone()))).unwrap();
        let want = expected.len() as u64;
        wait_for("soak standby catch-up", Duration::from_secs(20), || {
            standby.status().runs_indexed >= want
        });
        let promoted = standby
            .promote(config_with_journal(per_record_journal(&path, Some(fault.clone()))))
            .unwrap();
        for &(job, bits) in &expected {
            assert_eq!(
                makespan_bits(&promoted.attach(job, job)),
                bits,
                "generation {generation}: job {job} lost or changed across failover"
            );
        }
        service = promoted;
    }
    service.shutdown();
    assert!(
        expected.len() as u64 >= GENERATIONS * (RUNS_PER_GEN - 1),
        "most runs must have survived: {} of {}",
        expected.len(),
        GENERATIONS * RUNS_PER_GEN
    );
    cleanup(&path);
}
