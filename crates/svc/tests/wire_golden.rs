//! Byte identity of the wire and of the journal across the move from
//! `Value`-tree encoders to streaming writers.
//!
//! The lines under `fixtures/` were written by the commit *before* the
//! streaming writers (PR 13, `7c6ff73`): `wire_golden.jsonl` is its
//! `to_json()` of every case built below, in order;
//! `journal_golden.jsonl` is the journal its `append_*` calls produced
//! for `write_journal_cases`; `parent_journal.jsonl` is the journal of one of
//! its services after a score, a run and two co-scheduled submits. A
//! peer or a journal of that commit must not be able to tell the two
//! encoders apart.

use std::path::PathBuf;
use std::time::Duration;

use ensemble_core::ConfigId;
use scheduler::{EnsembleShape, NodeBudget};
use svc::journal::decode_line;
use svc::{
    small_score_request, CoschedSvcConfig, ErrorKind, Frame, Journal, JournalConfig, JournalRecord,
    MemberSummary, Progress, ProgressBody, ProgressSpec, RankedPlacement, Request, RequestBody,
    Response, RunRequest, ScoreRequest, Service, SubmitRequest, SvcConfig, Workloads,
};

/// The largest id the wire carries exactly.
const MAX_ID: u64 = (1 << 53) - 1;
/// Quotes, a backslash, every short escape, two `\u00XX` controls, a
/// two-byte, a three-byte and a four-byte character.
const AWKWARD: &str = "q\"b\\n\nr\rt\t\u{1}\u{1f} é ≤ 😀";

fn row(assignment: Vec<usize>, objective: f64, makespan: f64, eq4: bool) -> RankedPlacement {
    let nodes_used = assignment.iter().max().map_or(0, |n| n + 1);
    RankedPlacement {
        assignment,
        objective,
        nodes_used,
        ensemble_makespan: makespan,
        eq4_satisfied: eq4,
    }
}

fn member(sigma_star: f64, efficiency: f64, cp: f64, makespan: f64) -> MemberSummary {
    MemberSummary { sigma_star, efficiency, cp, makespan }
}

/// Every `Response` variant; the flag says whether the line decodes
/// back to the value (a NaN or an infinity goes out as `null`, which no
/// numeric field accepts back).
fn responses() -> Vec<(Response, bool)> {
    vec![
        (
            Response::ScoreResult {
                id: MAX_ID,
                placements: vec![
                    row(vec![0, 0, 1, 1], 0.875, 123.5, true),
                    row(vec![0, 1, 2, 10], 0.1 + 0.2, 1e21, false),
                    row(vec![], -0.0, 5e-324, true),
                ]
                .into(),
                cached: true,
                elapsed_ms: 0.25,
                scan_workers: 2,
                candidates_scanned: 17,
            },
            true,
        ),
        (
            Response::ScoreResult {
                id: 0,
                placements: Vec::new().into(),
                cached: false,
                elapsed_ms: 14.0,
                scan_workers: 1,
                candidates_scanned: 0,
            },
            true,
        ),
        (
            Response::ScoreResult {
                id: 3,
                placements: vec![row(vec![1], f64::NAN, f64::INFINITY, false)].into(),
                cached: false,
                elapsed_ms: f64::NEG_INFINITY,
                scan_workers: 0,
                candidates_scanned: u64::MAX,
            },
            false,
        ),
        (
            Response::RunResult {
                id: 2,
                ensemble_makespan: 760.0,
                members: vec![member(20.5, 0.93, 1.0, 758.5), member(1e-7, -1.5, 1e16, 0.0)],
                elapsed_ms: 14.0,
            },
            true,
        ),
        (
            Response::RunResult {
                id: 4,
                ensemble_makespan: 1.0,
                members: Vec::new(),
                elapsed_ms: 1.0,
            },
            true,
        ),
        (
            Response::SubmitResult {
                id: 12,
                assignment: vec![0, 0, 1, 1],
                objective: 0.91,
                nodes_used: 2,
                backfilled: true,
                queue_wait_ms: 37.5,
                residual: vec![0, 16, 32],
                ensemble_makespan: 120.25,
                members: vec![member(10.0, 0.9, 1.0, 119.0)],
                elapsed_ms: 44.0,
            },
            true,
        ),
        (
            Response::Metrics {
                id: 5,
                rows: vec![
                    ("queue_depth".into(), 2.0),
                    ("cache_hit_rate".into(), 0.5),
                    (AWKWARD.into(), -3.0),
                    ("two_to_the_53_less_one".into(), MAX_ID as f64),
                    ("two_to_the_53".into(), (1u64 << 53) as f64),
                    ("two_to_the_53_plus_two".into(), ((1u64 << 53) + 2) as f64),
                    ("u64_max".into(), u64::MAX as f64),
                    ("negative_zero".into(), -0.0),
                    ("tiny".into(), 5e-324),
                ],
            },
            true,
        ),
        (Response::Metrics { id: 6, rows: vec![("nan".into(), f64::NAN)] }, false),
        (Response::Metrics { id: 7, rows: Vec::new() }, true),
        (Response::Overloaded { id: 8, retry_after_ms: 40 }, true),
        (Response::Error { id: 9, kind: ErrorKind::Deadline, message: AWKWARD.into() }, true),
        (Response::Error { id: 10, kind: ErrorKind::NotFound, message: String::new() }, true),
    ]
}

fn progress_frames() -> Vec<Progress> {
    let frame = |id, body| Progress { id, body };
    vec![
        frame(
            9,
            ProgressBody::Score {
                candidates_scanned: 4096,
                best_objective: Some(0.875),
                workers: 4,
            },
        ),
        frame(
            MAX_ID,
            ProgressBody::Score { candidates_scanned: 0, best_objective: None, workers: 1 },
        ),
        frame(3, ProgressBody::Run { steps: 7, member_steps: vec![9, 7, 8] }),
        frame(3, ProgressBody::Run { steps: 0, member_steps: Vec::new() }),
        frame(4, ProgressBody::Submit { queue_depth: Some(3), assignment: None }),
        frame(4, ProgressBody::Submit { queue_depth: None, assignment: Some(vec![1, 1]) }),
        frame(4, ProgressBody::Submit { queue_depth: None, assignment: None }),
    ]
}

fn score_body(top_k: usize, workers: usize) -> RequestBody {
    RequestBody::Score(ScoreRequest {
        shape: EnsembleShape { members: vec![(16, vec![8]), (8, vec![4, 4]), (1, vec![])] },
        budget: NodeBudget { max_nodes: 3, cores_per_node: 32 },
        top_k,
        steps: 6,
        workloads: Workloads::Small,
        workers,
    })
}

fn requests() -> Vec<Request> {
    let plain = |id, body| Request { id, deadline: None, progress: None, tenant: None, body };
    let progress = |every_candidates, every_ms| Some(ProgressSpec { every_candidates, every_ms });
    vec![
        plain(42, score_body(5, 0)),
        Request {
            id: MAX_ID,
            deadline: Some(Duration::from_millis(750)),
            progress: progress(Some(256), Some(20)),
            tenant: Some("team-a".into()),
            body: score_body(0, 4),
        },
        Request { progress: progress(Some(256), None), ..plain(1, score_body(1, 0)) },
        Request { progress: progress(None, Some(20)), ..plain(2, score_body(1, 0)) },
        Request { progress: progress(None, None), ..plain(3, score_body(1, 0)) },
        plain(
            7,
            RequestBody::Run(RunRequest {
                spec: ConfigId::C1_5.build(),
                steps: 8,
                jitter: 0.01,
                seed: 3,
                workloads: Workloads::Paper,
            }),
        ),
        Request {
            deadline: Some(Duration::from_millis(5000)),
            tenant: Some("A-Z_0.9".into()),
            ..plain(
                11,
                RequestBody::Submit(SubmitRequest {
                    shape: EnsembleShape::uniform(2, 16, 1, 8),
                    steps: 4,
                    jitter: 0.0,
                    seed: MAX_ID,
                    workloads: Workloads::Small,
                }),
            )
        },
        plain(3, RequestBody::Attach { job: 77 }),
        plain(0, RequestBody::Metrics),
        Request { tenant: Some("ops".into()), ..plain(5, RequestBody::Replicate) },
    ]
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn fixture_lines(name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(fixture(name)).expect("fixture present");
    text.lines().map(str::to_string).collect()
}

fn temp_journal(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("svc-wire-golden-{}-{name}.jsonl", std::process::id()));
    remove_journal(&path);
    path
}

fn remove_journal(path: &std::path::Path) {
    for suffix in ["", ".epoch", ".quarantine"] {
        let mut sibling = path.as_os_str().to_os_string();
        sibling.push(suffix);
        let _ = std::fs::remove_file(sibling);
    }
}

#[test]
fn every_wire_variant_encodes_to_the_bytes_the_tree_encoder_wrote() {
    let golden = fixture_lines("wire_golden.jsonl");
    let mut lines = golden.iter();
    let mut next = |what: &str| lines.next().unwrap_or_else(|| panic!("no golden line for {what}"));
    for (response, roundtrips) in responses() {
        let line = response.to_json();
        assert_eq!(&line, next("a response"), "{response:?}");
        assert_eq!(Frame::Final(response.clone()).to_json(), line, "the frame adds nothing");
        if roundtrips {
            assert_eq!(Response::from_json(&line).as_ref(), Ok(&response), "{line}");
        }
    }
    for progress in progress_frames() {
        let line = progress.to_json();
        assert_eq!(&line, next("a progress frame"), "{progress:?}");
        assert_eq!(Frame::from_json(&line), Ok(Frame::Progress(progress)), "{line}");
    }
    for request in requests() {
        let line = request.to_json();
        assert_eq!(&line, next("a request"), "{request:?}");
        assert_eq!(Request::from_json(&line).as_ref(), Ok(&request), "{line}");
    }
    assert_eq!(lines.next(), None, "a golden line without a case");
    // What stays off the wire when unset.
    let legacy = requests()[0].to_json();
    for absent in ["tenant", "progress", "workers", "deadline_ms"] {
        assert!(!legacy.contains(absent), "{absent} in {legacy}");
    }
}

/// One record of every kind the journal writes, through its public
/// appends: epoch (the promoting open), admit (tagged and untagged),
/// score, run, reserve (tagged and untagged) and release.
fn write_journal_cases(path: &std::path::Path) {
    let mut config = JournalConfig::new(path);
    config.promote = true;
    let (journal, _) = Journal::open(config).expect("open journal");
    for request in requests() {
        journal.append_admit(&request);
    }
    for (i, (response, _)) in responses().into_iter().enumerate() {
        match &response {
            Response::ScoreResult { placements, .. } => {
                journal.append_score(&format!("score:v2|{AWKWARD}|{i}"), placements)
            }
            Response::RunResult { id, .. } => journal.append_run(*id, &response),
            _ => {}
        }
    }
    for tenant in [None, Some("batch".to_string())] {
        journal.append_reserve(&svc::ReplayedReservation {
            job: MAX_ID,
            members: vec![(16, vec![8]), (8, vec![4, 4])],
            assignment: vec![0, 0, 1, 1, 1],
            predicted_end: 12.5,
            seq: 4,
            tenant,
        });
    }
    journal.append_release(MAX_ID);
}

#[test]
fn every_journal_record_kind_encodes_to_the_bytes_the_tree_encoder_wrote() {
    let path = temp_journal("records");
    write_journal_cases(&path);
    let written = std::fs::read_to_string(&path).expect("journal written");
    let golden = std::fs::read_to_string(fixture("journal_golden.jsonl")).expect("fixture");
    for (got, want) in written.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(written.len(), golden.len(), "same records, same seals, same newlines");
    remove_journal(&path);
}

fn journaled_service(path: &std::path::Path) -> Service {
    Service::start(SvcConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 32,
        default_deadline: None,
        journal: Some(JournalConfig::new(path)),
        scan_workers: 0,
        cosched: Some(CoschedSvcConfig::new(NodeBudget { max_nodes: 2, cores_per_node: 32 })),
        tenant_policy: svc::TenantPolicy::default(),
    })
}

/// The rows of a `score_result` line or of a journaled score record:
/// `"placements":[...]`, the last field of both, so nothing after its
/// closing bracket holds another one.
fn rows_of(line: &str) -> &str {
    let from = line.find("\"placements\":").expect("a placements field");
    &line[from..=line.rfind(']').expect("a closing bracket")]
}

#[test]
fn a_journal_of_the_tree_encoder_replays_and_serves_its_own_bytes() {
    let path = temp_journal("parent-journal");
    std::fs::copy(fixture("parent_journal.jsonl"), &path).expect("copy fixture");
    let fixture_lines = fixture_lines("parent_journal.jsonl");
    let mut kinds: Vec<&str> = Vec::new();
    let (mut score_line, mut run) = (None, None);
    for line in &fixture_lines {
        match decode_line(line.as_bytes()).expect("every fixture line is sealed and intact") {
            JournalRecord::Admit { .. } => kinds.push("admit"),
            JournalRecord::Score { .. } => {
                kinds.push("score");
                score_line = Some(line);
            }
            JournalRecord::Run { job, response } => {
                kinds.push("run");
                run = Some((job, response));
            }
            JournalRecord::Reserve(_) => kinds.push("reserve"),
            JournalRecord::Release { .. } => kinds.push("release"),
            JournalRecord::Epoch { .. } => kinds.push("epoch"),
        }
    }
    for kind in ["admit", "score", "run", "reserve", "release", "epoch"] {
        assert!(kinds.contains(&kind), "the fixture holds no {kind} record");
    }

    let svc = journaled_service(&path);
    let m = svc.metrics();
    assert_eq!(m.get("journal_replayed_scores"), 1.0);
    assert_eq!(m.get("journal_replay_dropped"), 0.0);
    assert_eq!(m.get("cache_entries"), 1.0, "cache warmed before any request");
    // The fixture's service scored `small_score_request(.., 2, 16, 1, 8, 3)`:
    // a hit proves the cache key is still rendered byte for byte.
    let hit = svc.submit(small_score_request(9, 2, 16, 1, 8, 3)).unwrap().wait();
    assert!(matches!(hit, Response::ScoreResult { cached: true, .. }), "{hit:?}");
    assert_eq!(rows_of(&hit.to_json()), rows_of(score_line.expect("score record")));
    let (job, stored) = run.expect("run record");
    let Response::RunResult { ensemble_makespan, members, elapsed_ms, .. } = stored else {
        panic!("run records hold run results");
    };
    let attached = svc.attach(5, job);
    let want = Response::RunResult { id: 5, ensemble_makespan, members, elapsed_ms };
    assert_eq!(attached.to_json(), want.to_json(), "attach returns the journaled bits");
    svc.shutdown();
    remove_journal(&path);
}

#[test]
fn a_hit_after_a_restart_returns_the_bytes_of_the_cold_reply() {
    let path = temp_journal("replayed-bytes");
    let cold = {
        let svc = journaled_service(&path);
        let reply = svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait();
        assert!(matches!(reply, Response::ScoreResult { cached: false, .. }), "{reply:?}");
        svc.shutdown();
        reply.to_json()
    };
    let svc = journaled_service(&path);
    // Dropping the replayed entry and scoring again is the third way to
    // the same bytes: cold scan, journal replay, cold scan.
    for expect_cached in [true, false] {
        let reply = svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap().wait();
        match &reply {
            Response::ScoreResult { cached, .. } => assert_eq!(*cached, expect_cached),
            other => panic!("expected score result, got {other:?}"),
        }
        assert_eq!(rows_of(&reply.to_json()), rows_of(&cold));
        svc.clear_cache();
    }
    svc.shutdown();
    remove_journal(&path);
}
