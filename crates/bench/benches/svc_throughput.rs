//! Provisioning-service throughput: cold scoring, cache-warm answers,
//! and what a reply costs to encode and to ship.
//!
//! Plain `main` + `std::time::Instant`, like `scan_throughput`: the
//! output must be machine-readable. Results land in `BENCH_svc.json`
//! at the workspace root (override with
//! `ENSEMBLE_BENCH_OUT`); `ENSEMBLE_SVC_BENCH_QUICK=1` shrinks the
//! repetitions for CI smoke runs. The committed `BENCH_svc.json` also
//! carries `parent_commit` / `parent_rows`: this file's bench run at the
//! parent commit in the same session, merged in by hand.
//!
//! Rows (median microseconds per operation):
//! 1. `score_cold` — cache cleared before every request (full
//!    enumerate + `DeltaEvaluator` scan), in process;
//! 2. `score_warm` — the same request against a warm cache, in process;
//! 3. `tcp_roundtrip_warm` — the warm path through `SvcClient`, reply
//!    decoded, i.e. what a remote client of the library observes;
//! 4. `encode_score_result/{10,4038}` — `Response::to_json` of a cache
//!    hit on the class-M ranking (4 038 canonical placements): what the
//!    connection thread pays per reply, top 10 and full;
//! 5. `tcp_attach` — an `attach` of a finished run over a raw socket,
//!    request line out to reply line in: an answer the connection thread
//!    gives itself, the floor of a score hit answered at the door;
//! 6. `tcp_score_hit` — the small query's hit over a raw socket, request
//!    line out to reply line in, nothing decoded: `tcp_roundtrip_warm`
//!    without the client's decode, beside its floor `tcp_attach`;
//! 7. `tcp_score_hit_full` — the full 4 038-row hit over a raw socket,
//!    request line out to reply line in, nothing decoded.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use svc::{serve, small_score_request, RequestBody, Response, Service, SvcClient, SvcConfig};

fn config() -> SvcConfig {
    SvcConfig {
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 64,
        default_deadline: None,
        journal: None,
        scan_workers: 0,
        cosched: None,
        tenant_policy: svc::TenantPolicy::default(),
    }
}

/// The small query: 3 members × (16+8) cores on up to 4×32-core
/// nodes — dozens of canonical placements per evaluation.
fn query(id: u64) -> svc::Request {
    small_score_request(id, 3, 16, 1, 8, 4)
}

/// The class-M query of the e2e benchmark: 4 members × (8+4) cores on
/// up to 6 nodes, 4 038 canonical placements.
fn class_m(id: u64, top_k: usize) -> svc::Request {
    let mut request = small_score_request(id, 4, 8, 1, 4, 6);
    if let RequestBody::Score(ref mut score) = request.body {
        score.top_k = top_k;
    }
    request
}

fn request(id: u64, body: RequestBody) -> svc::Request {
    svc::Request { id, deadline: None, progress: None, tenant: None, body }
}

/// A short run of C1.5 on the small workloads, for `attach` to find.
fn run_request(id: u64) -> svc::Request {
    request(
        id,
        RequestBody::Run(svc::RunRequest {
            spec: ensemble_core::ConfigId::C1_5.build(),
            steps: 4,
            jitter: 0.0,
            seed: 1,
            workloads: svc::Workloads::Small,
        }),
    )
}

fn expect_score(response: Response, want_cached: bool, want_rows: Option<usize>) -> Response {
    match &response {
        Response::ScoreResult { cached, placements, .. } => {
            assert_eq!(*cached, want_cached, "cache state must match the scenario");
            assert!(!placements.is_empty());
            if let Some(rows) = want_rows {
                assert_eq!(placements.len(), rows);
            }
        }
        other => panic!("expected score result, got {other:?}"),
    }
    response
}

struct Row {
    name: String,
    reps: usize,
    median_us: f64,
}

fn measure(name: &str, reps: usize, mut op: impl FnMut()) -> Row {
    op(); // warm-up, untimed
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        op();
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    times.sort_by(f64::total_cmp);
    let row = Row { name: name.to_string(), reps, median_us: times[times.len() / 2] };
    eprintln!("  {:<28} {:>10.2} us  ({} reps)", row.name, row.median_us, row.reps);
    row
}

fn main() {
    let quick = std::env::var("ENSEMBLE_SVC_BENCH_QUICK").is_ok_and(|v| v == "1");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("svc_throughput: host_cores={host_cores} quick={quick}");
    let reps = |full: usize| if quick { (full / 20).max(5) } else { full };
    let mut rows = Vec::new();

    let service = Service::start(config());
    rows.push(measure("score_cold", reps(200), || {
        // Clearing the cache forces the full enumerate+score path.
        service.clear_cache();
        let response = service.submit(black_box(query(1))).expect("admitted").wait();
        black_box(expect_score(response, false, None));
    }));
    rows.push(measure("score_warm", reps(2000), || {
        let response = service.submit(black_box(query(3))).expect("admitted").wait();
        black_box(expect_score(response, true, None));
    }));
    let m = service.metrics();
    eprintln!(
        "  svc cache after in-process phases: {} hits / {} misses (hit rate {:.3})",
        m.get("cache_hits"),
        m.get("cache_misses"),
        m.get("cache_hit_rate")
    );

    // One cold class-M score primes the ranking; every reply below is a
    // hit on it, as on the e2e benchmark's `score_hit_full`.
    let primed = service.submit(class_m(10, 0)).expect("admitted").wait();
    let total = match &expect_score(primed, false, None) {
        Response::ScoreResult { placements, .. } => placements.len(),
        _ => unreachable!("checked above"),
    };
    assert_eq!(total, 4038, "class M is the e2e benchmark's 4 038-row ranking");
    for top_k in [10, total] {
        let hit = service.submit(class_m(11, top_k)).expect("admitted").wait();
        let hit = expect_score(hit, true, Some(top_k));
        rows.push(measure(&format!("encode_score_result/{top_k}"), reps(400), || {
            black_box(black_box(&hit).to_json().len());
        }));
    }
    service.shutdown();

    let handle = serve("127.0.0.1:0", config()).expect("bind");
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    let _ = client.request(&query(4)).expect("prime");
    rows.push(measure("tcp_roundtrip_warm", reps(2000), || {
        let response = client.request(black_box(&query(5))).expect("response");
        black_box(expect_score(response, true, None));
    }));
    let _ = client.request(&class_m(6, 0)).expect("prime class M");
    let run = client.request(&run_request(8)).expect("a run to attach to");
    assert!(matches!(run, Response::RunResult { .. }), "{run:?}");
    drop(client);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone().expect("clone"));
    let mut reply = Vec::new();
    let attach = request(9, RequestBody::Attach { job: 8 }).to_json() + "\n";
    rows.push(measure("tcp_attach", reps(2000), || {
        stream.write_all(attach.as_bytes()).expect("send");
        reply.clear();
        reader.read_until(b'\n', &mut reply).expect("reply");
        assert!(reply.starts_with(b"{\"type\":\"run_result\""));
    }));
    let hit = query(12).to_json() + "\n";
    rows.push(measure("tcp_score_hit", reps(2000), || {
        stream.write_all(hit.as_bytes()).expect("send");
        reply.clear();
        reader.read_until(b'\n', &mut reply).expect("reply");
        assert!(reply.starts_with(b"{\"type\":\"score_result\""));
    }));
    let request = class_m(7, 0).to_json() + "\n";
    rows.push(measure("tcp_score_hit_full", reps(400), || {
        stream.write_all(request.as_bytes()).expect("send");
        reply.clear();
        reader.read_until(b'\n', &mut reply).expect("reply");
        assert!(reply.len() > 500_000 && reply.starts_with(b"{\"type\":\"score_result\""));
    }));
    drop((stream, reader));
    handle.shutdown();

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"reps\": {}, \"median_us\": {:.3}}}",
                r.name, r.reps, r.median_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"svc_throughput\",\n  \"host_cores\": {host_cores},\n  \"quick\": {quick},\n  \"commit\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        bench::git_commit(),
        rendered.join(",\n"),
    );
    let out = std::env::var("ENSEMBLE_BENCH_OUT").unwrap_or_else(|_| {
        // cargo bench runs with the package as cwd; anchor the default
        // at the workspace root instead.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_svc.json").into()
    });
    std::fs::write(&out, &json).expect("write bench output");
    eprintln!("wrote {out}");
}
