//! Provisioning-service throughput: cold scoring vs cache-warm answers.
//!
//! The acceptance story for the score cache: an identical repeated query
//! must be answered **without touching the predictor** — so the warm
//! path should be orders of magnitude faster than the cold path, which
//! enumerates and closed-form-scores every canonical placement.
//!
//! Three measurements:
//! 1. `score_cold` — cache cleared before every request (full
//!    enumerate + `DeltaEvaluator` scan);
//! 2. `score_warm` — same request repeated against a warm cache;
//! 3. `tcp_roundtrip_warm` — the warm path including the JSON-lines
//!    socket hop, i.e. what a remote client actually observes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use svc::{serve, small_score_request, Response, Service, SvcClient, SvcConfig};

fn config() -> SvcConfig {
    SvcConfig {
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 64,
        default_deadline: None,
        journal: None,
        panic_on_request_id: None,
        scan_workers: 0,
        cosched: None,
        tenant_policy: svc::TenantPolicy::default(),
    }
}

/// The benched query: 3 members × (16+8) cores on up to 4×32-core
/// nodes — dozens of canonical placements per evaluation.
fn query(id: u64) -> svc::Request {
    small_score_request(id, 3, 16, 1, 8, 4)
}

fn expect_score(response: Response, want_cached: bool) -> Response {
    match &response {
        Response::ScoreResult { cached, placements, .. } => {
            assert_eq!(*cached, want_cached, "cache state must match the scenario");
            assert!(!placements.is_empty());
        }
        other => panic!("expected score result, got {other:?}"),
    }
    response
}

fn bench_svc_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("svc_throughput");

    let service = Service::start(config());
    group.bench_function("score_cold", |b| {
        b.iter(|| {
            // Clearing the cache forces the full enumerate+score path.
            service.clear_cache();
            let response = service.submit(black_box(query(1))).expect("admitted").wait();
            black_box(expect_score(response, false))
        })
    });

    // Prime once, then measure pure hits.
    service.clear_cache();
    let _ = service.submit(query(2)).expect("admitted").wait();
    group.bench_function("score_warm", |b| {
        b.iter(|| {
            let response = service.submit(black_box(query(3))).expect("admitted").wait();
            black_box(expect_score(response, true))
        })
    });
    let m = service.metrics();
    println!(
        "\nsvc cache after in-process phases: {} hits / {} misses (hit rate {:.3})",
        m.cache_hits,
        m.cache_misses,
        m.cache_hit_rate()
    );
    service.shutdown();

    let handle = serve("127.0.0.1:0", config()).expect("bind");
    let mut client = SvcClient::connect(handle.addr()).expect("connect");
    let _ = client.request(&query(4)).expect("prime");
    group.bench_function("tcp_roundtrip_warm", |b| {
        b.iter(|| {
            let response = client.request(black_box(&query(5))).expect("response");
            black_box(expect_score(response, true))
        })
    });
    drop(client);
    handle.shutdown();

    group.finish();
}

criterion_group!(benches, bench_svc_throughput);
criterion_main!(benches);
