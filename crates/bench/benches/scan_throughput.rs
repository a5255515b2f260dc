//! Throughput of the parallel placement-scan engine: serial versus
//! parallel at 1/2/4/all cores, on both evaluation paths (the
//! closed-form fast evaluator and the DES-scored exhaustive search).
//!
//! Plain `main` + `std::time::Instant` instead of criterion: the
//! quantity of interest is whole-scan wall time at controlled worker
//! counts, and the output must be machine-readable. Results land in
//! `BENCH_scan.json` at the workspace root (override with
//! `ENSEMBLE_BENCH_OUT`); `ENSEMBLE_SCAN_BENCH_QUICK=1` shrinks reps
//! and the candidate space for CI smoke runs.
//!
//! Every timed configuration is first checked bit-identical to the
//! serial scan — a benchmark of a wrong answer is worthless.

use std::time::Instant;

use runtime::{RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::{
    exhaustive_search, scan_placements, Candidate, DeltaCounters, DeltaEvaluator, EnsembleShape,
    FastEvaluator, NodeBudget, ScanOptions, SearchConfig,
};
use svc::{
    CoschedSvcConfig, Request, RequestBody, Response, Service, SubmitRequest, SvcConfig, Workloads,
};

struct Sample {
    workers: usize,
    candidates: usize,
    secs: f64,
    speedup: f64,
}

fn worker_counts(host_cores: usize) -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&host_cores) {
        counts.push(host_cores);
    }
    counts
}

fn median_secs(reps: usize, mut run: impl FnMut() -> usize) -> (f64, usize) {
    let mut times = Vec::with_capacity(reps);
    let mut candidates = 0;
    for _ in 0..reps {
        let start = Instant::now();
        candidates = run();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], candidates)
}

fn fast_scan(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    workers: usize,
) -> Vec<u64> {
    let opts = ScanOptions { workers, ..Default::default() };
    scan_placements(
        shape,
        budget,
        &opts,
        || FastEvaluator::new(base),
        |evaluator: &mut FastEvaluator, c: Candidate<'_>| -> RuntimeResult<Option<f64>> {
            let spec = shape.materialize(c.assignment);
            Ok(Some(evaluator.score(&spec)?.objective))
        },
        |_| DeltaCounters::default(),
        |objective| *objective,
        || false,
        |_| {},
    )
    .expect("fast scan")
    .into_values()
    .into_iter()
    .map(f64::to_bits)
    .collect()
}

/// The fast-path sweep scenario shared by the from-scratch and delta
/// benchmarks: a space large enough that per-candidate work dominates
/// chunk handoff — 8 components over up to 6 nodes.
fn fast_scenario(quick: bool) -> (EnsembleShape, NodeBudget, SimRunConfig) {
    let (members, max_nodes) = if quick { (3, 3) } else { (4, 6) };
    let shape = EnsembleShape::uniform(members, 8, 1, 4);
    let budget = NodeBudget { max_nodes, cores_per_node: 32 };
    let base = {
        let mut cfg = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
        cfg.workloads = WorkloadMap::small_defaults();
        cfg
    };
    (shape, budget, base)
}

fn bench_fast_path(quick: bool, host_cores: usize) -> Vec<Sample> {
    let (shape, budget, base) = fast_scenario(quick);
    let reference = fast_scan(&base, &shape, budget, 1);
    let reps = if quick { 3 } else { 7 };
    let mut samples = Vec::new();
    let mut serial_secs = 0.0;
    for workers in worker_counts(host_cores) {
        assert_eq!(fast_scan(&base, &shape, budget, workers), reference, "bit-identity broken");
        let (secs, candidates) =
            median_secs(reps, || fast_scan(&base, &shape, budget, workers).len());
        if workers == 1 {
            serial_secs = secs;
        }
        samples.push(Sample { workers, candidates, secs, speedup: serial_secs / secs });
    }
    samples
}

fn delta_scan(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    workers: usize,
) -> (Vec<u64>, DeltaCounters) {
    let opts = ScanOptions { workers, ..Default::default() };
    let outcome = scan_placements(
        shape,
        budget,
        &opts,
        || DeltaEvaluator::new(base, shape),
        |evaluator: &mut DeltaEvaluator, c: Candidate<'_>| -> RuntimeResult<Option<f64>> {
            Ok(Some(evaluator.score_delta(c.assignment, c.first_changed)?.objective))
        },
        DeltaEvaluator::take_counters,
        |objective| *objective,
        || false,
        |_| {},
    )
    .expect("delta scan");
    let counters = outcome.delta;
    (outcome.into_values().into_iter().map(f64::to_bits).collect(), counters)
}

struct DeltaSample {
    workers: usize,
    candidates: usize,
    secs: f64,
    speedup_vs_fast_serial: f64,
    solve_hits: u64,
    solve_misses: u64,
    hit_rate: f64,
    members_recomputed: u64,
}

/// The same fast-path sweep scored by the incremental [`DeltaEvaluator`]:
/// first proved bit-identical to the from-scratch serial scan at every
/// worker count, then timed. `speedup_vs_fast_serial` is the headline —
/// delta at `workers: 1` against the from-scratch evaluator at
/// `workers: 1`.
fn bench_delta_path(quick: bool, host_cores: usize, fast_serial_secs: f64) -> Vec<DeltaSample> {
    let (shape, budget, base) = fast_scenario(quick);
    let reference = fast_scan(&base, &shape, budget, 1);
    let reps = if quick { 3 } else { 7 };
    let mut samples = Vec::new();
    for workers in worker_counts(host_cores) {
        let (bits, counters) = delta_scan(&base, &shape, budget, workers);
        assert_eq!(bits, reference, "delta scan not bit-identical to the from-scratch path");
        assert!(
            counters.solve_hits > 0,
            "a canonical sweep must reuse node-occupancy solves, got {counters:?}"
        );
        let (secs, candidates) =
            median_secs(reps, || delta_scan(&base, &shape, budget, workers).0.len());
        samples.push(DeltaSample {
            workers,
            candidates,
            secs,
            speedup_vs_fast_serial: fast_serial_secs / secs,
            solve_hits: counters.solve_hits,
            solve_misses: counters.solve_misses,
            hit_rate: counters.solve_hit_rate(),
            members_recomputed: counters.members_recomputed,
        });
    }
    samples
}

fn render_delta(samples: &[DeltaSample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"workers\": {}, \"candidates\": {}, \"secs\": {:.6}, \"speedup_vs_fast_serial\": {:.3}, \"solve_hits\": {}, \"solve_misses\": {}, \"solve_hit_rate\": {:.4}, \"members_recomputed\": {}}}",
                s.workers,
                s.candidates,
                s.secs,
                s.speedup_vs_fast_serial,
                s.solve_hits,
                s.solve_misses,
                s.hit_rate,
                s.members_recomputed
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn bench_des_path(quick: bool, host_cores: usize) -> Vec<Sample> {
    let config = SearchConfig::new(
        EnsembleShape::uniform(2, 16, 1, 8),
        NodeBudget { max_nodes: 3, cores_per_node: 32 },
    )
    .small_scale();
    let reps = if quick { 1 } else { 3 };
    let run = |workers: usize| -> Vec<u64> {
        exhaustive_search(&config, &ScanOptions { workers, ..Default::default() })
            .expect("des scan")
            .into_values()
            .into_iter()
            .map(|p| p.objective.to_bits())
            .collect()
    };
    let reference = run(1);
    let mut samples = Vec::new();
    let mut serial_secs = 0.0;
    for workers in worker_counts(host_cores) {
        assert_eq!(run(workers), reference, "bit-identity broken");
        let (secs, candidates) = median_secs(reps, || run(workers).len());
        if workers == 1 {
            serial_secs = secs;
        }
        samples.push(Sample { workers, candidates, secs, speedup: serial_secs / secs });
    }
    samples
}

struct CoschedSample {
    concurrent: usize,
    jobs: usize,
    wait_p50_ms: f64,
    wait_p95_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Queue wait observed by co-scheduled submits at increasing
/// concurrency: one ensemble at a time never waits; a burst wider than
/// the 2×32-core platform queues, and the p50/p95 of `queue_wait_ms`
/// across every admitted job is the cost of sharing.
fn bench_cosched(quick: bool) -> Vec<CoschedSample> {
    let submit = |id: u64, steps: u64| Request {
        id,
        deadline: None,
        progress: None,
        tenant: None,
        body: RequestBody::Submit(SubmitRequest {
            // 24 cores per ensemble: two fit the platform, the rest of
            // a burst waits for a release.
            shape: EnsembleShape::uniform(1, 16, 1, 8),
            steps,
            jitter: 0.0,
            seed: 1,
            workloads: Workloads::Small,
        }),
    };
    let steps = if quick { 500 } else { 5_000 };
    let rounds = if quick { 2 } else { 5 };
    let widths: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    let mut samples = Vec::new();
    for &concurrent in widths {
        let service = Service::start(SvcConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 16,
            default_deadline: None,
            journal: None,
            panic_on_request_id: None,
            scan_workers: 0,
            cosched: Some(CoschedSvcConfig::new(NodeBudget { max_nodes: 2, cores_per_node: 32 })),
            tenant_policy: svc::TenantPolicy::default(),
        });
        let mut waits = Vec::new();
        let mut id = 0u64;
        for _ in 0..rounds {
            let pending: Vec<_> = (0..concurrent)
                .map(|_| {
                    id += 1;
                    service.submit(submit(id, steps)).expect("admitted")
                })
                .collect();
            for p in pending {
                match p.wait() {
                    Response::SubmitResult { queue_wait_ms, .. } => waits.push(queue_wait_ms),
                    other => panic!("expected submit result, got {other:?}"),
                }
            }
        }
        service.shutdown();
        waits.sort_by(f64::total_cmp);
        samples.push(CoschedSample {
            concurrent,
            jobs: waits.len(),
            wait_p50_ms: percentile(&waits, 0.50),
            wait_p95_ms: percentile(&waits, 0.95),
        });
    }
    samples
}

fn render_cosched(samples: &[CoschedSample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"concurrent\": {}, \"jobs\": {}, \"queue_wait_p50_ms\": {:.3}, \"queue_wait_p95_ms\": {:.3}}}",
                s.concurrent, s.jobs, s.wait_p50_ms, s.wait_p95_ms
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn render(samples: &[Sample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"workers\": {}, \"candidates\": {}, \"secs\": {:.6}, \"speedup_vs_serial\": {:.3}}}",
                s.workers, s.candidates, s.secs, s.speedup
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn main() {
    let quick = std::env::var("ENSEMBLE_SCAN_BENCH_QUICK").is_ok_and(|v| v == "1");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("scan_throughput: host_cores={host_cores} quick={quick}");

    let fast = bench_fast_path(quick, host_cores);
    for s in &fast {
        eprintln!(
            "  fast  workers={:<2} candidates={:<6} {:.4}s  {:.2}x",
            s.workers, s.candidates, s.secs, s.speedup
        );
    }
    let fast_serial_secs =
        fast.iter().find(|s| s.workers == 1).map(|s| s.secs).expect("serial fast sample");
    let delta = bench_delta_path(quick, host_cores, fast_serial_secs);
    for s in &delta {
        eprintln!(
            "  delta workers={:<2} candidates={:<6} {:.4}s  {:.2}x vs fast serial  hit_rate={:.3}",
            s.workers, s.candidates, s.secs, s.speedup_vs_fast_serial, s.hit_rate
        );
    }
    let des = bench_des_path(quick, host_cores);
    for s in &des {
        eprintln!(
            "  des   workers={:<2} candidates={:<6} {:.4}s  {:.2}x",
            s.workers, s.candidates, s.secs, s.speedup
        );
    }

    let cosched = bench_cosched(quick);
    for s in &cosched {
        eprintln!(
            "  cosched concurrent={:<2} jobs={:<3} wait p50={:.3}ms p95={:.3}ms",
            s.concurrent, s.jobs, s.wait_p50_ms, s.wait_p95_ms
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"scan_throughput\",\n  \"host_cores\": {host_cores},\n  \"quick\": {quick},\n  \"fast_path\": {},\n  \"delta_eval\": {},\n  \"des_path\": {},\n  \"cosched_queue_wait\": {}\n}}\n",
        render(&fast),
        render_delta(&delta),
        render(&des),
        render_cosched(&cosched),
    );
    let out = std::env::var("ENSEMBLE_BENCH_OUT").unwrap_or_else(|_| {
        // cargo bench runs with the package as cwd; anchor the default
        // at the workspace root instead.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json").into()
    });
    std::fs::write(&out, &json).expect("write bench output");
    eprintln!("wrote {out}");
}
