//! Throughput of the parallel placement-scan engine: serial versus
//! parallel at 1/2/4/all cores, on both evaluation paths (the
//! closed-form fast evaluator and the DES-scored exhaustive search).
//!
//! Plain `main` + `std::time::Instant`: the quantity of interest is
//! whole-scan wall time at controlled worker counts, and the output
//! must be machine-readable. Results land in `BENCH_scan.json` at the
//! workspace root (override with `ENSEMBLE_BENCH_OUT`);
//! `ENSEMBLE_SCAN_BENCH_QUICK=1` shrinks reps and the candidate space
//! for CI smoke runs.
//!
//! Every timed configuration is first checked bit-identical to the
//! serial scan — a benchmark of a wrong answer is worthless.
//!
//! `score_topk10/{1545,4038,27250}` is the service's cold `score` scan
//! (its exact closures: a fresh evaluator per worker over the service's
//! solve cache, `top_k` 10, a row built only for a kept candidate) on
//! the three shape classes of the e2e benchmark; `place_against/202` is
//! one co-scheduler placement decision beside a resident job. A row's
//! `scored` is how many of its candidates were evaluated rather than
//! pruned by their objective bound (one checking run's count; at two
//! workers it varies with how the floors were traded). The
//! committed `BENCH_scan.json` also carries `parent_commit` and
//! `parent_*` rows: these benches run at the parent commit (with the
//! parent's closures) in the same session, merged in by hand.

use std::sync::Arc;
use std::time::Instant;

use runtime::{RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::{
    exhaustive_search, place_against, scan_placements, Candidate, DeltaCounters, DeltaEvaluator,
    EnsembleShape, FastEvaluator, FastScore, NodeBudget, Reservation, ResidencyMap, ScanOptions,
    SearchConfig, SolveCache,
};
use svc::{
    CoschedSvcConfig, RankedPlacement, Request, RequestBody, Response, Service, SubmitRequest,
    SvcConfig, Workloads,
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
        |_, _, v| v,
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
    let base = small_base(&shape);
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
        |_, _, v| v,
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

/// The platform and small workloads the service scores `shape` under.
fn small_base(shape: &EnsembleShape) -> SimRunConfig {
    let mut cfg = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
    cfg.workloads = WorkloadMap::small_defaults();
    cfg
}

/// What one cold `score` scan did: candidates enumerated, candidates
/// actually evaluated (the rest were pruned by their bound), and the
/// ranking.
struct ScoreScan {
    scanned: usize,
    scored: usize,
    ranked: Vec<RankedPlacement>,
}

/// One cold `score` with `top_k` rows, exactly as `svc` scans it.
fn score_scan(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    solves: &Arc<SolveCache>,
    opts: &ScanOptions,
) -> ScoreScan {
    let outcome = scan_placements(
        shape,
        budget,
        opts,
        || DeltaEvaluator::with_solve_cache(base, shape, solves),
        |evaluator: &mut DeltaEvaluator, c: Candidate<'_>| -> RuntimeResult<Option<FastScore>> {
            evaluator.score_above(c.assignment, c.first_changed, c.floor)
        },
        |_, c, fs| RankedPlacement {
            assignment: c.assignment.to_vec(),
            objective: fs.objective,
            nodes_used: fs.nodes_used,
            ensemble_makespan: fs.ensemble_makespan,
            eq4_satisfied: fs.eq4_satisfied,
        },
        DeltaEvaluator::take_counters,
        |fs: &FastScore| fs.objective,
        || false,
        |_| {},
    )
    .expect("score scan");
    let (scanned, scored) = (outcome.scanned, outcome.scanned - outcome.delta.pruned as usize);
    ScoreScan { scanned, scored, ranked: outcome.into_values() }
}

struct NamedSample {
    name: String,
    workers: usize,
    candidates: usize,
    /// Candidates evaluated (the rest were enumerated and pruned).
    scored: usize,
    secs: f64,
}

/// The e2e benchmark's cold-score classes S, M and L at one and two
/// scan workers. The solve cache lives across repetitions, as the
/// service's does across requests; the first (checking) scan fills it.
fn bench_score_topk10(quick: bool) -> Vec<NamedSample> {
    let classes: &[(usize, u32, u32, usize)] =
        if quick { &[(4, 16, 8, 6)] } else { &[(4, 16, 8, 6), (4, 8, 4, 6), (5, 16, 8, 8)] };
    let reps = if quick { 3 } else { 21 };
    let mut samples = Vec::new();
    for &(members, sim, ana, max_nodes) in classes {
        let shape = EnsembleShape::uniform(members, sim, 1, ana);
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let base = small_base(&shape);
        let solves = Arc::new(SolveCache::new(&base));
        // Bounded top-K must be the head of the full stable ranking.
        let full = ScanOptions { workers: 1, ..Default::default() };
        let mut ranked = score_scan(&base, &shape, budget, &solves, &full).ranked;
        ranked.sort_by(|a, b| b.objective.total_cmp(&a.objective));
        ranked.truncate(10);
        for workers in [1usize, 2] {
            let opts = ScanOptions { workers, top_k: 10, ..Default::default() };
            let checked = score_scan(&base, &shape, budget, &solves, &opts);
            assert_eq!(checked.ranked, ranked);
            let (secs, candidates) =
                median_secs(reps, || score_scan(&base, &shape, budget, &solves, &opts).scanned);
            samples.push(NamedSample {
                name: format!("score_topk10/{candidates}"),
                workers,
                candidates,
                scored: checked.scored,
                secs,
            });
        }
    }
    samples
}

/// One placement decision of the co-scheduler as `svc_mix` meets it:
/// three 8+4-core members against six 32-core nodes, two of them
/// holding a resident two-member job — 202 canonical candidates, each
/// scored together with the residents.
fn bench_place_against(quick: bool) -> Vec<NamedSample> {
    let budget = NodeBudget { max_nodes: 6, cores_per_node: 32 };
    let resident = EnsembleShape::uniform(2, 16, 1, 8);
    let shape = EnsembleShape::uniform(3, 8, 1, 4);
    let mut base = small_base(&shape);
    base.n_steps = 6;
    let mut residency = ResidencyMap::new(budget);
    residency
        .reserve(Reservation::build(1, resident, vec![0, 0, 1, 1], budget.max_nodes, 1.0, 0))
        .expect("the resident fits an idle platform");
    let view = residency.view();
    let solves = Arc::new(SolveCache::new(&base));
    let opts = ScanOptions { workers: 1, ..Default::default() };
    let place = || {
        place_against(&shape, &view, &base, &solves, &opts)
            .expect("placement scan")
            .expect("four idle nodes fit the job")
    };
    let first = place();
    assert_eq!(first.scanned, 202);
    let (secs, candidates) = median_secs(if quick { 5 } else { 201 }, || {
        let decision = place();
        assert_eq!(decision.objective.to_bits(), first.objective.to_bits());
        decision.scanned
    });
    vec![NamedSample {
        name: format!("place_against/{candidates}"),
        workers: 1,
        candidates,
        scored: candidates,
        secs,
    }]
}

fn render_named(samples: &[NamedSample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"workers\": {}, \"scored\": {}, \"secs\": {:.6}, \"ns_per_candidate\": {:.1}}}",
                s.name,
                s.workers,
                s.scored,
                s.secs,
                s.secs * 1e9 / s.candidates as f64
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
    let mut service_scans = bench_score_topk10(quick);
    service_scans.extend(bench_place_against(quick));
    for s in &service_scans {
        eprintln!(
            "  {:<22} workers={:<2} scored={:<6} {:.6}s  {:.1} ns/candidate",
            s.name,
            s.workers,
            s.scored,
            s.secs,
            s.secs * 1e9 / s.candidates as f64
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
        "{{\n  \"bench\": \"scan_throughput\",\n  \"host_cores\": {host_cores},\n  \"quick\": {quick},\n  \"commit\": \"{}\",\n  \"fast_path\": {},\n  \"delta_eval\": {},\n  \"service_scans\": {},\n  \"des_path\": {},\n  \"cosched_queue_wait\": {}\n}}\n",
        bench::git_commit(),
        render(&fast),
        render_delta(&delta),
        render_named(&service_scans),
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
