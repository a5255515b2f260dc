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
//! (its exact visitor: a fresh evaluator per worker over the service's
//! solve cache, `top_k` 10, a row built only for a kept candidate,
//! subtrees skipped on the objective bound, one placement walked per
//! orbit of identical members and its copies given its score) on the three
//! shape classes of the e2e benchmark, `score_topk10/3824` the same scan
//! of four 7+3-core members on up to 5 nodes (odd core counts: a socket
//! split sees allocation order, so the members are not declared
//! interchangeable and the walk hands out every placement — what the
//! gate costs), `score_topk10/234870` the same
//! scan of six identical members (up to 720 copies an orbit),
//! `score_topk10/190778186` the same scan of 14 four-core components on
//! up to 14 nodes, and `score_topk1/680835331228` a `top_k` 1 scan of 18
//! four-core components on up to 18 nodes (nine members alike, the
//! largest orbits of any row); `score_full/234870` is a full (`top_k` 0)
//! ranking of the six-member space; `place_against/202` is one
//! co-scheduler placement decision beside a resident job. Every row but
//! the last score row is first checked bit-identical to the parent
//! commit's walk (every member its own class): the head of its full
//! ranking, or for the 14-node space its bounded scan; the 18-node rows
//! are checked against the serial orbit walk. A row's `workers` is the
//! most threads the scan may use
//! and `threads` how many it did (in these bounded scans helpers come in
//! only after the caller's solo time, which `spawn_join_us` — one scoped
//! helper's start-up — sized); `pulls` is how often it went back to the
//! feed, `visited` how many leaves the walk handed to an evaluator (the
//! rest it skipped with their subtrees or orbits), `scored` how many
//! candidates were scored — evaluated, or offered their
//! representative's score — rather than pruned, `reps` how many the
//! delta evaluator evaluated, and `copies` how many copies were offered
//! their representative's score (one checking run's counts; at two
//! workers they vary with how the floors were traded).
//! The committed `BENCH_scan.json` also carries `parent_commit` and
//! `parent_*` rows: these benches run at the parent commit (with the
//! parent's scan API, and the six-member rows added to its list) on the
//! same host, alternating with this commit's runs, each row the median
//! of the runs of its side, merged in by hand.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use runtime::{RuntimeError, RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::{
    exhaustive_search, place_against, scan_placements, Candidate, DeltaCounters, DeltaEvaluator,
    EnsembleShape, FastEvaluator, FastScore, NodeBudget, ObjectiveBound, Reservation, ResidencyMap,
    ScanOptions, ScanProgress, ScanVisitor, SearchConfig, SolveCache,
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

/// Every candidate's objective, from scratch (`fast`) or by the delta
/// evaluator.
struct ObjectiveScan<'a> {
    base: &'a SimRunConfig,
    shape: &'a EnsembleShape,
    fast: bool,
}

enum Evaluator {
    Fast(Box<FastEvaluator>),
    Delta(Box<DeltaEvaluator>),
}

impl ScanVisitor for ObjectiveScan<'_> {
    type State = Evaluator;
    type Scored = f64;
    type Row = f64;
    type Error = RuntimeError;

    fn init(&self) -> Evaluator {
        if self.fast {
            Evaluator::Fast(Box::new(FastEvaluator::new(self.base)))
        } else {
            Evaluator::Delta(Box::new(DeltaEvaluator::new(self.base, self.shape)))
        }
    }

    fn eval(&self, evaluator: &mut Evaluator, c: Candidate<'_>) -> RuntimeResult<Option<f64>> {
        let score = match evaluator {
            Evaluator::Fast(fast) => fast.score(&self.shape.materialize(c.assignment))?,
            Evaluator::Delta(delta) => delta.score_delta(c.assignment, c.first_changed)?,
        };
        Ok(Some(score.objective))
    }

    fn objective(&self, objective: &f64) -> f64 {
        *objective
    }

    fn keep(&self, _: &mut Evaluator, _: Candidate<'_>, objective: f64) -> f64 {
        objective
    }

    fn drain(&self, evaluator: &mut Evaluator) -> DeltaCounters {
        match evaluator {
            Evaluator::Fast(_) => DeltaCounters::default(),
            Evaluator::Delta(delta) => delta.take_counters(),
        }
    }
}

fn fast_scan(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    workers: usize,
) -> Vec<u64> {
    let opts = ScanOptions { workers, ..Default::default() };
    scan_placements(shape, budget, &opts, &ObjectiveScan { base, shape, fast: true })
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
    let outcome =
        scan_placements(shape, budget, &opts, &ObjectiveScan { base, shape, fast: false })
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

/// The service's `score` visitor (less its cancel probe, and with a
/// progress hook that only counts), counting the leaves it is handed,
/// the ones it evaluated and the pulls that advanced the scan. Without `orbits`
/// every member is its own class: the walk of the parent commit, which
/// hands out every placement.
struct ServiceScan<'a> {
    base: &'a SimRunConfig,
    shape: &'a EnsembleShape,
    solves: &'a Arc<SolveCache>,
    bound: ObjectiveBound,
    orbits: bool,
    visited: AtomicUsize,
    evaluated: AtomicUsize,
    pulls: AtomicUsize,
}

impl ScanVisitor for ServiceScan<'_> {
    type State = DeltaEvaluator;
    type Scored = FastScore;
    type Row = RankedPlacement;
    type Error = RuntimeError;

    fn init(&self) -> DeltaEvaluator {
        DeltaEvaluator::with_solve_cache(self.base, self.shape, self.solves)
    }

    fn eval(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
    ) -> RuntimeResult<Option<FastScore>> {
        self.visited.fetch_add(1, Ordering::Relaxed);
        let scored = evaluator.score_above(c.assignment, c.first_changed, c.floor)?;
        self.evaluated.fetch_add(usize::from(scored.is_some()), Ordering::Relaxed);
        Ok(scored)
    }

    fn objective(&self, fs: &FastScore) -> f64 {
        fs.objective
    }

    fn keep(&self, _: &mut DeltaEvaluator, c: Candidate<'_>, fs: FastScore) -> RankedPlacement {
        RankedPlacement {
            assignment: c.assignment.to_vec(),
            objective: fs.objective,
            nodes_used: fs.nodes_used,
            ensemble_makespan: fs.ensemble_makespan,
            eq4_satisfied: fs.eq4_satisfied,
        }
    }

    fn drain(&self, evaluator: &mut DeltaEvaluator) -> DeltaCounters {
        evaluator.take_counters()
    }

    fn progress(&self, _: &ScanProgress) {
        self.pulls.fetch_add(1, Ordering::Relaxed);
    }

    fn prefix_bound(&self, prefix: &[usize], open_nodes: usize) -> f64 {
        self.bound.of_prefix(prefix, open_nodes)
    }

    fn member_classes(&self, evaluator: &DeltaEvaluator, labels: usize) -> Option<Vec<usize>> {
        self.orbits.then(|| evaluator.member_classes(labels)).flatten()
    }
}

/// What one cold `score` scan did: candidates in the space, leaves the
/// walk handed out, candidates scored (evaluated or offered their
/// representative's score; the rest were pruned by their bound, as
/// leaves, with their subtree or with their orbit), of those the ones
/// evaluated and the copies offered their representative's score, and
/// the ranking.
struct ScoreScan {
    scanned: usize,
    visited: usize,
    scored: usize,
    reps: usize,
    copies: usize,
    pulls: usize,
    workers: usize,
    ranked: Vec<RankedPlacement>,
}

/// One cold `score` with `top_k` rows, exactly as `svc` scans it (with
/// `orbits`), or as the parent commit did.
fn score_scan(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    solves: &Arc<SolveCache>,
    opts: &ScanOptions,
    orbits: bool,
) -> ScoreScan {
    let visitor = ServiceScan {
        base,
        shape,
        solves,
        bound: ObjectiveBound::new(shape),
        orbits,
        visited: AtomicUsize::new(0),
        evaluated: AtomicUsize::new(0),
        pulls: AtomicUsize::new(0),
    };
    let outcome = scan_placements(shape, budget, opts, &visitor).expect("score scan");
    // Every candidate scored was evaluated or offered its
    // representative's score.
    let scored = outcome.scanned - outcome.delta.pruned as usize;
    let reps = visitor.evaluated.into_inner();
    ScoreScan {
        scanned: outcome.scanned,
        visited: visitor.visited.into_inner(),
        reps,
        copies: scored - reps,
        pulls: visitor.pulls.into_inner(),
        scored,
        workers: outcome.workers,
        ranked: outcome.into_values(),
    }
}

struct NamedSample {
    name: String,
    /// Most worker threads the scan may use.
    workers: usize,
    /// Threads that scanned in the checking run.
    threads: usize,
    candidates: usize,
    /// Leaves the walk handed to an evaluator.
    visited: usize,
    /// Candidates scored (the rest were skipped or pruned).
    scored: usize,
    /// Placements evaluated by the delta evaluator.
    reps: usize,
    /// Copies offered the score of an evaluated representative.
    copies: usize,
    /// Pulls from the scan's feed that advanced it.
    pulls: usize,
    secs: f64,
}

/// The e2e benchmark's cold-score classes S, M and L, six members alike
/// (~2.3 × 10⁵ candidates, in up to 720 copies an orbit), and a space of
/// ~1.9 × 10⁸ candidates, at one and two scan workers; and a full
/// (`top_k` 0) ranking of the six-member space. The solve cache lives
/// across repetitions, as the service's does across requests; the first
/// (checking) scan fills it. Each row is first checked bit-identical to
/// the parent commit's walk (every member its own class).
fn bench_score_topk10(quick: bool) -> Vec<NamedSample> {
    // (members, simulation cores, analysis cores, nodes, top_k)
    let classes: &[(usize, u32, u32, usize, usize)] = if quick {
        &[(4, 16, 8, 6, 10), (4, 7, 3, 5, 10), (6, 16, 8, 6, 10)]
    } else {
        &[
            (4, 16, 8, 6, 10),
            (4, 8, 4, 6, 10),
            (5, 16, 8, 8, 10),
            (4, 7, 3, 5, 10),
            (6, 16, 8, 6, 10),
            (7, 4, 4, 14, 10),
            (9, 4, 4, 18, 1),
        ]
    };
    let mut samples = Vec::new();
    for &(members, sim, ana, max_nodes, top_k) in classes {
        let shape = EnsembleShape::uniform(members, sim, 1, ana);
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let base = small_base(&shape);
        let solves = Arc::new(SolveCache::new(&base));
        let large = max_nodes > 8;
        let huge = max_nodes > 16;
        let full_row = members == 6;
        let reps = if quick || huge {
            3
        } else if large || full_row {
            5
        } else {
            21
        };
        // Bounded top-K must be the head of the parent's full stable
        // ranking (too big to rank in full for the large spaces: there
        // the parent's bounded walk is the reference, and for the huge
        // one, whose unreduced walk takes hours, the serial orbit walk —
        // so its two-worker row is checked for determinism only).
        let parent =
            ScanOptions { workers: 1, top_k: if large { top_k } else { 0 }, ..Default::default() };
        let full = score_scan(&base, &shape, budget, &solves, &parent, huge).ranked;
        let mut ranked = full.clone();
        ranked.sort_by(|a, b| b.objective.total_cmp(&a.objective));
        ranked.truncate(top_k);
        let name = format!("score_topk{top_k}");
        let mut runs: Vec<(String, ScanOptions)> = [1usize, 2]
            .iter()
            .map(|&workers| (name.clone(), ScanOptions { workers, top_k, ..Default::default() }))
            .collect();
        if full_row {
            runs.push((
                String::from("score_full"),
                ScanOptions { workers: 1, ..Default::default() },
            ));
        }
        for (name, opts) in runs {
            let checked = score_scan(&base, &shape, budget, &solves, &opts, true);
            let want = if opts.top_k == 0 { &full } else { &ranked };
            assert_eq!(&checked.ranked, want, "{name} on {members} members: orbit rows moved");
            let (secs, candidates) = median_secs(reps, || {
                score_scan(&base, &shape, budget, &solves, &opts, true).scanned
            });
            samples.push(NamedSample {
                name: format!("{name}/{candidates}"),
                workers: opts.workers,
                threads: checked.workers,
                candidates,
                visited: checked.visited,
                scored: checked.scored,
                reps: checked.reps,
                copies: checked.copies,
                pulls: checked.pulls,
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
        threads: 1,
        candidates,
        visited: candidates,
        scored: candidates,
        reps: candidates,
        copies: 0,
        pulls: 0,
        secs,
    }]
}

fn render_named(samples: &[NamedSample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"workers\": {}, \"threads\": {}, \"pulls\": {}, \"visited\": {}, \"scored\": {}, \"reps\": {}, \"copies\": {}, \"secs\": {:.6}, \"ns_per_candidate\": {:.3}}}",
                s.name,
                s.workers,
                s.threads,
                s.pulls,
                s.visited,
                s.scored,
                s.reps,
                s.copies,
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

/// Median wall time of spawning and joining one scoped thread that does
/// nothing: what a scan pays to bring a helper in.
fn spawn_join_us(quick: bool) -> f64 {
    let (secs, _) = median_secs(if quick { 21 } else { 201 }, || {
        std::thread::scope(|scope| scope.spawn(|| 0usize).join().expect("no-op thread"))
    });
    secs * 1e6
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
            "  {:<25} workers={:<2} threads={:<2} pulls={:<4} visited={:<6} scored={:<6} reps={:<6} copies={:<6} {:.6}s  {:.3} ns/candidate",
            s.name,
            s.workers,
            s.threads,
            s.pulls,
            s.visited,
            s.scored,
            s.reps,
            s.copies,
            s.secs,
            s.secs * 1e9 / s.candidates as f64
        );
    }
    let spawn_join = spawn_join_us(quick);
    eprintln!("  scoped spawn+join {spawn_join:.1} us");
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
        "{{\n  \"bench\": \"scan_throughput\",\n  \"host_cores\": {host_cores},\n  \"quick\": {quick},\n  \"commit\": \"{}\",\n  \"spawn_join_us\": {spawn_join:.1},\n  \"fast_path\": {},\n  \"delta_eval\": {},\n  \"service_scans\": {},\n  \"des_path\": {},\n  \"cosched_queue_wait\": {}\n}}\n",
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
