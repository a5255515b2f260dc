//! Throughput of the parallel placement-scan engine: serial versus
//! parallel at 1/2/4/all cores, scored from scratch and by the delta
//! evaluator; the service's ranking on the e2e benchmark's shapes; and
//! the placement advisor (closed-form ranking, then its top rows played
//! through the DES).
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
//! (the scheduler's `Ranker`, wrapped only to count what its outcome
//! does not report: a fresh evaluator per worker over the service's
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
//! ranking of the six-member space at one and two workers;
//! `place_against/202` is one co-scheduler placement decision beside a
//! resident job. Every row but
//! the last score row is first checked bit-identical to the parent
//! commit's walk (every member its own class): the head of its full
//! ranking, or for the 14-node space its bounded scan; the 18-node rows
//! are checked against the serial orbit walk. A row's `workers` is the
//! most threads the scan may use
//! and `threads` how many it did: a bounded scan brings its helpers in
//! once its caller has handed out `scan::SOLO_CANDIDATES` leaves, a full
//! one at its first unfinished pull, and the bench asserts that every
//! two-worker row ran on the threads that rule gives (`spawn_join_us` is
//! one scoped helper's start-up). `pulls` is how often it went back to the
//! feed (with helpers running, that depends on how they interleaved),
//! `visited` how many leaves the walk handed to an evaluator (the
//! rest it skipped with their subtrees or orbits), `scored` how many
//! candidates were scored — evaluated, or offered their
//! representative's score — rather than pruned, `reps` how many the
//! delta evaluator evaluated, and `copies` how many copies were offered
//! their representative's score (one checking run's counts; at two
//! workers they vary with how the floors were traded). Each `score_topk`
//! space of at most 8 nodes has a `walk: "cold"` row, every scan's walk
//! starting from nothing as for a shape the service has not seen, and a
//! `"warm"` row, every walk starting from a walk cache a first scan of
//! the shape filled, as the service's later requests of it do;
//! `orbit_searches` and `count_states` are what the checking run's walk
//! still computed, and a warm serial walk is asserted to compute
//! neither. A `walk: "classless"` row walks from nothing with every
//! member its own class, as the walk did before member classes: the six-member
//! and 14-node spaces hand out tens of thousands of leaves and the 18-node
//! one 146.8 million (full run only), the rows past the solo count.
//! `advise/<candidates>` is `ensemble advise --members 8 --k 1
//! --nodes 6` without its core sweep: `rank_secs` the closed-form `top_k`
//! 5 ranking, `advise_secs` the whole advisor, `confirm_secs` the five
//! DES runs that confirm the ranking's rows (the difference).
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
    advisor, place_against, recommend_placement, scan_placements, Candidate, DeltaCounters,
    DeltaEvaluator, EnsembleShape, FastEvaluator, FastScore, NodeBudget, RankError,
    RankedPlacement, Ranker, Reservation, ResidencyMap, ScanOptions, ScanProgress, ScanVisitor,
    SolveCache, WalkCache,
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

/// The service's ranking, counting the leaves it is handed, the ones it
/// evaluated and the pulls that advanced the scan: columns its outcome
/// does not report. Without `orbits` every member is its own class: the
/// walk of the parent commit, which hands out every placement.
struct ServiceScan<'a> {
    ranker: Ranker<'a, ()>,
    orbits: bool,
    visited: AtomicUsize,
    evaluated: AtomicUsize,
    pulls: AtomicUsize,
}

impl ScanVisitor for ServiceScan<'_> {
    type State = DeltaEvaluator;
    type Scored = FastScore;
    type Row = RankedPlacement;
    type Error = RankError;

    fn init(&self) -> DeltaEvaluator {
        self.ranker.init()
    }

    fn eval(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
    ) -> Result<Option<FastScore>, RankError> {
        self.visited.fetch_add(1, Ordering::Relaxed);
        let scored = self.ranker.eval(evaluator, c)?;
        self.evaluated.fetch_add(usize::from(scored.is_some()), Ordering::Relaxed);
        Ok(scored)
    }

    fn objective(&self, fs: &FastScore) -> f64 {
        self.ranker.objective(fs)
    }

    fn keep(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
        fs: FastScore,
    ) -> RankedPlacement {
        self.ranker.keep(evaluator, c, fs)
    }

    fn drain(&self, evaluator: &mut DeltaEvaluator) -> DeltaCounters {
        self.ranker.drain(evaluator)
    }

    fn progress(&self, _: &ScanProgress) {
        self.pulls.fetch_add(1, Ordering::Relaxed);
    }

    fn prefix_bound(&self, prefix: &[usize], open_nodes: usize) -> f64 {
        self.ranker.prefix_bound(prefix, open_nodes)
    }

    fn member_classes(&self, evaluator: &DeltaEvaluator, labels: usize) -> Option<Vec<usize>> {
        self.orbits.then(|| self.ranker.member_classes(evaluator, labels)).flatten()
    }

    fn walk_cache(&self) -> Option<&WalkCache> {
        self.ranker.walk_cache()
    }
}

/// What one cold `score` scan did: candidates in the space, leaves the
/// walk handed out, candidates scored (evaluated or offered their
/// representative's score; the rest were pruned by their bound, as
/// leaves, with their subtree or with their orbit), of those the ones
/// evaluated and the copies offered their representative's score, the
/// walk's orbit searches and count states, and the ranking.
struct ScoreScan {
    scanned: usize,
    visited: usize,
    scored: usize,
    reps: usize,
    copies: usize,
    pulls: usize,
    workers: usize,
    orbit_searches: u64,
    count_states: u64,
    ranked: Vec<RankedPlacement>,
}

/// One `score` with `top_k` rows, exactly as `svc` scans it (with
/// `orbits`, and `walks` holding what earlier scans learned of the
/// shape), or as the parent commit did.
fn score_scan(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    solves: &Arc<SolveCache>,
    walks: Option<&WalkCache>,
    opts: &ScanOptions,
    orbits: bool,
) -> ScoreScan {
    let visitor = ServiceScan {
        ranker: Ranker::new(base, shape, solves, walks, ()),
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
        orbit_searches: outcome.orbit_searches,
        count_states: outcome.count_states,
        ranked: outcome.into_values(),
    }
}

struct NamedSample {
    name: String,
    /// `cold`: the walk starts from nothing, as a request of a shape
    /// new to the service; `warm`: from a walk cache an earlier scan of
    /// the shape filled.
    walk: &'static str,
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
    /// Block-end orbit searches the walk ran.
    orbit_searches: u64,
    /// Subtree-count states the walk expanded.
    count_states: u64,
    secs: f64,
}

/// The e2e benchmark's cold-score classes S, M and L, six members alike
/// (~2.3 × 10⁵ candidates, in up to 720 copies an orbit), and a space of
/// ~1.9 × 10⁸ candidates, at one and two scan workers; and a full
/// (`top_k` 0) ranking of the six-member space, at one and two. The
/// solve cache lives across repetitions, as the service's does across
/// requests; the first (checking) scan fills it. Each row is first
/// checked bit-identical to the parent commit's walk (every member its own class). Every space of
/// at most 8 nodes is timed twice: `cold`, each walk from nothing, and
/// `warm`, each walk from a cache a first scan filled — where a serial
/// walk must search and count nothing.
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
        let full = score_scan(&base, &shape, budget, &solves, None, &parent, huge).ranked;
        let mut ranked = full.clone();
        ranked.sort_by(|a, b| b.objective.total_cmp(&a.objective));
        ranked.truncate(top_k);
        let name = format!("score_topk{top_k}");
        // (name, options, member classes): the service's walk at one and
        // two workers; without classes, the spaces that walk hands out
        // tens of thousands of leaves or more.
        let mut runs: Vec<(String, ScanOptions, bool)> = Vec::new();
        let classless = full_row || (large && !huge) || (huge && !quick);
        for orbits in [true, false].into_iter().filter(|&orbits| orbits || classless) {
            for workers in [1usize, 2] {
                let opts = ScanOptions { workers, top_k, ..Default::default() };
                runs.push((name.clone(), opts, orbits));
            }
        }
        if full_row {
            for workers in [1usize, 2] {
                let opts = ScanOptions { workers, ..Default::default() };
                runs.push((String::from("score_full"), opts, true));
            }
        }
        for (name, opts, orbits) in runs {
            let want = if opts.top_k == 0 { &full } else { &ranked };
            let warm = WalkCache::new();
            let walks: &[Option<&WalkCache>] =
                if large || opts.top_k == 0 || !orbits { &[None] } else { &[None, Some(&warm)] };
            // The classless 18-node walk takes minutes: time it once.
            let reps = if huge && !orbits { 1 } else { reps };
            for &walks in walks {
                let scan = || score_scan(&base, &shape, budget, &solves, walks, &opts, orbits);
                if walks.is_some() {
                    scan();
                }
                let checked = scan();
                assert_eq!(&checked.ranked, want, "{name} on {members} members: orbit rows moved");
                if walks.is_some() && opts.workers == 1 {
                    assert_eq!(
                        (checked.orbit_searches, checked.count_states),
                        (0, 0),
                        "{name} on {members} members: a warm serial walk searched or counted"
                    );
                }
                assert_threads(&name, members, &opts, &checked);
                let (secs, candidates) = median_secs(reps, || scan().scanned);
                samples.push(NamedSample {
                    name: format!("{name}/{candidates}"),
                    walk: match (orbits, walks.is_some()) {
                        (false, _) => "classless",
                        (true, true) => "warm",
                        (true, false) => "cold",
                    },
                    workers: opts.workers,
                    threads: checked.workers,
                    candidates,
                    visited: checked.visited,
                    scored: checked.scored,
                    reps: checked.reps,
                    copies: checked.copies,
                    pulls: checked.pulls,
                    orbit_searches: checked.orbit_searches,
                    count_states: checked.count_states,
                    secs,
                });
            }
        }
    }
    samples
}

/// Asserts that a two-worker scan ran on the threads the solo rule
/// gives: a bounded one that handed out fewer than `SOLO_CANDIDATES`
/// leaves on its caller alone, any other on both.
fn assert_threads(name: &str, members: usize, opts: &ScanOptions, scan: &ScoreScan) {
    if opts.workers == 2 {
        let alone = opts.top_k > 0 && scan.visited < scheduler::scan::SOLO_CANDIDATES;
        let want = if alone { 1 } else { 2 };
        let at = format!("{name} on {members} members, {} leaves handed out", scan.visited);
        assert_eq!(scan.workers, want, "{at}: threads");
    }
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
        walk: "cold",
        workers: 1,
        threads: 1,
        candidates,
        visited: candidates,
        scored: candidates,
        reps: candidates,
        copies: 0,
        pulls: 0,
        orbit_searches: 0,
        count_states: 0,
        secs,
    }]
}

fn render_named(samples: &[NamedSample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"walk\": \"{}\", \"workers\": {}, \"threads\": {}, \"pulls\": {}, \"visited\": {}, \"scored\": {}, \"reps\": {}, \"copies\": {}, \"orbit_searches\": {}, \"count_states\": {}, \"secs\": {:.6}, \"ns_per_candidate\": {:.3}}}",
                s.name,
                s.walk,
                s.workers,
                s.threads,
                s.pulls,
                s.visited,
                s.scored,
                s.reps,
                s.copies,
                s.orbit_searches,
                s.count_states,
                s.secs,
                s.secs * 1e9 / s.candidates as f64
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

struct AdviseSample {
    candidates: usize,
    rows: usize,
    rank_secs: f64,
    advise_secs: f64,
}

/// `ensemble advise --members 8 --k 1 --nodes 6` without its core sweep:
/// eight 16+8-core members filling six 32-core nodes, ranked in closed
/// form at the advisor's `top_k`, then each row played through the DES.
/// The advisor's rows are first checked to be the ranking's.
fn bench_advise(quick: bool) -> AdviseSample {
    let budget = NodeBudget { max_nodes: 6, cores_per_node: 32 };
    let shape = EnsembleShape::uniform(8, 16, 1, 8);
    let mut base = SimRunConfig::paper(shape.materialize(&[0; 16]));
    base.n_steps = 6;
    let opts = ScanOptions { top_k: advisor::TOP_K, ..Default::default() };
    let rank = || {
        let solves = Arc::new(SolveCache::new(&base));
        Ranker::new(&base, &shape, &solves, None, ()).rank(budget, &opts).expect("ranking")
    };
    let advise = || recommend_placement(8, 16, 1, 8, budget, false).expect("advise");
    let ranked = rank();
    let rec = advise();
    let rows: Vec<&RankedPlacement> = rec.top.iter().map(|row| &row.ranked).collect();
    assert_eq!(rows, ranked.results.iter().map(|h| &h.value).collect::<Vec<_>>());
    let reps = if quick { 3 } else { 21 };
    let (rank_secs, candidates) = median_secs(reps, || rank().scanned);
    let (advise_secs, rows) = median_secs(reps, || advise().top.len());
    AdviseSample { candidates, rows, rank_secs, advise_secs }
}

fn render_advise(s: &AdviseSample) -> String {
    format!(
        "{{\"name\": \"advise/{}\", \"rows\": {}, \"rank_secs\": {:.6}, \"confirm_secs\": {:.6}, \"advise_secs\": {:.6}}}",
        s.candidates,
        s.rows,
        s.rank_secs,
        s.advise_secs - s.rank_secs,
        s.advise_secs
    )
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
            "  {:<25} {} workers={:<2} threads={:<2} pulls={:<4} visited={:<6} scored={:<6} reps={:<6} copies={:<6} searches={:<5} states={:<5} {:.6}s  {:.3} ns/candidate",
            s.name,
            s.walk,
            s.workers,
            s.threads,
            s.pulls,
            s.visited,
            s.scored,
            s.reps,
            s.copies,
            s.orbit_searches,
            s.count_states,
            s.secs,
            s.secs * 1e9 / s.candidates as f64
        );
    }
    let spawn_join = spawn_join_us(quick);
    eprintln!("  scoped spawn+join {spawn_join:.1} us");
    let advise = bench_advise(quick);
    eprintln!(
        "  advise/{} rows={} rank {:.6}s  advise {:.6}s",
        advise.candidates, advise.rows, advise.rank_secs, advise.advise_secs
    );

    let cosched = bench_cosched(quick);
    for s in &cosched {
        eprintln!(
            "  cosched concurrent={:<2} jobs={:<3} wait p50={:.3}ms p95={:.3}ms",
            s.concurrent, s.jobs, s.wait_p50_ms, s.wait_p95_ms
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"scan_throughput\",\n  \"host_cores\": {host_cores},\n  \"quick\": {quick},\n  \"commit\": \"{}\",\n  \"spawn_join_us\": {spawn_join:.1},\n  \"fast_path\": {},\n  \"delta_eval\": {},\n  \"service_scans\": {},\n  \"advise\": {},\n  \"cosched_queue_wait\": {}\n}}\n",
        bench::git_commit(),
        render(&fast),
        render_delta(&delta),
        render_named(&service_scans),
        render_advise(&advise),
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
