//! Property-based tests of the delta evaluation engine.
//!
//! The contract is the repo's established one: **bit-identity**. A
//! `DeltaEvaluator` fed any sequence of assignments — enumeration
//! order, random jumps, single-component moves — must
//! return exactly the floats a fresh from-scratch evaluation returns,
//! for every candidate, under any solve-cache capacity (eviction may
//! cost re-solves, never correctness). On top of that: occupancy-
//! signature collisions must actually reuse solves (the point of the
//! cache), and the delta-scoring scan must match the plain scan at any
//! worker count.
//!
//! The same contract covers a [`SolveCache`] shared between
//! evaluators: whatever warmed it, whatever its capacity, however many
//! scans fill it at once, an evaluator backed by it returns the bits a
//! private one returns.
//!
//! Every scan here names its width: each scan-level property sweeps 1,
//! 2 and 8 workers explicitly (a warming scan and the two concurrent
//! scans included), so the thread-count axis is covered wherever the
//! suite runs, on any host.

use std::sync::{Arc, Barrier};

use runtime::{RuntimeError, RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::{
    canonicalize, enumerate_placements, scan_placements, Candidate, DeltaCounters, DeltaEvaluator,
    EnsembleShape, FastEvaluator, FastScore, NodeBudget, ScanOptions, ScanVisitor, SolveCache,
};
use testkit::{check, Gen};

/// Small-but-varied ensemble shapes: 1–3 members, 1–2 analyses each,
/// core counts spanning the paper's co-location regimes.
fn shape(g: &mut Gen) -> EnsembleShape {
    let (members, sim_cores) = (g.range(1usize..=3), g.select(&[8u32, 16, 24]));
    let (analyses_per_member, analysis_cores) = (g.range(1usize..=2), g.select(&[4u32, 8]));
    EnsembleShape::uniform(members, sim_cores, analyses_per_member, analysis_cores)
}

fn base_config(spec: ensemble_core::EnsembleSpec) -> SimRunConfig {
    let mut base = SimRunConfig::paper(spec);
    base.workloads = WorkloadMap::small_defaults();
    base
}

/// Per-component core demands in flat order.
fn flat_cores(shape: &EnsembleShape) -> Vec<u32> {
    let mut v = Vec::new();
    for (sim, anas) in &shape.members {
        v.push(*sim);
        v.extend(anas.iter().copied());
    }
    v
}

/// True when `assignment` fits the budget.
fn feasible(assignment: &[usize], cores: &[u32], budget: NodeBudget) -> bool {
    let mut load = vec![0u32; budget.max_nodes];
    for (&node, &c) in assignment.iter().zip(cores) {
        if node >= budget.max_nodes {
            return false;
        }
        load[node] += c;
        if load[node] > budget.cores_per_node {
            return false;
        }
    }
    true
}

/// Asserts one delta-scored result equals the from-scratch reference,
/// float bits and all.
fn assert_scores_match(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    delta: &mut DeltaEvaluator,
    assignment: &[usize],
) {
    let got = delta.score(assignment).expect("delta score");
    let want =
        FastEvaluator::new(base).score(&shape.materialize(assignment)).expect("reference score");
    assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "{assignment:?}");
    assert_eq!(got.ensemble_makespan.to_bits(), want.ensemble_makespan.to_bits(), "{assignment:?}");
    assert_eq!(got.nodes_used, want.nodes_used, "{assignment:?}");
    assert_eq!(got.eq4_satisfied, want.eq4_satisfied, "{assignment:?}");
}

/// Every field of a score, floats as bits.
fn bits(score: &FastScore) -> (u64, u64, usize, bool) {
    (
        score.objective.to_bits(),
        score.ensemble_makespan.to_bits(),
        score.nodes_used,
        score.eq4_satisfied,
    )
}

/// The from-scratch oracle over the whole space, in enumeration order.
fn oracle_scores(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
) -> Vec<(u64, u64, usize, bool)> {
    let mut oracle = FastEvaluator::new(base);
    enumerate_placements(shape, budget.max_nodes, budget.cores_per_node)
        .iter()
        .map(|a| bits(&oracle.score(&shape.materialize(a)).expect("reference score")))
        .collect()
}

/// Every candidate scored by a delta evaluator that `build` makes per
/// worker, kept as its bits.
struct DeltaScan<F> {
    build: F,
}

impl<F: Fn() -> DeltaEvaluator + Sync> ScanVisitor for DeltaScan<F> {
    type State = DeltaEvaluator;
    type Scored = FastScore;
    type Row = (u64, u64, usize, bool);
    type Error = RuntimeError;

    fn init(&self) -> DeltaEvaluator {
        (self.build)()
    }

    fn eval(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
    ) -> RuntimeResult<Option<FastScore>> {
        evaluator.score_delta(c.assignment, c.first_changed).map(Some)
    }

    fn objective(&self, score: &FastScore) -> f64 {
        score.objective
    }

    fn keep(&self, _: &mut DeltaEvaluator, _: Candidate<'_>, score: FastScore) -> Self::Row {
        bits(&score)
    }

    fn drain(&self, evaluator: &mut DeltaEvaluator) -> DeltaCounters {
        evaluator.take_counters()
    }
}

/// One full scan whose workers each build their evaluator with
/// `evaluator`; scores in enumeration order, and the summed counters.
fn delta_scan(
    shape: &EnsembleShape,
    budget: NodeBudget,
    opts: &ScanOptions,
    evaluator: impl Fn() -> DeltaEvaluator + Sync,
) -> (Vec<(u64, u64, usize, bool)>, DeltaCounters) {
    let opts = ScanOptions { top_k: 0, ..*opts };
    let outcome =
        scan_placements(shape, budget, &opts, &DeltaScan { build: evaluator }).expect("delta scan");
    let counters = outcome.delta;
    (outcome.into_values(), counters)
}

const CASES: u32 = 24;

/// Evaluators backed by one shared [`SolveCache`] — already warmed
/// by a *different* shape, tiny enough to evict on every insert or
/// roomy, at any worker count and chunk size — return exactly what
/// private evaluators and the from-scratch oracle return.
#[test]
fn a_shared_solve_cache_never_changes_a_bit() {
    check(CASES, |g| {
        let (shape, warmer) = (shape(g), shape(g));
        let (max_nodes, capacity) = (g.range(1usize..=4), g.select(&[0usize, 1, 2, 1024]));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let placements = enumerate_placements(&shape, max_nodes, budget.cores_per_node);
        if placements.is_empty() {
            return;
        }
        let base = base_config(shape.materialize(&placements[0]));
        let want = oracle_scores(&base, &shape, budget);
        let serial = ScanOptions { workers: 1, ..ScanOptions::default() };
        let (private, _) =
            delta_scan(&shape, budget, &serial, || DeltaEvaluator::new(&base, &shape));
        assert_eq!(&private, &want);

        let solves = Arc::new(SolveCache::with_capacity(&base, capacity));
        for workers in [1usize, 2, 8] {
            let warming = ScanOptions { workers, ..ScanOptions::default() };
            let (warmed, _) = delta_scan(&warmer, budget, &warming, || {
                DeltaEvaluator::with_solve_cache(&base, &warmer, &solves)
            });
            assert_eq!(&warmed, &oracle_scores(&base, &warmer, budget));
        }
        for workers in [1usize, 2, 8] {
            for chunk in [1usize, 32, placements.len() + 1] {
                let opts = ScanOptions { workers, chunk, top_k: 0 };
                let (got, counters) = delta_scan(&shape, budget, &opts, || {
                    DeltaEvaluator::with_solve_cache(&base, &shape, &solves)
                });
                assert_eq!(&got, &want, "workers={} chunk={}", workers, chunk);
                assert!(counters.solve_hits + counters.solve_misses > 0);
                assert!(solves.held() <= capacity, "{} solves held", solves.held());
            }
        }
        if capacity == 1024 {
            // Everything this shape needs is in the cache by now: a
            // fresh evaluator never runs the solver.
            let (_, counters) = delta_scan(&shape, budget, &serial, || {
                DeltaEvaluator::with_solve_cache(&base, &shape, &solves)
            });
            assert_eq!(counters.solve_misses, 0);
        }
    });
}

/// A base under the data-locality ablation, a power cap, or both
/// scores bit-identically to the oracle — privately, and through a
/// shared cache at any worker count. The cap is part of a cache's
/// scope: a cache built for the uncapped platform, already warm, is
/// neither consulted nor filled by a capped evaluator. The ablation
/// prices only reads, so a cache is shared across it.
#[test]
fn forced_remote_reads_and_power_caps_never_change_a_bit() {
    check(CASES, |g| {
        let (shape, max_nodes) = (shape(g), g.range(1usize..=4));
        let (force_remote_reads, cap) = (g.bool(), g.select(&[None, Some(150.0), Some(100.0)]));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let placements = enumerate_placements(&shape, max_nodes, budget.cores_per_node);
        if placements.is_empty() {
            return;
        }
        let plain = base_config(shape.materialize(&placements[0]));
        let mut base = plain.clone();
        base.force_remote_reads = force_remote_reads;
        base.power_cap_watts = cap;
        let want = oracle_scores(&base, &shape, budget);
        let serial = ScanOptions { workers: 1, ..ScanOptions::default() };
        let (private, private_counters) =
            delta_scan(&shape, budget, &serial, || DeltaEvaluator::new(&base, &shape));
        assert_eq!(&private, &want, "force_remote_reads={force_remote_reads} cap={cap:?}");

        let solves = Arc::new(SolveCache::new(&base));
        for workers in [1usize, 2, 8] {
            let opts = ScanOptions { workers, chunk: 3, top_k: 0 };
            let (got, _) = delta_scan(&shape, budget, &opts, || {
                DeltaEvaluator::with_solve_cache(&base, &shape, &solves)
            });
            assert_eq!(&got, &want, "workers={workers}");
        }

        // A cache warmed on the plain platform.
        let warm = Arc::new(SolveCache::new(&plain));
        let (plain_scores, _) = delta_scan(&shape, budget, &serial, || {
            DeltaEvaluator::with_solve_cache(&plain, &shape, &warm)
        });
        assert_eq!(plain_scores, oracle_scores(&plain, &shape, budget));
        let held = warm.held();
        let (got, counters) = delta_scan(&shape, budget, &serial, || {
            DeltaEvaluator::with_solve_cache(&base, &shape, &warm)
        });
        assert_eq!(&got, &want);
        if cap.is_some() {
            assert_eq!(counters, private_counters, "a foreign cache answered a solve");
            assert_eq!(warm.held(), held, "a foreign cache was filled");
        } else {
            assert_eq!(counters.solve_misses, 0, "the plain cache serves the ablation");
        }
    });
}

/// Two scans of different shapes filling one cache at the same time
/// each still match their oracle.
#[test]
fn concurrent_scans_share_one_cache_bit_identically() {
    check(CASES, |g| {
        let (left, right) = (shape(g), shape(g));
        let (max_nodes, capacity) = (g.range(2usize..=4), g.select(&[1usize, 2, 1024]));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let base = base_config(left.materialize(&vec![0; left.num_components()]));
        for workers in [1usize, 2, 8] {
            let solves = Arc::new(SolveCache::with_capacity(&base, capacity));
            let start = Barrier::new(2);
            let opts = ScanOptions { workers, chunk: 2, ..ScanOptions::default() };
            let scan = |shape: &EnsembleShape| {
                start.wait();
                delta_scan(shape, budget, &opts, || {
                    DeltaEvaluator::with_solve_cache(&base, shape, &solves)
                })
                .0
            };
            let (got_left, got_right) = std::thread::scope(|scope| {
                let other = scope.spawn(|| scan(&right));
                (scan(&left), other.join().expect("scanning thread"))
            });
            assert_eq!(got_left, oracle_scores(&base, &left, budget));
            assert_eq!(got_right, oracle_scores(&base, &right, budget));
        }
    });
}

/// Random sequences of feasible assignments — arbitrary jumps, no
/// shared-prefix structure at all — score bit-identically to a
/// fresh from-scratch evaluation at every step.
#[test]
fn random_placement_sequences_are_bit_identical() {
    check(CASES, |g| {
        let (shape, max_nodes) = (shape(g), g.range(1usize..=4));
        let raw = g.vec(1..=12, |g| g.vec(1..=12, |g| g.range(0usize..4)));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let cores = flat_cores(&shape);
        let n = cores.len();
        let sequence: Vec<Vec<usize>> = raw
            .iter()
            .map(|seed| (0..n).map(|i| seed[i % seed.len()] % max_nodes).collect())
            .filter(|a: &Vec<usize>| feasible(a, &cores, budget))
            .collect();
        if sequence.is_empty() {
            return;
        }
        let base = base_config(shape.materialize(&sequence[0]));
        let mut delta = DeltaEvaluator::new(&base, &shape);
        for assignment in &sequence {
            assert_scores_match(&base, &shape, &mut delta, assignment);
        }
    });
}

/// Local-search traces — single-component moves from a feasible
/// start, scored on the canonicalized assignment — are bit-identical
/// at every move.
#[test]
fn annealing_move_traces_are_bit_identical() {
    check(CASES, |g| {
        let (shape, max_nodes) = (shape(g), g.range(2usize..=4));
        let moves = g.vec(1..=40, |g| (g.range(0usize..32), g.range(0usize..4)));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let cores = flat_cores(&shape);
        let n = cores.len();
        // First-fit start.
        let mut current: Vec<usize> = Vec::with_capacity(n);
        let mut load = vec![0u32; max_nodes];
        for &c in &cores {
            match (0..max_nodes).find(|&nd| load[nd] + c <= budget.cores_per_node) {
                Some(nd) => {
                    load[nd] += c;
                    current.push(nd);
                }
                None => return, // infeasible instance — skip
            }
        }
        let base = base_config(shape.materialize(&current));
        let mut delta = DeltaEvaluator::new(&base, &shape);
        assert_scores_match(&base, &shape, &mut delta, &canonicalize(&current));
        for &(idx, node) in &moves {
            let mut candidate = current.clone();
            candidate[idx % n] = node % max_nodes;
            if !feasible(&candidate, &cores, budget) {
                continue;
            }
            current = candidate;
            assert_scores_match(&base, &shape, &mut delta, &canonicalize(&current));
        }
    });
}

/// A tiny (or disabled) solve cache never changes results: eviction
/// costs re-solves, not correctness.
#[test]
fn cache_eviction_never_changes_results() {
    check(CASES, |g| {
        let (shape, max_nodes, capacity) = (shape(g), g.range(1usize..=4), g.range(0usize..=2));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let placements = enumerate_placements(&shape, max_nodes, budget.cores_per_node);
        if placements.is_empty() {
            return;
        }
        let base = base_config(shape.materialize(&placements[0]));
        let mut tiny = DeltaEvaluator::with_cache_capacity(&base, &shape, capacity);
        let mut roomy = DeltaEvaluator::new(&base, &shape);
        for assignment in &placements {
            let a = tiny.score(assignment).expect("tiny-cache score");
            let b = roomy.score(assignment).expect("roomy-cache score");
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{assignment:?}");
            assert_eq!(a.ensemble_makespan.to_bits(), b.ensemble_makespan.to_bits());
            assert_eq!(a.eq4_satisfied, b.eq4_satisfied);
            assert_scores_match(&base, &shape, &mut roomy, assignment);
        }
        // The bounded cache must actually be bounded.
        assert!(tiny.cached_solves() <= capacity);
    });
}

/// The delta-scoring scan reproduces the from-scratch scores bit for
/// bit — same candidates, same order, same floats — at 1, 2 and 8
/// workers, across chunk sizes.
#[test]
fn delta_scan_matches_plain_scan_bitwise() {
    check(CASES, |g| {
        let (shape, max_nodes, chunk) = (shape(g), g.range(1usize..=4), g.range(1usize..=8));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let placements = enumerate_placements(&shape, max_nodes, budget.cores_per_node);
        if placements.is_empty() {
            return;
        }
        let base = base_config(shape.materialize(&placements[0]));
        let reference = oracle_scores(&base, &shape, budget);
        for workers in [1usize, 2, 8] {
            let opts = ScanOptions { workers, chunk, top_k: 0 };
            let (got, counters) =
                delta_scan(&shape, budget, &opts, || DeltaEvaluator::new(&base, &shape));
            assert_eq!(got, reference, "workers={workers} chunk={chunk}");
            // Every candidate's nodes were solved through the delta
            // machinery (hit or miss, never silently skipped).
            assert!(
                counters.solve_hits + counters.solve_misses > 0,
                "counters must reflect the scan"
            );
            assert!(counters.members_recomputed > 0);
        }
    });
}

#[test]
fn signature_collisions_reuse_solves_across_member_identities() {
    // Two identical members fully co-located: [0,0,1,1] then the
    // node-swapped [1,1,0,0]. Every position changes, both nodes are
    // touched — but each node's resident (workload, cores) sequence is
    // one the cache has already solved (built from the *other* member's
    // components), so the second score must be all hits.
    let shape = EnsembleShape::uniform(2, 16, 1, 8);
    let base = base_config(shape.materialize(&[0, 0, 1, 1]));
    let mut delta = DeltaEvaluator::new(&base, &shape);

    assert_scores_match(&base, &shape, &mut delta, &[0, 0, 1, 1]);
    let after_first = delta.counters();
    assert_eq!(after_first.solve_misses, 1, "node 1's occupancy collides with node 0's");
    assert_eq!(after_first.solve_hits, 1, "…and is served from the cache");

    assert_scores_match(&base, &shape, &mut delta, &[1, 1, 0, 0]);
    let after_second = delta.counters();
    assert_eq!(
        after_second.solve_misses, after_first.solve_misses,
        "no new solves: both occupancy signatures were already cached"
    );
    assert_eq!(after_second.solve_hits, 3, "both touched nodes served from cache");
}

#[test]
fn components_too_wide_for_a_signature_score_uncached_and_identically() {
    // Shapes come off the wire with cores bounded only by u32. Beyond
    // the 16 bits a signature packs, the evaluator must neither panic
    // nor alias two signatures: it scores with the solve cache off.
    let shape = EnsembleShape::uniform(2, 70_000, 1, 8);
    let mut base = base_config(shape.materialize(&[0, 0, 1, 1]));
    base.node_spec.cores_per_socket = 80_000;
    let mut delta = DeltaEvaluator::new(&base, &shape);
    for assignment in [[0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]] {
        assert_scores_match(&base, &shape, &mut delta, &assignment);
    }
    assert_eq!(delta.counters().solve_hits, 0);
    assert_eq!(delta.cached_solves(), 0);
    // On the paper's 32-core nodes the same shape is an error per
    // candidate, as from scratch — not a panic at construction.
    let base = base_config(shape.materialize(&[0, 0, 1, 1]));
    assert!(DeltaEvaluator::new(&base, &shape).score(&[0, 0, 1, 1]).is_err());
}

#[test]
fn unchanged_nodes_are_not_rescored() {
    // Moving one analysis touches its old and new node only; a member
    // co-located on an untouched node must not be recomputed.
    let shape = EnsembleShape::uniform(3, 16, 1, 8);
    let base = base_config(shape.materialize(&[0, 0, 1, 1, 2, 2]));
    let mut delta = DeltaEvaluator::new(&base, &shape);
    assert_scores_match(&base, &shape, &mut delta, &[0, 0, 1, 1, 2, 2]);
    let before = delta.counters();
    assert_eq!(before.members_recomputed, 3, "first score computes everyone");
    // Move member 1's analysis from node 1 to node 0.
    assert_scores_match(&base, &shape, &mut delta, &[0, 0, 1, 0, 2, 2]);
    let after = delta.counters();
    assert_eq!(
        after.members_recomputed - before.members_recomputed,
        2,
        "members 0 and 1 share the touched nodes; member 2 must be served from cache"
    );
}

#[test]
fn errors_poison_the_delta_state_then_recover() {
    // An infeasible candidate errors (node over capacity); the next
    // feasible score must rebuild cleanly and stay bit-identical.
    let shape = EnsembleShape::uniform(2, 16, 1, 8);
    let base = base_config(shape.materialize(&[0, 0, 1, 1]));
    let mut delta = DeltaEvaluator::new(&base, &shape);
    assert_scores_match(&base, &shape, &mut delta, &[0, 0, 1, 1]);
    // 16+8+16 = 40 cores on node 0 overflows the 32-core node.
    assert!(delta.score(&[0, 0, 0, 1]).is_err(), "overloaded node must error");
    for assignment in [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]] {
        assert_scores_match(&base, &shape, &mut delta, &assignment);
    }
}

#[test]
fn conservative_hints_are_accepted() {
    // A hint may point earlier than the first actual difference; the
    // evaluator must still land on the identical result.
    let shape = EnsembleShape::uniform(2, 16, 1, 8);
    let base = base_config(shape.materialize(&[0, 0, 1, 1]));
    let mut delta = DeltaEvaluator::new(&base, &shape);
    delta.score(&[0, 0, 1, 1]).expect("seed score");
    let got = delta.score_delta(&[0, 0, 1, 2], Some(0)).expect("hinted score");
    let want =
        FastEvaluator::new(&base).score(&shape.materialize(&[0, 0, 1, 2])).expect("reference");
    assert_eq!(got.objective.to_bits(), want.objective.to_bits());
    assert_eq!(got.ensemble_makespan.to_bits(), want.ensemble_makespan.to_bits());
}

#[test]
fn a_poisoned_evaluator_leaves_the_shared_cache_sound() {
    // 40 cores on node 0 abort the solve half way (`InsufficientCores`)
    // after the evaluator has already filed solves in the shared cache.
    // The same evaluator, reused, and a fresh one backed by the same
    // cache must both stay bit-identical to the oracle.
    let shape = EnsembleShape::uniform(2, 16, 1, 8);
    let base = base_config(shape.materialize(&[0, 0, 1, 1]));
    let solves = Arc::new(SolveCache::new(&base));
    let mut first = DeltaEvaluator::with_solve_cache(&base, &shape, &solves);
    assert_scores_match(&base, &shape, &mut first, &[0, 0, 1, 1]);
    assert!(first.score(&[0, 0, 0, 1]).is_err(), "overloaded node must error");
    let held = solves.held();
    assert!(held > 0, "the first score filed its solves");
    let mut second = DeltaEvaluator::with_solve_cache(&base, &shape, &solves);
    for assignment in [[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 2, 2]] {
        assert_scores_match(&base, &shape, &mut first, &assignment);
        assert_scores_match(&base, &shape, &mut second, &assignment);
    }
    assert!(second.counters().solve_hits > 0);
    assert!(solves.held() >= held);
}

#[test]
fn workload_maps_sharing_a_cache_never_answer_each_other() {
    // Profiles are interned by value: the small and the paper map name
    // different workloads, so an occupancy solved under one is never
    // served to the other even out of the very same cache.
    let shape = EnsembleShape::uniform(2, 16, 1, 8);
    let budget = NodeBudget { max_nodes: 3, cores_per_node: 32 };
    let small = base_config(shape.materialize(&[0, 0, 1, 1]));
    let paper = SimRunConfig::paper(shape.materialize(&[0, 0, 1, 1]));
    let serial = ScanOptions { workers: 1, ..ScanOptions::default() };
    let alone = |base: &SimRunConfig| {
        let solves = Arc::new(SolveCache::new(base));
        delta_scan(&shape, budget, &serial, || {
            DeltaEvaluator::with_solve_cache(base, &shape, &solves)
        })
    };
    let (small_alone, small_counters) = alone(&small);
    let (paper_alone, paper_counters) = alone(&paper);
    assert_ne!(small_alone, paper_alone, "the two maps must actually differ");
    assert_eq!(small_alone, oracle_scores(&small, &shape, budget));
    assert_eq!(paper_alone, oracle_scores(&paper, &shape, budget));

    let solves = Arc::new(SolveCache::new(&small));
    for _ in 0..2 {
        for (base, want, cold) in
            [(&small, &small_alone, small_counters), (&paper, &paper_alone, paper_counters)]
        {
            let (got, counters) = delta_scan(&shape, budget, &serial, || {
                DeltaEvaluator::with_solve_cache(base, &shape, &solves)
            });
            assert_eq!(&got, want);
            // Hit or miss, every touched node is counted once.
            assert_eq!(
                counters.solve_hits + counters.solve_misses,
                cold.solve_hits + cold.solve_misses
            );
        }
    }
    // First round: each map solved exactly what it solves on its own —
    // the other map's entries answered nothing.
    assert_eq!(solves.held() as u64, small_counters.solve_misses + paper_counters.solve_misses);

    // A cache built for another platform is not consulted at all.
    let mut compact = small.clone();
    compact.bind_policy = hpc_platform::BindPolicy::Compact;
    let foreign = Arc::new(SolveCache::new(&compact));
    let (got, _) = delta_scan(&shape, budget, &serial, || {
        DeltaEvaluator::with_solve_cache(&small, &shape, &foreign)
    });
    assert_eq!(got, small_alone);
    assert_eq!(foreign.held(), 0);
}

#[test]
fn components_too_wide_for_a_signature_bypass_the_shared_cache() {
    // As with the private table (above): past 65 535 cores there is no
    // signature word, so the evaluator scores uncached — and files
    // nothing under a truncated key somebody else could be served.
    let shape = EnsembleShape::uniform(2, 70_000, 1, 8);
    let mut base = base_config(shape.materialize(&[0, 0, 1, 1]));
    base.node_spec.cores_per_socket = 80_000;
    let solves = Arc::new(SolveCache::new(&base));
    let mut delta = DeltaEvaluator::with_solve_cache(&base, &shape, &solves);
    for assignment in [[0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]] {
        assert_scores_match(&base, &shape, &mut delta, &assignment);
    }
    assert_eq!(delta.counters().solve_hits, 0);
    assert_eq!(solves.held(), 0);
}
