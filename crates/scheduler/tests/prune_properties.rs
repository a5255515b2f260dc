//! Property-based tests of bound-pruned top-K scoring.
//!
//! A bounded scan walks the enumeration branch and bound: it skips every
//! subtree whose [`ObjectiveBound`] — `mean(CPᵢ / cᵢ) / M` of a prefix —
//! is strictly below the K-th best objective known so far, counting it
//! at its exact size, and hands each leaf it does visit that floor, so
//! [`DeltaEvaluator::score_above`] skips the leaf the same way. The
//! contract is that pruning is invisible: the bound never undercuts a
//! real objective, a prefix's bound never undercuts a completion's, the
//! counted sizes keep every candidate at its enumeration index, and a
//! bounded scan returns exactly the first K rows of the full stable
//! ranking — every index, every bit — at any worker count and chunk
//! size, while a full ranking (`top_k: 0`) prunes nothing.
//!
//! Shapes are drawn irregular (members of different widths and core
//! counts, down to one-core components) or with every member alike, and
//! scored under both workload maps. Every scan here names its width (1,
//! 2 and 8 workers, swept explicitly), so the thread-count axis is
//! covered wherever the suite runs, on any host.

use std::sync::atomic::{AtomicUsize, Ordering};

use runtime::{RuntimeError, RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::scan::SOLO_CANDIDATES;
use scheduler::{
    enumerate_placements, scan_placements, Candidate, DeltaCounters, DeltaEvaluator, EnsembleShape,
    FastEvaluator, FastScore, NodeBudget, ObjectiveBound, PlacementIter, ScanOptions, ScanVisitor,
};
use testkit::{check, Gen};

/// Candidate spaces above this size shrink their node budget: the
/// sweep below scans each space dozens of times.
const MAX_SPACE: usize = 1500;

const CASES: u32 = 16;

const CORES: [u32; 5] = [1, 2, 4, 8, 16];

/// 1–5 members, each a simulation and 1–3 analyses of drawn core
/// counts — half the time every member alike (where the bound is
/// tightest: equal members have no spread to lose), otherwise each
/// drawn on its own — on 1–8 nodes of the paper's 32 cores, fewer when
/// the space would exceed [`MAX_SPACE`].
fn case(g: &mut Gen) -> (EnsembleShape, NodeBudget, SimRunConfig, usize) {
    let member = |g: &mut Gen| (g.select(&CORES), g.vec(1..=3, |g| g.select(&CORES)));
    let members = if g.bool() {
        let alike = member(g);
        vec![alike; g.range(1usize..=5)]
    } else {
        g.vec(1..=5, member)
    };
    let shape = EnsembleShape { members };
    let mut budget = NodeBudget { max_nodes: g.range(1usize..=8), cores_per_node: 32 };
    let size = |budget: NodeBudget| {
        PlacementIter::new(&shape, budget.max_nodes, budget.cores_per_node)
            .take(MAX_SPACE + 1)
            .count()
    };
    while budget.max_nodes > 1 && size(budget) > MAX_SPACE {
        budget.max_nodes -= 1;
    }
    let space = size(budget);
    let base = base_config(&shape, g.bool());
    (shape, budget, base, space)
}

/// The paper's platform under its own workload map or the small one.
fn base_config(shape: &EnsembleShape, small: bool) -> SimRunConfig {
    let mut base = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
    if small {
        base.workloads = WorkloadMap::small_defaults();
    }
    base
}

/// Every field of a ranked row, floats as bits.
type Row = (usize, u64, u64, usize, bool);

fn row(index: usize, score: &FastScore) -> Row {
    (
        index,
        score.objective.to_bits(),
        score.ensemble_makespan.to_bits(),
        score.nodes_used,
        score.eq4_satisfied,
    )
}

/// The from-scratch oracle over the whole space, in enumeration order.
fn oracle(shape: &EnsembleShape, budget: NodeBudget, base: &SimRunConfig) -> Vec<FastScore> {
    let mut evaluator = FastEvaluator::new(base);
    PlacementIter::new(shape, budget.max_nodes, budget.cores_per_node)
        .map(|a| evaluator.score(&shape.materialize(&a)).expect("oracle score"))
        .collect()
}

/// The service's scan: subtrees skipped on the [`ObjectiveBound`], each
/// leaf scored through `score_above` against its floor — counting the
/// leaves handed out, and those that came with a first-changed hint.
struct Pruned<'a> {
    base: &'a SimRunConfig,
    shape: &'a EnsembleShape,
    bound: ObjectiveBound,
    visited: AtomicUsize,
    hinted: AtomicUsize,
}

impl ScanVisitor for Pruned<'_> {
    type State = DeltaEvaluator;
    type Scored = FastScore;
    type Row = FastScore;
    type Error = RuntimeError;

    fn init(&self) -> DeltaEvaluator {
        DeltaEvaluator::new(self.base, self.shape)
    }

    fn eval(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
    ) -> RuntimeResult<Option<FastScore>> {
        self.visited.fetch_add(1, Ordering::Relaxed);
        if c.first_changed.is_some() {
            self.hinted.fetch_add(1, Ordering::Relaxed);
        }
        evaluator.score_above(c.assignment, c.first_changed, c.floor)
    }

    fn objective(&self, score: &FastScore) -> f64 {
        score.objective
    }

    fn keep(&self, _: &mut DeltaEvaluator, _: Candidate<'_>, score: FastScore) -> FastScore {
        score
    }

    fn drain(&self, evaluator: &mut DeltaEvaluator) -> DeltaCounters {
        evaluator.take_counters()
    }

    fn prefix_bound(&self, prefix: &[usize], open_nodes: usize) -> f64 {
        self.bound.of_prefix(prefix, open_nodes)
    }
}

/// What one pruned scan returned and did.
struct PrunedScan {
    /// Rows in output order.
    rows: Vec<Row>,
    scanned: usize,
    counters: DeltaCounters,
    /// Threads that scanned.
    workers: usize,
    /// Leaves handed to an evaluator.
    visited: usize,
    /// Of those, the ones that came with a first-changed hint.
    hinted: usize,
}

/// One scan scored the way the service scores.
fn pruned_scan(
    shape: &EnsembleShape,
    budget: NodeBudget,
    base: &SimRunConfig,
    opts: &ScanOptions,
) -> PrunedScan {
    let visitor = Pruned {
        base,
        shape,
        bound: ObjectiveBound::new(shape),
        visited: AtomicUsize::new(0),
        hinted: AtomicUsize::new(0),
    };
    let outcome = scan_placements(shape, budget, opts, &visitor).expect("pruned scan");
    PrunedScan {
        rows: outcome.results.iter().map(|h| row(h.index, &h.value)).collect(),
        scanned: outcome.scanned,
        counters: outcome.delta,
        workers: outcome.workers,
        visited: visitor.visited.into_inner(),
        hinted: visitor.hinted.into_inner(),
    }
}

/// (a) The bound never undercuts the objective: scored against a floor
/// equal to its own oracle objective, no candidate is pruned, and what
/// it returns is the oracle's bits. Checked on drawn shapes and on the
/// paper's own, where the bound comes within 0.2 % of the objective.
#[test]
fn the_bound_is_never_below_the_objective() {
    let mut pruned_somewhere = false;
    check(CASES, |g| {
        let (shape, budget, base, _) = case(g);
        pruned_somewhere |= assert_bound_admissible(&shape, budget, &base);
    });
    for (members, sim, analyses, ana, max_nodes) in
        [(2, 16, 1, 8, 3), (4, 16, 1, 8, 6), (1, 16, 2, 8, 3)]
    {
        let shape = EnsembleShape::uniform(members, sim, analyses, ana);
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        for small in [false, true] {
            assert_bound_admissible(&shape, budget, &base_config(&shape, small));
        }
    }
    assert!(pruned_somewhere, "the bound never pruned anything: the property is vacuous");
}

/// Scores every candidate of the space against a floor of its own
/// oracle objective (it must be scored, with the oracle's bits), then
/// against a floor above it; returns whether the latter ever pruned.
fn assert_bound_admissible(shape: &EnsembleShape, budget: NodeBudget, base: &SimRunConfig) -> bool {
    let want = oracle(shape, budget, base);
    let mut evaluator = DeltaEvaluator::new(base, shape);
    let mut iter = PlacementIter::new(shape, budget.max_nodes, budget.cores_per_node);
    let (mut index, mut pruned) = (0, false);
    while let Some((assignment, hint)) = iter.advance_delta() {
        let objective = want[index].objective;
        let got = evaluator
            .score_above(assignment, (index > 0).then_some(hint), objective)
            .expect("score")
            .unwrap_or_else(|| panic!("{assignment:?}: bound below objective {objective}"));
        assert_eq!(row(index, &got), row(index, &want[index]), "{assignment:?}");
        // Above the objective the bound may or may not prune; when it
        // does, the next score still diffs against the last scored
        // candidate.
        let above = objective + objective.abs().max(1e-300);
        pruned |= evaluator.score_above(assignment, None, above).expect("score").is_none();
        index += 1;
    }
    assert_eq!(index, want.len());
    pruned
}

/// (b) A bounded scan is the head of the full stable ranking — index,
/// objective and makespan bits, `nodes_used`, Eq. 4 — for K of 1, 3,
/// 10 and more than the space, at every worker count and chunk size;
/// every candidate still counts as scanned; and a serial walk hints
/// every leaf after its first against the one handed out before it,
/// however much it skipped in between.
#[test]
fn top_k_with_pruning_is_the_head_of_the_full_ranking() {
    let (mut skipped, mut multi_worker) = (0usize, 0usize);
    check(CASES, |g| {
        let (shape, budget, base, space) = case(g);
        let (s, m) = assert_heads(&shape, budget, &base, &[1, 3, 10, space + 1], &[1, 7, 32]);
        skipped += s;
        multi_worker += m;
    });
    // A bounded scan brings a helper in only once its caller has handed
    // out `SOLO_CANDIDATES`, more than any drawn space holds: five
    // paper-sized members on five nodes (10 695 candidates) ranked whole
    // have one trade floors with the caller.
    let shape = EnsembleShape::uniform(5, 16, 1, 8);
    let budget = NodeBudget { max_nodes: 5, cores_per_node: 32 };
    let space = enumerate_placements(&shape, budget.max_nodes, budget.cores_per_node).len();
    assert!(space > SOLO_CANDIDATES + 32, "{space} candidates");
    let base = base_config(&shape, true);
    multi_worker += assert_heads(&shape, budget, &base, &[space + 1], &[32]).1;
    assert!(skipped > 0, "no bounded walk skipped a subtree: the property is vacuous");
    assert!(multi_worker > 0, "no scan ever brought a helper in: the widths are vacuous");
}

/// Asserts (b) for `shape` under `base` at each of `top_ks` and
/// `chunks`, at 1, 2 and 8 workers; returns how many candidates the
/// walks skipped and how many scans brought a helper in.
fn assert_heads(
    shape: &EnsembleShape,
    budget: NodeBudget,
    base: &SimRunConfig,
    top_ks: &[usize],
    chunks: &[usize],
) -> (usize, usize) {
    let (mut skipped, mut multi_worker) = (0usize, 0usize);
    let mut ranked: Vec<Row> =
        oracle(shape, budget, base).iter().enumerate().map(|(i, s)| row(i, s)).collect();
    // Stable best-first: equal objectives keep enumeration order.
    ranked.sort_by(|a, b| f64::from_bits(b.1).total_cmp(&f64::from_bits(a.1)));
    let all = enumerate_placements(shape, budget.max_nodes, budget.cores_per_node).len();
    for &top_k in top_ks {
        for workers in [1usize, 2, 8] {
            for &chunk in chunks {
                let opts = ScanOptions { workers, chunk, top_k };
                let scan = pruned_scan(shape, budget, base, &opts);
                let want = &ranked[..top_k.min(all)];
                let at = format!("top_k={top_k} workers={workers} chunk={chunk}");
                assert_eq!(scan.rows, want, "{at}");
                assert_eq!(scan.scanned, all, "{at}");
                assert!(scan.scanned - scan.counters.pruned as usize <= scan.visited, "{at}");
                if workers == 1 && scan.visited > 0 {
                    assert_eq!(scan.hinted, scan.visited - 1, "{at}: a hint went missing");
                }
                skipped += scan.scanned - scan.visited;
                multi_worker += usize::from(scan.workers > 1);
            }
        }
    }
    (skipped, multi_worker)
}

/// (b′) The prefix bound is never below the bound of any completion:
/// at every depth of every placement of the space.
#[test]
fn a_prefix_bound_is_never_below_a_completion_bound() {
    check(CASES, |g| {
        let (shape, budget, _, _) = case(g);
        let bound = ObjectiveBound::new(&shape);
        for leaf in enumerate_placements(&shape, budget.max_nodes, budget.cores_per_node) {
            let open = |p: &[usize]| p.iter().max().map_or(0, |&m| m + 1);
            let full = bound.of_prefix(&leaf, open(&leaf));
            for depth in 1..leaf.len() {
                let prefix = &leaf[..depth];
                let at = bound.of_prefix(prefix, open(prefix));
                assert!(
                    at >= full,
                    "{shape:?}: {prefix:?} bounds {at}, its completion {leaf:?} {full}"
                );
            }
        }
    });
}

/// (b″) Subtree sizes are counted exactly: a walk that skips
/// pseudo-random subtrees hands out every leaf it visits at its index in
/// the full enumeration, and accounts for the whole space.
#[test]
fn counted_subtrees_keep_every_index() {
    struct Skipper {
        all: Vec<Vec<usize>>,
        salt: u64,
    }
    impl ScanVisitor for Skipper {
        type State = ();
        type Scored = f64;
        type Row = usize;
        type Error = ();
        fn init(&self) {}
        fn eval(&self, _: &mut (), c: Candidate<'_>) -> Result<Option<f64>, ()> {
            assert_eq!(c.assignment, &self.all[c.index][..], "index {} moved", c.index);
            Ok(Some(0.0))
        }
        fn objective(&self, objective: &f64) -> f64 {
            *objective
        }
        fn keep(&self, _: &mut (), c: Candidate<'_>, _: f64) -> usize {
            c.index
        }
        // Once one leaf is kept the floor is 0: a third of all prefixes,
        // at every depth, then fall below it.
        fn prefix_bound(&self, prefix: &[usize], _: usize) -> f64 {
            let hash =
                prefix.iter().fold(self.salt, |h, &n| (h ^ n as u64).wrapping_mul(0x100_0000_01b3));
            if hash % 3 == 0 {
                -1.0
            } else {
                f64::INFINITY
            }
        }
    }
    let mut skipped = 0;
    check(CASES, |g| {
        let (shape, budget, _, _) = case(g);
        let all = enumerate_placements(&shape, budget.max_nodes, budget.cores_per_node);
        let visitor = Skipper { all, salt: g.range(0u64..=1_000_000) };
        for workers in [1usize, 2] {
            for chunk in [1usize, 7] {
                let opts = ScanOptions { workers, chunk, top_k: 1 };
                let outcome = scan_placements(&shape, budget, &opts, &visitor).expect("scan");
                assert_eq!(outcome.scanned, visitor.all.len(), "{shape:?} on {budget:?}");
                assert_eq!(outcome.scanned - outcome.delta.pruned as usize, outcome.feasible);
                assert_eq!(outcome.into_values(), &[0][..visitor.all.len().min(1)]);
                skipped += usize::from(visitor.all.len() > 1);
            }
        }
    });
    assert!(skipped > 0);
}

/// (b‴) The walk skips only what cannot rank, even under the tightest
/// admissible bound: with each prefix bounded by the best objective
/// among its own completions (found by brute force), a bounded scan
/// still returns the head of the full ranking, and skips most of it.
#[test]
fn a_tight_prefix_bound_skips_only_what_cannot_rank() {
    use std::collections::HashMap;
    struct Tight {
        best_below: HashMap<Vec<usize>, f64>,
    }
    fn objective(assignment: &[usize]) -> f64 {
        let hash =
            assignment.iter().fold(17u64, |h, &n| (h ^ n as u64).wrapping_mul(0x100_0000_01b3));
        (hash % 1000) as f64 / 1000.0
    }
    impl ScanVisitor for Tight {
        type State = ();
        type Scored = f64;
        type Row = f64;
        type Error = ();
        fn init(&self) {}
        fn eval(&self, _: &mut (), c: Candidate<'_>) -> Result<Option<f64>, ()> {
            Ok(Some(objective(c.assignment)).filter(|&o| o >= c.floor))
        }
        fn objective(&self, objective: &f64) -> f64 {
            *objective
        }
        fn keep(&self, _: &mut (), _: Candidate<'_>, objective: f64) -> f64 {
            objective
        }
        // A prefix no placement completes has nothing to rank.
        fn prefix_bound(&self, prefix: &[usize], _: usize) -> f64 {
            self.best_below.get(prefix).copied().unwrap_or(f64::NEG_INFINITY)
        }
    }
    let mut skipped = 0;
    check(CASES, |g| {
        let (shape, budget, _, _) = case(g);
        let all = enumerate_placements(&shape, budget.max_nodes, budget.cores_per_node);
        let mut best_below: HashMap<Vec<usize>, f64> = HashMap::new();
        for leaf in &all {
            for depth in 1..=leaf.len() {
                let best = best_below.entry(leaf[..depth].to_vec()).or_insert(f64::NEG_INFINITY);
                *best = best.max(objective(leaf));
            }
        }
        let mut ranked: Vec<(usize, f64)> = all.iter().map(|a| objective(a)).enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let visitor = Tight { best_below };
        for top_k in [1, 3, 10] {
            for (workers, chunk) in [(1usize, 1usize), (1, 32), (2, 1), (8, 7)] {
                let opts = ScanOptions { workers, chunk, top_k };
                let outcome = scan_placements(&shape, budget, &opts, &visitor).expect("scan");
                let got: Vec<(usize, f64)> =
                    outcome.results.iter().map(|h| (h.index, h.value)).collect();
                assert_eq!(got, &ranked[..top_k.min(all.len())], "top_k={top_k} workers={workers}");
                assert_eq!(outcome.scanned, all.len());
                skipped += outcome.delta.pruned;
            }
        }
    });
    assert!(skipped > 0, "the tight bound never skipped: the property is vacuous");
}

/// (c) A full ranking prunes nothing: every candidate is evaluated and
/// returned, in enumeration order, with the oracle's bits.
#[test]
fn a_full_ranking_prunes_nothing() {
    check(CASES, |g| {
        let (shape, budget, base, space) = case(g);
        let want: Vec<Row> =
            oracle(&shape, budget, &base).iter().enumerate().map(|(i, s)| row(i, s)).collect();
        for workers in [1usize, 2, 8] {
            let opts = ScanOptions { workers, chunk: 7, top_k: 0 };
            let scan = pruned_scan(&shape, budget, &base, &opts);
            assert_eq!(scan.counters.pruned, 0, "workers={workers}");
            assert_eq!((scan.rows.len(), scan.scanned, scan.visited), (space, space, space));
            assert_eq!(scan.rows, want, "workers={workers}");
        }
    });
}

/// Node indexes are names: an assignment and any relabeling of it are
/// pruned at the same floors and score the same bits — also when the
/// labels reach past the 64 nodes the bound's node count keeps in a
/// bit set.
#[test]
fn pruning_is_blind_to_node_labels() {
    let shape = EnsembleShape::uniform(2, 16, 1, 8);
    let budget = NodeBudget { max_nodes: 4, cores_per_node: 32 };
    let base = base_config(&shape, true);
    let want = oracle(&shape, budget, &base);
    let floors = |objective: f64| [1.0, 1.2, 1.5, 2.0, 3.0].map(|f| objective * f);
    let decisions = |offset: usize| -> Vec<Option<Row>> {
        let mut evaluator = DeltaEvaluator::new(&base, &shape);
        let iter = PlacementIter::new(&shape, budget.max_nodes, budget.cores_per_node);
        let mut seen = Vec::new();
        for (index, assignment) in iter.enumerate() {
            let relabeled: Vec<usize> = assignment.iter().map(|&nd| nd + offset).collect();
            for floor in floors(want[index].objective) {
                let scored = evaluator.score_above(&relabeled, None, floor).expect("score");
                seen.push(scored.map(|s| row(index, &s)));
            }
        }
        seen
    };
    let canonical = decisions(0);
    assert!(canonical.iter().any(Option::is_none) && canonical.iter().any(Option::is_some));
    for (index, score) in want.iter().enumerate() {
        assert_eq!(canonical[index * 5], Some(row(index, score)), "a floor at the objective");
    }
    for offset in [61, 64, 100] {
        assert_eq!(decisions(offset), canonical, "labels shifted by {offset}");
    }
}
