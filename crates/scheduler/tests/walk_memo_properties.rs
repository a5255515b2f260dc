//! Property-based tests of the walk cache: a bounded scan whose walk
//! starts from memos an earlier scan checked into a [`WalkCache`] —
//! subtree counts, the orbits it reduces by, block-end orbit decisions —
//! returns exactly what a walk from nothing returns: every row, its
//! enumeration index, every bit, `candidates_scanned` and `pruned`.
//!
//! Each case scans at `top_k` 1, 3 and 10 and at 1, 2 and 8 workers,
//! through a fresh cache, through a cache shared by every case (so
//! warmed at other floors and by other shapes, and evicting), and with
//! classes from [`DeltaEvaluator::member_classes`] or set by hand. The
//! hand-set classes go with an objective that sees member order, so a
//! walk that reduced by the wrong classes answers differently: a cache
//! that confused two keys shows.

use std::sync::Arc;

use runtime::{RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::scan::ScanOutcome;
use scheduler::{
    scan_placements, Candidate, DeltaCounters, DeltaEvaluator, EnsembleShape, NodeBudget,
    ObjectiveBound, PlacementIter, ScanOptions, ScanVisitor, SolveCache, WalkCache,
};
use testkit::{check, Gen};

/// Candidate spaces above this size shrink their node budget.
const MAX_SPACE: usize = 600;

const CASES: u32 = 6;

const CORES: [u32; 4] = [2, 4, 8, 16];

/// The score of component `i` on node `n` under the hand-set classes: in
/// `[0.2, 1]`, and different for two members trading places.
fn toy(i: usize, n: usize) -> f64 {
    1.0 / (1.0 + ((i * 7 + n * 3) % 5) as f64)
}

/// Member classes set by hand, scored by the order-sensitive [`toy`]
/// objective, whose prefix bound gives each component still to place
/// `slack` (1 is exact, more skips less and checks more orbits).
#[derive(Debug, Clone)]
struct Hand {
    classes: Vec<usize>,
    slack: f64,
}

/// A bounded scan of `shape`: the service's delta evaluator and bound
/// with the evaluator's member classes, or [`Hand`]'s.
struct MemoScan<'a> {
    base: &'a SimRunConfig,
    shape: &'a EnsembleShape,
    solves: Arc<SolveCache>,
    bound: ObjectiveBound,
    hand: Option<&'a Hand>,
    walks: Option<&'a WalkCache>,
}

impl ScanVisitor for MemoScan<'_> {
    type State = DeltaEvaluator;
    type Scored = f64;
    type Row = (Vec<usize>, u64);
    type Error = runtime::RuntimeError;

    fn init(&self) -> DeltaEvaluator {
        DeltaEvaluator::with_solve_cache(self.base, self.shape, &self.solves)
    }

    fn eval(&self, evaluator: &mut DeltaEvaluator, c: Candidate<'_>) -> RuntimeResult<Option<f64>> {
        if self.hand.is_some() {
            let score: f64 = c.assignment.iter().enumerate().map(|(i, &n)| toy(i, n)).sum();
            return Ok(Some(score).filter(|&s| s >= c.floor));
        }
        let scored = evaluator.score_above(c.assignment, c.first_changed, c.floor)?;
        Ok(scored.map(|s| s.objective))
    }

    fn objective(&self, score: &f64) -> f64 {
        *score
    }

    fn keep(&self, _: &mut DeltaEvaluator, c: Candidate<'_>, score: f64) -> (Vec<usize>, u64) {
        (c.assignment.to_vec(), score.to_bits())
    }

    fn drain(&self, evaluator: &mut DeltaEvaluator) -> DeltaCounters {
        evaluator.take_counters()
    }

    fn prefix_bound(&self, prefix: &[usize], open_nodes: usize) -> f64 {
        if let Some(hand) = self.hand {
            let placed: f64 = prefix.iter().enumerate().map(|(i, &n)| toy(i, n)).sum();
            return placed + hand.slack * (self.shape.num_components() - prefix.len()) as f64;
        }
        self.bound.of_prefix(prefix, open_nodes)
    }

    fn member_classes(&self, evaluator: &DeltaEvaluator, labels: usize) -> Option<Vec<usize>> {
        match self.hand {
            Some(hand) => Some(hand.classes.clone()),
            None => evaluator.member_classes(labels),
        }
    }

    fn walk_cache(&self) -> Option<&WalkCache> {
        self.walks
    }
}

/// Everything a reply carries of a scan: rows with their indexes and
/// bits, `candidates_scanned`, and what was pruned.
type Reply = (Vec<(usize, Vec<usize>, u64)>, usize, u64);

fn reply(outcome: &ScanOutcome<(Vec<usize>, u64)>) -> Reply {
    let rows = outcome.results.iter().map(|h| (h.index, h.value.0.clone(), h.value.1)).collect();
    (rows, outcome.scanned, outcome.delta.pruned)
}

fn base_config(shape: &EnsembleShape) -> SimRunConfig {
    let mut base = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
    base.workloads = WorkloadMap::small_defaults();
    base
}

fn scan(
    shape: &EnsembleShape,
    budget: NodeBudget,
    hand: Option<&Hand>,
    opts: &ScanOptions,
    walks: Option<&WalkCache>,
) -> ScanOutcome<(Vec<usize>, u64)> {
    let base = base_config(shape);
    let visitor = MemoScan {
        base: &base,
        shape,
        solves: Arc::new(SolveCache::new(&base)),
        bound: ObjectiveBound::new(shape),
        hand,
        walks,
    };
    scan_placements(shape, budget, opts, &visitor).expect("scan")
}

/// 2–6 members: all alike, or drawn from two kinds.
fn shape(g: &mut Gen) -> EnsembleShape {
    let member = |g: &mut Gen| (g.select(&CORES), g.vec(1..=2, |g| g.select(&CORES)));
    let members = if g.bool() {
        let alike = member(g);
        vec![alike; g.range(2usize..=6)]
    } else {
        let (a, b) = (member(g), member(g));
        g.vec(2..=6, |g| if g.bool() { a.clone() } else { b.clone() })
    };
    EnsembleShape { members }
}

/// Classes by hand: the members equal to each other split at random in
/// two classes.
fn hand(g: &mut Gen, shape: &EnsembleShape) -> Hand {
    let members = &shape.members;
    let classes = (0..members.len())
        .map(|j| {
            let first = members.iter().position(|m| *m == members[j]).expect("itself");
            2 * first + usize::from(g.bool())
        })
        .collect();
    Hand { classes, slack: g.select(&[1.0, 9.0]) }
}

/// The largest budget of at most `max_nodes` whose space holds at most
/// [`MAX_SPACE`] placements.
fn fit(shape: &EnsembleShape, max_nodes: usize) -> NodeBudget {
    let mut budget = NodeBudget { max_nodes, cores_per_node: 32 };
    let size = |b: NodeBudget| {
        PlacementIter::new(shape, b.max_nodes, b.cores_per_node).take(MAX_SPACE + 1).count()
    };
    while budget.max_nodes > 1 && size(budget) > MAX_SPACE {
        budget.max_nodes -= 1;
    }
    budget
}

/// Asserts that every scan of `shape` through a fresh cache (twice) and
/// through `shared` answers what a walk without a cache does: the same
/// rows at every width, and at one worker the same `pruned` too (which
/// subtrees a bound skips beside a helper depends on when floors were
/// traded).
fn assert_memo_exact(
    shape: &EnsembleShape,
    budget: NodeBudget,
    hand: Option<&Hand>,
    shared: &WalkCache,
) {
    for top_k in [1usize, 3, 10] {
        let serial = ScanOptions { workers: 1, chunk: 7, top_k };
        let want = reply(&scan(shape, budget, hand, &serial, None));
        for workers in [1usize, 2, 8] {
            let opts = ScanOptions { workers, ..serial };
            let at =
                format!("{shape:?} on {budget:?} by {hand:?}: top_k={top_k} workers={workers}");
            let check = |outcome: ScanOutcome<(Vec<usize>, u64)>, how: &str| {
                let (rows, scanned, pruned) = reply(&outcome);
                assert_eq!((&rows, scanned), (&want.0, want.1), "{at}: {how}");
                if workers == 1 {
                    assert_eq!(pruned, want.2, "{at}: {how}");
                }
            };
            let fresh = WalkCache::new();
            check(scan(shape, budget, hand, &opts, Some(&fresh)), "fresh");
            if workers == 1 {
                check(scan(shape, budget, hand, &opts, Some(&fresh)), "again");
            }
            check(scan(shape, budget, hand, &opts, Some(shared)), "shared");
        }
    }
}

#[test]
fn a_walk_from_memory_answers_what_a_walk_from_nothing_does() {
    let shared = WalkCache::new();
    check(CASES, |g| {
        let shape = shape(g);
        let budget = fit(&shape, g.range(2usize..=8));
        let hand = hand(g, &shape);
        // Both class sets of one shape share the cache.
        assert_memo_exact(&shape, budget, None, &shared);
        assert_memo_exact(&shape, budget, Some(&hand), &shared);
    });
}

#[test]
fn shapes_with_the_same_cores_and_classes_but_other_blocks_keep_apart() {
    // The same flat core list, member count and classes; only where the
    // third member's block ends differs.
    let shapes = [
        EnsembleShape { members: vec![(8, vec![4]), (8, vec![4]), (2, vec![2, 2]), (2, vec![2])] },
        EnsembleShape { members: vec![(8, vec![4]), (8, vec![4]), (2, vec![2]), (2, vec![2, 2])] },
    ];
    let budget = NodeBudget { max_nodes: 5, cores_per_node: 32 };
    let hand = Hand { classes: vec![0, 0, 1, 2], slack: 1.0 };
    let shared = WalkCache::new();
    for _ in 0..2 {
        for shape in &shapes {
            assert_memo_exact(shape, budget, None, &shared);
            assert_memo_exact(shape, budget, Some(&hand), &shared);
        }
    }
}

#[test]
fn a_walk_past_the_decision_cap_clears_and_stays_exact() {
    // Six members alike under a loose bound: more block-end decisions
    // than one walk keeps, so the walk clears them as it goes and a
    // second walk searches again — and both answer what a walk without a
    // cache does.
    let shape = EnsembleShape::uniform(6, 4, 1, 4);
    let budget = NodeBudget { max_nodes: 12, cores_per_node: 32 };
    let hand = Hand { classes: vec![0; 6], slack: 9.0 };
    let walks = WalkCache::new();
    let opts = ScanOptions { workers: 1, chunk: 32, top_k: 10 };
    let want = reply(&scan(&shape, budget, Some(&hand), &opts, None));
    let first = scan(&shape, budget, Some(&hand), &opts, Some(&walks));
    let second = scan(&shape, budget, Some(&hand), &opts, Some(&walks));
    assert_eq!(reply(&first), want);
    assert_eq!(reply(&second), want);
    assert!(first.orbit_searches > 1 << 12, "{} searches", first.orbit_searches);
    assert!(second.orbit_searches > 0, "a cleared memo is searched again");
}
