//! Property-based tests of bound-pruned top-K scoring.
//!
//! A bounded scan hands each candidate the K-th best objective known so
//! far, and [`DeltaEvaluator::score_above`] skips, unevaluated, every
//! candidate whose bound `mean(CPᵢ / cᵢ) / M` is strictly below it. The
//! contract is that pruning is invisible: the bound never undercuts a
//! real objective, a bounded scan returns exactly the first K rows of
//! the full stable ranking — every index, every bit — at any worker
//! count and chunk size, and a full ranking (`top_k: 0`) prunes nothing.
//!
//! Shapes are drawn irregular (members of different widths and core
//! counts, down to one-core components) or with every member alike, and
//! scored under both workload maps. CI runs this file under `ENSEMBLE_SCAN_WORKERS={1,2,8}`
//! (worker count 0 below resolves from it).

use runtime::{RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::{
    scan_placements, Candidate, DeltaCounters, DeltaEvaluator, EnsembleShape, FastEvaluator,
    FastScore, NodeBudget, PlacementIter, ScanOptions,
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

/// One scan scored the way the service scores: `score_above` against
/// each candidate's floor. Rows in output order, plus what was scanned
/// and the summed counters.
fn pruned_scan(
    shape: &EnsembleShape,
    budget: NodeBudget,
    base: &SimRunConfig,
    opts: &ScanOptions,
) -> (Vec<Row>, usize, DeltaCounters) {
    let outcome = scan_placements(
        shape,
        budget,
        opts,
        || DeltaEvaluator::new(base, shape),
        |evaluator: &mut DeltaEvaluator, c: Candidate<'_>| -> RuntimeResult<Option<FastScore>> {
            evaluator.score_above(c.assignment, c.first_changed, c.floor)
        },
        |_, _, score| score,
        DeltaEvaluator::take_counters,
        |score| score.objective,
        || false,
        |_| {},
    )
    .expect("pruned scan");
    let rows = outcome.results.iter().map(|h| row(h.index, &h.value)).collect();
    (rows, outcome.scanned, outcome.delta)
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
/// and every candidate still counts as scanned.
#[test]
fn top_k_with_pruning_is_the_head_of_the_full_ranking() {
    let mut pruned = 0u64;
    check(CASES, |g| {
        let (shape, budget, base, space) = case(g);
        let mut ranked: Vec<Row> =
            oracle(&shape, budget, &base).iter().enumerate().map(|(i, s)| row(i, s)).collect();
        // Stable best-first: equal objectives keep enumeration order.
        ranked.sort_by(|a, b| f64::from_bits(b.1).total_cmp(&f64::from_bits(a.1)));
        for top_k in [1, 3, 10, space + 1] {
            for workers in [0usize, 1, 2, 8] {
                for chunk in [1usize, 7, 32] {
                    let opts = ScanOptions { workers, chunk, top_k };
                    let (rows, scanned, counters) = pruned_scan(&shape, budget, &base, &opts);
                    let want = &ranked[..top_k.min(space)];
                    assert_eq!(rows, want, "top_k={top_k} workers={workers} chunk={chunk}");
                    assert_eq!(scanned, space);
                    pruned += counters.pruned;
                }
            }
        }
    });
    assert!(pruned > 0, "no bounded scan pruned anything: the property is vacuous");
}

/// (c) A full ranking prunes nothing: every candidate is evaluated and
/// returned, in enumeration order, with the oracle's bits.
#[test]
fn a_full_ranking_prunes_nothing() {
    check(CASES, |g| {
        let (shape, budget, base, space) = case(g);
        let want: Vec<Row> =
            oracle(&shape, budget, &base).iter().enumerate().map(|(i, s)| row(i, s)).collect();
        for workers in [0usize, 1, 2, 8] {
            let opts = ScanOptions { workers, chunk: 7, top_k: 0 };
            let (rows, scanned, counters) = pruned_scan(&shape, budget, &base, &opts);
            assert_eq!(counters.pruned, 0, "workers={workers}");
            assert_eq!((rows.len(), scanned), (space, space));
            assert_eq!(rows, want, "workers={workers}");
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
