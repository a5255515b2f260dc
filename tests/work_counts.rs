//! Work counts that the code reports itself, starting with the placement
//! walk's: how many block-end orbit searches a bounded scan ran and how
//! many subtree-count states it expanded (`ScanOutcome::orbit_searches`,
//! `ScanOutcome::count_states`).
//!
//! Both are a pure function of the walk's structural key (member blocks,
//! node budget, cores per node, member classes), so a scan that walks
//! through a [`WalkCache`] an earlier scan of the same key filled must
//! run none of either, and return exactly what a fresh walk returns.

use std::sync::Arc;

use insitu_ensembles::runtime::{RuntimeResult, SimRunConfig, WorkloadMap};
use insitu_ensembles::scheduling::scan::ScanOutcome;
use insitu_ensembles::scheduling::{
    scan_placements, Candidate, DeltaCounters, DeltaEvaluator, EnsembleShape, FastScore,
    NodeBudget, ObjectiveBound, ScanOptions, ScanVisitor, SolveCache, WalkCache,
};

/// The service's cold `score` scan of the small workloads at `steps`,
/// walking through `walks` when given.
struct ScoreScan<'a> {
    base: SimRunConfig,
    shape: &'a EnsembleShape,
    solves: Arc<SolveCache>,
    bound: ObjectiveBound,
    walks: Option<&'a WalkCache>,
}

impl ScanVisitor for ScoreScan<'_> {
    type State = DeltaEvaluator;
    type Scored = FastScore;
    type Row = (Vec<usize>, u64);
    type Error = insitu_ensembles::runtime::RuntimeError;

    fn init(&self) -> DeltaEvaluator {
        DeltaEvaluator::with_solve_cache(&self.base, self.shape, &self.solves)
    }

    fn eval(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
    ) -> RuntimeResult<Option<FastScore>> {
        evaluator.score_above(c.assignment, c.first_changed, c.floor)
    }

    fn objective(&self, score: &FastScore) -> f64 {
        score.objective
    }

    fn keep(
        &self,
        _: &mut DeltaEvaluator,
        c: Candidate<'_>,
        score: FastScore,
    ) -> (Vec<usize>, u64) {
        (c.assignment.to_vec(), score.objective.to_bits())
    }

    fn drain(&self, evaluator: &mut DeltaEvaluator) -> DeltaCounters {
        evaluator.take_counters()
    }

    fn prefix_bound(&self, prefix: &[usize], open_nodes: usize) -> f64 {
        self.bound.of_prefix(prefix, open_nodes)
    }

    fn member_classes(&self, evaluator: &DeltaEvaluator, labels: usize) -> Option<Vec<usize>> {
        evaluator.member_classes(labels)
    }

    fn walk_cache(&self) -> Option<&WalkCache> {
        self.walks
    }
}

/// The e2e benchmark's cold-score classes S, M and L.
fn classes() -> [(EnsembleShape, NodeBudget); 3] {
    let on = |max_nodes| NodeBudget { max_nodes, cores_per_node: 32 };
    [
        (EnsembleShape::uniform(4, 16, 1, 8), on(6)),
        (EnsembleShape::uniform(4, 8, 1, 4), on(6)),
        (EnsembleShape::uniform(5, 16, 1, 8), on(8)),
    ]
}

fn scan(
    shape: &EnsembleShape,
    budget: NodeBudget,
    steps: u64,
    top_k: usize,
    walks: Option<&WalkCache>,
) -> ScanOutcome<(Vec<usize>, u64)> {
    let mut base = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
    base.workloads = WorkloadMap::small_defaults();
    base.n_steps = steps;
    let visitor = ScoreScan {
        solves: Arc::new(SolveCache::new(&base)),
        base,
        shape,
        bound: ObjectiveBound::new(shape),
        walks,
    };
    let opts = ScanOptions { workers: 1, top_k, ..ScanOptions::default() };
    scan_placements(shape, budget, &opts, &visitor).expect("score scan")
}

/// Everything a reply carries of a scan: rows with their indexes and
/// bits, `candidates_scanned`, and what was pruned.
type Reply = (Vec<(usize, Vec<usize>, u64)>, usize, u64);

fn reply(outcome: &ScanOutcome<(Vec<usize>, u64)>) -> Reply {
    let rows = outcome.results.iter().map(|h| (h.index, h.value.0.clone(), h.value.1)).collect();
    (rows, outcome.scanned, outcome.delta.pruned)
}

#[test]
fn a_second_walk_of_a_shape_searches_and_counts_nothing() {
    let walks = WalkCache::new();
    for (shape, budget) in classes() {
        let cold = scan(&shape, budget, 6, 10, Some(&walks));
        assert_eq!(reply(&cold), reply(&scan(&shape, budget, 6, 10, None)), "{shape:?}");
        assert!(cold.orbit_searches > 0 && cold.count_states > 0, "{shape:?}: a cold walk works");
        // Other `steps`: another request, another score-cache key, and
        // the same walk.
        for steps in [9, 40] {
            let warm = scan(&shape, budget, steps, 10, Some(&walks));
            let fresh = scan(&shape, budget, steps, 10, None);
            assert_eq!(reply(&warm), reply(&fresh), "{shape:?}: the memo moved a reply");
            let counts = (warm.orbit_searches, warm.count_states);
            assert_eq!(counts, (0, 0), "{shape:?} at {steps} steps");
        }
        // Another `top_k`, other floors: the walk may reach subtrees the
        // first did not, and still answers what a fresh walk does.
        let warm = scan(&shape, budget, 12, 3, Some(&walks));
        let fresh = scan(&shape, budget, 12, 3, None);
        assert_eq!(reply(&warm), reply(&fresh), "{shape:?}: the memo moved a reply");
        assert!(warm.orbit_searches < fresh.orbit_searches, "{shape:?}");
        assert!(warm.count_states < fresh.count_states, "{shape:?}");
    }
}
