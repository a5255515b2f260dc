//! Work counts that the code reports itself, starting with the placement
//! walk's: how many block-end orbit searches a bounded scan ran and how
//! many subtree-count states it expanded (`ScanOutcome::orbit_searches`,
//! `ScanOutcome::count_states`).
//!
//! Both are a pure function of the walk's structural key (member blocks,
//! node budget, cores per node, member classes), so a scan that walks
//! through a [`WalkCache`] an earlier scan of the same key filled must
//! run none of either, and return exactly what a fresh walk returns.
//!
//! So is how many threads a scan ran on (`ScanOutcome::workers`): a
//! bounded scan brings a helper in only after its caller has handed out
//! `scan::SOLO_CANDIDATES` leaves, a full one at its first unfinished
//! pull.

use std::sync::Arc;

use insitu_ensembles::runtime::{SimRunConfig, WorkloadMap};
use insitu_ensembles::scheduling::scan::ScanOutcome;
use insitu_ensembles::scheduling::{
    EnsembleShape, NodeBudget, RankedPlacement, Ranker, ScanOptions, SolveCache, WalkCache,
};

/// The e2e benchmark's cold-score classes S, M and L.
fn classes() -> [(EnsembleShape, NodeBudget); 3] {
    let on = |max_nodes| NodeBudget { max_nodes, cores_per_node: 32 };
    [
        (EnsembleShape::uniform(4, 16, 1, 8), on(6)),
        (EnsembleShape::uniform(4, 8, 1, 4), on(6)),
        (EnsembleShape::uniform(5, 16, 1, 8), on(8)),
    ]
}

/// The service's cold `score` ranking of the small workloads at
/// `steps`, walking through `walks` when given.
fn scan(
    shape: &EnsembleShape,
    budget: NodeBudget,
    steps: u64,
    top_k: usize,
    walks: Option<&WalkCache>,
) -> ScanOutcome<RankedPlacement> {
    scan_on(
        shape,
        budget,
        steps,
        ScanOptions { workers: 1, top_k, ..ScanOptions::default() },
        walks,
    )
}

/// [`scan`] with the scan's options named.
fn scan_on(
    shape: &EnsembleShape,
    budget: NodeBudget,
    steps: u64,
    opts: ScanOptions,
    walks: Option<&WalkCache>,
) -> ScanOutcome<RankedPlacement> {
    let mut base = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
    base.workloads = WorkloadMap::small_defaults();
    base.n_steps = steps;
    let solves = Arc::new(SolveCache::new(&base));
    let ranker = Ranker::new(&base, shape, &solves, walks, ());
    ranker.rank(budget, &opts).expect("score scan")
}

/// Everything a reply carries of a scan: rows with their indexes and
/// bits, `candidates_scanned`, and what was pruned.
type Reply = (Vec<(usize, Vec<usize>, u64)>, usize, u64);

fn reply(outcome: &ScanOutcome<RankedPlacement>) -> Reply {
    let rows = outcome.results.iter();
    let rows = rows.map(|h| (h.index, h.value.assignment.clone(), h.value.objective.to_bits()));
    (rows.collect(), outcome.scanned, outcome.delta.pruned)
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

#[test]
fn a_scans_threads_are_a_function_of_its_work() {
    // S, M and L walk 33–52 leaves, the six-member space 85: far short
    // of the solo count, so at width 2 each ranks on its caller alone,
    // from an empty walk cache or a filled one. A full ranking brings
    // its helper in at its first unfinished pull.
    let on = |max_nodes| NodeBudget { max_nodes, cores_per_node: 32 };
    let mut shapes = classes().to_vec();
    shapes.push((EnsembleShape::uniform(6, 16, 1, 8), on(6)));
    let bounded = ScanOptions { workers: 2, top_k: 10, ..ScanOptions::default() };
    let walks = WalkCache::new();
    for (shape, budget) in &shapes {
        for walk in ["cold", "warm"] {
            let outcome = scan_on(shape, *budget, 6, bounded, Some(&walks));
            assert_eq!(outcome.workers, 1, "{shape:?}, {walk} walk");
        }
    }
    let full = ScanOptions { workers: 2, top_k: 0, ..ScanOptions::default() };
    let (shape, budget) = &shapes[1];
    assert_eq!(scan_on(shape, *budget, 6, full, None).workers, 2, "the full M ranking");
}
