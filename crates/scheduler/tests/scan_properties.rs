//! Property-based tests of the parallel placement-scan engine.
//!
//! The engine's contract is *bit-identity*: at any worker count, the
//! scan returns exactly what a serial evaluation of the enumeration
//! returns — same order, same float bits — and bounded top-K equals the
//! first K rows of the full stable ranking. These properties pin both
//! across randomly generated shapes and budgets.
//!
//! Every scan here names its width: each property sweeps 1, 2 and 8
//! workers explicitly, so the thread-count axis is covered wherever the
//! suite runs, on any host. The sibling suites hold everything built on
//! the engine to the same contract at the same widths: the incremental
//! delta evaluator and evaluators sharing one `SolveCache`
//! (`delta_properties`), the co-scheduler's `place_against` against a
//! from-scratch oracle (`cosched_properties`), bound-pruned top-K scans
//! (`prune_properties`) and orbit scans (`orbit_properties`), which rest
//! on a node's solve giving the same bits in every order of its
//! residents (`solve_properties`).

use runtime::{RuntimeError, RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::{
    canonicalize, enumerate_placements, fast_score, scan_placements, Candidate, EnsembleShape,
    FastEvaluator, NodeBudget, PlacementIter, ScanOptions, ScanVisitor,
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

/// Every candidate scored from scratch by a per-worker reusable
/// evaluator, kept as `(assignment, objective)`.
struct FromScratch<'a> {
    base: &'a SimRunConfig,
    shape: &'a EnsembleShape,
}

impl ScanVisitor for FromScratch<'_> {
    type State = FastEvaluator;
    type Scored = f64;
    type Row = (Vec<usize>, f64);
    type Error = RuntimeError;

    fn init(&self) -> FastEvaluator {
        FastEvaluator::new(self.base)
    }

    fn eval(&self, evaluator: &mut FastEvaluator, c: Candidate<'_>) -> RuntimeResult<Option<f64>> {
        Ok(Some(evaluator.score(&self.shape.materialize(c.assignment))?.objective))
    }

    fn objective(&self, objective: &f64) -> f64 {
        *objective
    }

    fn keep(&self, _: &mut FastEvaluator, c: Candidate<'_>, objective: f64) -> (Vec<usize>, f64) {
        (c.assignment.to_vec(), objective)
    }
}

/// One scan of the whole space, returning `(assignment, objective
/// bits)` in output order.
fn scan_space(
    base: &SimRunConfig,
    shape: &EnsembleShape,
    budget: NodeBudget,
    opts: &ScanOptions,
) -> Vec<(Vec<usize>, u64)> {
    let outcome = scan_placements(shape, budget, opts, &FromScratch { base, shape }).expect("scan");
    outcome.into_values().into_iter().map(|(a, o)| (a, o.to_bits())).collect()
}

const CASES: u32 = 32;

/// The parallel scan is bit-identical to a serial evaluation of the
/// enumeration — at one, two, and eight workers.
#[test]
fn parallel_scan_is_bit_identical_to_serial() {
    check(CASES, |g| {
        let (shape, max_nodes, chunk) = (shape(g), g.range(1usize..=4), g.range(1usize..=8));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let placements = enumerate_placements(&shape, max_nodes, 32);
        if placements.is_empty() {
            return;
        }
        let base = base_config(shape.materialize(&placements[0]));
        // The serial reference: one-shot scores in enumeration order.
        let reference: Vec<(Vec<usize>, u64)> = placements
            .iter()
            .map(|a| {
                let spec = shape.materialize(a);
                (a.clone(), fast_score(&base, &spec).expect("score").objective.to_bits())
            })
            .collect();
        for workers in [1usize, 2, 8] {
            let opts = ScanOptions { workers, chunk, ..Default::default() };
            assert_eq!(
                &scan_space(&base, &shape, budget, &opts),
                &reference,
                "workers={} chunk={}",
                workers,
                chunk
            );
        }
    });
}

/// Bounded top-K equals the first K rows of the full ranking under
/// the stable best-first sort — truncation and bounded scan are
/// interchangeable, byte for byte.
#[test]
fn top_k_equals_first_k_of_the_full_ranking() {
    check(CASES, |g| {
        let (shape, max_nodes) = (shape(g), g.range(1usize..=4));
        let (top_k, chunk) = (g.range(1usize..=6), g.range(1usize..=8));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let placements = enumerate_placements(&shape, max_nodes, 32);
        if placements.is_empty() {
            return;
        }
        let base = base_config(shape.materialize(&placements[0]));
        for workers in [1usize, 2, 8] {
            let full_opts = ScanOptions { workers, chunk, ..Default::default() };
            let mut ranked = scan_space(&base, &shape, budget, &full_opts);
            // Stable best-first sort: equal objectives keep enumeration
            // order, exactly the tie-break the engine's top-K heap uses.
            ranked.sort_by(|a, b| f64::from_bits(b.1).total_cmp(&f64::from_bits(a.1)));
            ranked.truncate(top_k);
            let bounded_opts = ScanOptions { workers, chunk, top_k };
            let bounded = scan_space(&base, &shape, budget, &bounded_opts);
            assert_eq!(bounded, ranked);
        }
    });
}

/// The lazy iterator streams exactly the materialized enumeration, and
/// counts each assignment at its enumeration index.
#[test]
fn placement_iter_streams_the_enumeration() {
    check(CASES, |g| {
        let (shape, max_nodes) = (shape(g), g.range(0usize..=4));
        let reference = enumerate_placements(&shape, max_nodes, 32);
        let mut iter = PlacementIter::new(&shape, max_nodes, 32);
        let mut streamed: Vec<Vec<usize>> = Vec::new();
        loop {
            assert_eq!(iter.yielded(), streamed.len(), "indices are the enumeration order");
            let Some(assignment) = iter.advance() else {
                break;
            };
            streamed.push(assignment.to_vec());
        }
        assert_eq!(streamed, reference);
    });
}

/// The linear canonicalization matches the first-appearance
/// relabeling definition (the old quadratic scan).
#[test]
fn canonicalize_matches_the_first_appearance_reference() {
    check(CASES, |g| {
        let assignment = g.vec(0..12, |g| g.range(0usize..6));
        let reference: Vec<usize> = {
            let mut order: Vec<usize> = Vec::new();
            assignment
                .iter()
                .map(|&n| {
                    if let Some(pos) = order.iter().position(|&o| o == n) {
                        pos
                    } else {
                        order.push(n);
                        order.len() - 1
                    }
                })
                .collect()
        };
        assert_eq!(canonicalize(&assignment), reference);
    });
}
