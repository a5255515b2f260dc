//! The scheduler's one closed-form ranking, which the service's `score`
//! and the placement advisor both run: every canonical placement scored
//! with `F(Pᵁ·ᴬ·ᴾ)` (Eqs. 8–9) by a [`DeltaEvaluator`] per scan worker —
//! the DES's own node solves, folded instead of played out.

use std::sync::Arc;

use runtime::{RuntimeError, SimRunConfig};

use crate::delta::{DeltaCounters, DeltaEvaluator, ObjectiveBound, SolveCache};
use crate::enumerate::{space_counts_exactly, EnsembleShape, WalkCache, MAX_EXACT_COUNT};
use crate::fast_eval::FastScore;
use crate::scan::{
    scan_placements, Candidate, ScanOptions, ScanOutcome, ScanProgress, ScanVisitor,
};
use crate::search::NodeBudget;

/// One ranked placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPlacement {
    /// Flattened node assignment (member-major, simulation first).
    pub assignment: Vec<usize>,
    /// Objective `F(Pᵁ·ᴬ·ᴾ)`.
    pub objective: f64,
    /// Nodes provisioned.
    pub nodes_used: usize,
    /// Predicted ensemble makespan, seconds.
    pub ensemble_makespan: f64,
    /// Whether the paper's Eq. 4 holds for every coupling.
    pub eq4_satisfied: bool,
}

/// What a ranking asks of and tells its caller between chunks; `()`
/// never stops and hears nothing.
pub trait RankHooks: Sync {
    /// `true` stops the ranking and marks its outcome cancelled.
    fn cancel(&self) -> bool {
        false
    }

    /// A monotone view of the ranking so far.
    fn progress(&self, _progress: &ScanProgress) {}
}

impl RankHooks for () {}

/// Why a ranking, or the advisor built on it, has no answer.
#[derive(Debug)]
pub enum RankError {
    /// The first placement, in enumeration order, that failed to score.
    Candidate(Vec<usize>, RuntimeError),
    /// No placement of this many cores fits the budget.
    NoFit(u64, NodeBudget),
    /// A budget the platform cannot honour ([`check_budget`]), and why.
    Budget(String),
    /// A DES run or the core sweep failed.
    Run(RuntimeError),
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::Candidate(assignment, e) => write!(f, "candidate {assignment:?}: {e}"),
            RankError::NoFit(cores, b) => write!(
                f,
                "no placement fits: the ensemble needs {cores} cores, the budget is {} × {} cores",
                b.max_nodes, b.cores_per_node
            ),
            RankError::Budget(why) => f.write_str(why),
            RankError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RankError {}

/// Refuses, for any `top_k`, a node packed past the platform node's
/// `cores` (it fails to score at some placements only, which a bounded
/// scan may never meet) and a space not provably within [`MAX_EXACT_COUNT`].
pub fn check_budget(shape: &EnsembleShape, b: NodeBudget, cores: u32) -> Result<(), RankError> {
    let (asked, most) = (b.cores_per_node, MAX_EXACT_COUNT);
    let why = if asked > cores {
        format!("cores_per_node {asked} exceeds the platform node's {cores} cores")
    } else if !space_counts_exactly(shape, b.max_nodes, asked) {
        format!("the placement space cannot be shown to hold at most {most} candidates")
    } else {
        return Ok(());
    };
    Err(RankError::Budget(why))
}

/// The [`ScanVisitor`] behind [`Ranker::rank`].
pub struct Ranker<'a, H> {
    cfg: &'a SimRunConfig,
    shape: &'a EnsembleShape,
    solves: &'a Arc<SolveCache>,
    walks: Option<&'a WalkCache>,
    bound: ObjectiveBound,
    hooks: H,
}

impl<'a, H: RankHooks> Ranker<'a, H> {
    /// Ranks `shape` under `cfg` through `solves` and `walks`, polling `hooks`.
    pub fn new(
        cfg: &'a SimRunConfig,
        shape: &'a EnsembleShape,
        solves: &'a Arc<SolveCache>,
        walks: Option<&'a WalkCache>,
        hooks: H,
    ) -> Self {
        Ranker { cfg, shape, solves, walks, bound: ObjectiveBound::new(shape), hooks }
    }

    /// Every canonical feasible placement under `budget`, best first
    /// (ties in enumeration order); under `opts.top_k`, the first K rows.
    pub fn rank(
        &self,
        budget: NodeBudget,
        opts: &ScanOptions,
    ) -> Result<ScanOutcome<RankedPlacement>, RankError> {
        let mut outcome = scan_placements(self.shape, budget, opts, self)?;
        if opts.top_k == 0 {
            // The merge returns enumeration order; the sort is stable.
            outcome.results.sort_by(|a, b| b.value.objective.total_cmp(&a.value.objective));
        }
        Ok(outcome)
    }
}

impl<H: RankHooks> ScanVisitor for Ranker<'_, H> {
    type State = DeltaEvaluator;
    type Scored = FastScore;
    type Row = RankedPlacement;
    type Error = RankError;

    fn init(&self) -> DeltaEvaluator {
        DeltaEvaluator::with_solve_cache(self.cfg, self.shape, self.solves)
    }

    fn eval(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
    ) -> Result<Option<FastScore>, RankError> {
        let scored = evaluator.score_above(c.assignment, c.first_changed, c.floor);
        scored.map_err(|e| RankError::Candidate(c.assignment.to_vec(), e))
    }

    fn objective(&self, fs: &FastScore) -> f64 {
        fs.objective
    }

    /// A row (and its copy of the assignment) is built only for a
    /// candidate the ranking keeps: all of them when it is full, the
    /// running best `top_k` when it is bounded.
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

    fn cancel(&self) -> bool {
        self.hooks.cancel()
    }

    fn progress(&self, p: &ScanProgress) {
        self.hooks.progress(p);
    }

    fn prefix_bound(&self, prefix: &[usize], open_nodes: usize) -> f64 {
        self.bound.of_prefix(prefix, open_nodes)
    }

    /// Identical members are interchangeable where every copy scores its
    /// representative's bits: the walk hands out one placement per
    /// member-permutation orbit, and its copies share its score.
    fn member_classes(&self, evaluator: &DeltaEvaluator, labels: usize) -> Option<Vec<usize>> {
        evaluator.member_classes(labels)
    }

    fn walk_cache(&self) -> Option<&WalkCache> {
        self.walks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::WorkloadMap;

    fn ranked(n: usize, k: usize, max_nodes: usize, top_k: usize) -> Vec<RankedPlacement> {
        let shape = EnsembleShape::uniform(n, 16, k, 8);
        let mut cfg = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
        cfg.workloads = WorkloadMap::small_defaults();
        cfg.n_steps = 6;
        let solves = Arc::new(SolveCache::new(&cfg));
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let opts = ScanOptions { top_k, ..ScanOptions::default() };
        Ranker::new(&cfg, &shape, &solves, None, ())
            .rank(budget, &opts)
            .expect("ranking")
            .into_values()
    }

    #[test]
    fn full_colocation_ranks_first_and_rows_run_best_first() {
        // The paper's headline: each member co-located on its own node
        // (the C1.5 pattern) wins the set-one ranking.
        let ranked = ranked(2, 1, 3, 0);
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let best = shape.materialize(&ranked[0].assignment);
        for (i, m) in best.members.iter().enumerate() {
            assert!(m.is_colocated(0), "member {i}: {:?}", ranked[0].assignment);
        }
        for w in ranked.windows(2) {
            assert!(w[0].objective >= w[1].objective);
        }
    }

    #[test]
    fn set_two_prefers_the_c2_8_pattern() {
        // C2.8: each member entirely on its own node → 2 nodes, CP = 1.
        let ranked = ranked(2, 2, 3, 0);
        assert_eq!(ranked[0].nodes_used, 2, "{:?}", ranked[0].assignment);
        let best = EnsembleShape::uniform(2, 16, 2, 8).materialize(&ranked[0].assignment);
        for m in &best.members {
            assert!(m.is_colocated(0) && m.is_colocated(1));
        }
    }

    #[test]
    fn a_bounded_ranking_is_the_head_of_the_full_one() {
        let full = ranked(3, 1, 4, 0);
        assert_eq!(ranked(3, 1, 4, 5), full[..5]);
    }

    #[test]
    fn an_infeasible_budget_ranks_nothing() {
        // 48 cores on one 32-core node.
        assert!(ranked(2, 1, 1, 0).is_empty());
    }
}
