//! # scheduler — parameter selection and indicator-guided placement
//!
//! Two decision procedures built on the paper's model:
//!
//! * [`core_sweep()`] — the §3.4 heuristic (Figure 7): fix the simulation,
//!   sweep analysis core counts, keep those satisfying Eq. 4
//!   (`R* + A* ≤ S* + W*`), pick the most efficient. On the paper's
//!   workloads it selects 8 cores, as the paper does.
//! * [`rank`] / [`advisor`] — the paper's future work: enumerate
//!   canonical placements under node/core budgets ([`enumerate`]), rank
//!   them by `F(Pᵁ·ᴬ·ᴾ)` (Eqs. 8–9) in closed form with the [`Ranker`]
//!   the service's `score` runs too, and confirm the top rows in the
//!   DES. It independently rediscovers the paper's conclusion: fully
//!   co-locate each member.
//!
//! Placement evaluation runs on [`scan`], a streaming parallel scan
//! engine driven by one [`ScanVisitor`]: candidates are enumerated
//! lazily ([`PlacementIter`]), fanned out to scoped worker threads in
//! chunks, and merged by enumeration index — output order and every
//! float are bit-identical to a serial scan at any worker count.
//! Bounded top-K selection (walked branch and bound when the visitor
//! bounds prefixes) and cooperative cancellation come for free at every
//! call site.

#![warn(missing_docs)]

pub mod advisor;
pub mod core_sweep;
pub mod cosched;
pub mod delta;
pub mod enumerate;
pub mod fast_eval;
pub mod rank;
pub mod scan;
pub mod search;

pub use advisor::{recommend_placement, recommend_with_core_sweep};
pub use core_sweep::{core_sweep, CoreSweepConfig, SweepResult};
pub use cosched::{
    place_against, Admission, CoScheduler, CoschedConfig, CoschedError, PlacementDecision,
    Reservation, ResidencyMap,
};
pub use delta::{DeltaCounters, DeltaEvaluator, ObjectiveBound, SolveCache};
pub use enumerate::{canonicalize, enumerate_placements, EnsembleShape, PlacementIter, WalkCache};
pub use fast_eval::{fast_score, FastEvaluator, FastScore};
pub use rank::{check_budget, RankError, RankHooks, RankedPlacement, Ranker};
pub use scan::{scan_placements, Candidate, ScanOptions, ScanProgress, ScanVisitor};
pub use search::NodeBudget;
