//! Delta evaluation: incremental per-node scoring with bit-identical
//! results.
//!
//! The from-scratch score of a placement ([`crate::fast_eval`] →
//! `runtime::predict`, the DES's own solve without the event loop)
//! re-derives everything per candidate: spec validation, per-component
//! `HashMap`s, and a node solve for every node. But the model
//! is **node-local** — members interact only through node co-residency —
//! and every search entry point feeds the evaluator candidates that
//! barely differ: [`crate::enumerate::PlacementIter`] emits candidates
//! in recursive enumeration order (successive candidates share long
//! placement prefixes).
//!
//! [`DeltaEvaluator`] exploits both:
//!
//! * **Per-node solve memoization.** A node's solve (socket split,
//!   interference, power cap: `runtime::NodeSolver`) is a pure function
//!   of the *multiset* of `(workload, socket split)` resident on it: the
//!   solver sums over its residents in one canonical order of its own.
//!   The split itself can see order — the executor allocates cores in
//!   flat component order, and an allocation's split can depend on what
//!   was placed before it on the same node — so keys stay *ordered*
//!   sequences of `(workload, cores)`, which determine the splits. Solves
//!   are cached under that sequence (the occupancy signature); a candidate
//!   that differs from its predecessor only in a suffix re-solves only
//!   the nodes whose occupancy changed, and signature collisions across
//!   candidates (same resident sequence built from different member
//!   identities) reuse the solve outright.
//! * **Per-member memoization.** Stage times, efficiency `E` (Eq. 3),
//!   the placement indicator `CP` (Eq. 6), the member makespan
//!   (Eqs. 1–2), and the Eq. 4 check are cached per member and
//!   recomputed only for members with a component on a touched node.
//! * **Structure-of-arrays candidate state.** Flat `Vec`s indexed by
//!   component index replace the per-candidate hash maps of the
//!   from-scratch path; steady-state evaluation allocates nothing.
//!
//! **Bit-identity.** The from-scratch result is reproduced exactly — not
//! approximately — because the evaluator memoizes the values the DES
//! itself derives, through the same calls (`runtime::NodeSolver::solve`
//! per node, `runtime::StagingPrices` per stage) and folds the final
//! objective with the same shared functions (`placement_indicator_on`,
//! `aggregate`, `makespan`, `efficiency`, `satisfies_eq4`) over all
//! members on every call. No
//! running-sum or algebraic shortcut is taken anywhere: `F(P)` is
//! recomputed from the (mostly cached) per-member values by
//! [`ensemble_core::aggregate`] itself, which folds them in an order of
//! its own that members trading places cannot change. The O(members)
//! fold is cheap; the savings come from skipping the interference
//! solves and stage-time derivations, which dominate.
//!
//! **Bound pruning.** [`DeltaEvaluator::score_above`] first checks a
//! bound that needs no solve: `F ≤ mean(P)` (the std is `≥ 0`) and
//! `Pᵢ = Eᵢ / cᵢ × CPᵢ / M` with `Eᵢ ≤ 1` (Eq. 3: every busy span is at
//! most `σ̄*`), so `F ≤ mean(CPᵢ / cᵢ) / M` — `CP` and `M` read straight
//! off the assignment. A candidate whose bound is below the caller's
//! floor is skipped unevaluated. The bound is [`ObjectiveBound`], which
//! also bounds every completion of a *prefix*: what lets a bounded scan
//! skip whole subtrees of the enumeration ([`crate::scan`]).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use ensemble_core::{
    aggregate, efficiency, makespan, placement_indicator_bound, placement_indicator_on,
    satisfies_eq4, Aggregation, AnalysisStageTimes, ComponentRef, MemberStageTimes,
};
use hpc_platform::Workload;
use runtime::{NodeSolver, RuntimeError, RuntimeResult, SimRunConfig, StagingPrices};

use crate::enumerate::EnsembleShape;
use crate::fast_eval::FastScore;

/// Default bound on resident per-node solves, of an evaluator's own
/// table and of a [`SolveCache`]. Exhaustive scans of the paper's
/// spaces produce a few dozen distinct signatures. The bound only caps
/// memory — eviction never changes results (evicted signatures simply
/// re-solve).
pub const DEFAULT_SOLVE_CACHE_CAPACITY: usize = 1024;

/// Relative widening of [`ObjectiveBound`]. The bound is exact in real
/// arithmetic; in IEEE arithmetic the evaluator's own result can sit a
/// few ulps above it (a `K`-analysis member's `Σ busy / (K σ̄*)` can
/// round past 1, and the bound folds its terms in another order), and
/// `1e-9` covers that with orders of magnitude to spare.
const BOUND_SLACK: f64 = 1e-9;

/// Cache-effectiveness counters of a [`DeltaEvaluator`] (or an entire
/// scan — see [`crate::scan::ScanOutcome::delta`]). Every touched
/// non-empty node of every scored candidate counts exactly once, as a
/// hit or as a miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCounters {
    /// Node solves answered from memory: the evaluator's own signature
    /// table, or the [`SolveCache`] it shares.
    pub solve_hits: u64,
    /// Node solves that ran the interference fixed point.
    pub solve_misses: u64,
    /// Members whose indicator terms were recomputed (vs served from
    /// the per-member cache).
    pub members_recomputed: u64,
    /// Candidates never scored: one at a time by
    /// [`DeltaEvaluator::score_above`] (their objective bound fell below
    /// the floor), and in a scan's outcome also whole subtrees and orbits
    /// the walk skipped, each counted at its exact size, less the copies
    /// offered their representative's score — so `scanned − pruned` is
    /// the number evaluated plus the number of copies offered.
    pub pruned: u64,
}

impl DeltaCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: DeltaCounters) {
        self.solve_hits += other.solve_hits;
        self.solve_misses += other.solve_misses;
        self.members_recomputed += other.members_recomputed;
        self.pruned += other.pruned;
    }

    /// Solve-cache hit rate in `[0, 1]` (zero before any solve).
    pub fn solve_hit_rate(&self) -> f64 {
        let total = self.solve_hits + self.solve_misses;
        if total == 0 {
            0.0
        } else {
            self.solve_hits as f64 / total as f64
        }
    }
}

/// Node solves that outlive one evaluator: a bounded FIFO map from the
/// ordered `(workload profile, cores)` sequence resident on a node to
/// the per-component step times [`NodeSolver::solve`] returned for it.
///
/// A solve is a pure function of the multiset of `(workload, socket
/// split)` on the node under one [`NodeSolver`] — node specification,
/// interference model, bind policy, power model and cap: the scope a
/// cache is created for. Keys stay ordered, because the order decides
/// the splits; so a key determines its solve, and which
/// evaluator, request or thread filled
/// an entry cannot change a bit of any answer. Workload profiles are
/// interned by value inside the cache: evaluators built over different
/// workload maps get different ids for different profiles and can
/// share a cache without ever answering each other. An evaluator whose
/// platform differs from the cache's scope simply scores without it.
///
/// Evaluators consult it only when their own signature table misses,
/// and fill it after a solve, so the lock is taken a few dozen times
/// per scan, not per candidate.
#[derive(Debug)]
pub struct SolveCache {
    node: NodeSolver,
    capacity: usize,
    inner: Mutex<SolveCacheInner>,
}

#[derive(Debug, Default)]
struct SolveCacheInner {
    /// Interned workload profiles; a profile's index is its id in keys.
    profiles: Vec<Workload>,
    solves: HashMap<Box<[u32]>, Box<[f64]>>,
    order: VecDeque<Box<[u32]>>,
}

impl SolveCache {
    /// An empty cache for `base`'s platform model, holding up to
    /// [`DEFAULT_SOLVE_CACHE_CAPACITY`] solves.
    pub fn new(base: &SimRunConfig) -> Self {
        Self::with_capacity(base, DEFAULT_SOLVE_CACHE_CAPACITY)
    }

    /// [`SolveCache::new`] with an explicit bound (`0` stores nothing).
    pub fn with_capacity(base: &SimRunConfig, capacity: usize) -> Self {
        SolveCache { node: NodeSolver::of(base), capacity, inner: Mutex::default() }
    }

    /// Solves currently held.
    pub fn held(&self) -> usize {
        self.lock().solves.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SolveCacheInner> {
        self.inner.lock().expect("a solve-cache holder panicked")
    }

    /// The id `workload` has in this cache's keys (interning it on
    /// first sight); `None` once ids no longer fit a signature word.
    fn profile_id(&self, workload: &Workload) -> Option<u16> {
        let mut inner = self.lock();
        if let Some(id) = inner.profiles.iter().position(|w| w == workload) {
            return u16::try_from(id).ok();
        }
        let id = u16::try_from(inner.profiles.len()).ok()?;
        inner.profiles.push(workload.clone());
        Some(id)
    }

    /// Copies the solve held under `key` into `seconds`, if there is one.
    fn get(&self, key: &[u32], seconds: &mut Vec<f64>) -> bool {
        match self.lock().solves.get(key) {
            Some(held) => {
                seconds.extend_from_slice(held);
                true
            }
            None => false,
        }
    }

    /// Holds `seconds` under `key`, evicting the oldest solve when full.
    fn insert(&self, key: &[u32], seconds: &[f64]) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.solves.contains_key(key) {
            return;
        }
        if inner.solves.len() >= self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.solves.remove(&oldest);
            }
        }
        let key: Box<[u32]> = key.into();
        inner.order.push_back(key.clone());
        inner.solves.insert(key, seconds.into());
    }
}

/// The objective bound `mean(CPᵢ / cᵢ) / M` (module docs) of a placement
/// or of a prefix of one, widened by a relative `1e-9` — the one bound a
/// bounded scan checks, at every depth.
///
/// `prefix` places the first `prefix.len()` components of the flat
/// order on `open_nodes` distinct nodes. A member whose components are
/// all placed contributes its exact `CPᵢ / cᵢ`; in one that is not, each
/// analysis not placed yet counts as co-located (Eq. 6 term 1); and `M`
/// is bounded below by the nodes the prefix opened. Placing one more
/// component can only lower a term or raise `M`, the member terms are
/// folded in member order at every depth, and every rounding step is
/// monotone — so a prefix's bound is never below the bound of any
/// completion of it, and a full placement's is never below its
/// objective.
#[derive(Debug, Clone)]
pub struct ObjectiveBound {
    /// Flat `[start, end)` component range per member (`start` = sim).
    member_range: Vec<(usize, usize)>,
    /// Per member, its total cores `cᵢ`.
    member_cores: Vec<f64>,
    /// Per member, its term with nothing placed: every analysis
    /// co-located.
    unplaced: Vec<f64>,
    /// False when a member has no analysis: Eq. 6 is undefined, such a
    /// member never scores, and the bound skips nothing.
    defined: bool,
}

impl ObjectiveBound {
    /// The bound over `shape`'s flat component order.
    pub fn new(shape: &EnsembleShape) -> Self {
        let mut member_range = Vec::with_capacity(shape.members.len());
        let mut start = 0;
        for (_, anas) in &shape.members {
            member_range.push((start, start + 1 + anas.len()));
            start += 1 + anas.len();
        }
        let cores = |(sim, anas): &(u32, Vec<u32>)| {
            (u64::from(*sim) + anas.iter().map(|&c| u64::from(c)).sum::<u64>()) as f64
        };
        let member_cores: Vec<f64> = shape.members.iter().map(cores).collect();
        let defined = shape.members.iter().all(|(_, anas)| !anas.is_empty());
        let unplaced = if defined {
            let terms = shape.members.iter().zip(&member_cores);
            terms
                .map(|((_, anas), cores)| placement_indicator_bound(0, &[], anas.len()) / cores)
                .collect()
        } else {
            Vec::new()
        };
        ObjectiveBound { member_range, member_cores, unplaced, defined }
    }

    /// The bound of every completion of `prefix`, which spans
    /// `open_nodes` distinct nodes (a full placement's own bound when
    /// `prefix` is one).
    pub fn of_prefix(&self, prefix: &[usize], open_nodes: usize) -> f64 {
        if !self.defined {
            return f64::INFINITY;
        }
        let placed = prefix.len();
        let mut sum = 0.0f64;
        for (i, &(start, end)) in self.member_range.iter().enumerate() {
            sum += if start >= placed {
                self.unplaced[i]
            } else {
                let analyses = &prefix[start + 1..end.min(placed)];
                placement_indicator_bound(prefix[start], analyses, end - start - 1)
                    / self.member_cores[i]
            };
        }
        sum / self.member_range.len() as f64 / open_nodes as f64 * (1.0 + BOUND_SLACK)
    }
}

/// Marks a transition no solved sequence has taken yet.
const NONE: u32 = u32::MAX;

/// Interned occupancy signatures. A node's resident sequence is a walk
/// over component *kinds* — the few distinct `(workload, cores)` pairs
/// a shape has — from state 0 (the empty node); `next` is the
/// transition table, so finding a node's memoized solve is one array
/// read per resident component: no key to build, nothing to hash.
/// States are created only along a sequence that was just solved, so
/// `capacity` solves bound the whole table; when it is full the table
/// is cleared and refills (eviction costs re-solves, never bits).
#[derive(Debug, Clone)]
struct SignatureTable {
    kinds: usize,
    capacity: usize,
    /// `next[state * kinds + kind]`: the state one more resident on.
    next: Vec<u32>,
    /// Per state, the per-component step times of its solve, if solved.
    solves: Vec<Option<Box<[f64]>>>,
    solved: usize,
}

impl SignatureTable {
    fn new(kinds: usize, capacity: usize) -> Self {
        let mut table =
            SignatureTable { kinds, capacity, next: Vec::new(), solves: Vec::new(), solved: 0 };
        table.clear();
        table
    }

    fn clear(&mut self) {
        self.next.clear();
        self.next.resize(self.kinds, NONE);
        self.solves.clear();
        self.solves.push(None);
        self.solved = 0;
    }

    /// The memoized step times of the resident sequence `kinds`.
    fn lookup(&self, kinds: impl Iterator<Item = usize>) -> Option<&[f64]> {
        let mut state = 0usize;
        for kind in kinds {
            state = match self.next[state * self.kinds + kind] {
                NONE => return None,
                next => next as usize,
            };
        }
        self.solves[state].as_deref()
    }

    /// Memoizes `seconds` as the solve of the resident sequence `kinds`.
    fn store(&mut self, kinds: impl Iterator<Item = usize>, seconds: &[f64]) {
        if self.capacity == 0 {
            return;
        }
        if self.solved >= self.capacity {
            self.clear();
        }
        let mut state = 0usize;
        for kind in kinds {
            let slot = state * self.kinds + kind;
            if self.next[slot] == NONE {
                self.next[slot] = self.solves.len() as u32;
                self.solves.push(None);
                self.next.resize(self.next.len() + self.kinds, NONE);
            }
            state = self.next[slot] as usize;
        }
        self.solved += usize::from(self.solves[state].is_none());
        self.solves[state] = Some(seconds.into());
    }
}

/// Incremental placement evaluator — the one production code scores
/// closed-form placements with — producing scores bit-identical to the
/// from-scratch reference in [`crate::fast_eval`] over the same base
/// configuration and shape.
///
/// Built once per scan worker, then fed assignments —
/// flattened node indexes in the shape's component order, exactly what
/// [`crate::enumerate::PlacementIter`] yields and
/// [`EnsembleShape::materialize`] consumes. No `EnsembleSpec` is
/// materialized per candidate.
#[derive(Debug, Clone)]
pub struct DeltaEvaluator {
    // --- captured from the base configuration -------------------------
    node: NodeSolver,
    staging: StagingPrices,
    n_steps: u64,
    /// `R*` per `(simulation node, analysis node)`, `NaN` until first
    /// asked for: a remote route's latency costs two integer divisions,
    /// and a scan asks about the same few routes throughout.
    read_seconds: Vec<f64>,
    // --- derived from the shape (fixed per evaluator) ------------------
    comp_cores: Vec<u32>,
    /// The distinct `(workload profile, cores)` pairs of the shape.
    kinds: Vec<(Workload, u32)>,
    /// Index into `kinds` per component.
    comp_kind: Vec<u32>,
    /// Owning member per component.
    comp_member: Vec<usize>,
    /// The objective bound, and with it the shape's per-member layout:
    /// each member's component range and total cores.
    bound: ObjectiveBound,
    /// Per member, its class: the first member with the same sequence of
    /// component kinds; `None` when a socket split of the shape can see
    /// allocation order ([`hpc_platform::BindPolicy::splits_blind_to_order`]).
    member_class: Option<Vec<usize>>,
    // --- candidate state (structure of arrays) -------------------------
    prev: Vec<usize>,
    has_prev: bool,
    /// Set while [`DeltaEvaluator::score_above`] has skipped candidates
    /// since `prev` was scored: the minimum of their first-changed
    /// hints (`Some(None)` once one was unknown), which the next
    /// score's own hint folds into so it still diffs against `prev`.
    pending_hint: Option<Option<usize>>,
    /// Per node, `comp_cores.len()` slots: its resident components in
    /// flat order, the first `node_len` of them live.
    node_comps: Vec<usize>,
    node_len: Vec<usize>,
    /// Nodes with at least one resident — `M`, kept as nodes fill and
    /// empty instead of recounted per candidate.
    nodes_used: usize,
    comp_seconds: Vec<f64>,
    member_stage: Vec<MemberStageTimes>,
    /// `E / c × CP` per member: the indicator up to the provisioning
    /// stage, which is all of it that does not depend on `M`.
    member_ua: Vec<f64>,
    member_mk: Vec<f64>,
    member_eq4: Vec<bool>,
    // --- reusable scratch ----------------------------------------------
    values: Vec<f64>,
    touched: Vec<bool>,
    touched_list: Vec<usize>,
    member_dirty: Vec<bool>,
    sig: Vec<u32>,
    seconds_scratch: Vec<f64>,
    // --- occupancy-signature solve memo --------------------------------
    table: SignatureTable,
    /// The cache behind the table and, per kind, its word in that
    /// cache's keys: the workload's id there, then 16 bits of cores.
    shared: Option<(Arc<SolveCache>, Vec<u32>)>,
    counters: DeltaCounters,
}

impl DeltaEvaluator {
    /// Captures `base`'s platform model and `shape`'s structure with the
    /// default solve-cache bound.
    pub fn new(base: &SimRunConfig, shape: &EnsembleShape) -> Self {
        Self::with_cache_capacity(base, shape, DEFAULT_SOLVE_CACHE_CAPACITY)
    }

    /// [`DeltaEvaluator::new`] with an explicit solve-cache capacity
    /// (`0` disables solve caching entirely; results are unaffected
    /// either way).
    pub fn with_cache_capacity(
        base: &SimRunConfig,
        shape: &EnsembleShape,
        capacity: usize,
    ) -> Self {
        Self::build(base, shape, capacity, None)
    }

    /// [`DeltaEvaluator::new`] backed by `solves`: a node this
    /// evaluator has not solved yet is looked up there before it is
    /// solved, and filed there afterwards — so it is solved once per
    /// cache, not once per evaluator. Results are bit-identical with or
    /// without it.
    pub fn with_solve_cache(
        base: &SimRunConfig,
        shape: &EnsembleShape,
        solves: &Arc<SolveCache>,
    ) -> Self {
        Self::build(base, shape, DEFAULT_SOLVE_CACHE_CAPACITY, Some(solves))
    }

    fn build(
        base: &SimRunConfig,
        shape: &EnsembleShape,
        capacity: usize,
        solves: Option<&Arc<SolveCache>>,
    ) -> Self {
        let mut comp_cores = Vec::with_capacity(shape.num_components());
        let mut comp_kind = Vec::with_capacity(shape.num_components());
        let mut kinds: Vec<(Workload, u32)> = Vec::new();
        let mut comp_member = Vec::with_capacity(shape.num_components());
        let mut member_stage = Vec::with_capacity(shape.members.len());
        for (i, (sim_cores, anas)) in shape.members.iter().enumerate() {
            for (slot, &cores) in std::iter::once(sim_cores).chain(anas.iter()).enumerate() {
                let cref = if slot == 0 {
                    ComponentRef::simulation(i)
                } else {
                    ComponentRef::analysis(i, slot)
                };
                let workload = base.workloads.workload_for(cref);
                let kind = kinds.iter().position(|(w, c)| w == workload && *c == cores);
                let kind = kind.unwrap_or_else(|| {
                    kinds.push((workload.clone(), cores));
                    kinds.len() - 1
                });
                comp_cores.push(cores);
                comp_kind.push(kind as u32);
                comp_member.push(i);
            }
            member_stage.push(MemberStageTimes {
                s: 0.0,
                w: 0.0,
                analyses: vec![AnalysisStageTimes { r: 0.0, a: 0.0 }; anas.len()],
            });
        }
        let n = comp_cores.len();
        let members = shape.members.len();
        let bound = ObjectiveBound::new(shape);
        let kinds_of = |i: usize| {
            let (start, end) = bound.member_range[i];
            &comp_kind[start..end]
        };
        let sockets = base.node_spec.sockets;
        let splits_blind =
            base.bind_policy.splits_blind_to_order(sockets, comp_cores.iter().copied());
        let member_class = splits_blind.then(|| {
            (0..members)
                .map(|i| (0..i).find(|&j| kinds_of(j) == kinds_of(i)).unwrap_or(i))
                .collect()
        });
        // A signature word packs a component's cores into 16 bits. A
        // shape wider than that (shapes come off the wire unvalidated;
        // no real node is) is scored with solve caching off rather than
        // refused — results never depend on the cache.
        let packable = comp_cores.iter().all(|&c| c <= u32::from(u16::MAX));
        let capacity = if packable { capacity } else { 0 };
        // A cache for another platform, or one out of workload ids, is
        // left alone: the evaluator then scores as a private one.
        let node = NodeSolver::of(base);
        let shared = solves.filter(|cache| capacity > 0 && cache.node == node).and_then(|cache| {
            let words: Option<Vec<u32>> = kinds
                .iter()
                .map(|(workload, cores)| Some(u32::from(cache.profile_id(workload)?) << 16 | cores))
                .collect();
            Some((Arc::clone(cache), words?))
        });
        DeltaEvaluator {
            node,
            staging: StagingPrices::of(base),
            n_steps: base.n_steps,
            read_seconds: Vec::new(),
            comp_cores,
            comp_kind,
            comp_member,
            bound,
            member_class,
            prev: Vec::with_capacity(n),
            has_prev: false,
            pending_hint: None,
            node_comps: Vec::new(),
            node_len: Vec::new(),
            nodes_used: 0,
            comp_seconds: vec![0.0; n],
            member_stage,
            member_ua: vec![0.0; members],
            member_mk: vec![0.0; members],
            member_eq4: vec![false; members],
            values: Vec::with_capacity(members),
            touched: Vec::new(),
            touched_list: Vec::new(),
            member_dirty: vec![false; members],
            sig: Vec::new(),
            seconds_scratch: Vec::new(),
            table: SignatureTable::new(kinds.len(), capacity),
            kinds,
            shared,
            counters: DeltaCounters::default(),
        }
    }

    /// Cache-effectiveness counters accumulated since construction (or
    /// the last [`DeltaEvaluator::take_counters`]).
    pub fn counters(&self) -> DeltaCounters {
        self.counters
    }

    /// Returns and resets the counters (used by the scan engine to fold
    /// per-worker counters into the outcome).
    pub fn take_counters(&mut self) -> DeltaCounters {
        std::mem::take(&mut self.counters)
    }

    /// Distinct occupancy signatures currently memoized by this
    /// evaluator itself.
    pub fn cached_solves(&self) -> usize {
        self.table.solved
    }

    /// Scores one assignment, diffing against the previously scored one
    /// (if any) to find the touched nodes itself.
    pub fn score(&mut self, assignment: &[usize]) -> RuntimeResult<FastScore> {
        self.score_delta(assignment, None)
    }

    /// [`DeltaEvaluator::score`] with a first-changed-position hint:
    /// `Some(h)` promises `assignment[..h]` equals the prefix of the
    /// assignment offered just before — scored, or skipped by
    /// [`DeltaEvaluator::score_above`] (what
    /// [`crate::enumerate::PlacementIter::advance_delta`] reports for
    /// consecutive candidates). The hint only narrows the diff — all
    /// positions `≥ h` are still compared — so a conservative hint is
    /// merely slower, never wrong.
    pub fn score_delta(
        &mut self,
        assignment: &[usize],
        first_changed: Option<usize>,
    ) -> RuntimeResult<FastScore> {
        self.score_above(assignment, first_changed, f64::NEG_INFINITY)
            .map(|scored| scored.expect("no bound is below an unbounded floor"))
    }

    /// [`DeltaEvaluator::score_delta`] for a caller that only wants
    /// candidates whose objective can reach `floor`: `Ok(None)` when the
    /// assignment's [`ObjectiveBound`] is strictly below it. Such a
    /// candidate is never evaluated — no solve, no error, no change to
    /// the state the next score diffs against; its hint folds into that
    /// next score's. The comparison
    /// is strict because a candidate tying the floor can still outrank
    /// it on enumeration index. A floor of `−∞` (or NaN) prunes nothing.
    pub fn score_above(
        &mut self,
        assignment: &[usize],
        first_changed: Option<usize>,
        floor: f64,
    ) -> RuntimeResult<Option<FastScore>> {
        let n = self.comp_cores.len();
        assert_eq!(assignment.len(), n, "assignment length must match the shape");
        if floor > f64::NEG_INFINITY
            && self.bound.of_prefix(assignment, distinct_nodes(assignment)) < floor
        {
            self.pending_hint = Some(fold_hint(self.pending_hint, first_changed));
            self.counters.pruned += 1;
            return Ok(None);
        }
        let first_changed = fold_hint(self.pending_hint.take(), first_changed);
        if self.n_steps == 0 || n == 0 {
            return Err(RuntimeError::NoSamples);
        }

        // Phase 1: find touched nodes and rebuild their resident lists.
        // On any error below the evaluator stays poisoned (`has_prev`
        // false) and the next call rebuilds from scratch.
        let had_prev = self.has_prev;
        self.has_prev = false;
        self.touched_list.clear();
        if had_prev {
            let start = first_changed.unwrap_or(0).min(n);
            debug_assert_eq!(
                self.prev[..start],
                assignment[..start],
                "first-changed hint must not skip a real change"
            );
            for (p, &new) in assignment.iter().enumerate().skip(start) {
                let old = self.prev[p];
                if old != new {
                    // Only a changed position can name a node not seen
                    // before.
                    self.ensure_nodes(new + 1);
                    for nd in [old, new] {
                        if !self.touched[nd] {
                            self.touched[nd] = true;
                            self.touched_list.push(nd);
                        }
                    }
                }
            }
        } else {
            // Full rebuild (first score, or recovery after an error):
            // empty every node and touch all the candidate uses. A
            // previous call may have errored mid-solve, leaving stale
            // `touched` marks — reset them so no node is skipped.
            self.ensure_nodes(assignment.iter().copied().max().expect("non-empty") + 1);
            self.touched.iter_mut().for_each(|t| *t = false);
            self.node_len.iter_mut().for_each(|len| *len = 0);
            self.nodes_used = 0;
            for &nd in assignment {
                if !self.touched[nd] {
                    self.touched[nd] = true;
                    self.touched_list.push(nd);
                }
            }
        }
        for &nd in &self.touched_list {
            self.nodes_used -= usize::from(self.node_len[nd] > 0);
            self.node_len[nd] = 0;
        }
        for (c, &nd) in assignment.iter().enumerate() {
            if self.touched[nd] {
                self.node_comps[nd * n + self.node_len[nd]] = c;
                self.node_len[nd] += 1;
            }
        }
        // A member that left a touched node landed on another touched
        // node, so walking the new resident lists reaches every member
        // whose terms can have changed.
        for &nd in &self.touched_list {
            self.nodes_used += usize::from(self.node_len[nd] > 0);
            for &c in &self.node_comps[nd * n..nd * n + self.node_len[nd]] {
                self.member_dirty[self.comp_member[c]] = true;
            }
        }
        self.touched_list.sort_unstable();

        // Phase 2: solve touched nodes (memoized by occupancy
        // signature), refreshing per-component step times.
        for t in 0..self.touched_list.len() {
            let nd = self.touched_list[t];
            self.touched[nd] = false;
            if self.node_len[nd] > 0 {
                self.solve_touched_node(nd)?;
            }
        }

        // Phase 3: recompute the indicator terms of dirty members.
        for i in 0..self.member_dirty.len() {
            if !self.member_dirty[i] {
                continue;
            }
            self.recompute_member(i, assignment)?;
            self.member_dirty[i] = false;
            self.counters.members_recomputed += 1;
        }

        // Commit the candidate — all fallible work is done.
        self.prev.clear();
        self.prev.extend_from_slice(assignment);
        self.has_prev = true;

        // Phase 4: fold the ensemble aggregates exactly as the
        // from-scratch path does — the provisioning stage of
        // `indicator` (one division by `M` per member), then `aggregate`,
        // which sorts the scratch it folds.
        let m = self.nodes_used as f64;
        self.values.clear();
        self.values.extend(self.member_ua.iter().map(|&ua| ua / m));
        Ok(Some(FastScore {
            objective: aggregate(&mut self.values, Aggregation::MeanMinusStd),
            ensemble_makespan: self.member_mk.iter().fold(0.0f64, |longest, &mk| longest.max(mk)),
            nodes_used: self.nodes_used,
            eq4_satisfied: self.member_eq4.iter().all(|&b| b),
        }))
    }

    /// The member classes a scan of this evaluator's shape may reduce by
    /// ([`crate::ScanVisitor::member_classes`]) on node labels below
    /// `labels`: members with equal sequences of component kinds, when a
    /// copy — such members trading places — scores exactly what its
    /// representative does. That holds when neither a node's solve nor a
    /// staging price can tell the copy apart:
    ///
    /// * every socket split is blind to allocation order
    ///   ([`hpc_platform::BindPolicy::splits_blind_to_order`]), so each
    ///   node holds the same multiset of `(workload, split)`, which is all
    ///   its solve sees;
    /// * staging prices do not see node labels — every write costs the
    ///   same, every co-located read the same, every remote read the same.
    ///
    /// A copy's per-member values are then its representative's in
    /// another member order, which no aggregate sees. `None` otherwise.
    pub fn member_classes(&self, labels: usize) -> Option<Vec<usize>> {
        let classes = self.member_class.as_ref()?;
        let prices = &self.staging;
        let bits = f64::to_bits;
        let (write, local) = (bits(prices.write_seconds(0)), bits(prices.read_seconds(0, 0)));
        let remote = bits(prices.read_seconds(0, 1));
        for x in 0..labels {
            if bits(prices.write_seconds(x)) != write || bits(prices.read_seconds(x, x)) != local {
                return None;
            }
            if (0..labels).any(|y| y != x && bits(prices.read_seconds(x, y)) != remote) {
                return None;
            }
        }
        Some(classes.clone())
    }

    /// Refreshes the step times of node `nd`'s residents: from the
    /// signature table, else from the shared cache, else by solving —
    /// and memoizes them.
    fn solve_touched_node(&mut self, nd: usize) -> RuntimeResult<()> {
        let n = self.comp_cores.len();
        let comps = &self.node_comps[nd * n..nd * n + self.node_len[nd]];
        let comp_kind = &self.comp_kind;
        let kinds = || comps.iter().map(|&c| comp_kind[c] as usize);
        if let Some(seconds) = self.table.lookup(kinds()) {
            self.counters.solve_hits += 1;
            for (&c, &s) in comps.iter().zip(seconds) {
                self.comp_seconds[c] = s;
            }
            return Ok(());
        }
        self.seconds_scratch.clear();
        self.sig.clear();
        let answered = match &self.shared {
            Some((cache, words)) => {
                self.sig.extend(kinds().map(|kind| words[kind]));
                cache.get(&self.sig, &mut self.seconds_scratch)
            }
            None => false,
        };
        if answered {
            self.counters.solve_hits += 1;
        } else {
            self.counters.solve_misses += 1;
            let residents = kinds().map(|kind| {
                let (workload, cores) = &self.kinds[kind];
                (workload, *cores)
            });
            let solved = self.node.solve(nd, residents)?;
            self.seconds_scratch.extend(solved.estimates.iter().map(|e| e.seconds_per_step));
            if let Some((cache, _)) = &self.shared {
                cache.insert(&self.sig, &self.seconds_scratch);
            }
        }
        self.table.store(kinds(), &self.seconds_scratch);
        for (&c, &s) in comps.iter().zip(&self.seconds_scratch) {
            self.comp_seconds[c] = s;
        }
        Ok(())
    }

    /// Recomputes member `i`'s stage times, `E / c × CP`, makespan, and
    /// Eq. 4 flag from the (cached) per-component step times.
    fn recompute_member(&mut self, i: usize, assignment: &[usize]) -> RuntimeResult<()> {
        let (start, end) = self.bound.member_range[i];
        let sim_node = assignment[start];
        let nodes = self.touched.len();
        let st = &mut self.member_stage[i];
        st.s = self.comp_seconds[start];
        st.w = self.staging.write_seconds(sim_node);
        for (j, slot) in (start + 1..end).enumerate() {
            let route = &mut self.read_seconds[sim_node * nodes + assignment[slot]];
            if route.is_nan() {
                *route = self.staging.read_seconds(sim_node, assignment[slot]);
            }
            st.analyses[j].r = *route;
            st.analyses[j].a = self.comp_seconds[slot];
        }
        st.validate().map_err(RuntimeError::from)?;
        self.member_mk[i] = makespan(st, self.n_steps);
        self.member_eq4[i] = satisfies_eq4(st);
        let cp = placement_indicator_on(sim_node, &assignment[start + 1..end]);
        // The usage and allocation stages of `ensemble_core::indicator`,
        // in its order: `E / c`, then `× CP`. Both depend on the member
        // alone; the provisioning stage (`/ M`) is applied per score.
        self.member_ua[i] = efficiency(st) / self.bound.member_cores[i] * cp;
        Ok(())
    }

    /// Grows the per-node state to cover `count` nodes.
    fn ensure_nodes(&mut self, count: usize) {
        if self.touched.len() < count {
            self.node_comps.resize(count * self.comp_cores.len(), 0);
            self.node_len.resize(count, 0);
            self.touched.resize(count, false);
            // Re-laid out for the new node count; routes refill on demand.
            self.read_seconds.clear();
            self.read_seconds.resize(count * count, f64::NAN);
        }
    }
}

/// `M`: the distinct nodes `assignment` uses — one bit per node while
/// every index is below 64, a sorted copy past that.
fn distinct_nodes(assignment: &[usize]) -> usize {
    let mut used = 0u64;
    for &nd in assignment {
        if nd >= 64 {
            let mut nodes = assignment.to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            return nodes.len();
        }
        used |= 1 << nd;
    }
    used.count_ones() as usize
}

/// The first-changed hint of a candidate relative to the last scored
/// one, given the folded hints of the candidates skipped in between
/// (`pending`) and its own hint relative to its direct predecessor.
fn fold_hint(pending: Option<Option<usize>>, hint: Option<usize>) -> Option<usize> {
    match pending {
        None => hint,
        Some(skipped) => skipped.zip(hint).map(|(a, b)| a.min(b)),
    }
}
