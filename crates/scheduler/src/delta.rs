//! Delta evaluation: incremental per-node scoring with bit-identical
//! results.
//!
//! The closed-form score of a placement ([`crate::fast_eval`] →
//! `runtime::predict`) re-derives everything per candidate: spec
//! validation, a fresh `Platform`, two `HashMap<ComponentRef, …>`
//! allocations, and an interference solve for every node. But the model
//! is **node-local** — members interact only through node co-residency —
//! and every search entry point feeds the evaluator candidates that
//! barely differ: [`crate::enumerate::PlacementIter`] emits candidates
//! in recursive enumeration order (successive candidates share long
//! placement prefixes), and annealing moves touch a single component.
//!
//! [`DeltaEvaluator`] exploits both:
//!
//! * **Per-node solve memoization.** The interference solve of a node is
//!   a pure function of the *ordered* sequence of `(workload, cores)`
//!   resident on it — ordered, because the executor allocates cores in
//!   flat component order and the socket split of each allocation
//!   depends on what was placed before it on the same node, and because
//!   the solver's floating-point sums run in placement order. Solves are
//!   cached under that sequence (the occupancy signature); a candidate
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
//! approximately — because the evaluator memoizes exactly the values the
//! from-scratch path computes (per-component `seconds_per_step` out of
//! the identical `solve_node` call, stage times out of the identical
//! staging-cost calls) and re-folds the final objective with the same
//! shared functions (`indicator`, `aggregate`, `sigma_star`, `makespan`,
//! `efficiency`) over all members in member order on every call. No
//! running-sum or algebraic shortcut is taken anywhere: `F(P)` is
//! recomputed from the (mostly cached) per-member values with the exact
//! op sequence of [`ensemble_core::aggregate`]. The O(members) re-fold
//! is cheap; the savings come from skipping the interference solves and
//! stage-time derivations, which dominate.

use std::collections::{HashMap, VecDeque};

use dtl::transport::StagingCostModel;
use ensemble_core::{
    aggregate, efficiency, indicator, makespan, Aggregation, AnalysisStageTimes, ComponentRef,
    IndicatorPath, MemberInputs, MemberStageTimes,
};
use hpc_platform::{
    BindPolicy, CoreAllocation, InterferenceModel, NodeSpec, PlacedWorkload, PlatformError,
    Workload,
};
use runtime::{RuntimeError, RuntimeResult, SimRunConfig};

use crate::enumerate::EnsembleShape;
use crate::fast_eval::FastScore;

/// Default bound on resident per-node solves. Exhaustive scans of the
/// paper's spaces produce a few dozen distinct signatures; annealing
/// over large ensembles a few hundred. The bound only caps memory —
/// eviction never changes results (evicted signatures simply re-solve).
pub const DEFAULT_SOLVE_CACHE_CAPACITY: usize = 1024;

/// Cache-effectiveness counters of a [`DeltaEvaluator`] (or an entire
/// scan — see [`crate::scan::ScanOutcome::delta`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCounters {
    /// Node solves answered from the occupancy-signature cache.
    pub solve_hits: u64,
    /// Node solves that ran the interference fixed point.
    pub solve_misses: u64,
    /// Members whose indicator terms were recomputed (vs served from
    /// the per-member cache).
    pub members_recomputed: u64,
}

impl DeltaCounters {
    /// Folds another counter set into this one.
    pub fn absorb(&mut self, other: DeltaCounters) {
        self.solve_hits += other.solve_hits;
        self.solve_misses += other.solve_misses;
        self.members_recomputed += other.members_recomputed;
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
    node_spec: NodeSpec,
    interference: InterferenceModel,
    cost: StagingCostModel,
    chunk: u64,
    n_steps: u64,
    force_remote_reads: bool,
    bind_policy: BindPolicy,
    uap: IndicatorPath,
    // --- derived from the shape (fixed per evaluator) ------------------
    comp_cores: Vec<u32>,
    /// Index into `workloads` per component.
    comp_workload: Vec<u16>,
    /// Deduplicated workload profiles.
    workloads: Vec<Workload>,
    /// Owning member per component.
    comp_member: Vec<usize>,
    /// Flat `[start, end)` component range per member (`start` = sim).
    member_range: Vec<(usize, usize)>,
    member_cores: Vec<u32>,
    // --- candidate state (structure of arrays) -------------------------
    prev: Vec<usize>,
    has_prev: bool,
    /// Per node: resident components in flat order.
    node_comps: Vec<Vec<usize>>,
    comp_seconds: Vec<f64>,
    member_stage: Vec<MemberStageTimes>,
    member_eff: Vec<f64>,
    member_cp: Vec<f64>,
    member_mk: Vec<f64>,
    member_eq4: Vec<bool>,
    // --- reusable scratch ----------------------------------------------
    values: Vec<f64>,
    touched: Vec<bool>,
    touched_list: Vec<usize>,
    member_dirty: Vec<bool>,
    node_seen: Vec<bool>,
    sig: Vec<u32>,
    free_scratch: Vec<u32>,
    placed_scratch: Vec<PlacedWorkload>,
    // --- occupancy-signature solve cache -------------------------------
    cache: HashMap<Box<[u32]>, Vec<f64>>,
    order: VecDeque<Box<[u32]>>,
    capacity: usize,
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
        let mut comp_cores = Vec::with_capacity(shape.num_components());
        let mut comp_workload = Vec::with_capacity(shape.num_components());
        let mut workloads: Vec<Workload> = Vec::new();
        let mut comp_member = Vec::with_capacity(shape.num_components());
        let mut member_range = Vec::with_capacity(shape.members.len());
        let mut member_cores = Vec::with_capacity(shape.members.len());
        let mut member_stage = Vec::with_capacity(shape.members.len());
        for (i, (sim_cores, anas)) in shape.members.iter().enumerate() {
            let start = comp_cores.len();
            for (slot, &cores) in std::iter::once(sim_cores).chain(anas.iter()).enumerate() {
                let cref = if slot == 0 {
                    ComponentRef::simulation(i)
                } else {
                    ComponentRef::analysis(i, slot)
                };
                let workload = base.workloads.workload_for(cref);
                let wid = match workloads.iter().position(|w| w == workload) {
                    Some(id) => id,
                    None => {
                        workloads.push(workload.clone());
                        workloads.len() - 1
                    }
                };
                assert!(wid < usize::from(u16::MAX), "too many distinct workloads");
                comp_cores.push(cores);
                comp_workload.push(wid as u16);
                comp_member.push(i);
            }
            member_range.push((start, comp_cores.len()));
            member_cores.push(sim_cores + anas.iter().sum::<u32>());
            member_stage.push(MemberStageTimes {
                s: 0.0,
                w: 0.0,
                analyses: vec![AnalysisStageTimes { r: 0.0, a: 0.0 }; anas.len()],
            });
        }
        let n = comp_cores.len();
        let members = shape.members.len();
        // A signature packs a component's cores into 16 bits. A shape
        // wider than that (shapes come off the wire unvalidated; no
        // real node is) is scored with the solve cache off rather than
        // refused — results never depend on the cache.
        let packable = comp_cores.iter().all(|&c| c <= u32::from(u16::MAX));
        let capacity = if packable { capacity } else { 0 };
        DeltaEvaluator {
            node_spec: base.node_spec.clone(),
            interference: base.interference.clone(),
            cost: StagingCostModel::from_platform(&base.node_spec, &base.network),
            chunk: base.workloads.chunk_bytes,
            n_steps: base.n_steps,
            force_remote_reads: base.force_remote_reads,
            bind_policy: base.bind_policy,
            uap: IndicatorPath::uap(),
            comp_cores,
            comp_workload,
            workloads,
            comp_member,
            member_range,
            member_cores,
            prev: Vec::with_capacity(n),
            has_prev: false,
            node_comps: Vec::new(),
            comp_seconds: vec![0.0; n],
            member_stage,
            member_eff: vec![0.0; members],
            member_cp: vec![0.0; members],
            member_mk: vec![0.0; members],
            member_eq4: vec![false; members],
            values: Vec::with_capacity(members),
            touched: Vec::new(),
            touched_list: Vec::new(),
            member_dirty: vec![false; members],
            node_seen: Vec::new(),
            sig: Vec::new(),
            free_scratch: Vec::new(),
            placed_scratch: Vec::new(),
            cache: HashMap::new(),
            order: VecDeque::new(),
            capacity,
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

    /// Distinct occupancy signatures currently memoized.
    pub fn cached_solves(&self) -> usize {
        self.cache.len()
    }

    /// Scores one assignment, diffing against the previously scored one
    /// (if any) to find the touched nodes itself.
    pub fn score(&mut self, assignment: &[usize]) -> RuntimeResult<FastScore> {
        self.score_delta(assignment, None)
    }

    /// [`DeltaEvaluator::score`] with a first-changed-position hint:
    /// `Some(h)` promises `assignment[..h]` equals the previously scored
    /// assignment's prefix (what
    /// [`crate::enumerate::PlacementIter::next_chunk_delta`] reports for
    /// consecutive candidates). The hint only narrows the diff — all
    /// positions `≥ h` are still compared — so a conservative hint is
    /// merely slower, never wrong.
    pub fn score_delta(
        &mut self,
        assignment: &[usize],
        first_changed: Option<usize>,
    ) -> RuntimeResult<FastScore> {
        let n = self.comp_cores.len();
        assert_eq!(assignment.len(), n, "assignment length must match the shape");
        if self.n_steps == 0 || n == 0 {
            return Err(RuntimeError::NoSamples);
        }
        let max_node = assignment.iter().copied().max().expect("non-empty") + 1;
        self.ensure_nodes(max_node);

        // Phase 1: find touched nodes and rebuild their resident lists.
        // On any error below the evaluator stays poisoned (`has_prev`
        // false) and the next call rebuilds from scratch.
        let had_prev = self.has_prev;
        self.has_prev = false;
        self.touched_list.clear();
        if had_prev {
            let start = first_changed.unwrap_or(0);
            debug_assert_eq!(
                self.prev[..start.min(n)],
                assignment[..start.min(n)],
                "first-changed hint must not skip a real change"
            );
            for (p, &new) in assignment.iter().enumerate().skip(start) {
                let old = self.prev[p];
                if old != new {
                    if !self.touched[old] {
                        self.touched[old] = true;
                        self.touched_list.push(old);
                    }
                    if !self.touched[new] {
                        self.touched[new] = true;
                        self.touched_list.push(new);
                    }
                }
            }
            for &nd in &self.touched_list {
                self.node_comps[nd].clear();
            }
            if !self.touched_list.is_empty() {
                for (c, &nd) in assignment.iter().enumerate() {
                    if self.touched[nd] {
                        self.node_comps[nd].push(c);
                    }
                }
            }
            for &nd in &self.touched_list {
                for i in self.node_comps[nd].iter().map(|&c| self.comp_member[c]) {
                    self.member_dirty[i] = true;
                }
            }
            // Members that vacated a touched node entirely still need a
            // recompute (their network costs may depend on the nodes
            // they left only through their own components — covered —
            // but their components' *new* nodes are touched too, so the
            // loop above already marked them).
        } else {
            // Full rebuild (first score, or recovery after an error).
            // A previous call may have errored mid-solve, leaving stale
            // `touched` marks — reset them so no node is skipped.
            self.touched.iter_mut().for_each(|t| *t = false);
            for list in &mut self.node_comps {
                list.clear();
            }
            for (c, &nd) in assignment.iter().enumerate() {
                self.node_comps[nd].push(c);
                if !self.touched[nd] {
                    self.touched[nd] = true;
                    self.touched_list.push(nd);
                }
            }
            self.member_dirty.iter_mut().for_each(|d| *d = true);
        }
        self.touched_list.sort_unstable();

        // Phase 2: solve touched nodes (memoized by occupancy
        // signature), refreshing per-component step times.
        for t in 0..self.touched_list.len() {
            let nd = self.touched_list[t];
            self.touched[nd] = false;
            if self.node_comps[nd].is_empty() {
                continue;
            }
            self.solve_touched_node(nd)?;
        }

        // Phase 3: recompute the indicator terms of dirty members.
        for i in 0..self.member_range.len() {
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

        // Phase 4: re-fold the ensemble aggregates exactly as the
        // from-scratch path does — same functions, same member order.
        let mut m_nodes = 0usize;
        for &nd in assignment {
            if !self.node_seen[nd] {
                self.node_seen[nd] = true;
                m_nodes += 1;
            }
        }
        for &nd in assignment {
            self.node_seen[nd] = false;
        }
        self.values.clear();
        for i in 0..self.member_range.len() {
            let inputs = MemberInputs {
                efficiency: self.member_eff[i],
                cores: self.member_cores[i],
                cp: self.member_cp[i],
                ensemble_nodes: m_nodes,
            };
            self.values.push(indicator(&inputs, &self.uap));
        }
        let mut ensemble_makespan = 0.0f64;
        for &mk in &self.member_mk {
            ensemble_makespan = ensemble_makespan.max(mk);
        }
        Ok(FastScore {
            objective: aggregate(&self.values, Aggregation::MeanMinusStd),
            ensemble_makespan,
            nodes_used: m_nodes,
            eq4_satisfied: self.member_eq4.iter().all(|&b| b),
        })
    }

    /// Solves node `nd`'s current resident list, via the signature cache
    /// when possible, writing per-component step times.
    fn solve_touched_node(&mut self, nd: usize) -> RuntimeResult<()> {
        self.sig.clear();
        for &c in &self.node_comps[nd] {
            self.sig.push(u32::from(self.comp_workload[c]) << 16 | self.comp_cores[c]);
        }
        if let Some(seconds) = self.cache.get(self.sig.as_slice()) {
            self.counters.solve_hits += 1;
            for (&c, &s) in self.node_comps[nd].iter().zip(seconds) {
                self.comp_seconds[c] = s;
            }
            return Ok(());
        }
        self.counters.solve_misses += 1;

        // Replay the executor's allocation protocol for this node: flat
        // component order, shared free-core state, the exact
        // Spread/Compact socket split of `Platform::allocate`.
        let sockets = self.node_spec.sockets as usize;
        self.free_scratch.clear();
        self.free_scratch.extend(std::iter::repeat_n(self.node_spec.cores_per_socket, sockets));
        self.placed_scratch.clear();
        for &c in &self.node_comps[nd] {
            let cores = self.comp_cores[c];
            if cores == 0 {
                return Err(PlatformError::EmptyAllocation.into());
            }
            let available: u32 = self.free_scratch.iter().sum();
            if cores > available {
                return Err(PlatformError::InsufficientCores {
                    node: nd,
                    requested: cores,
                    available,
                }
                .into());
            }
            let mut per_socket = vec![0u32; sockets];
            let mut remaining = cores;
            match self.bind_policy {
                BindPolicy::Spread => {
                    let mut s = 0usize;
                    while remaining > 0 {
                        if self.free_scratch[s] > per_socket[s] {
                            per_socket[s] += 1;
                            remaining -= 1;
                        }
                        s = (s + 1) % sockets;
                    }
                }
                BindPolicy::Compact => {
                    for (slot, &free) in per_socket.iter_mut().zip(&self.free_scratch) {
                        let take = remaining.min(free);
                        *slot = take;
                        remaining -= take;
                        if remaining == 0 {
                            break;
                        }
                    }
                }
            }
            for (s, taken) in per_socket.iter().enumerate() {
                self.free_scratch[s] -= taken;
            }
            self.placed_scratch.push(PlacedWorkload {
                alloc: CoreAllocation { node: nd, per_socket },
                workload: self.workloads[usize::from(self.comp_workload[c])].clone(),
            });
        }
        let estimates = self.interference.solve_node(&self.node_spec, &self.placed_scratch, &[]);
        let seconds: Vec<f64> = estimates.iter().map(|e| e.seconds_per_step).collect();
        for (&c, &s) in self.node_comps[nd].iter().zip(&seconds) {
            self.comp_seconds[c] = s;
        }
        if self.capacity > 0 {
            if self.cache.len() >= self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.cache.remove(&oldest);
                }
            }
            let key: Box<[u32]> = self.sig.as_slice().into();
            self.order.push_back(key.clone());
            self.cache.insert(key, seconds);
        }
        Ok(())
    }

    /// Recomputes member `i`'s stage times, efficiency, `CP`, makespan,
    /// and Eq. 4 flag from the (cached) per-component step times.
    fn recompute_member(&mut self, i: usize, assignment: &[usize]) -> RuntimeResult<()> {
        let (start, end) = self.member_range[i];
        let sim_node = assignment[start];
        let st = &mut self.member_stage[i];
        st.s = self.comp_seconds[start];
        st.w = self.cost.write_seconds(self.chunk, sim_node, sim_node);
        for (j, slot) in (start + 1..end).enumerate() {
            let ana_node = assignment[slot];
            st.analyses[j].r = if self.force_remote_reads && ana_node == sim_node {
                self.cost.read_seconds(self.chunk, sim_node, sim_node + 1)
            } else {
                self.cost.read_seconds(self.chunk, sim_node, ana_node)
            };
            st.analyses[j].a = self.comp_seconds[slot];
        }
        st.validate().map_err(RuntimeError::from)?;
        self.member_mk[i] = makespan(st, self.n_steps);
        self.member_eff[i] = efficiency(st);
        self.member_eq4[i] = st.analyses.iter().all(|a| a.busy() <= st.sim_busy() + 1e-12);
        // Eq. 6 for single-node components, with the exact op sequence
        // of `ensemble_core::placement_indicator`: |s| = 1, |s ∪ aʲ| is
        // 1 when co-located and 2 when not.
        let k = end - start - 1;
        let mut sum = 0.0f64;
        for &ana_node in &assignment[start + 1..end] {
            sum += if ana_node == sim_node { 1.0 } else { 1.0 / 2.0 };
        }
        self.member_cp[i] = 1.0 / k as f64 * sum;
        Ok(())
    }

    /// Grows the per-node state to cover `count` nodes.
    fn ensure_nodes(&mut self, count: usize) {
        if self.node_comps.len() < count {
            self.node_comps.resize_with(count, Vec::new);
            self.touched.resize(count, false);
            self.node_seen.resize(count, false);
        }
    }
}
