//! Property-based tests of the orbit walk: a scan whose visitor declares
//! member classes hands out one placement per member-permutation orbit
//! and gives every other member of the orbit the representative's own
//! score — Eq. 9 does not see member order.
//!
//! The contract is that the reduction is invisible: at any worker count
//! and any `top_k`, every row, its enumeration index, every bit and
//! `candidates_scanned` equal the from-scratch oracle's full ranking (its
//! head when bounded, all of it in enumeration order when not — a full
//! ranking walks every placement, as before); the walk hands out exactly
//! the orbit minima; the oracle itself scores every copy with its
//! representative's bits wherever classes are declared; classes are
//! declared exactly where no socket split sees allocation order; and
//! where a copy's values could differ from its representative's —
//! staging prices that see node labels, socket splits that see order —
//! the scan falls back and stays exact.
//!
//! Every scan here names its width (1, 2 and 8 workers, swept
//! explicitly, where a test is not about one worker), so the
//! thread-count axis is covered wherever the suite runs, on any host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ensemble_core::ComponentRef;
use hpc_platform::BindPolicy;
use runtime::{RuntimeError, RuntimeResult, SimRunConfig, WorkloadMap};
use scheduler::{
    canonicalize, enumerate_placements, scan_placements, Candidate, DeltaCounters, DeltaEvaluator,
    EnsembleShape, FastEvaluator, FastScore, NodeBudget, ObjectiveBound, PlacementIter,
    ScanOptions, ScanVisitor,
};
use testkit::{check, Gen};

/// Candidate spaces above this size shrink their node budget.
const MAX_SPACE: usize = 1500;

const CASES: u32 = 12;

const CORES: [u32; 4] = [1, 4, 8, 16];

/// The platform under the small workload map or the paper's, with one
/// of the twists that may make a copy's values differ from its
/// representative's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Twist {
    None,
    /// Co-located reads priced as remote ones.
    RemoteReads,
    /// A node power cap low enough to slow every busy node.
    PowerCap,
    /// Two nodes per network group: remote reads cost more across groups.
    Groups,
}

fn base_config(shape: &EnsembleShape, small: bool, twist: Twist) -> SimRunConfig {
    let mut base = SimRunConfig::paper(shape.materialize(&vec![0; shape.num_components()]));
    if small {
        base.workloads = WorkloadMap::small_defaults();
    }
    match twist {
        Twist::None => {}
        Twist::RemoteReads => base.force_remote_reads = true,
        Twist::PowerCap => base.power_cap_watts = Some(120.0),
        Twist::Groups => base.network.nodes_per_group = 2,
    }
    base
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

/// A shape with members to trade: 2–6 alike, or a mix of two kinds.
fn shape(g: &mut Gen) -> EnsembleShape {
    let member = |g: &mut Gen| (g.select(&CORES), g.vec(1..=2, |g| g.select(&CORES)));
    let members = if g.bool() {
        let alike = member(g);
        vec![alike; g.range(2usize..=6)]
    } else {
        let (a, b) = (member(g), member(g));
        g.vec(3..=5, |g| if g.bool() { a.clone() } else { b.clone() })
    };
    EnsembleShape { members }
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
    enumerate_placements(shape, budget.max_nodes, budget.cores_per_node)
        .iter()
        .map(|a| evaluator.score(&shape.materialize(a)).expect("oracle score"))
        .collect()
}

/// The service's score scan: delta evaluation, bound pruning, member
/// classes and copies offered their representative's score. Records
/// the placements handed to the walk's evaluator as representatives.
struct Orbit<'a> {
    base: &'a SimRunConfig,
    shape: &'a EnsembleShape,
    bound: ObjectiveBound,
    handed: Mutex<Vec<(usize, Vec<usize>)>>,
    /// Placements `eval` scored rather than pruned.
    evaluated: AtomicUsize,
}

impl ScanVisitor for Orbit<'_> {
    type State = DeltaEvaluator;
    type Scored = FastScore;
    type Row = (Vec<usize>, FastScore);
    type Error = RuntimeError;

    fn init(&self) -> DeltaEvaluator {
        DeltaEvaluator::new(self.base, self.shape)
    }

    fn eval(
        &self,
        evaluator: &mut DeltaEvaluator,
        c: Candidate<'_>,
    ) -> RuntimeResult<Option<FastScore>> {
        self.handed.lock().unwrap().push((c.index, c.assignment.to_vec()));
        let scored = evaluator.score_above(c.assignment, c.first_changed, c.floor)?;
        self.evaluated.fetch_add(usize::from(scored.is_some()), Ordering::Relaxed);
        Ok(scored)
    }

    fn objective(&self, score: &FastScore) -> f64 {
        score.objective
    }

    fn keep(
        &self,
        _: &mut DeltaEvaluator,
        c: Candidate<'_>,
        score: FastScore,
    ) -> (Vec<usize>, FastScore) {
        (c.assignment.to_vec(), score)
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
}

/// What one orbit scan returned and did.
struct OrbitScan {
    rows: Vec<Row>,
    /// Each row's assignment.
    assignments: Vec<Vec<usize>>,
    scanned: usize,
    counters: DeltaCounters,
    workers: usize,
    /// `(index, assignment)` of every placement handed to `eval`: the
    /// representatives.
    reps: Vec<(usize, Vec<usize>)>,
    /// Placements `eval` scored rather than pruned.
    evaluated: usize,
}

fn orbit_scan(
    shape: &EnsembleShape,
    budget: NodeBudget,
    base: &SimRunConfig,
    opts: &ScanOptions,
) -> RuntimeResult<OrbitScan> {
    let visitor = Orbit {
        base,
        shape,
        bound: ObjectiveBound::new(shape),
        handed: Mutex::new(Vec::new()),
        evaluated: AtomicUsize::new(0),
    };
    let outcome = scan_placements(shape, budget, opts, &visitor)?;
    let all = enumerate_placements(shape, budget.max_nodes, budget.cores_per_node);
    let mut reps: Vec<(usize, Vec<usize>)> = visitor.handed.into_inner().unwrap();
    reps.retain(|(index, a)| all[*index] == *a);
    reps.sort();
    Ok(OrbitScan {
        rows: outcome.results.iter().map(|h| row(h.index, &h.value.1)).collect(),
        assignments: outcome.results.iter().map(|h| h.value.0.clone()).collect(),
        scanned: outcome.scanned,
        counters: outcome.delta,
        workers: outcome.workers,
        reps,
        evaluated: visitor.evaluated.into_inner(),
    })
}

/// The parent algorithm's answer: the oracle's stable best-first ranking
/// (its head for `top_k > 0`), or the oracle in enumeration order.
fn parent_rows(want: &[FastScore], top_k: usize) -> Vec<Row> {
    let mut rows: Vec<Row> = want.iter().enumerate().map(|(i, s)| row(i, s)).collect();
    if top_k > 0 {
        rows.sort_by(|a, b| f64::from_bits(b.1).total_cmp(&f64::from_bits(a.1)));
        rows.truncate(top_k);
    }
    rows
}

/// Asserts every orbit scan of `shape` under `base` equals the parent's
/// answer, at every `top_k` and worker count; returns how many copies
/// were offered beside their representative and how many scans brought a
/// helper in.
fn assert_exact(shape: &EnsembleShape, budget: NodeBudget, base: &SimRunConfig) -> (usize, usize) {
    let all = enumerate_placements(shape, budget.max_nodes, budget.cores_per_node);
    let want = oracle(shape, budget, base);
    let (mut copies, mut multi) = (0, 0);
    for top_k in [1usize, 3, 10, all.len() + 1, 0] {
        let parent = parent_rows(&want, top_k);
        for workers in [1usize, 2, 8] {
            let opts = ScanOptions { workers, chunk: 7, top_k };
            let scan = orbit_scan(shape, budget, base, &opts).expect("orbit scan");
            let at = format!("{shape:?} on {budget:?}: top_k={top_k} workers={workers}");
            assert_eq!(scan.rows, parent, "{at}");
            assert_eq!(scan.scanned, all.len(), "{at}");
            for (r, a) in scan.rows.iter().zip(&scan.assignments) {
                assert_eq!(a, &all[r.0], "{at}: a row's assignment is its index's");
            }
            let scored = scan.scanned - scan.counters.pruned as usize;
            copies += scored.saturating_sub(scan.reps.len());
            multi += usize::from(scan.workers > 1);
        }
    }
    (copies, multi)
}

#[test]
fn orbit_scans_are_the_parents_full_ranking_bit_for_bit() {
    let (mut copies, mut multi) = (0, 0);
    check(CASES, |g| {
        let shape = shape(g);
        let budget = fit(&shape, g.range(2usize..=8));
        let base = base_config(&shape, g.bool(), Twist::None);
        let (r, m) = assert_exact(&shape, budget, &base);
        copies += r;
        multi += m;
    });
    // The paper's shapes: copies whose Eq. 9 folds in member order differed
    // in the last bits.
    for members in [4, 5] {
        let shape = EnsembleShape::uniform(members, 16, 1, 8);
        let budget = fit(&shape, members + 1);
        for small in [false, true] {
            copies += assert_exact(&shape, budget, &base_config(&shape, small, Twist::None)).0;
        }
    }
    assert!(copies > 0, "no copy was ever offered: the property is vacuous");
    assert!(multi > 0, "no scan ever brought a helper in: the widths are vacuous");
}

#[test]
fn a_member_with_its_own_workload_is_its_own_class() {
    let shape = EnsembleShape::uniform(4, 8, 1, 8);
    let budget = fit(&shape, 6);
    let mut base = base_config(&shape, true, Twist::None);
    let slow = WorkloadMap::paper_defaults(1).workload_for(ComponentRef::simulation(0)).clone();
    base.workloads.set_override(ComponentRef::simulation(2), slow);
    let evaluator = DeltaEvaluator::new(&base, &shape);
    assert_eq!(evaluator.member_classes(budget.max_nodes), Some(vec![0, 0, 2, 0]));
    let (copies, _) = assert_exact(&shape, budget, &base);
    assert!(copies > 0);
}

#[test]
fn a_member_without_analysis_fails_as_the_parent_does() {
    let shape = EnsembleShape { members: vec![(8, vec![4]), (8, vec![]), (8, vec![4])] };
    let budget = fit(&shape, 4);
    let base = base_config(&shape, true, Twist::None);
    let mut parent = FastEvaluator::new(&base);
    assert!(parent.score(&shape.materialize(&vec![0; shape.num_components()])).is_err());
    for top_k in [0usize, 1, 10] {
        for workers in [1usize, 2, 8] {
            let opts = ScanOptions { workers, chunk: 7, top_k };
            assert!(orbit_scan(&shape, budget, &base, &opts).is_err(), "top_k={top_k}");
        }
    }
}

/// Staging prices that see labels turn classes off; a cap's traffic sum
/// runs in the solve's canonical order, so copies share their
/// representative's score under it. Either way the rows stay the
/// parent's.
#[test]
fn fallbacks_stay_exact() {
    check(CASES / 2, |g| {
        let shape = shape(g);
        let budget = fit(&shape, g.range(3usize..=6));
        for twist in [Twist::RemoteReads, Twist::PowerCap, Twist::Groups] {
            let base = base_config(&shape, g.bool(), twist);
            let classes = DeltaEvaluator::new(&base, &shape).member_classes(budget.max_nodes);
            if twist == Twist::Groups && budget.max_nodes > 2 {
                assert_eq!(classes, None, "remote reads differ across groups");
            }
            assert_exact(&shape, budget, &base);
        }
    });
}

/// Every class-preserving rearrangement of `a`'s member blocks,
/// canonicalized, sorted.
fn orbit_of(shape: &EnsembleShape, classes: &[usize], a: &[usize]) -> Vec<Vec<usize>> {
    fn orders(classes: &[usize], order: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if order.len() == classes.len() {
            out.push(order.clone());
            return;
        }
        for m in 0..classes.len() {
            if classes[m] == classes[order.len()] && !order.contains(&m) {
                order.push(m);
                orders(classes, order, out);
                order.pop();
            }
        }
    }
    let mut starts = vec![0];
    for (_, anas) in &shape.members {
        starts.push(starts.last().unwrap() + 1 + anas.len());
    }
    let mut all = Vec::new();
    orders(classes, &mut Vec::new(), &mut all);
    let mut orbit: Vec<Vec<usize>> = all
        .iter()
        .map(|order| {
            let literal: Vec<usize> =
                order.iter().flat_map(|&m| a[starts[m]..starts[m + 1]].to_vec()).collect();
            canonicalize(&literal)
        })
        .collect();
    orbit.sort();
    orbit.dedup();
    orbit
}

#[test]
fn the_walk_hands_out_exactly_the_orbit_minima() {
    check(CASES, |g| {
        let shape = shape(g);
        let budget = fit(&shape, g.range(2usize..=6));
        let base = base_config(&shape, true, Twist::None);
        let classes = declared_classes(&shape, budget, &base)
            .unwrap_or_else(|| (0..shape.members.len()).collect());
        let all = enumerate_placements(&shape, budget.max_nodes, budget.cores_per_node);
        let minima: Vec<(usize, Vec<usize>)> = all
            .iter()
            .enumerate()
            .filter(|(_, a)| orbit_of(&shape, &classes, a)[0] == **a)
            .map(|(i, a)| (i, a.clone()))
            .collect();
        // More rows than the space: the floor never rises, nothing is
        // pruned, and what the walk hands out is its orbit reduction alone.
        let opts = ScanOptions { workers: 1, chunk: 7, top_k: all.len() + 1 };
        let scan = orbit_scan(&shape, budget, &base, &opts).expect("orbit scan");
        assert_eq!(scan.reps, minima, "{shape:?} on {budget:?}");
    });
}

/// Eq. 9 is blind to member order: wherever member classes are
/// declared, the from-scratch oracle scores every copy of every orbit
/// with the representative's own bits, so ties inside an orbit are exact
/// and fall to enumeration index.
#[test]
fn ties_inside_an_orbit_are_exact() {
    let mut tied = 0usize;
    let mut assert_ties = |shape: &EnsembleShape, budget: NodeBudget, base: &SimRunConfig| {
        let Some(classes) = declared_classes(shape, budget, base) else { return };
        let all = enumerate_placements(shape, budget.max_nodes, budget.cores_per_node);
        let want = oracle(shape, budget, base);
        let index: HashMap<&[usize], usize> =
            all.iter().enumerate().map(|(i, a)| (&a[..], i)).collect();
        for (i, a) in all.iter().enumerate() {
            let orbit = orbit_of(shape, &classes, a);
            if orbit[0] != *a || orbit.len() == 1 {
                continue;
            }
            for copy in &orbit[1..] {
                let c = index[&copy[..]];
                assert_eq!(row(i, &want[c]), row(i, &want[i]), "{shape:?}: {copy:?} of {a:?}");
                tied += 1;
            }
        }
    };
    check(CASES, |g| {
        let shape = shape(g);
        let budget = fit(&shape, g.range(2usize..=8));
        assert_ties(&shape, budget, &base_config(&shape, g.bool(), Twist::None));
    });
    for members in [4, 5] {
        let shape = EnsembleShape::uniform(members, 16, 1, 8);
        let budget = fit(&shape, members + 1);
        for small in [false, true] {
            assert_ties(&shape, budget, &base_config(&shape, small, Twist::None));
        }
    }
    assert!(tied > 0, "no orbit had a copy: the property is vacuous");
}

/// Whether no socket split of `shape` under `base` can see allocation
/// order: Spread binding, every core count a multiple of the sockets.
fn splits_blind(shape: &EnsembleShape, base: &SimRunConfig) -> bool {
    let sockets = base.node_spec.sockets;
    let mut cores = shape.members.iter().flat_map(|(sim, anas)| std::iter::once(sim).chain(anas));
    base.bind_policy == BindPolicy::Spread && cores.all(|&c| c % sockets == 0)
}

/// The evaluator's member classes for a platform whose staging prices
/// do not see node labels, checked against the gate: declared exactly
/// where the socket splits are blind to order.
fn declared_classes(
    shape: &EnsembleShape,
    budget: NodeBudget,
    base: &SimRunConfig,
) -> Option<Vec<usize>> {
    let classes = DeltaEvaluator::new(base, shape).member_classes(budget.max_nodes);
    assert_eq!(classes.is_some(), splits_blind(shape, base), "{shape:?} {:?}", base.bind_policy);
    classes
}

/// The generator draws shapes on both sides of the gate, and a Compact
/// binding closes it: classes are `None` exactly when a core count is
/// not a multiple of the socket count or the policy is Compact, and the
/// scan stays exact either way.
#[test]
fn member_classes_are_declared_exactly_where_splits_are_blind_to_order() {
    let (mut blind, mut seeing) = (0, 0);
    check(CASES, |g| {
        let shape = shape(g);
        let budget = fit(&shape, g.range(2usize..=6));
        let mut base = base_config(&shape, g.bool(), Twist::None);
        match declared_classes(&shape, budget, &base) {
            Some(_) => blind += 1,
            None => seeing += 1,
        }
        base.bind_policy = BindPolicy::Compact;
        declared_classes(&shape, budget, &base);
        if g.range(0u32..3) == 0 {
            assert_exact(&shape, budget, &base);
        }
    });
    assert!(blind > 0 && seeing > 0, "{blind} shapes blind to order, {seeing} seeing it");
    // A shape blind under Spread sees order once its cores are odd.
    let shape = EnsembleShape::uniform(4, 7, 1, 3);
    let base = base_config(&shape, true, Twist::None);
    assert_eq!(declared_classes(&shape, fit(&shape, 5), &base), None);
}

/// Why the gate stays, and why no node-local order of blocks could
/// replace it: where identical blocks on one node get different socket
/// splits, which member gets which split depends on member order, so
/// two copies of one orbit score differently. Under Compact the third
/// 8-core simulation on a node lands on socket 1; under Spread, once
/// socket 0 runs out, the later 3-core simulations split `[0, 3]`
/// instead of `[2, 1]`. The gate declares no classes for either shape,
/// and Spread scores the Compact shape's two copies to the same bits.
#[test]
fn copies_differ_where_identical_blocks_split_differently() {
    let objective = |shape: &EnsembleShape, base: &SimRunConfig, a: &[usize]| {
        FastEvaluator::new(base).score(&shape.materialize(a)).expect("score").objective
    };
    // Three 8+8-core members, the simulations on one node; the copy has
    // members 0 and 2 trade places.
    let shape = EnsembleShape::uniform(3, 8, 1, 8);
    let (placement, copy) = ([0, 1, 0, 1, 0, 2], [0, 1, 0, 2, 0, 2]);
    let mut base = base_config(&shape, true, Twist::None);
    base.bind_policy = BindPolicy::Compact;
    assert_eq!(objective(&shape, &base, &placement), 6.206358053358215e-3);
    assert_eq!(objective(&shape, &base, &copy), 5.718578112480261e-3);
    assert_eq!(DeltaEvaluator::new(&base, &shape).member_classes(3), None);
    base.bind_policy = BindPolicy::Spread;
    let spread = objective(&shape, &base, &placement);
    assert_eq!(spread.to_bits(), objective(&shape, &base, &copy).to_bits());

    // Ten 3+1-core members, the simulations on one node, nine analyses
    // on a second and member 9's alone on a third; the copy has member
    // 0's alone (canonical labels put it on node 1).
    let shape = EnsembleShape::uniform(10, 3, 1, 1);
    let mut placement = [0, 1].repeat(10);
    placement[19] = 2;
    let mut copy = [0, 2].repeat(10);
    copy[1] = 1;
    let base = base_config(&shape, true, Twist::None);
    assert_eq!(base.bind_policy, BindPolicy::Spread);
    assert_eq!(objective(&shape, &base, &placement), 2.9141833089387982e-2);
    assert_eq!(objective(&shape, &base, &copy), 2.8537118479846774e-2);
    assert_eq!(DeltaEvaluator::new(&base, &shape).member_classes(3), None);
}

/// The paper's shapes evaluate a few dozen representatives where the
/// parent evaluated hundreds.
#[test]
fn identical_members_are_evaluated_once_per_orbit() {
    for (members, max_nodes, most) in [(4usize, 6usize, 60usize), (5, 8, 120)] {
        let shape = EnsembleShape::uniform(members, 16, 1, 8);
        let budget = NodeBudget { max_nodes, cores_per_node: 32 };
        let base = base_config(&shape, true, Twist::None);
        let opts = ScanOptions { workers: 1, chunk: 32, top_k: 10 };
        let scan = orbit_scan(&shape, budget, &base, &opts).expect("orbit scan");
        let all = enumerate_placements(&shape, max_nodes, 32).len();
        assert_eq!(scan.scanned, all);
        assert!(scan.evaluated <= most, "{members} members: {} evaluated", scan.evaluated);
        assert_eq!(scan.rows, parent_rows(&oracle(&shape, budget, &base), 10));
    }
}
