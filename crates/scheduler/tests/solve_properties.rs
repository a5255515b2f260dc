//! Property-based tests of the node solve every score goes through
//! (`runtime::NodeSolver::solve`): it sees the multiset of `(workload,
//! socket split)` on a node, not the order the residents were allocated
//! in. Under every permutation of a node's residents that leaves each
//! resident's socket split as it was, every resident gets the same
//! estimate, bit for bit, and the node draws the same power — with and
//! without a power cap. That is what lets a scan give every copy of an
//! orbit its representative's score.
//!
//! Nothing here scans, so no worker count is in play; the scan suites
//! that rest on this property sweep 1, 2 and 8 workers themselves.

use ensemble_core::ComponentRef;
use hpc_platform::{BindPolicy, PerfEstimate, Workload};
use runtime::{NodeSolver, SimRunConfig, WorkloadMap};
use testkit::{check, Gen};

const CASES: u32 = 48;

/// The profiles a node can hold: the simulation and analysis of both
/// workload maps, and scaled variants of them.
fn profile(g: &mut Gen) -> Workload {
    let map = if g.bool() { WorkloadMap::small_defaults() } else { WorkloadMap::paper_defaults(1) };
    let component =
        if g.bool() { ComponentRef::simulation(0) } else { ComponentRef::analysis(0, 1) };
    map.workload_for(component).scaled(g.select(&[1.0, 0.5, 3.0]))
}

/// 2–6 residents that fit one 32-core node; some alike, and a mix of
/// even and odd core counts.
fn residents(g: &mut Gen) -> Vec<(Workload, u32)> {
    let mut residents: Vec<(Workload, u32)> = Vec::new();
    for _ in 0..g.range(2usize..=6) {
        let resident = match residents.last() {
            Some(last) if g.range(0u32..4) == 0 => last.clone(),
            _ => (profile(g), g.select(&[1u32, 2, 3, 4, 6, 8, 16])),
        };
        let used: u32 = residents.iter().map(|(_, cores)| cores).sum();
        if used + resident.1 > 32 {
            break;
        }
        residents.push(resident);
    }
    residents
}

fn solver(policy: BindPolicy, cap: Option<f64>) -> NodeSolver {
    let mut base = SimRunConfig::paper(ensemble_core::ConfigId::C1_5.build());
    base.bind_policy = policy;
    base.power_cap_watts = cap;
    NodeSolver::of(&base)
}

/// Every field of an estimate, as bits.
fn bits(e: &PerfEstimate) -> [u64; 9] {
    [
        e.seconds_per_step,
        e.instructions_per_step,
        e.llc_miss_ratio,
        e.cpi,
        e.ipc,
        e.llc_refs_per_step,
        e.llc_misses_per_step,
        e.dram_bytes_per_step,
        e.peak_bw_pressure,
    ]
    .map(f64::to_bits)
}

/// Every permutation of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn extend(n: usize, order: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if order.len() == n {
            out.push(order.clone());
            return;
        }
        for i in 0..n {
            if !order.contains(&i) {
                order.push(i);
                extend(n, order, out);
                order.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(n, &mut Vec::new(), &mut out);
    out
}

/// Solves `residents` in every order and checks each order that leaves
/// every split as it was against the order given; returns how many
/// reordered solves were compared.
fn assert_order_blind(solver: &NodeSolver, residents: &[(Workload, u32)]) -> usize {
    let solve = |order: &[usize]| {
        let node = order.iter().map(|&i| (&residents[i].0, residents[i].1));
        solver.solve(0, node).expect("the residents fit the node")
    };
    let first = solve(&(0..residents.len()).collect::<Vec<_>>());
    let mut compared = 0;
    for order in permutations(residents.len()).iter().skip(1) {
        let solved = solve(order);
        let same_splits =
            order.iter().enumerate().all(|(k, &i)| solved.placed[k].alloc == first.placed[i].alloc);
        if !same_splits {
            continue;
        }
        for (k, &i) in order.iter().enumerate() {
            let at = format!("resident {i} at {k} of {order:?} in {residents:?}");
            assert_eq!(bits(&solved.estimates[k]), bits(&first.estimates[i]), "{at}");
        }
        assert_eq!(solved.watts.to_bits(), first.watts.to_bits(), "{order:?} in {residents:?}");
        compared += 1;
    }
    compared
}

#[test]
fn every_split_preserving_order_of_a_nodes_residents_solves_to_the_same_bits() {
    for cap in [None, Some(120.0)] {
        let mut compared = 0;
        check(CASES, |g| {
            let policy = if g.bool() { BindPolicy::Spread } else { BindPolicy::Compact };
            compared += assert_order_blind(&solver(policy, cap), &residents(g));
        });
        assert!(compared > CASES as usize, "cap {cap:?}: only {compared} reorderings compared");
    }
}

/// The paper's co-location at its most mixed: two members' simulations
/// and analyses on one node, capped so every resident is slowed down.
#[test]
fn two_members_on_one_capped_node_solve_alike_in_either_order() {
    let map = WorkloadMap::paper_defaults(1);
    let sim = map.workload_for(ComponentRef::simulation(0)).clone();
    let ana = map.workload_for(ComponentRef::analysis(0, 1)).clone();
    let residents = [(sim.clone(), 8), (ana.clone(), 4), (sim.scaled(0.5), 8), (ana, 8)];
    for cap in [None, Some(120.0)] {
        assert!(assert_order_blind(&solver(BindPolicy::Spread, cap), &residents) > 0);
    }
}
