//! The paper's future work in action: use the performance indicators to
//! schedule an ensemble under resource constraints. The advisor sweeps
//! analysis core counts (§3.4), ranks every canonical placement by
//! F(P^{U,A,P}) in closed form, and plays its top rows through the DES
//! to confirm them.
//!
//! ```text
//! cargo run --release --example placement_advisor
//! ```

use insitu_ensembles::prelude::*;
use insitu_ensembles::scheduling;

fn main() {
    println!("indicator-guided placement advisor");
    println!("==================================\n");

    // Scenario: 2 ensemble members, each one 16-core simulation coupled
    // with one analysis; at most 3 Cori nodes (32 cores each).
    let budget = NodeBudget { max_nodes: 3, cores_per_node: 32 };

    // Step 1 — size the analyses with the paper's §3.4 heuristic.
    let sweep = core_sweep(&CoreSweepConfig::paper()).expect("core sweep failed");
    println!("core sweep (Figure 7): recommended analysis cores = {}", sweep.recommended_cores);
    for p in &sweep.points {
        println!(
            "  {:>2} cores: sigma* = {:>6.2}s, E = {:.3}, Eq.4 {}",
            p.analysis_cores,
            p.sigma_star,
            p.efficiency,
            if p.satisfies_eq4 { "satisfied" } else { "violated " }
        );
    }

    // Step 2 — the one-call advisor: rank in closed form, confirm the
    // top rows in the DES.
    let rec = scheduling::recommend_placement(2, 16, 1, sweep.recommended_cores, budget, false)
        .expect("advisor failed");
    println!("\nclosed-form top {} (each played through the DES):", rec.top.len());
    println!("  #  assignment         F closed form  F DES        nodes  makespan");
    for (rank, row) in rec.top.iter().enumerate() {
        println!(
            "  #{} {:<18} {:<14.6e} {:<12.6e} {:>5}  {:.1}s",
            rank + 1,
            format!("{:?}", row.ranked.assignment),
            row.ranked.objective,
            row.des_objective,
            row.ranked.nodes_used,
            row.ranked.ensemble_makespan
        );
    }
    println!("\nadvisor: {}", rec.rationale);
    for (i, member) in rec.spec.members.iter().enumerate() {
        println!(
            "  member {}: simulation on {:?}, analyses on {:?}",
            i + 1,
            member.simulation.nodes,
            member.analyses.iter().map(|a| a.nodes.clone()).collect::<Vec<_>>()
        );
    }
}
