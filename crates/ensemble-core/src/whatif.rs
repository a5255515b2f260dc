//! What-if analysis over steady-state stage times: apply a hypothetical
//! change to a member and report how `σ̄*`, the makespan, and `E`
//! respond — the quantitative backing for tuning recommendations.

use crate::efficiency::efficiency;
use crate::insitu_step::sigma_star;
use crate::stage::{AnalysisStageTimes, MemberStageTimes};

/// A hypothetical change to a member.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// Scale analysis `j` (0-based) compute time by `factor` — e.g.
    /// `0.5` approximates doubling its cores in the parallel region.
    ScaleAnalysis {
        /// Coupling index (0-based).
        j: usize,
        /// Multiplier on `A*`.
        factor: f64,
    },
    /// Scale the simulation compute time by `factor`.
    ScaleSimulation {
        /// Multiplier on `S*`.
        factor: f64,
    },
    /// Add a coupling with the given read/analyze stage times.
    AddAnalysis {
        /// `R*` of the new coupling.
        r: f64,
        /// `A*` of the new coupling.
        a: f64,
    },
    /// Remove coupling `j` (0-based). The member must keep K ≥ 1.
    RemoveAnalysis {
        /// Coupling index (0-based).
        j: usize,
    },
}

/// Before/after comparison of one change.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// The stage times after the change.
    pub after: MemberStageTimes,
    /// `σ̄*` before.
    pub sigma_before: f64,
    /// `σ̄*` after.
    pub sigma_after: f64,
    /// `E` before.
    pub efficiency_before: f64,
    /// `E` after.
    pub efficiency_after: f64,
}

impl WhatIf {
    /// Relative makespan change (negative = faster).
    pub fn makespan_delta(&self) -> f64 {
        self.sigma_after / self.sigma_before - 1.0
    }
}

/// Applies `change` to `times` and reports the effect.
///
/// # Panics
/// Panics on invalid indices, non-positive factors, or removing the
/// last coupling.
pub fn what_if(times: &MemberStageTimes, change: &Change) -> WhatIf {
    let mut after = times.clone();
    match *change {
        Change::ScaleAnalysis { j, factor } => {
            assert!(factor > 0.0, "factor must be positive");
            after.analyses[j].a *= factor;
        }
        Change::ScaleSimulation { factor } => {
            assert!(factor > 0.0, "factor must be positive");
            after.s *= factor;
        }
        Change::AddAnalysis { r, a } => {
            assert!(r >= 0.0 && a >= 0.0, "stage times must be non-negative");
            after.analyses.push(AnalysisStageTimes { r, a });
        }
        Change::RemoveAnalysis { j } => {
            assert!(after.analyses.len() > 1, "a member needs at least one coupling");
            after.analyses.remove(j);
        }
    }
    WhatIf {
        sigma_before: sigma_star(times),
        sigma_after: sigma_star(&after),
        efficiency_before: efficiency(times),
        efficiency_after: efficiency(&after),
        after,
    }
}

/// Scans analysis-`j` scaling factors and returns the smallest factor
/// (most aggressive slowdown tolerated / speedup required) at which the
/// coupling stops dominating `σ̄*` — "how much faster must this analysis
/// get before the simulation is the bottleneck again?"
pub fn factor_to_unblock(times: &MemberStageTimes, j: usize) -> Option<f64> {
    let ana = &times.analyses[j];
    if ana.busy() <= times.sim_busy() {
        return None; // already not the bottleneck
    }
    if ana.a <= 0.0 {
        return None; // pure read time cannot be scaled away
    }
    let target_a = times.sim_busy() - ana.r;
    if target_a <= 0.0 {
        return None; // even a zero-cost analysis would still dominate
    }
    Some(target_a / ana.a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(s: f64, ra: &[(f64, f64)]) -> MemberStageTimes {
        MemberStageTimes::new(
            s,
            0.5,
            ra.iter().map(|&(r, a)| AnalysisStageTimes { r, a }).collect(),
        )
        .unwrap()
    }

    #[test]
    fn halving_a_dominant_analysis_cuts_sigma() {
        let t = times(10.0, &[(0.5, 30.0)]);
        let w = what_if(&t, &Change::ScaleAnalysis { j: 0, factor: 0.5 });
        assert!((w.sigma_after - 15.5).abs() < 1e-12);
        assert!(w.makespan_delta() < -0.4);
        assert!(w.efficiency_after > w.efficiency_before);
    }

    #[test]
    fn scaling_a_hidden_analysis_changes_nothing() {
        // Analysis well under the simulation: mild slowdown is free.
        let t = times(20.0, &[(0.3, 5.0)]);
        let w = what_if(&t, &Change::ScaleAnalysis { j: 0, factor: 1.5 });
        assert_eq!(w.sigma_before, w.sigma_after);
        assert!(w.makespan_delta().abs() < 1e-12);
        // Efficiency actually improves: less idle analysis time.
        assert!(w.efficiency_after > w.efficiency_before);
    }

    #[test]
    fn adding_a_slow_analysis_hurts() {
        let t = times(20.0, &[(0.3, 15.0)]);
        let w = what_if(&t, &Change::AddAnalysis { r: 0.3, a: 30.0 });
        assert!(w.sigma_after > w.sigma_before);
        assert_eq!(w.after.k(), 2);
    }

    #[test]
    fn removing_the_bottleneck_helps() {
        let t = times(10.0, &[(0.5, 30.0), (0.3, 5.0)]);
        let w = what_if(&t, &Change::RemoveAnalysis { j: 0 });
        assert!((w.sigma_after - 10.5).abs() < 1e-12);
        assert_eq!(w.after.k(), 1);
    }

    #[test]
    fn factor_to_unblock_matches_eq4_boundary() {
        let t = times(20.0, &[(0.5, 30.0)]);
        let f = factor_to_unblock(&t, 0).expect("analysis dominates");
        // After scaling, R + A×f == S + W exactly.
        let w = what_if(&t, &Change::ScaleAnalysis { j: 0, factor: f });
        assert!((w.after.analyses[0].busy() - w.after.sim_busy()).abs() < 1e-9);
        // Fast analyses need no unblocking.
        let idle = times(20.0, &[(0.5, 5.0)]);
        assert!(factor_to_unblock(&idle, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one coupling")]
    fn cannot_remove_last_coupling() {
        let t = times(10.0, &[(0.5, 5.0)]);
        what_if(&t, &Change::RemoveAnalysis { j: 0 });
    }
}
