//! The in situ step and its non-overlapped segment (paper §3.2).
//!
//! Equation 1: `σ̄* = max(S* + W*, R¹* + A¹*, …, Rᴷ* + Aᴷ*)`.
//! Equation 2: `MAKESPAN = n_steps × σ̄*`.

use crate::stage::MemberStageTimes;

/// Which side of a coupling idles (paper Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingScenario {
    /// The analysis step outlasts the simulation step; the simulation
    /// waits (`Iˢ > 0`).
    IdleSimulation,
    /// The simulation step outlasts the analysis step; the analysis
    /// waits (`Iᴬ > 0`).
    IdleAnalyzer,
    /// Both sides finish together (boundary case).
    Balanced,
}

/// Eq. 1: the non-overlapped segment `σ̄*` of the steady-state in situ
/// step.
pub fn sigma_star(times: &MemberStageTimes) -> f64 {
    times.analyses.iter().map(|a| a.busy()).fold(times.sim_busy(), f64::max)
}

/// Eq. 2: member makespan for `n_steps` in situ steps.
pub fn makespan(times: &MemberStageTimes, n_steps: u64) -> f64 {
    n_steps as f64 * sigma_star(times)
}

/// Eq. 4 for every coupling: `Rʲ* + Aʲ* ≤ S* + W*` (within 1e-12 s), so
/// the simulation never waits for an analysis.
pub fn satisfies_eq4(times: &MemberStageTimes) -> bool {
    times.analyses.iter().all(|a| a.busy() <= times.sim_busy() + 1e-12)
}

/// The factor by which analysis `j`'s `A*` must scale for its coupling
/// to stop dominating `σ̄*` — Eq. 4's boundary, `Rʲ* + f·Aʲ* = S* + W*`:
/// "how much faster must this analysis get before the simulation is the
/// bottleneck again?" `None` when the analysis does not dominate, or
/// when no scaling of `Aʲ*` alone can get it there.
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

/// Steady-state idle-stage durations derived from `σ̄*` (§3.3):
/// `Iˢ* = σ̄* − (S* + W*)` and `Iᴬⁱ* = σ̄* − (Rⁱ* + Aⁱ*)`.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleTimes {
    /// Simulation idle per in situ step.
    pub sim_idle: f64,
    /// Analysis idle per in situ step, per coupling.
    pub analysis_idle: Vec<f64>,
}

/// Derives the idle stages from the stage times.
pub fn idle_times(times: &MemberStageTimes) -> IdleTimes {
    let sigma = sigma_star(times);
    IdleTimes {
        sim_idle: sigma - times.sim_busy(),
        analysis_idle: times.analyses.iter().map(|a| sigma - a.busy()).collect(),
    }
}

/// Classifies the coupling `(Sim, Anaʲ)` (0-based `j`).
pub fn coupling_scenario(times: &MemberStageTimes, j: usize) -> CouplingScenario {
    let sim = times.sim_busy();
    let ana = times.analyses[j].busy();
    if ana > sim {
        CouplingScenario::IdleSimulation
    } else if ana < sim {
        CouplingScenario::IdleAnalyzer
    } else {
        CouplingScenario::Balanced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::AnalysisStageTimes;

    fn times(s: f64, w: f64, ra: &[(f64, f64)]) -> MemberStageTimes {
        MemberStageTimes::new(s, w, ra.iter().map(|&(r, a)| AnalysisStageTimes { r, a }).collect())
            .unwrap()
    }

    #[test]
    fn eq1_idle_analyzer_case() {
        // Simulation side dominates: σ̄* = S* + W*.
        let t = times(20.0, 0.5, &[(0.3, 15.0)]);
        assert!((sigma_star(&t) - 20.5).abs() < 1e-12);
        assert_eq!(coupling_scenario(&t, 0), CouplingScenario::IdleAnalyzer);
    }

    #[test]
    fn eq1_idle_simulation_case() {
        // Analysis dominates: σ̄* = R* + A*.
        let t = times(10.0, 0.5, &[(0.3, 25.0)]);
        assert!((sigma_star(&t) - 25.3).abs() < 1e-12);
        assert_eq!(coupling_scenario(&t, 0), CouplingScenario::IdleSimulation);
    }

    #[test]
    fn eq1_takes_slowest_of_k_analyses() {
        let t = times(10.0, 0.5, &[(0.3, 5.0), (0.2, 30.0), (0.1, 8.0)]);
        assert!((sigma_star(&t) - 30.2).abs() < 1e-12);
        assert_eq!(coupling_scenario(&t, 0), CouplingScenario::IdleAnalyzer);
        assert_eq!(coupling_scenario(&t, 1), CouplingScenario::IdleSimulation);
    }

    #[test]
    fn eq2_makespan_scales_with_steps() {
        let t = times(20.0, 0.5, &[(0.3, 15.0)]);
        assert!((makespan(&t, 37) - 37.0 * 20.5).abs() < 1e-9);
        assert_eq!(makespan(&t, 0), 0.0);
    }

    #[test]
    fn idle_times_sum_to_sigma_complement() {
        let t = times(10.0, 0.5, &[(0.3, 25.0), (0.2, 10.0)]);
        let sigma = sigma_star(&t);
        let idle = idle_times(&t);
        assert!((idle.sim_idle - (sigma - 10.5)).abs() < 1e-12);
        assert!((idle.analysis_idle[0] - 0.0).abs() < 1e-12, "slowest analysis never idles");
        assert!((idle.analysis_idle[1] - (sigma - 10.2)).abs() < 1e-12);
        assert!(idle.sim_idle >= 0.0);
        assert!(idle.analysis_idle.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn factor_to_unblock_matches_eq4_boundary() {
        let mut t = times(20.0, 0.5, &[(0.5, 30.0)]);
        let f = factor_to_unblock(&t, 0).expect("analysis dominates");
        // After scaling, R + A×f == S + W exactly.
        t.analyses[0].a *= f;
        assert!((t.analyses[0].busy() - t.sim_busy()).abs() < 1e-9);
        // Fast analyses need no unblocking.
        let idle = times(20.0, 0.5, &[(0.5, 5.0)]);
        assert!(factor_to_unblock(&idle, 0).is_none());
    }

    #[test]
    fn balanced_coupling() {
        let t = times(10.0, 0.5, &[(0.5, 10.0)]);
        assert_eq!(coupling_scenario(&t, 0), CouplingScenario::Balanced);
        assert!((sigma_star(&t) - 10.5).abs() < 1e-12);
    }
}
