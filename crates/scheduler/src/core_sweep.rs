//! The paper's §3.4 parameter-selection heuristic (Figure 7).
//!
//! With the simulation settings fixed (user-provided), sweep the number
//! of cores assigned to the analyses. Minimizing the makespan requires
//! Eq. 4 — `Rⁱ* + Aⁱ* ≤ S* + W*` for every coupling (idle-analyzer) —
//! and among core counts that minimize `σ̄*`, the heuristic picks the one
//! maximizing the computational efficiency `E`.

use ensemble_core::{efficiency, sigma_star, ComponentSpec, EnsembleSpec, MemberSpec};
use json::{write_bool, write_f64, write_seq, write_u64};
use runtime::{RuntimeResult, SimRunConfig};

/// One point of the Figure 7 sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Cores assigned to the analysis.
    pub analysis_cores: u32,
    /// `S* + W*`, seconds.
    pub sim_busy: f64,
    /// `R* + A*`, seconds.
    pub ana_busy: f64,
    /// `σ̄*` (Eq. 1), seconds.
    pub sigma_star: f64,
    /// Computational efficiency `E` (Eq. 3).
    pub efficiency: f64,
    /// Whether Eq. 4 holds (idle-analyzer coupling).
    pub satisfies_eq4: bool,
}

/// Result of the sweep: all points plus the recommended core count.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The sweep grid in core order.
    pub points: Vec<SweepPoint>,
    /// Cores the heuristic selects (paper: 8).
    pub recommended_cores: u32,
}

impl SweepResult {
    /// Appends the sweep as one compact JSON object, every field under
    /// its own name.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"points\":");
        write_seq(out, &self.points, |out, p| {
            out.push_str("{\"analysis_cores\":");
            write_u64(out, u64::from(p.analysis_cores));
            out.push_str(",\"sim_busy\":");
            write_f64(out, p.sim_busy);
            out.push_str(",\"ana_busy\":");
            write_f64(out, p.ana_busy);
            out.push_str(",\"sigma_star\":");
            write_f64(out, p.sigma_star);
            out.push_str(",\"efficiency\":");
            write_f64(out, p.efficiency);
            out.push_str(",\"satisfies_eq4\":");
            write_bool(out, p.satisfies_eq4);
            out.push('}');
        });
        out.push_str(",\"recommended_cores\":");
        write_u64(out, u64::from(self.recommended_cores));
        out.push('}');
    }
}

/// Settings of the sweep.
#[derive(Debug, Clone)]
pub struct CoreSweepConfig {
    /// Baseline run configuration (spec is replaced per point).
    pub base: SimRunConfig,
    /// Simulation cores (fixed, user-provided; paper: 16).
    pub sim_cores: u32,
    /// Core counts to evaluate (paper: 1–32).
    pub candidate_cores: Vec<u32>,
    /// In situ steps per evaluation.
    pub steps: u64,
}

impl CoreSweepConfig {
    /// The paper's sweep: sim on 16 cores, analysis cores 1..=32 (powers
    /// of two plus the paper's grid), co-location-free placement.
    pub fn paper() -> Self {
        let spec = co_location_free_member(16, 8);
        CoreSweepConfig {
            base: SimRunConfig::paper(spec),
            sim_cores: 16,
            candidate_cores: vec![1, 2, 4, 8, 16, 32],
            steps: 8,
        }
    }
}

/// A single co-location-free member: sim on node 0, analysis on node 1.
fn co_location_free_member(sim_cores: u32, ana_cores: u32) -> EnsembleSpec {
    EnsembleSpec::new(vec![MemberSpec::new(
        ComponentSpec::simulation(sim_cores, 0),
        vec![ComponentSpec::analysis(ana_cores, 1)],
    )])
}

/// Runs the sweep, producing Figure 7's series and the recommendation.
pub fn core_sweep(config: &CoreSweepConfig) -> RuntimeResult<SweepResult> {
    let mut points = Vec::with_capacity(config.candidate_cores.len());
    for &cores in &config.candidate_cores {
        let mut run = config.base.clone();
        run.spec = co_location_free_member(config.sim_cores, cores);
        run.n_steps = config.steps;
        run.jitter = 0.0;
        let exec = runtime::run_summarized(&run, &mut |_, _| {})?;
        let samples = &exec.stages.members[0].samples;
        let times =
            ensemble_core::extract_steady_state(samples, ensemble_core::WarmupPolicy::default())?;
        let sim_busy = times.sim_busy();
        let ana_busy = times.analyses[0].busy();
        points.push(SweepPoint {
            analysis_cores: cores,
            sim_busy,
            ana_busy,
            sigma_star: sigma_star(&times),
            efficiency: efficiency(&times),
            satisfies_eq4: ana_busy <= sim_busy,
        });
    }

    // Among points minimizing σ̄* (within rounding), maximize E.
    let min_sigma = points.iter().map(|p| p.sigma_star).fold(f64::INFINITY, f64::min);
    let recommended = points
        .iter()
        .filter(|p| p.sigma_star <= min_sigma * 1.0001)
        .max_by(|a, b| a.efficiency.total_cmp(&b.efficiency))
        .expect("sweep evaluated at least one point");
    let recommended_cores = recommended.analysis_cores;
    Ok(SweepResult { points, recommended_cores })
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::WorkloadMap;

    fn sweep() -> SweepResult {
        let mut cfg = CoreSweepConfig::paper();
        cfg.steps = 6;
        core_sweep(&cfg).unwrap()
    }

    #[test]
    fn paper_heuristic_selects_eight_cores() {
        let result = sweep();
        assert_eq!(result.recommended_cores, 8, "{:#?}", result.points);
    }

    #[test]
    fn figure7_crossover_shape() {
        let result = sweep();
        for p in &result.points {
            if p.analysis_cores <= 4 {
                assert!(!p.satisfies_eq4, "{} cores should violate Eq. 4", p.analysis_cores);
                assert!((p.sigma_star - p.ana_busy).abs() < p.sigma_star * 0.02);
            } else {
                assert!(p.satisfies_eq4, "{} cores should satisfy Eq. 4", p.analysis_cores);
                assert!((p.sigma_star - p.sim_busy).abs() < p.sigma_star * 0.02);
            }
        }
    }

    #[test]
    fn efficiency_peaks_at_recommended_among_eq4_points() {
        let result = sweep();
        let best =
            result.points.iter().find(|p| p.analysis_cores == result.recommended_cores).unwrap();
        for p in result.points.iter().filter(|p| p.satisfies_eq4) {
            assert!(p.efficiency <= best.efficiency + 1e-12);
        }
    }

    #[test]
    fn ana_busy_monotone_decreasing_in_cores() {
        let result = sweep();
        let mut prev = f64::INFINITY;
        for p in &result.points {
            assert!(p.ana_busy < prev, "more cores must shrink the analysis step");
            prev = p.ana_busy;
        }
    }

    #[test]
    fn small_workloads_share_the_shape() {
        // The laptop-scale profiles preserve the crossover.
        let mut cfg = CoreSweepConfig::paper();
        cfg.base.workloads = WorkloadMap::small_defaults();
        cfg.steps = 5;
        let result = core_sweep(&cfg).unwrap();
        assert_eq!(result.recommended_cores, 8, "{:#?}", result.points);
    }
}
