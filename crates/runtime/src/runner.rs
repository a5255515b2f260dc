//! High-level entry point: run a configuration, get a report.

use ensemble_core::{ConfigId, EnsembleSpec, WarmupPolicy};
use metrics::EnsembleReport;

use crate::error::RuntimeResult;
use crate::sim_exec::{run_simulated, run_summarized, SimExecution, SimRunConfig};
use crate::workload_map::WorkloadMap;

/// Builder for simulated ensemble runs.
#[derive(Debug, Clone)]
pub struct EnsembleRunner {
    label: String,
    config: SimRunConfig,
    warmup: WarmupPolicy,
}

impl EnsembleRunner {
    /// A runner for one of the paper's named configurations with the
    /// paper's settings.
    pub fn paper_config(id: ConfigId) -> Self {
        EnsembleRunner {
            label: id.label().to_string(),
            config: SimRunConfig::paper(id.build()),
            warmup: WarmupPolicy::default(),
        }
    }

    /// A runner for a custom ensemble spec (paper-scale workloads).
    pub fn custom(label: &str, spec: EnsembleSpec) -> Self {
        EnsembleRunner {
            label: label.to_string(),
            config: SimRunConfig::paper(spec),
            warmup: WarmupPolicy::default(),
        }
    }

    /// Switches to laptop-scale workloads (same contention shapes,
    /// ~1000× less virtual work) — used by tests and quick examples.
    pub fn small_scale(mut self) -> Self {
        self.config.workloads = WorkloadMap::small_defaults();
        self
    }

    /// Sets the number of in situ steps.
    pub fn steps(mut self, n: u64) -> Self {
        self.config.n_steps = n;
        self
    }

    /// Sets the per-step jitter fraction (0 = deterministic).
    pub fn jitter(mut self, j: f64) -> Self {
        self.config.jitter = j;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.config.seed = s;
        self
    }

    /// Disables the co-location interference model (ablation).
    pub fn without_interference(mut self) -> Self {
        self.config.interference.disabled = true;
        self
    }

    /// Forces remote pricing on all reads (data-locality ablation).
    pub fn force_remote_reads(mut self) -> Self {
        self.config.force_remote_reads = true;
        self
    }

    /// Sets the staging capacity (1 = paper, ≥2 = buffered ablation).
    pub fn staging_capacity(mut self, c: u64) -> Self {
        self.config.staging_capacity = c;
        self
    }

    /// Overrides the warm-up policy used in steady-state extraction.
    pub fn warmup(mut self, policy: WarmupPolicy) -> Self {
        self.warmup = policy;
        self
    }

    /// Mutable access to the full run configuration for advanced tuning.
    pub fn config_mut(&mut self) -> &mut SimRunConfig {
        &mut self.config
    }

    /// Executes the run, returning the raw execution.
    pub fn execute(&self) -> RuntimeResult<SimExecution> {
        run_simulated(&self.config)
    }

    /// Executes the run and builds the full report.
    pub fn run(&self) -> RuntimeResult<EnsembleReport> {
        let exec = run_summarized(&self.config, &mut |_, _| {})?;
        crate::report_builder::build_summary_report(
            &self.label,
            &self.config.spec,
            &exec,
            self.config.n_steps,
            self.warmup,
        )
    }

    /// Executes `trials` runs with distinct seeds and returns all
    /// reports (the paper averages over five trials).
    pub fn run_trials(&self, trials: u64) -> RuntimeResult<Vec<EnsembleReport>> {
        (0..trials)
            .map(|t| {
                let mut runner = self.clone();
                runner.config.seed = self.config.seed.wrapping_add(t);
                runner.run()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_core::CouplingScenario;

    fn quick(id: ConfigId) -> EnsembleRunner {
        EnsembleRunner::paper_config(id).small_scale().steps(6).jitter(0.0)
    }

    #[test]
    fn report_has_expected_shape() {
        let report = quick(ConfigId::C1_5).run().unwrap();
        assert_eq!(report.config, "C1.5");
        assert_eq!(report.n, 2);
        assert_eq!(report.m, 2);
        assert_eq!(report.members.len(), 2);
        for m in &report.members {
            assert!(m.sigma_star > 0.0);
            assert!(m.efficiency > 0.0 && m.efficiency <= 1.0);
            assert!((m.cp - 1.0).abs() < 1e-12, "C1.5 members are fully co-located");
            assert_eq!(m.components.len(), 2);
            assert!(m.components[0].metrics.ipc > 0.0);
        }
        assert!(report.ensemble_makespan > 0.0);
    }

    #[test]
    fn model_makespan_close_to_measured() {
        // Eq. 2 should track the DES-measured makespan up to the
        // pipeline-drain tail (the final analysis step extends one R+A
        // past the last simulation stage), which shrinks with step count.
        let report = quick(ConfigId::Cf).steps(30).run().unwrap();
        let m = &report.members[0];
        let rel = (m.makespan_model - m.makespan).abs() / m.makespan;
        assert!(rel < 0.05, "Eq. 2 off by {rel} ({} vs {})", m.makespan_model, m.makespan);
    }

    #[test]
    fn paper_operating_point_is_idle_analyzer() {
        let report = quick(ConfigId::Cf).run().unwrap();
        assert_eq!(report.members[0].scenarios[0], CouplingScenario::IdleAnalyzer);
    }

    #[test]
    fn trials_vary_with_seed() {
        let runner = quick(ConfigId::Cf).jitter(0.05);
        let reports = runner.run_trials(3).unwrap();
        assert_eq!(reports.len(), 3);
        let makespans: Vec<f64> = reports.iter().map(|r| r.ensemble_makespan).collect();
        assert!(
            makespans.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9),
            "different seeds should differ: {makespans:?}"
        );
    }

    #[test]
    fn ablation_toggles_apply() {
        let base = quick(ConfigId::Cc).run().unwrap();
        let no_interf = quick(ConfigId::Cc).without_interference().run().unwrap();
        // Without interference the co-located member runs at isolated
        // speed: sigma must not increase.
        assert!(no_interf.members[0].sigma_star <= base.members[0].sigma_star + 1e-9);
    }
}
