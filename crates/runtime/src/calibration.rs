//! Model calibration from measured executions: closing the loop between
//! the threaded runtime (real kernels, wall-clock stages) and the
//! simulated platform (architectural workloads).
//!
//! Given a measured trace of a component running alone on known cores,
//! this module fits the instruction count of a [`Workload`] so the
//! interference model reproduces the measured steady-state stage time
//! on the modeled machine. Ratios (cache behaviour, parallel fraction)
//! are taken from a template — typically the paper profiles — because a
//! wall-clock trace alone cannot identify them.

use ensemble_core::{extract_steady_state, ComponentRef, WarmupPolicy};
use hpc_platform::{BindPolicy, InterferenceModel, NodeSpec, PlacedWorkload, Platform, Workload};
use metrics::ExecutionTrace;

use crate::error::{RuntimeError, RuntimeResult};

/// Result of calibrating one component.
#[derive(Debug, Clone)]
pub struct CalibratedWorkload {
    /// The fitted workload (template ratios, fitted instruction count).
    pub workload: Workload,
    /// Measured steady-state compute-stage seconds.
    pub measured_seconds: f64,
    /// Model-predicted seconds after fitting (should match measured).
    pub fitted_seconds: f64,
}

/// Fits `template`'s instruction count so that a component with
/// `cores` cores alone on `node_spec` matches the measured compute
/// stage of `component` in `trace`.
pub fn calibrate_component(
    trace: &ExecutionTrace,
    component: ComponentRef,
    k_of_member: usize,
    cores: u32,
    node_spec: &NodeSpec,
    template: &Workload,
    warmup: WarmupPolicy,
) -> RuntimeResult<CalibratedWorkload> {
    let samples = trace.member_samples(component.member, k_of_member);
    let times = extract_steady_state(&samples, warmup)?;
    let measured_seconds = if component.is_simulation() {
        times.s
    } else {
        times.analyses.get(component.slot - 1).ok_or(RuntimeError::NoSamples)?.a
    };
    if measured_seconds <= 0.0 {
        return Err(RuntimeError::NoSamples);
    }

    // seconds = instructions × cpi / (freq × speedup); cpi is almost
    // independent of the instruction count (the miss ratio depends on
    // the working set, not on instructions), so one solve at the
    // template's count gives the seconds-per-instruction slope exactly.
    let mut platform = Platform::new(1, node_spec.clone(), hpc_platform::cori::aries_network());
    let alloc = platform.allocate(0, cores, BindPolicy::Spread)?;
    let model = InterferenceModel::default();
    let placed = PlacedWorkload { alloc, workload: template.clone() };
    let est = model.solve_node(node_spec, std::slice::from_ref(&placed), &[])[0].clone();
    let seconds_per_instruction = est.seconds_per_step / template.instructions_per_step;
    let fitted_instructions = measured_seconds / seconds_per_instruction;

    let mut workload = template.clone();
    workload.instructions_per_step = fitted_instructions;
    // Verify the fit by re-solving.
    let placed = PlacedWorkload {
        alloc: {
            let mut p = Platform::new(1, node_spec.clone(), hpc_platform::cori::aries_network());
            p.allocate(0, cores, BindPolicy::Spread)?
        },
        workload: workload.clone(),
    };
    let fitted = model.solve_node(node_spec, &[placed], &[])[0].clone();
    Ok(CalibratedWorkload { workload, measured_seconds, fitted_seconds: fitted.seconds_per_step })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_exec::{run_threaded, ThreadRunConfig};
    use ensemble_core::ConfigId;
    use kernels::md::MdConfig;
    use kernels::profile;
    use std::time::Duration;

    #[test]
    fn fit_reproduces_measured_seconds() {
        // Measure a real MD + analysis member, then fit both components.
        let cfg = ThreadRunConfig {
            spec: ConfigId::Cf.build(),
            md: MdConfig { atoms_per_side: 5, stride: 10, ..Default::default() },
            analysis_group_size: 32,
            analysis_sigma: 1.2,
            n_steps: 6,
            staging_capacity: 1,
            timeout: Duration::from_secs(60),
            kernel: None,
            fault_plan: None,
            retry: None,
            restart: None,
        };
        let exec = run_threaded(&cfg).unwrap();
        let node = hpc_platform::cori::cori_node();

        let sim_fit = calibrate_component(
            &exec.trace,
            ComponentRef::simulation(0),
            1,
            16,
            &node,
            &profile::simulation_workload(10),
            WarmupPolicy::FixedSteps(1),
        )
        .unwrap();
        let rel =
            (sim_fit.fitted_seconds - sim_fit.measured_seconds).abs() / sim_fit.measured_seconds;
        assert!(rel < 1e-9, "fit must be exact: {rel}");
        assert!(sim_fit.workload.instructions_per_step > 0.0);

        let ana_fit = calibrate_component(
            &exec.trace,
            ComponentRef::analysis(0, 1),
            1,
            8,
            &node,
            &profile::analysis_workload(),
            WarmupPolicy::FixedSteps(1),
        )
        .unwrap();
        assert!(
            (ana_fit.fitted_seconds - ana_fit.measured_seconds).abs() / ana_fit.measured_seconds
                < 1e-9
        );
    }

    #[test]
    fn calibrated_workload_drives_the_simulator() {
        // The fitted workload plugs straight into a simulated run whose
        // steady state then mirrors the measurement.
        let cfg = ThreadRunConfig {
            spec: ConfigId::Cc.build(),
            md: MdConfig { atoms_per_side: 4, stride: 8, ..Default::default() },
            analysis_group_size: 16,
            analysis_sigma: 1.0,
            n_steps: 5,
            staging_capacity: 1,
            timeout: Duration::from_secs(60),
            kernel: None,
            fault_plan: None,
            retry: None,
            restart: None,
        };
        let exec = run_threaded(&cfg).unwrap();
        let node = hpc_platform::cori::cori_node();
        let fit = calibrate_component(
            &exec.trace,
            ComponentRef::simulation(0),
            1,
            16,
            &node,
            &profile::simulation_workload(8),
            WarmupPolicy::FixedSteps(1),
        )
        .unwrap();

        let mut run = crate::sim_exec::SimRunConfig::paper(ConfigId::Cf.build());
        run.n_steps = 5;
        run.jitter = 0.0;
        run.workloads.set_override(ComponentRef::simulation(0), fit.workload.clone());
        let sim_exec = crate::sim_exec::run_simulated(&run).unwrap();
        let samples = sim_exec.trace.member_samples(0, 1);
        let times = extract_steady_state(&samples, WarmupPolicy::FixedSteps(1)).unwrap();
        // The DES clock counts whole nanoseconds, so the simulated S* is
        // the measured time rounded to one tick: a sub-millisecond
        // measurement can sit a relative 1e-6 away from it.
        let tick = 1.0 / sim_des::time::NANOS_PER_SEC as f64;
        let diff = (times.s - fit.measured_seconds).abs();
        assert!(
            diff <= tick,
            "simulated S* {} vs measured {}: {diff:e} s apart, more than one DES tick",
            times.s,
            fit.measured_seconds
        );
    }

    #[test]
    fn missing_component_errors() {
        let trace = ExecutionTrace::default();
        let err = calibrate_component(
            &trace,
            ComponentRef::simulation(0),
            1,
            16,
            &hpc_platform::cori::cori_node(),
            &profile::simulation_workload(800),
            WarmupPolicy::default(),
        );
        assert!(err.is_err());
    }
}
