//! # runtime — the workflow-ensemble runtime system (paper Figure 2)
//!
//! Manages the execution of workflow ensembles in two modes producing
//! identical trace formats:
//!
//! * [`sim_exec`] — **simulated**: components run as discrete-event
//!   processes on the modeled Cori platform; compute-stage durations come
//!   from the co-location interference solver, `W`/`R` stages from the
//!   DIMES-style staging cost model. Deterministic, fast, and the mode
//!   behind every figure/table regeneration.
//! * [`thread_exec`] — **threaded**: the real Lennard-Jones MD engine and
//!   eigenvalue analysis run on OS threads, coupled through the in-memory
//!   DTL with the paper's synchronous no-overwrite protocol, measured
//!   with wall-clock time.
//!
//! [`EnsembleRunner`] is the high-level entry: pick a paper configuration
//! (or a custom spec), run it, and get the full [`metrics::EnsembleReport`]
//! with stage times, `σ̄*`, efficiency, placement indicator, makespans,
//! and Table 1 metrics.

#![warn(missing_docs)]

pub mod calibration;
pub mod diagnostics;
pub mod error;
pub mod experiment_spec;
pub mod frame_codec;
pub mod predictor;
pub mod report_builder;
pub mod runner;
pub mod sim_exec;
mod stage_log;
pub mod thread_exec;
pub mod workload_map;

pub use calibration::calibrate_component;
pub use diagnostics::{diagnose, render_findings, DiagnosticConfig, FindingKind};
pub use error::{RuntimeError, RuntimeResult};
pub use experiment_spec::ExperimentSpec;
pub use predictor::{predict, predict_scores};
pub use report_builder::{build_report, build_summary_report, build_threaded_report};
pub use runner::EnsembleRunner;
pub use sim_exec::{
    run_simulated, run_summarized, CouplingMode, NodeSolver, SimExecution, SimRunConfig,
    StagingPrices, MAX_SIM_COMPONENT_STEPS, MAX_SIM_NODES, MAX_SIM_STEPS,
};
pub use thread_exec::{run_threaded, KernelChoice, MemberOutcome, RestartPolicy, ThreadRunConfig};
pub use workload_map::WorkloadMap;
