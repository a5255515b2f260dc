//! # insitu-ensembles
//!
//! A complete Rust implementation of *"Assessing Resource Provisioning
//! and Allocation of Ensembles of In Situ Workflows"* (Do, Pottier,
//! Ferreira da Silva, Caíno-Lores, Taufer, Deelman — ICPP Workshops '21,
//! DOI 10.1145/3458744.3474051): the formal workflow-ensemble model, its
//! multi-stage performance indicators, the in situ runtime they were
//! evaluated on, and a simulated Cori-class platform that reproduces the
//! paper's experiments on a laptop.
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`model`] | `ensemble-core` | the paper's contribution: stage model, Eqs. 1–9, Tables 2/4 |
//! | [`runtime`] | `runtime` | Figure 2 runtime: simulated (DES) and threaded (real kernels) execution |
//! | [`dtl`] | `dtl` | data transport layer: chunks, DIMES-like staging, protocol |
//! | [`kernels`] | `kernels` | LJ molecular dynamics + bipartite-eigenvalue analysis + profiles |
//! | [`platform`] | `hpc-platform` | Cori-like machine model with co-location interference |
//! | [`measurement`] | `metrics` | traces, Table 1 metrics, makespans, reports |
//! | [`scheduling`] | `scheduler` | §3.4 core sweep + indicator-guided placement search |
//! | [`service`] | `svc` | concurrent provisioning-query service (admission control, score cache, TCP front end) |
//! | [`des`] | `sim-des` | deterministic discrete-event engine |
//!
//! ## Quickstart
//!
//! ```
//! use insitu_ensembles::prelude::*;
//!
//! // Run the paper's best configuration (C1.5: each member co-located)
//! // on the simulated platform, laptop-scale.
//! let report = EnsembleRunner::paper_config(ConfigId::C1_5)
//!     .small_scale()
//!     .steps(8)
//!     .run()
//!     .expect("simulated run");
//! assert_eq!(report.members.len(), 2);
//! for member in &report.members {
//!     assert!(member.efficiency > 0.0 && member.efficiency <= 1.0);
//!     assert_eq!(member.cp, 1.0); // fully co-located
//! }
//! ```

pub use dtl;
pub use ensemble_core as model;
pub use hpc_platform as platform;
pub use kernels;
pub use metrics as measurement;
pub use runtime;
pub use scheduler as scheduling;
pub use sim_des as des;
pub use svc as service;

/// The most common imports in one place.
pub mod prelude {
    pub use dtl::{
        DtlReader, FaultAction, FaultOp, FaultPlan, FaultRule, MemberKill, ReaderId, RetryPolicy,
        SyncStaging, VariableSpec,
    };
    pub use ensemble_core::{
        aggregate, efficiency, indicator, makespan, objective, placement_indicator, sigma_star,
        Aggregation, ComponentRef, ComponentSpec, ConfigId, CouplingScenario, EnsembleSpec,
        IndicatorPath, MemberInputs, MemberSpec, MemberStageTimes, StageKind, WarmupPolicy,
    };
    pub use hpc_platform::{BindPolicy, InterferenceModel, Platform, PowerModel, Workload};
    pub use kernels::{EigenAnalysis, Frame, MdConfig, MdSimulation};
    pub use metrics::{EnsembleReport, ExecutionTrace};
    pub use runtime::{
        predict, run_simulated, run_threaded, CouplingMode, EnsembleRunner, MemberOutcome,
        RestartPolicy, SimRunConfig, ThreadRunConfig, WorkloadMap,
    };
    pub use scheduler::{
        core_sweep, recommend_placement, CoreSweepConfig, EnsembleShape, NodeBudget, ScanOptions,
    };
    pub use svc::{serve, Service, SvcClient, SvcConfig};
}
