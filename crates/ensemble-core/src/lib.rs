//! # ensemble-core — the paper's formal model and performance indicators
//!
//! This crate is the primary contribution of *"Assessing Resource
//! Provisioning and Allocation of Ensembles of In Situ Workflows"*
//! (Do et al., ICPP Workshops '21), implemented as a library:
//!
//! * **Structure** (§2.1, §4.1): [`ComponentSpec`] / [`MemberSpec`] /
//!   [`EnsembleSpec`] — components, members (one simulation coupled with
//!   K analyses), and ensembles, with the derived quantities `cᵢ`, `dᵢ`,
//!   `M`.
//! * **Execution model** (§3.1–§3.2): the six fine-grained stages
//!   ([`StageKind`]), steady-state stage times ([`MemberStageTimes`],
//!   extracted from per-step samples by [`steady_state`]), the
//!   non-overlapped in situ step `σ̄*` (Eq. 1, [`sigma_star`]) and the
//!   makespan (Eq. 2, [`makespan`]).
//! * **Efficiency** (§3.3): Eq. 3 ([`efficiency()`]).
//! * **Indicators** (§4): `Pᵁ`, the placement indicator `CPᵢ` (Eq. 6,
//!   [`placement_indicator`]), `Pᵁ·ᴬ`, `Pᵁ·ᴬ·ᴾ` and both stage orders
//!   ([`indicator()`], [`IndicatorPath`]).
//! * **Objective** (§5.1): Eq. 9, mean − std ([`objective()`]).
//! * **Configurations**: Tables 2 and 4 as ready-made [`ConfigId`]s.
//!
//! Everything here is pure, deterministic math over stage times — the
//! `runtime` crate produces those stage times by executing ensembles
//! (simulated or threaded), and `scheduler` searches placements with
//! these indicators as the objective.

#![warn(missing_docs)]

pub mod component;
pub mod config;
pub mod efficiency;
pub mod ensemble;
pub mod error;
pub mod indicator;
pub mod insitu_step;
pub mod member;
pub mod objective;
pub mod placement;
pub mod stage;
pub mod steady_state;

pub use component::{ComponentRef, ComponentSpec};
pub use config::{ConfigId, ANALYSIS_CORES, SIM_CORES};
pub use efficiency::{coupling_efficiency, efficiency, efficiency_from_idle};
pub use ensemble::EnsembleSpec;
pub use error::ModelError;
pub use indicator::{indicator, p_u, p_ua, p_uap, IndicatorPath, MemberInputs};
pub use insitu_step::{
    coupling_scenario, factor_to_unblock, idle_times, makespan, satisfies_eq4, sigma_star,
    CouplingScenario,
};
pub use member::MemberSpec;
pub use objective::{aggregate, objective, Aggregation};
pub use placement::{placement_indicator, placement_indicator_bound, placement_indicator_on};
pub use stage::{AnalysisStageTimes, MemberStageTimes, StageGroup, StageKind};
pub use steady_state::{extract_steady_state, MemberStepSamples, WarmupPolicy};
