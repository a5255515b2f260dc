//! Runtime errors.

use std::fmt;

/// Errors from configuring or running an ensemble execution.
#[derive(Debug)]
pub enum RuntimeError {
    /// The ensemble spec failed validation.
    Model(ensemble_core::ModelError),
    /// Core allocation on the platform failed.
    Platform(hpc_platform::PlatformError),
    /// The data transport layer failed.
    Dtl(dtl::DtlError),
    /// A component spans multiple nodes, which the runtime does not
    /// execute (the paper's configurations are single-node components).
    MultiNodeComponent {
        /// Offending component description.
        component: String,
    },
    /// A worker thread panicked.
    WorkerPanicked {
        /// Component whose worker died.
        component: String,
    },
    /// A fault plan killed this member's component mid-run.
    InjectedKill {
        /// Member that was killed.
        member: usize,
        /// Step at which the kill fired.
        step: u64,
    },
    /// The run produced no usable samples (e.g. zero steps requested).
    NoSamples,
    /// More in situ steps than a simulated run of this many components
    /// accepts ([`MAX_SIM_STEPS`](crate::MAX_SIM_STEPS),
    /// [`MAX_SIM_COMPONENT_STEPS`](crate::MAX_SIM_COMPONENT_STEPS)).
    TooManySteps {
        /// Steps asked for.
        requested: u64,
        /// The most this ensemble may ask for.
        max: u64,
    },
    /// A component sits on a node label a simulated run does not
    /// address ([`MAX_SIM_NODES`](crate::MAX_SIM_NODES)).
    NodeOutOfRange {
        /// The largest node label of the ensemble.
        node: usize,
        /// Labels must be below this.
        max: usize,
    },
    /// An experiment file is not JSON, or not the JSON an
    /// [`ExperimentSpec`](crate::ExperimentSpec) is written as.
    InvalidExperiment {
        /// What is wrong, naming the offending key.
        detail: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Model(e) => write!(f, "model error: {e}"),
            RuntimeError::Platform(e) => write!(f, "platform error: {e}"),
            RuntimeError::Dtl(e) => write!(f, "DTL error: {e}"),
            RuntimeError::MultiNodeComponent { component } => {
                write!(f, "component {component} spans multiple nodes (unsupported by the runtime)")
            }
            RuntimeError::WorkerPanicked { component } => {
                write!(f, "worker thread for {component} panicked")
            }
            RuntimeError::InjectedKill { member, step } => {
                write!(f, "injected kill (member {member}, step {step})")
            }
            RuntimeError::NoSamples => write!(f, "run produced no samples (n_steps must be ≥ 1)"),
            RuntimeError::TooManySteps { requested, max } => {
                write!(
                    f,
                    "{requested} in situ steps requested; a simulated run of this ensemble takes at most {max}"
                )
            }
            RuntimeError::NodeOutOfRange { node, max } => {
                write!(
                    f,
                    "node {node} is out of range; a simulated run addresses nodes below MAX_SIM_NODES = {max}"
                )
            }
            RuntimeError::InvalidExperiment { detail } => {
                write!(f, "invalid experiment file: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Model(e) => Some(e),
            RuntimeError::Platform(e) => Some(e),
            RuntimeError::Dtl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ensemble_core::ModelError> for RuntimeError {
    fn from(e: ensemble_core::ModelError) -> Self {
        RuntimeError::Model(e)
    }
}

impl From<hpc_platform::PlatformError> for RuntimeError {
    fn from(e: hpc_platform::PlatformError) -> Self {
        RuntimeError::Platform(e)
    }
}

impl From<dtl::DtlError> for RuntimeError {
    fn from(e: dtl::DtlError) -> Self {
        RuntimeError::Dtl(e)
    }
}

/// Convenience alias.
pub type RuntimeResult<T> = Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: RuntimeError = ensemble_core::ModelError::EmptyEnsemble.into();
        assert!(e.to_string().contains("model error"));
        let e: RuntimeError = dtl::DtlError::Closed.into();
        assert!(e.to_string().contains("DTL"));
        let e = RuntimeError::MultiNodeComponent { component: "Sim1".into() };
        assert!(e.to_string().contains("Sim1"));
    }
}
