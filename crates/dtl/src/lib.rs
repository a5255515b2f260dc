//! # dtl — the Data Transport Layer of the workflow-ensemble runtime
//!
//! Implements the runtime architecture of the paper's Figure 2: a
//! producer marshals application data with a [`ChunkCodec`] into
//! [`Chunk`]s ("the base data representation manipulated within the
//! entire runtime") and stages them; a consumer reads them back through a
//! *DTL plugin* ([`DtlReader`]). Chunks move through one medium,
//! in-memory staging with DIMES semantics ([`SyncStaging`]): a payload
//! stays in the producer's node memory until every reader has consumed
//! it, and applies a run's [`FaultPlan`] itself. [`staging::dimes`]
//! keeps one chunk in flight per variable (the paper's unbuffered
//! synchronous coupling); a larger capacity queues like a burst buffer.
//!
//! The synchronous protocol (`Wᵢ` before `Rᵢ` before `Wᵢ₊₁`, every chunk
//! consumed exactly once by each of the member's K analyses) is enforced
//! by [`protocol::StepProtocol`] and surfaced as hard errors on violation.
//!
//! Staging state is sharded per variable — one lock and one pair of
//! condition variables per registered variable — so ensemble members
//! coupling through distinct variables never contend on a shared lock
//! (see the [`staging`] module docs and `DESIGN.md` §4c).
//!
//! [`transport::StagingCostModel`] prices the same operations for the
//! *simulated* execution mode, encoding the data-locality asymmetry that
//! makes co-location attractive (local memory copy vs. dragonfly
//! transfer).

#![warn(missing_docs)]

pub mod chunk;
pub mod error;
pub mod fault;
mod locks;
pub mod marshal;
pub mod plugin;
pub mod protocol;
pub mod staging;
pub mod transport;
pub mod variable;

pub use chunk::Chunk;
pub use error::{DtlError, DtlResult};
pub use fault::{
    FaultAction, FaultOp, FaultPlan, FaultRule, FaultStats, MemberKill, SERVICE_CLAUSES,
};
pub use marshal::{ChunkCodec, F64ArrayCodec};
pub use plugin::DtlReader;
pub use protocol::{ReaderId, StepProtocol};
pub use staging::{RetryPolicy, StagingStats, SyncStaging};
pub use transport::StagingCostModel;
pub use variable::{VariableId, VariableSpec};
