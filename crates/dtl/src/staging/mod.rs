//! The DTL's staging area: DIMES-style in-memory staging.
//!
//! A [`SyncStaging`] keeps a staged payload in the producer's node
//! memory until every reader of its step has consumed it, and its writer
//! blocks until then: with one chunk in flight per variable ([`dimes`])
//! this is the paper's synchronous coupling, and a capacity > 1 queues
//! chunks like a burst buffer. The in-transit alternative, where frames
//! are lost, is modelled in the DES (`runtime::CouplingMode::Asynchronous`),
//! where a lost-frame count does not depend on how the OS schedules
//! threads. State is sharded per variable, so couplings over distinct
//! variables never contend (`DESIGN.md` §4c).

mod handoff;
pub mod retry;
pub mod sync_staging;

pub use retry::RetryPolicy;
pub use sync_staging::{StagingStats, SyncStaging, DEFAULT_TIMEOUT};

/// The paper's DTL: unbuffered in-memory staging, one chunk in flight
/// per variable.
pub fn dimes() -> SyncStaging {
    SyncStaging::with_capacity(1)
}
