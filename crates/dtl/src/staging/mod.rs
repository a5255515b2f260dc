//! Staging tiers of the DTL.
//!
//! * [`InMemoryStaging`] — DIMES-like in-memory staging, capacity 1
//!   (the paper's unbuffered semantics);
//! * burst-buffer-like queueing — [`InMemoryStaging`] with capacity > 1
//!   via [`burst_buffer`];
//! * [`PfsStaging`] — parallel-file-system tier (real file I/O).
//!
//! Every tier is a [`SyncStaging`]: the writer blocks until its previous
//! chunk is consumed, as the paper's synchronous coupling does. The
//! in-transit alternative, where the producer runs free and frames are
//! lost, is modelled in the simulated runtime
//! (`runtime::CouplingMode::Asynchronous`), where a lost-frame count does
//! not depend on how the OS schedules threads.
//!
//! All tiers shard their state per variable: each registered variable
//! owns its own lock (and condition variables), so couplings over
//! distinct variables proceed without contending — an ensemble of N
//! members staging through N variables scales like N independent
//! staging areas. See `DESIGN.md` §4c for the full concurrency model.

mod handoff;
pub mod retry;
pub mod store;
pub mod sync_staging;

pub use retry::RetryPolicy;
pub use store::{ChunkStore, FileStore, MemoryStore};
pub use sync_staging::{StagingStats, SyncStaging, DEFAULT_TIMEOUT};

/// DIMES-style in-memory staging: chunks live in the producer's node
/// memory, one chunk in flight per variable.
pub type InMemoryStaging = SyncStaging<MemoryStore>;

/// Parallel-file-system staging: chunks are real files on disk.
pub type PfsStaging = SyncStaging<FileStore>;

/// The paper's DTL: unbuffered in-memory staging.
pub fn dimes() -> InMemoryStaging {
    SyncStaging::with_capacity(MemoryStore::new(), 1)
}

/// Burst-buffer-like in-memory staging with `capacity` chunks in flight
/// per variable (capacity ≥ 1).
pub fn burst_buffer(capacity: u64) -> InMemoryStaging {
    SyncStaging::with_capacity(MemoryStore::new(), capacity)
}

/// File-system staging rooted at `dir`.
pub fn pfs(dir: impl Into<std::path::PathBuf>) -> crate::error::DtlResult<PfsStaging> {
    Ok(SyncStaging::with_capacity(FileStore::new(dir)?, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::protocol::ReaderId;
    use crate::variable::VariableSpec;
    use std::sync::Arc;

    #[test]
    fn constructors_produce_expected_tiers() {
        assert_eq!(dimes().tier(), "memory");
        assert_eq!(burst_buffer(4).tier(), "memory");
        let dir = std::env::temp_dir().join(format!("dtl-tier-{}", std::process::id()));
        let p = pfs(&dir).unwrap();
        assert_eq!(p.tier(), "pfs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pfs_staging_end_to_end() {
        let dir = std::env::temp_dir().join(format!("dtl-pfs-e2e-{}", std::process::id()));
        let s = pfs(&dir).unwrap();
        let var = s
            .register(VariableSpec { name: "traj".into(), expected_readers: 1, home_node: 0 })
            .unwrap();
        s.put(Chunk::new(var, 0, 0, "raw", Arc::from(*b"on disk"))).unwrap();
        let c = s.get(var, 0, ReaderId(0)).unwrap();
        assert_eq!(c.data, Arc::from(*b"on disk"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
