//! Chunk payload stores: where staged bytes physically live.
//!
//! The staging *protocol* is identical across tiers; what differs is the
//! backing medium — node memory (DIMES), a burst buffer, or the parallel
//! file system. [`ChunkStore`] abstracts that medium.

use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::chunk::ChunkId;
use crate::error::DtlResult;

/// A physical backing store for chunk payloads.
pub trait ChunkStore: Send + Sync {
    /// Opaque handle to a stored payload.
    type Handle: Send;

    /// Persists a payload, returning its handle.
    fn store(&self, id: ChunkId, data: Arc<[u8]>) -> DtlResult<Self::Handle>;

    /// Retrieves a payload.
    fn load(&self, handle: &Self::Handle) -> DtlResult<Arc<[u8]>>;

    /// Releases a payload once fully consumed.
    fn remove(&self, handle: Self::Handle) -> DtlResult<()>;

    /// Human-readable tier name.
    fn tier(&self) -> &'static str;
}

/// In-memory store: payloads stay in the producing node's DRAM, as DIMES
/// keeps them. Loads are refcounted clones (no copy).
#[derive(Debug, Default)]
pub struct MemoryStore {
    bytes_held: AtomicU64,
}

impl MemoryStore {
    /// A fresh store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently resident.
    pub fn bytes_held(&self) -> u64 {
        self.bytes_held.load(Ordering::Relaxed)
    }
}

impl ChunkStore for MemoryStore {
    type Handle = Arc<[u8]>;

    fn store(&self, _id: ChunkId, data: Arc<[u8]>) -> DtlResult<Arc<[u8]>> {
        self.bytes_held.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn load(&self, handle: &Arc<[u8]>) -> DtlResult<Arc<[u8]>> {
        Ok(handle.clone())
    }

    fn remove(&self, handle: Arc<[u8]>) -> DtlResult<()> {
        self.bytes_held.fetch_sub(handle.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn tier(&self) -> &'static str {
        "memory"
    }
}

/// File-system store: each chunk becomes a file under the given root —
/// the parallel-file-system tier (real I/O, the loose-coupling baseline
/// the in situ paradigm replaces).
#[derive(Debug)]
pub struct FileStore {
    root: PathBuf,
    seq: AtomicU64,
}

impl FileStore {
    /// Creates the root directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> DtlResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FileStore { root, seq: AtomicU64::new(0) })
    }

    /// The root directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }
}

impl ChunkStore for FileStore {
    type Handle = PathBuf;

    fn store(&self, id: ChunkId, data: Arc<[u8]>) -> DtlResult<PathBuf> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let path = self.root.join(format!("var{}_step{}_{seq}.chunk", id.variable.0, id.step));
        let mut f = fs::File::create(&path)?;
        f.write_all(&data)?;
        f.sync_all()?;
        Ok(path)
    }

    fn load(&self, handle: &PathBuf) -> DtlResult<Arc<[u8]>> {
        let mut f = fs::File::open(handle)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(Arc::from(buf))
    }

    fn remove(&self, handle: PathBuf) -> DtlResult<()> {
        fs::remove_file(handle)?;
        Ok(())
    }

    fn tier(&self) -> &'static str {
        "pfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::VariableId;

    fn id() -> ChunkId {
        ChunkId { variable: VariableId(0), step: 3 }
    }

    #[test]
    fn memory_store_roundtrip_and_accounting() {
        let s = MemoryStore::new();
        let h = s.store(id(), Arc::from(*b"hello")).unwrap();
        assert_eq!(s.bytes_held(), 5);
        assert_eq!(s.load(&h).unwrap(), Arc::from(*b"hello"));
        s.remove(h).unwrap();
        assert_eq!(s.bytes_held(), 0);
        assert_eq!(s.tier(), "memory");
    }

    #[test]
    fn file_store_roundtrip_and_cleanup() {
        let dir = std::env::temp_dir().join(format!("dtl-test-{}", std::process::id()));
        let s = FileStore::new(&dir).unwrap();
        let h = s.store(id(), Arc::from(*b"persisted")).unwrap();
        assert!(h.exists());
        assert_eq!(s.load(&h).unwrap(), Arc::from(*b"persisted"));
        s.remove(h.clone()).unwrap();
        assert!(!h.exists());
        assert_eq!(s.tier(), "pfs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_distinct_paths_for_same_id() {
        let dir = std::env::temp_dir().join(format!("dtl-test2-{}", std::process::id()));
        let s = FileStore::new(&dir).unwrap();
        let a = s.store(id(), Arc::from(*b"a")).unwrap();
        let b = s.store(id(), Arc::from(*b"b")).unwrap();
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
