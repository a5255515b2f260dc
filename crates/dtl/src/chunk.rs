//! The chunk: "the base data representation manipulated within the entire
//! runtime" (paper §2.2, Figure 2). A chunk is an opaque byte buffer plus
//! the metadata the staging protocol needs.

use std::sync::Arc;

use crate::variable::VariableId;

/// Identity of a chunk: which variable, which in situ step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId {
    /// Producing variable.
    pub variable: VariableId,
    /// In situ step index (0-based).
    pub step: u64,
}

/// Metadata travelling with every chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkMeta {
    /// Node whose memory holds the payload (DIMES keeps data local to the
    /// producer; remote readers fetch over the interconnect).
    pub home_node: usize,
    /// Tag describing the payload encoding: a codec's
    /// [`ChunkCodec::encoding`](crate::marshal::ChunkCodec::encoding).
    pub encoding: &'static str,
}

/// A staged unit of data.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Identity.
    pub id: ChunkId,
    /// Metadata.
    pub meta: ChunkMeta,
    /// Serialized payload. Clones share it (refcounted), so a
    /// chunk fanned out to K readers is not copied K times.
    pub data: Arc<[u8]>,
}

impl Chunk {
    /// Builds a chunk.
    pub fn new(
        variable: VariableId,
        step: u64,
        home_node: usize,
        encoding: &'static str,
        data: Arc<[u8]>,
    ) -> Self {
        Chunk { id: ChunkId { variable, step }, meta: ChunkMeta { home_node, encoding }, data }
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let c = Chunk::new(VariableId(3), 7, 1, "frame-v1", Arc::from(*b"abc"));
        assert_eq!(c.id, ChunkId { variable: VariableId(3), step: 7 });
        assert_eq!(c.meta.home_node, 1);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn clone_shares_payload() {
        let c = Chunk::new(VariableId(0), 0, 0, "raw", Arc::from(vec![0u8; 1024]));
        let d = c.clone();
        // Clones share the same backing storage.
        assert_eq!(c.data.as_ptr(), d.data.as_ptr());
    }

    #[test]
    fn chunk_ids_order_by_variable_then_step() {
        let a = ChunkId { variable: VariableId(0), step: 9 };
        let b = ChunkId { variable: VariableId(1), step: 0 };
        assert!(a < b);
    }
}
