//! The DTL plugin codec for MD trajectory frames — "the simulation using
//! the DTL plugin to write out data abstracted into a chunk" (Figure 2).

use std::sync::Arc;

use dtl::{ChunkCodec, DtlError, DtlResult};
use kernels::md::Frame;

/// Encodes [`Frame`]s into chunk payloads using the frame wire format.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameCodec;

impl ChunkCodec for FrameCodec {
    type Value = Frame;

    fn encoding(&self) -> &'static str {
        "md-frame-v1"
    }

    fn encode(&self, value: &Frame) -> Arc<[u8]> {
        value.to_bytes()
    }

    fn decode(&self, data: Arc<[u8]>) -> DtlResult<Frame> {
        Frame::from_bytes(&data).map_err(|e| DtlError::Codec { detail: e.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_through_codec() {
        let frame = Frame {
            step: 42,
            time: 0.084,
            box_len: 9.0,
            positions: vec![[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        };
        let codec = FrameCodec;
        let decoded = codec.decode(codec.encode(&frame)).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(codec.encoding(), "md-frame-v1");
    }

    #[test]
    fn corrupt_payload_is_codec_error() {
        let codec = FrameCodec;
        let err = codec.decode(Arc::from(*b"not a frame")).unwrap_err();
        assert!(matches!(err, DtlError::Codec { .. }));
    }
}
