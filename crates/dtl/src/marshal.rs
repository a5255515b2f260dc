//! Data marshaling: the "DTL plugin" codec layer of the paper's Figure 2.
//!
//! "The abstract chunk is serialized to a buffer of bytes, which is easy
//! to manage for most DTL" — [`ChunkCodec`] is that serialization point.
//! Implementations exist for common numeric arrays; the runtime adds one
//! for MD frames.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{DtlError, DtlResult};

/// Encodes application values into chunk payloads and back.
pub trait ChunkCodec: Send + Sync {
    /// The application-side type.
    type Value;

    /// Tag recorded in [`crate::chunk::ChunkMeta::encoding`].
    fn encoding(&self) -> &'static str;

    /// Serializes a value into bytes.
    fn encode(&self, value: &Self::Value) -> Bytes;

    /// Deserializes bytes back into a value.
    fn decode(&self, data: Bytes) -> DtlResult<Self::Value>;
}

/// Little-endian `f64` array codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct F64ArrayCodec;

impl ChunkCodec for F64ArrayCodec {
    type Value = Vec<f64>;

    fn encoding(&self) -> &'static str {
        "f64-le"
    }

    fn encode(&self, value: &Vec<f64>) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + value.len() * 8);
        buf.put_u64_le(value.len() as u64);
        for &v in value {
            buf.put_f64_le(v);
        }
        buf.freeze()
    }

    fn decode(&self, mut data: Bytes) -> DtlResult<Vec<f64>> {
        if data.len() < 8 {
            return Err(DtlError::Codec { detail: "f64 array header truncated".into() });
        }
        let n = data.get_u64_le() as usize;
        if data.remaining() < n * 8 {
            return Err(DtlError::Codec {
                detail: format!("f64 array promises {n} values, payload too short"),
            });
        }
        Ok((0..n).map(|_| data.get_f64_le()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let codec = F64ArrayCodec;
        let v = vec![1.5, -2.25, 1e300, 0.0];
        let decoded = codec.decode(codec.encode(&v)).unwrap();
        assert_eq!(decoded, v);
        assert_eq!(codec.encoding(), "f64-le");
    }

    #[test]
    fn empty_arrays_roundtrip() {
        assert_eq!(F64ArrayCodec.decode(F64ArrayCodec.encode(&vec![])).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn truncated_payload_rejected() {
        let codec = F64ArrayCodec;
        let good = codec.encode(&vec![1.0, 2.0]);
        let bad = good.slice(0..good.len() - 1);
        assert!(matches!(codec.decode(bad), Err(DtlError::Codec { .. })));
        assert!(matches!(codec.decode(Bytes::from_static(b"xy")), Err(DtlError::Codec { .. })));
    }
}
