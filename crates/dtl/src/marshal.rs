//! Data marshaling: the "DTL plugin" codec layer of the paper's Figure 2.
//!
//! "The abstract chunk is serialized to a buffer of bytes, which is easy
//! to manage for most DTL" — [`ChunkCodec`] is that serialization point.
//! Implementations exist for common numeric arrays; the runtime adds one
//! for MD frames.

use std::sync::Arc;

use crate::error::{DtlError, DtlResult};

/// Encodes application values into chunk payloads and back.
pub trait ChunkCodec: Send + Sync {
    /// The application-side type.
    type Value;

    /// Tag recorded in [`crate::chunk::ChunkMeta::encoding`].
    fn encoding(&self) -> &'static str;

    /// Serializes a value into bytes.
    fn encode(&self, value: &Self::Value) -> Arc<[u8]>;

    /// Deserializes bytes back into a value.
    fn decode(&self, data: Arc<[u8]>) -> DtlResult<Self::Value>;
}

/// Little-endian `f64` array codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct F64ArrayCodec;

impl ChunkCodec for F64ArrayCodec {
    type Value = Vec<f64>;

    fn encoding(&self) -> &'static str {
        "f64-le"
    }

    fn encode(&self, value: &Vec<f64>) -> Arc<[u8]> {
        let mut buf = Vec::with_capacity(8 + value.len() * 8);
        buf.extend_from_slice(&(value.len() as u64).to_le_bytes());
        for v in value {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.into()
    }

    fn decode(&self, data: Arc<[u8]>) -> DtlResult<Vec<f64>> {
        let Some((count, values)) = data.split_first_chunk() else {
            return Err(DtlError::Codec { detail: "f64 array header truncated".into() });
        };
        // The count is payload: a corrupted one must not overflow the
        // size it is checked by.
        let n = u64::from_le_bytes(*count) as usize;
        let Some(values) = n.checked_mul(8).and_then(|len| values.get(..len)) else {
            return Err(DtlError::Codec {
                detail: format!("f64 array promises {n} values, payload too short"),
            });
        };
        Ok(values
            .chunks_exact(8)
            .map(|v| f64::from_le_bytes(v.try_into().expect("chunks of 8")))
            .collect())
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
        let bad = Arc::from(&good[..good.len() - 1]);
        assert!(matches!(codec.decode(bad), Err(DtlError::Codec { .. })));
        assert!(matches!(codec.decode(Arc::from(*b"xy")), Err(DtlError::Codec { .. })));
    }

    #[test]
    fn a_corrupted_count_is_a_codec_error_not_an_overflow() {
        // `n * 8` overflows for all of these; `1 << 62` wraps to 0 and
        // used to pass the length check. The last is what
        // `FaultAction::Corrupt` leaves when it lands on the count's
        // top byte.
        for n in [1u64 << 62, u64::MAX, 2 ^ (0xA5 << 56)] {
            let mut raw = F64ArrayCodec.encode(&vec![1.0, 2.0]).to_vec();
            raw[..8].copy_from_slice(&n.to_le_bytes());
            assert!(matches!(F64ArrayCodec.decode(raw.into()), Err(DtlError::Codec { .. })), "{n}");
        }
    }
}
