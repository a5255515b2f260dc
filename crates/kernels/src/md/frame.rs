//! Trajectory frames: the data a simulation stages for in situ analysis.
//!
//! Frames carry single-precision positions (as trajectory formats do) plus
//! the MD step index and physical time; [`Frame::to_bytes`] /
//! [`Frame::from_bytes`] give the canonical little-endian wire encoding
//! used by the DTL plugins.

use std::sync::Arc;

/// A snapshot of atomic positions at one output step.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// MD step index at which the frame was produced.
    pub step: u64,
    /// Physical time of the frame (simulation units).
    pub time: f64,
    /// Box edge length.
    pub box_len: f32,
    /// Positions, one `[x, y, z]` triple per atom.
    pub positions: Vec<[f32; 3]>,
}

/// Wire-format magic ("INSF") guarding against decoding junk.
const MAGIC: u32 = 0x494E_5346;

/// Errors from frame decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecodeError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Header promised more atoms than the buffer contains.
    LengthMismatch {
        /// Atoms promised by the header.
        expected_atoms: usize,
        /// Bytes actually available for positions.
        available_bytes: usize,
    },
}

impl std::fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDecodeError::Truncated => write!(f, "frame buffer truncated"),
            FrameDecodeError::BadMagic => write!(f, "frame magic mismatch"),
            FrameDecodeError::LengthMismatch { expected_atoms, available_bytes } => write!(
                f,
                "frame header promises {expected_atoms} atoms but only {available_bytes} bytes remain"
            ),
        }
    }
}

impl std::error::Error for FrameDecodeError {}

/// Splits the next `N` bytes off the front of `data`, which the caller
/// has checked holds them.
fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let (head, rest) = data.split_first_chunk().expect("length checked by the caller");
    *data = rest;
    *head
}

impl Frame {
    /// Number of atoms in the frame.
    pub fn num_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Size of the wire encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        4 + 8 + 8 + 4 + 8 + self.positions.len() * 12
    }

    /// Serializes the frame to its little-endian wire format.
    pub fn to_bytes(&self) -> Arc<[u8]> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&self.step.to_le_bytes());
        buf.extend_from_slice(&self.time.to_le_bytes());
        buf.extend_from_slice(&self.box_len.to_le_bytes());
        buf.extend_from_slice(&(self.positions.len() as u64).to_le_bytes());
        for x in self.positions.iter().flatten() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf.into()
    }

    /// Decodes a frame from its wire format.
    pub fn from_bytes(mut data: &[u8]) -> Result<Frame, FrameDecodeError> {
        if data.len() < 32 {
            return Err(FrameDecodeError::Truncated);
        }
        if u32::from_le_bytes(take(&mut data)) != MAGIC {
            return Err(FrameDecodeError::BadMagic);
        }
        let step = u64::from_le_bytes(take(&mut data));
        let time = f64::from_le_bytes(take(&mut data));
        let box_len = f32::from_le_bytes(take(&mut data));
        // The count is payload: a corrupted one must not overflow the
        // size it is checked by.
        let n = u64::from_le_bytes(take(&mut data)) as usize;
        let Some(body) = n.checked_mul(12).and_then(|len| data.get(..len)) else {
            return Err(FrameDecodeError::LengthMismatch {
                expected_atoms: n,
                available_bytes: data.len(),
            });
        };
        let positions = body
            .chunks_exact(12)
            .map(|mut p| {
                let mut next = || f32::from_le_bytes(take(&mut p));
                [next(), next(), next()]
            })
            .collect();
        Ok(Frame { step, time, box_len, positions })
    }

    /// Builds a frame by down-converting double-precision positions.
    pub fn from_positions(step: u64, time: f64, box_len: f64, positions: &[[f64; 3]]) -> Frame {
        Frame {
            step,
            time,
            box_len: box_len as f32,
            positions: positions.iter().map(|p| [p[0] as f32, p[1] as f32, p[2] as f32]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame {
            step: 800,
            time: 1.6,
            box_len: 9.5,
            positions: vec![[1.0, 2.0, 3.0], [4.5, 5.5, 6.5]],
        }
    }

    #[test]
    fn roundtrip() {
        let f = frame();
        let decoded = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn encoded_len_matches() {
        let f = frame();
        assert_eq!(f.to_bytes().len(), f.encoded_len());
    }

    #[test]
    fn rejects_truncated() {
        let f = frame();
        let bytes = f.to_bytes();
        assert_eq!(Frame::from_bytes(&bytes[..10]), Err(FrameDecodeError::Truncated));
    }

    #[test]
    fn rejects_bad_magic() {
        let f = frame();
        let mut raw = f.to_bytes().to_vec();
        raw[0] ^= 0xFF;
        assert_eq!(Frame::from_bytes(&raw), Err(FrameDecodeError::BadMagic));
    }

    #[test]
    fn rejects_length_mismatch() {
        let f = frame();
        let bytes = f.to_bytes();
        assert!(matches!(
            Frame::from_bytes(&bytes[..bytes.len() - 4]),
            Err(FrameDecodeError::LengthMismatch { expected_atoms: 2, .. })
        ));
    }

    #[test]
    fn a_corrupted_count_is_a_length_mismatch_not_an_overflow() {
        // The count sits in bytes 24..32. `n * 12` overflows for all of
        // these; `1 << 62` wraps to 0 and used to pass the check.
        let flipped = frame().positions.len() as u64 ^ (0xA5 << 56);
        for n in [1u64 << 62, u64::MAX, flipped] {
            let mut raw = frame().to_bytes().to_vec();
            raw[24..32].copy_from_slice(&n.to_le_bytes());
            assert_eq!(
                Frame::from_bytes(&raw),
                Err(FrameDecodeError::LengthMismatch {
                    expected_atoms: n as usize,
                    available_bytes: 24
                })
            );
        }
        // What `FaultAction::Corrupt` does when its seeded byte is the
        // count's top one.
        let mut raw = frame().to_bytes().to_vec();
        raw[31] ^= 0xA5;
        assert!(matches!(Frame::from_bytes(&raw), Err(FrameDecodeError::LengthMismatch { .. })));
    }

    #[test]
    fn empty_frame_roundtrips() {
        let f = Frame { step: 0, time: 0.0, box_len: 1.0, positions: vec![] };
        assert_eq!(Frame::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn from_positions_downcasts() {
        let f = Frame::from_positions(1, 0.5, 10.0, &[[1.5, 2.5, 3.5]]);
        assert_eq!(f.positions, vec![[1.5f32, 2.5, 3.5]]);
        assert_eq!(f.box_len, 10.0f32);
    }
}
