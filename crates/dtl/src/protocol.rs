//! The synchronous coupling protocol of the paper (§2.1, §3.1).
//!
//! "The simulation does not write any new data until the data from the
//! previous iteration is read": writes and reads of a variable must
//! interleave as `W₀ R₀ W₁ R₁ …` (with each `Rᵢ` meaning *all* K readers
//! consumed step i, each exactly once, in step order). [`StepProtocol`]
//! validates that ordering; the staging areas consult it on every
//! operation so violations surface immediately instead of corrupting an
//! experiment.

use crate::error::{DtlError, DtlResult};

/// Identifies one of the K readers (analyses) of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReaderId(pub u32);

/// Per-variable step-ordering state machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StepProtocol {
    /// Next step the writer may stage.
    next_write: u64,
    /// Next step each reader must consume, indexed by `ReaderId.0`.
    next_read: Vec<u64>,
    /// Number of chunks the writer may have in flight (1 = the paper's
    /// unbuffered DIMES semantics; 2 = double buffering, the ablation).
    capacity: u64,
}

impl StepProtocol {
    /// A protocol for `expected_readers` readers and the given in-flight
    /// capacity (≥ 1).
    pub fn new(expected_readers: u32, capacity: u64) -> Self {
        assert!(expected_readers > 0 && capacity > 0);
        StepProtocol { next_write: 0, next_read: vec![0; expected_readers as usize], capacity }
    }

    /// The step the writer stages next.
    pub fn next_write_step(&self) -> u64 {
        self.next_write
    }

    fn next_of(&self, reader: ReaderId) -> Option<u64> {
        self.next_read.get(reader.0 as usize).copied()
    }

    /// The step `reader` consumes next.
    pub fn next_read_step(&self, reader: ReaderId) -> DtlResult<u64> {
        self.next_of(reader).ok_or_else(|| DtlError::ProtocolViolation {
            detail: format!("unknown reader {reader:?}"),
        })
    }

    /// The oldest step any reader still needs.
    pub fn oldest_unread(&self) -> u64 {
        self.next_read.iter().copied().min().unwrap_or(self.next_write)
    }

    /// True when the writer may stage `step` now: it is the next step in
    /// sequence and staging it would leave at most `capacity` chunks
    /// outstanding.
    pub fn may_write(&self, step: u64) -> bool {
        step == self.next_write && self.next_write < self.oldest_unread() + self.capacity
    }

    /// True when `reader` may consume `step` now (it is that reader's next
    /// step and the writer has staged it).
    pub fn may_read(&self, reader: ReaderId, step: u64) -> bool {
        matches!(self.next_of(reader), Some(next) if next == step && step < self.next_write)
    }

    /// Records a completed write. Errors if the ordering is violated.
    pub fn record_write(&mut self, step: u64) -> DtlResult<()> {
        if !self.may_write(step) {
            return Err(DtlError::ProtocolViolation {
                detail: format!(
                    "write of step {step} rejected (next={}, oldest unread={}, capacity={})",
                    self.next_write,
                    self.oldest_unread(),
                    self.capacity
                ),
            });
        }
        self.next_write += 1;
        Ok(())
    }

    /// Records a completed read. Errors if the ordering is violated.
    pub fn record_read(&mut self, reader: ReaderId, step: u64) -> DtlResult<()> {
        if !self.may_read(reader, step) {
            let next = self.next_of(reader);
            return Err(DtlError::ProtocolViolation {
                detail: format!(
                    "read of step {step} by {reader:?} rejected (reader next={next:?}, written up to {})",
                    self.next_write
                ),
            });
        }
        self.next_read[reader.0 as usize] += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbuffered_interleaving_enforced() {
        let mut p = StepProtocol::new(1, 1);
        let r = ReaderId(0);
        assert!(p.may_write(0));
        assert!(!p.may_read(r, 0), "cannot read before the write");
        p.record_write(0).unwrap();
        // W₁ before R₀ violates the no-overwrite rule.
        assert!(!p.may_write(1));
        assert!(p.record_write(1).is_err());
        p.record_read(r, 0).unwrap();
        assert!(p.may_write(1));
        p.record_write(1).unwrap();
    }

    #[test]
    fn all_k_readers_must_consume() {
        let mut p = StepProtocol::new(3, 1);
        p.record_write(0).unwrap();
        p.record_read(ReaderId(0), 0).unwrap();
        p.record_read(ReaderId(1), 0).unwrap();
        assert!(!p.may_write(1), "one reader still pending");
        p.record_read(ReaderId(2), 0).unwrap();
        assert!(p.may_write(1));
    }

    #[test]
    fn reader_cannot_skip_or_repeat_steps() {
        let mut p = StepProtocol::new(1, 1);
        let r = ReaderId(0);
        p.record_write(0).unwrap();
        assert!(p.record_read(r, 1).is_err(), "skipping ahead");
        p.record_read(r, 0).unwrap();
        assert!(p.record_read(r, 0).is_err(), "double read");
    }

    #[test]
    fn double_buffering_allows_one_extra_write() {
        let mut p = StepProtocol::new(1, 2);
        p.record_write(0).unwrap();
        assert!(p.may_write(1), "capacity 2 permits a second in-flight chunk");
        p.record_write(1).unwrap();
        assert!(!p.may_write(2), "third chunk exceeds capacity");
        p.record_read(ReaderId(0), 0).unwrap();
        assert!(p.may_write(2));
    }

    #[test]
    fn writer_cannot_skip_steps() {
        let mut p = StepProtocol::new(1, 4);
        assert!(p.record_write(2).is_err());
        p.record_write(0).unwrap();
        assert!(p.record_write(0).is_err(), "same step twice");
    }

    #[test]
    fn unknown_reader_rejected() {
        let mut p = StepProtocol::new(1, 1);
        p.record_write(0).unwrap();
        assert!(p.record_read(ReaderId(7), 0).is_err());
        assert!(p.next_read_step(ReaderId(7)).is_err());
    }

    #[test]
    fn oldest_unread_tracks_laggard() {
        let mut p = StepProtocol::new(2, 3);
        for s in 0..3 {
            p.record_write(s).unwrap();
        }
        p.record_read(ReaderId(0), 0).unwrap();
        p.record_read(ReaderId(0), 1).unwrap();
        assert_eq!(p.oldest_unread(), 0, "reader 1 has not read anything");
        p.record_read(ReaderId(1), 0).unwrap();
        assert_eq!(p.oldest_unread(), 1);
    }
}
