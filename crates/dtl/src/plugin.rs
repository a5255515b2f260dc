//! The DTL plugin: "a middle layer between the ensemble components and
//! the underlying DTL, responsible for data handling" (paper §2.2).
//!
//! A [`DtlReader`] wraps the typed consumer side (get → deserialize) and
//! hides the staging protocol details: step sequencing is automatic. The
//! producer side stages chunks directly, because the threaded runtime
//! times the wait for a free slot (`Iˢ`) apart from the write (`W`).

use std::sync::Arc;
use std::time::Duration;

use crate::error::DtlResult;
use crate::marshal::ChunkCodec;
use crate::protocol::ReaderId;
use crate::staging::sync_staging::{SyncStaging, DEFAULT_TIMEOUT};
use crate::variable::VariableId;

/// Typed consumer handle for one variable.
pub struct DtlReader<C: ChunkCodec> {
    staging: Arc<SyncStaging>,
    codec: C,
    variable: VariableId,
    reader: ReaderId,
    next_step: u64,
    timeout: Duration,
}

impl<C: ChunkCodec> DtlReader<C> {
    /// Builds a reader for an already-registered variable; `reader` must
    /// be unique among the variable's `expected_readers`.
    pub fn attach(
        staging: Arc<SyncStaging>,
        codec: C,
        variable: VariableId,
        reader: ReaderId,
    ) -> Self {
        DtlReader { staging, codec, variable, reader, next_step: 0, timeout: DEFAULT_TIMEOUT }
    }

    /// Overrides the blocking timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Blocks for the next chunk (the `R` stage) and deserializes it.
    pub fn read(&mut self) -> DtlResult<C::Value> {
        let chunk =
            self.staging.get_timeout(self.variable, self.next_step, self.reader, self.timeout)?;
        let value = self.codec.decode(chunk.data)?;
        self.next_step += 1;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::marshal::F64ArrayCodec;
    use crate::staging;
    use crate::variable::VariableSpec;

    fn register(staging: &SyncStaging, readers: u32) -> VariableId {
        let spec = VariableSpec { name: "cv".into(), expected_readers: readers, home_node: 0 };
        staging.register(spec).unwrap()
    }

    /// Stages `value` as `step` of `var`, the way the threaded runtime's
    /// simulation writes a frame.
    fn write(staging: &SyncStaging, var: VariableId, step: u64, value: &[f64]) {
        let data = F64ArrayCodec.encode(&value.to_vec());
        let chunk = Chunk::new(var, step, 0, F64ArrayCodec.encoding(), data);
        staging.put_timeout(chunk, DEFAULT_TIMEOUT).unwrap();
    }

    #[test]
    fn typed_roundtrip() {
        let staging = Arc::new(staging::dimes());
        let var = register(&staging, 1);
        let mut reader = DtlReader::attach(Arc::clone(&staging), F64ArrayCodec, var, ReaderId(0));
        write(&staging, var, 0, &[1.0, 2.0, 3.0]);
        assert_eq!(reader.read().unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn step_sequencing_is_automatic() {
        let staging = Arc::new(staging::dimes());
        let var = register(&staging, 1);
        let mut reader = DtlReader::attach(Arc::clone(&staging), F64ArrayCodec, var, ReaderId(0));
        for step in 0..5 {
            write(&staging, var, step, &[step as f64]);
            assert_eq!(reader.read().unwrap(), vec![step as f64]);
        }
    }

    #[test]
    fn threaded_pipeline_through_plugin() {
        let staging = Arc::new(staging::dimes());
        let var = register(&staging, 2);
        let readers: Vec<_> = (0..2u32)
            .map(|r| {
                let staging = Arc::clone(&staging);
                std::thread::spawn(move || {
                    let mut reader = DtlReader::attach(staging, F64ArrayCodec, var, ReaderId(r));
                    let mut sum = 0.0;
                    for _ in 0..8 {
                        sum += reader.read().unwrap()[0];
                    }
                    sum
                })
            })
            .collect();
        for step in 0..8 {
            write(&staging, var, step, &[step as f64]);
        }
        for r in readers {
            assert_eq!(r.join().unwrap(), 28.0);
        }
    }
}
