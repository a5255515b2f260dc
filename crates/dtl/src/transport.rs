//! Staging cost model for *simulated* executions.
//!
//! The threaded runtime pays real memcpy/network costs; the simulated
//! runtime instead asks this model how long the `W` (write) and `R`
//! (read) stages take, given chunk size and the placement of writer,
//! data home, and reader. It encodes DIMES semantics: data is kept in
//! the producer's node memory, so local reads are a memory copy while
//! remote reads traverse the interconnect.

use hpc_platform::{NetworkSpec, NodeSpec};

/// Cost model combining intra-node copies and network transfers.
#[derive(Debug, Clone)]
pub struct StagingCostModel {
    /// Intra-node staging copy bandwidth, bytes/second.
    pub local_copy_bw: f64,
    /// Intra-node per-operation latency, seconds.
    pub local_latency_s: f64,
    /// The interconnect for remote transfers.
    pub network: NetworkSpec,
    /// Fixed software overhead per staging operation (metadata lookup,
    /// registration), seconds.
    pub sw_overhead_s: f64,
}

impl StagingCostModel {
    /// Builds the model from platform descriptions.
    pub fn from_platform(node: &NodeSpec, network: &NetworkSpec) -> Self {
        StagingCostModel {
            local_copy_bw: node.local_copy_bw,
            local_latency_s: node.local_latency_s,
            network: network.clone(),
            sw_overhead_s: 5.0e-6,
        }
    }

    /// Duration of the `W` stage: the writer on `writer_node` stages
    /// `bytes` into the area homed on `home_node` (equal under DIMES).
    pub fn write_seconds(&self, bytes: u64, writer_node: usize, home_node: usize) -> f64 {
        self.sw_overhead_s + self.move_seconds(bytes, writer_node, home_node)
    }

    /// Duration of the `R` stage: the reader on `reader_node` fetches
    /// `bytes` from the area homed on `home_node`.
    pub fn read_seconds(&self, bytes: u64, home_node: usize, reader_node: usize) -> f64 {
        self.sw_overhead_s + self.move_seconds(bytes, home_node, reader_node)
    }

    fn move_seconds(&self, bytes: u64, from: usize, to: usize) -> f64 {
        if from == to {
            self.local_latency_s + bytes as f64 / self.local_copy_bw
        } else {
            self.network.transfer_time(from, to, bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_platform::cori::{aries_network, cori_node};

    fn model() -> StagingCostModel {
        StagingCostModel::from_platform(&cori_node(), &aries_network())
    }

    #[test]
    fn local_read_cheaper_than_remote() {
        let m = model();
        let bytes = 3 * 1024 * 1024;
        let local = m.read_seconds(bytes, 0, 0);
        let remote = m.read_seconds(bytes, 0, 1);
        assert!(local < remote, "local {local} vs remote {remote}");
    }

    #[test]
    fn costs_scale_with_bytes() {
        let m = model();
        assert!(m.write_seconds(1 << 24, 0, 0) > m.write_seconds(1 << 12, 0, 0));
        assert!(m.read_seconds(1 << 24, 0, 1) > m.read_seconds(1 << 12, 0, 1));
    }

    #[test]
    fn zero_bytes_pay_only_latency_and_overhead() {
        let m = model();
        let w = m.write_seconds(0, 0, 0);
        assert!((w - (m.sw_overhead_s + m.local_latency_s)).abs() < 1e-12);
    }

    #[test]
    fn millisecond_scale_for_paper_chunks() {
        // A ~2.6 MB GltPh frame stages in well under 10 ms either way —
        // the in situ premise (memory staging ≪ simulation step).
        let m = model();
        let frame = 220_000 * 12 + 32;
        assert!(m.write_seconds(frame, 0, 0) < 0.01);
        assert!(m.read_seconds(frame, 0, 1) < 0.01);
    }
}
