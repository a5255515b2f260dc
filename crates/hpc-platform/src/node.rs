//! Per-node hardware description.

/// Static hardware description of one compute node. All nodes of a
/// [`crate::topology::Platform`] are homogeneous, as on Cori.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// CPU sockets per node.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Core clock frequency in Hz.
    pub core_freq_hz: f64,
    /// Peak (contention-free) instructions per cycle of one core.
    pub peak_ipc: f64,
    /// Last-level cache capacity per socket, in bytes.
    pub llc_bytes_per_socket: u64,
    /// Cache line size in bytes.
    pub cache_line_bytes: u64,
    /// Average DRAM access penalty, in core cycles, paid by an LLC miss
    /// when memory bandwidth is uncontended.
    pub llc_miss_penalty_cycles: f64,
    /// Sustainable memory bandwidth per socket, bytes/second.
    pub mem_bw_per_socket: f64,
    /// DRAM capacity per node, bytes.
    pub dram_bytes: u64,
    /// Intra-node (shared-memory) staging copy bandwidth, bytes/second.
    /// Used when a component reads a chunk homed on its own node.
    pub local_copy_bw: f64,
    /// Intra-node staging latency per operation, seconds.
    pub local_latency_s: f64,
}

impl NodeSpec {
    /// Total physical cores per node.
    pub fn cores_per_node(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Validates internal consistency (positive quantities).
    pub fn validate(&self) -> bool {
        self.sockets > 0
            && self.cores_per_socket > 0
            && self.core_freq_hz > 0.0
            && self.peak_ipc > 0.0
            && self.llc_bytes_per_socket > 0
            && self.cache_line_bytes > 0
            && self.llc_miss_penalty_cycles > 0.0
            && self.mem_bw_per_socket > 0.0
            && self.dram_bytes > 0
            && self.local_copy_bw > 0.0
            && self.local_latency_s >= 0.0
    }
}

impl Default for NodeSpec {
    /// A generic two-socket server; the Cori preset in [`crate::cori`] is
    /// the one used by the paper's experiments.
    fn default() -> Self {
        crate::cori::cori_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let n = NodeSpec::default();
        assert_eq!(n.cores_per_node(), n.sockets * n.cores_per_socket);
        assert!(n.validate());
    }

    #[test]
    fn invalid_spec_detected() {
        let n = NodeSpec { core_freq_hz: 0.0, ..NodeSpec::default() };
        assert!(!n.validate());
    }
}
