//! Preset matching the paper's experimental platform: Cori, a Cray XC40 at
//! NERSC. Each compute node has two Intel Xeon E5-2698 v3 ("Haswell")
//! sockets with 16 cores each, 128 GB of DRAM, and nodes are connected by a
//! Cray Aries dragonfly interconnect.
//!
//! Values are public figures for the Haswell partition; they parameterize
//! the analytical model — the experiments depend on their *ratios*, not on
//! exact absolute numbers.

use crate::network::NetworkSpec;
use crate::node::NodeSpec;

/// One Cori Haswell compute node.
pub fn cori_node() -> NodeSpec {
    NodeSpec {
        sockets: 2,
        cores_per_socket: 16,
        core_freq_hz: 2.3e9,
        peak_ipc: 2.0,
        // 40 MB L3 per socket.
        llc_bytes_per_socket: 40 * 1024 * 1024,
        cache_line_bytes: 64,
        llc_miss_penalty_cycles: 220.0,
        // ~60 GB/s per socket sustainable (STREAM-like).
        mem_bw_per_socket: 60.0e9,
        // 128 GB per node.
        dram_bytes: 128 * 1024 * 1024 * 1024,
        // In-memory staging copy bandwidth within a node.
        local_copy_bw: 10.0e9,
        local_latency_s: 2.0e-6,
    }
}

/// The Cray Aries dragonfly interconnect of Cori.
pub fn aries_network() -> NetworkSpec {
    NetworkSpec {
        // Aries: ~1.3 us nearest-neighbour latency.
        base_latency_s: 1.3e-6,
        per_hop_latency_s: 0.6e-6,
        // ~8 GB/s injection bandwidth per node.
        bandwidth: 8.0e9,
        nodes_per_group: 384,
        rng_detour_hops: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cori_node_matches_paper_description() {
        let n = cori_node();
        assert_eq!(n.sockets, 2);
        assert_eq!(n.cores_per_socket, 16);
        assert_eq!(n.cores_per_node(), 32);
        assert_eq!(n.dram_bytes, 128 * 1024 * 1024 * 1024);
        assert!(n.validate());
    }
}
