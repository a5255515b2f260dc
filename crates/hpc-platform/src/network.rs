//! Interconnect model: a dragonfly-style network parameterized by base
//! latency, per-hop latency, and injection bandwidth.
//!
//! The model is intentionally analytical: transfer time =
//! `latency(hops) + bytes / bandwidth`. Hop count is derived from a
//! dragonfly grouping — nodes in the same group reach each other in one
//! hop, different groups pay a global-link detour. This captures the
//! locality structure that makes DIMES-style node-local staging attractive
//! without simulating individual packets.

/// Static description of the interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Latency of a minimal (same-group) route, seconds.
    pub base_latency_s: f64,
    /// Additional latency per extra hop, seconds.
    pub per_hop_latency_s: f64,
    /// Injection bandwidth per node, bytes/second.
    pub bandwidth: f64,
    /// Number of nodes per dragonfly group (electrical group on Aries).
    pub nodes_per_group: usize,
    /// Extra hops paid by inter-group (global-link) routes.
    pub rng_detour_hops: u32,
}

impl NetworkSpec {
    /// Number of hops between two nodes under dragonfly minimal routing.
    pub fn hops(&self, from: usize, to: usize) -> u32 {
        if from == to {
            return 0;
        }
        let group_a = from / self.nodes_per_group.max(1);
        let group_b = to / self.nodes_per_group.max(1);
        if group_a == group_b {
            // router -> (intra-group link) -> router
            2
        } else {
            2 + self.rng_detour_hops + 1
        }
    }

    /// Latency of a message between two nodes, seconds.
    pub fn latency(&self, from: usize, to: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        self.base_latency_s + self.per_hop_latency_s * self.hops(from, to) as f64
    }

    /// Time to move `bytes` from `from` to `to`, seconds. Zero-byte
    /// messages still pay latency (control messages).
    pub fn transfer_time(&self, from: usize, to: usize, bytes: u64) -> f64 {
        if from == to {
            return 0.0;
        }
        self.latency(from, to) + bytes as f64 / self.bandwidth
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> bool {
        self.base_latency_s >= 0.0
            && self.per_hop_latency_s >= 0.0
            && self.bandwidth > 0.0
            && self.nodes_per_group > 0
    }
}

impl Default for NetworkSpec {
    fn default() -> Self {
        crate::cori::aries_network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkSpec {
        NetworkSpec {
            base_latency_s: 1.0e-6,
            per_hop_latency_s: 0.5e-6,
            bandwidth: 8.0e9,
            nodes_per_group: 4,
            rng_detour_hops: 1,
        }
    }

    #[test]
    fn same_node_is_free() {
        let n = net();
        assert_eq!(n.transfer_time(3, 3, 1 << 20), 0.0);
        assert_eq!(n.hops(3, 3), 0);
    }

    #[test]
    fn intra_group_cheaper_than_inter_group() {
        let n = net();
        // Nodes 0 and 1 share group 0; node 5 is in group 1.
        assert!(n.latency(0, 1) < n.latency(0, 5));
        assert_eq!(n.hops(0, 1), 2);
        assert_eq!(n.hops(0, 5), 4);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let n = net();
        let small = n.transfer_time(0, 1, 1024);
        let big = n.transfer_time(0, 1, 1024 * 1024);
        assert!(big > small);
        // Asymptotically bandwidth-bound.
        let huge = n.transfer_time(0, 1, 8_000_000_000);
        assert!((huge - (n.latency(0, 1) + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_pays_latency_only() {
        let n = net();
        assert!((n.transfer_time(0, 1, 0) - n.latency(0, 1)).abs() < 1e-15);
    }

    #[test]
    fn validate_catches_bad_bandwidth() {
        let mut n = net();
        n.bandwidth = 0.0;
        assert!(!n.validate());
    }
}
