//! Platform topology: a homogeneous set of compute nodes plus the
//! interconnect, with core-allocation bookkeeping.

use crate::error::PlatformError;
use crate::network::NetworkSpec;
use crate::node::NodeSpec;

/// How the cores of an allocation are bound to sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BindPolicy {
    /// Threads spread round-robin across sockets (default Linux scheduler
    /// behaviour for unbound processes, and what the paper's runs exhibit:
    /// co-located components contend on both LLCs).
    #[default]
    Spread,
    /// Threads packed onto as few sockets as possible (socket-compact
    /// binding, e.g. `--cpu-bind=sockets`).
    Compact,
}

impl BindPolicy {
    /// Takes `cores` for one component on `node` out of the node's free
    /// cores per socket: the socket split of every allocation, on a
    /// [`Platform`] and in every closed-form replay of one.
    pub fn allocate(
        self,
        node: usize,
        free_per_socket: &mut [u32],
        cores: u32,
    ) -> Result<CoreAllocation, PlatformError> {
        if cores == 0 {
            return Err(PlatformError::EmptyAllocation);
        }
        let available: u32 = free_per_socket.iter().sum();
        if cores > available {
            return Err(PlatformError::InsufficientCores { node, requested: cores, available });
        }
        let sockets = free_per_socket.len();
        let mut per_socket = vec![0u32; sockets];
        let mut remaining = cores;
        match self {
            BindPolicy::Spread => {
                // Round-robin across sockets, skipping exhausted ones.
                let mut s = 0usize;
                while remaining > 0 {
                    if free_per_socket[s] > per_socket[s] {
                        per_socket[s] += 1;
                        remaining -= 1;
                    }
                    s = (s + 1) % sockets;
                }
            }
            BindPolicy::Compact => {
                // Fill sockets in index order.
                for (slot, &free) in per_socket.iter_mut().zip(free_per_socket.iter()) {
                    let take = remaining.min(free);
                    *slot = take;
                    remaining -= take;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        for (free, taken) in free_per_socket.iter_mut().zip(&per_socket) {
            *free -= taken;
        }
        Ok(CoreAllocation { node, per_socket })
    }

    /// True when [`BindPolicy::allocate`] splits requests of `cores` on a
    /// node of `sockets` equal sockets the same way in any order: under
    /// Spread with every request a multiple of `sockets`, each takes
    /// `c / sockets` from every socket, and the sockets stay equal.
    pub fn splits_blind_to_order(self, sockets: u32, mut cores: impl Iterator<Item = u32>) -> bool {
        self == BindPolicy::Spread && sockets > 0 && cores.all(|c| c % sockets == 0)
    }
}

/// A set of physical cores granted to one component on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreAllocation {
    /// Node index within the platform.
    pub node: usize,
    /// Cores taken from each socket of that node; `per_socket.len()`
    /// equals the node's socket count and the entries sum to the total.
    pub per_socket: Vec<u32>,
}

impl CoreAllocation {
    /// Total cores in the allocation.
    pub fn total_cores(&self) -> u32 {
        self.per_socket.iter().sum()
    }

    /// Fraction of the allocation's cores living on socket `s`.
    pub fn socket_fraction(&self, s: usize) -> f64 {
        let total = self.total_cores();
        if total == 0 {
            0.0
        } else {
            self.per_socket[s] as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    free_per_socket: Vec<u32>,
}

/// A provisioned allocation of homogeneous compute nodes.
#[derive(Debug, Clone)]
pub struct Platform {
    spec: NodeSpec,
    network: NetworkSpec,
    nodes: Vec<NodeState>,
}

impl Platform {
    /// Creates a platform of `num_nodes` nodes of the given spec.
    pub fn new(num_nodes: usize, spec: NodeSpec, network: NetworkSpec) -> Self {
        assert!(spec.validate(), "invalid node spec");
        assert!(network.validate(), "invalid network spec");
        let state =
            NodeState { free_per_socket: vec![spec.cores_per_socket; spec.sockets as usize] };
        Platform { spec, network, nodes: vec![state; num_nodes] }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The (homogeneous) node hardware description.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The interconnect description.
    pub fn network(&self) -> &NetworkSpec {
        &self.network
    }

    /// Cores still free on `node`.
    pub fn free_cores(&self, node: usize) -> Result<u32, PlatformError> {
        self.node_state(node).map(|n| n.free_per_socket.iter().sum())
    }

    fn node_state(&self, node: usize) -> Result<&NodeState, PlatformError> {
        self.nodes.get(node).ok_or(PlatformError::UnknownNode { node, nodes: self.nodes.len() })
    }

    /// Allocates `cores` physical cores on `node` under `policy`.
    pub fn allocate(
        &mut self,
        node: usize,
        cores: u32,
        policy: BindPolicy,
    ) -> Result<CoreAllocation, PlatformError> {
        let nodes = self.nodes.len();
        let state = self.nodes.get_mut(node).ok_or(PlatformError::UnknownNode { node, nodes })?;
        policy.allocate(node, &mut state.free_per_socket, cores)
    }

    /// Returns the cores of an allocation to the free pool.
    pub fn release(&mut self, alloc: &CoreAllocation) {
        let state = &mut self.nodes[alloc.node];
        for (s, &taken) in alloc.per_socket.iter().enumerate() {
            state.free_per_socket[s] += taken;
            debug_assert!(state.free_per_socket[s] <= self.spec.cores_per_socket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cori::{aries_network, cori_node};

    fn platform(n: usize) -> Platform {
        Platform::new(n, cori_node(), aries_network())
    }

    #[test]
    fn spread_allocation_splits_across_sockets() {
        let mut p = platform(1);
        let a = p.allocate(0, 16, BindPolicy::Spread).unwrap();
        assert_eq!(a.per_socket, vec![8, 8]);
        assert_eq!(a.total_cores(), 16);
        assert_eq!(p.free_cores(0).unwrap(), 16);
    }

    #[test]
    fn compact_allocation_fills_first_socket() {
        let mut p = platform(1);
        let a = p.allocate(0, 16, BindPolicy::Compact).unwrap();
        assert_eq!(a.per_socket, vec![16, 0]);
        let b = p.allocate(0, 8, BindPolicy::Compact).unwrap();
        assert_eq!(b.per_socket, vec![0, 8]);
    }

    #[test]
    fn odd_spread_allocation() {
        let mut p = platform(1);
        let a = p.allocate(0, 7, BindPolicy::Spread).unwrap();
        assert_eq!(a.per_socket.iter().sum::<u32>(), 7);
        assert_eq!(a.per_socket[0], 4);
        assert_eq!(a.per_socket[1], 3);
    }

    #[test]
    fn spread_handles_uneven_free_cores() {
        let mut p = platform(1);
        let _first = p.allocate(0, 20, BindPolicy::Compact).unwrap(); // [16, 4]
                                                                      // Only 12 cores free, all on socket 1.
        let second = p.allocate(0, 10, BindPolicy::Spread).unwrap();
        assert_eq!(second.per_socket, vec![0, 10]);
    }

    #[test]
    fn over_allocation_fails() {
        let mut p = platform(1);
        p.allocate(0, 30, BindPolicy::Spread).unwrap();
        let err = p.allocate(0, 4, BindPolicy::Spread).unwrap_err();
        assert_eq!(err, PlatformError::InsufficientCores { node: 0, requested: 4, available: 2 });
    }

    #[test]
    fn release_restores_capacity() {
        let mut p = platform(1);
        let a = p.allocate(0, 32, BindPolicy::Spread).unwrap();
        assert_eq!(p.free_cores(0).unwrap(), 0);
        p.release(&a);
        assert_eq!(p.free_cores(0).unwrap(), 32);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut p = platform(2);
        assert!(matches!(
            p.allocate(5, 1, BindPolicy::Spread),
            Err(PlatformError::UnknownNode { node: 5, nodes: 2 })
        ));
    }

    #[test]
    fn zero_core_allocation_rejected() {
        let mut p = platform(1);
        assert_eq!(
            p.allocate(0, 0, BindPolicy::Spread).unwrap_err(),
            PlatformError::EmptyAllocation
        );
    }

    #[test]
    fn socket_fraction() {
        let a = CoreAllocation { node: 0, per_socket: vec![12, 4] };
        assert!((a.socket_fraction(0) - 0.75).abs() < 1e-12);
        assert!((a.socket_fraction(1) - 0.25).abs() < 1e-12);
    }
}
