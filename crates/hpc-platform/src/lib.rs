//! # hpc-platform — analytical model of the experimental HPC machine
//!
//! The paper's experiments ran on Cori, a Cray XC40 (NERSC): two 16-core
//! Haswell sockets per node, 128 GB DRAM, Aries dragonfly interconnect.
//! This crate substitutes that hardware with an analytical model:
//!
//! * [`NodeSpec`] / [`Platform`] — topology and core-allocation bookkeeping
//!   with spread/compact socket binding;
//! * [`NetworkSpec`] — dragonfly latency/bandwidth transfer costs;
//! * [`CacheModel`] — pressure-proportional LLC partitioning with a
//!   capacity-miss curve;
//! * [`MemoryModel`] — DRAM bandwidth saturation;
//! * [`InterferenceModel`] — the fixed-point solver combining the above
//!   into per-component step times, miss ratios, and IPC;
//! * [`HwCounters`] — synthetic PAPI-style counters derived from the solved
//!   steady state;
//! * [`cori`] — the preset matching the paper's platform.
//!
//! The model reproduces the paper's qualitative phenomena mechanistically:
//! co-locating memory-intensive components raises LLC miss ratios and step
//! times; spreading them over dedicated nodes avoids contention but pays
//! network staging costs (captured by [`NetworkSpec`] in the runtime).

#![warn(missing_docs)]

pub mod cache;
pub mod cori;
pub mod counters;
pub mod error;
pub mod interference;
pub mod memory;
pub mod network;
pub mod node;
pub mod power;
pub mod topology;
pub mod workload;

pub use cache::{CacheContender, CacheModel};
pub use counters::HwCounters;
pub use error::PlatformError;
pub use interference::{InterferenceModel, PerfEstimate, PlacedWorkload};
pub use memory::MemoryModel;
pub use network::NetworkSpec;
pub use node::NodeSpec;
pub use power::PowerModel;
pub use topology::{BindPolicy, CoreAllocation, Platform};
pub use workload::Workload;
