//! # kernels — the ensemble components' actual workloads
//!
//! The paper's ensemble members couple a GROMACS molecular-dynamics
//! simulation with a largest-eigenvalue bipartite-matrix analysis. This
//! crate provides real, runnable stand-ins plus their architectural
//! profiles for the simulated platform:
//!
//! * [`md`] — a Lennard-Jones MD engine (cell lists, velocity Verlet,
//!   Berendsen thermostat) producing [`md::Frame`]s every *stride* steps,
//!   exactly the iterative produce/stage pattern of the paper;
//! * [`analysis`] — the bipartite contact-matrix + power-iteration
//!   collective-variable kernel (the analysis the paper runs in situ);
//! * [`profile`] — [`hpc_platform::Workload`] presets calibrated so the
//!   simulated platform reproduces the paper's §3.4 operating point
//!   (20 s simulation steps, the Figure 7 core-count crossover, and the
//!   co-location contention ordering of Figure 3).
//!
//! Both kernels run on their caller's thread (the runtime gives every
//! component an OS thread of its own) and are deterministic for a fixed
//! seed; [`rng`] is the workspace's one generator.

#![warn(missing_docs)]

pub mod analysis;
pub mod md;
pub mod profile;
pub mod rng;

pub use analysis::EigenAnalysis;
pub use md::{Frame, MdConfig, MdSimulation};
pub use profile::{analysis_workload, frame_bytes, simulation_workload};
