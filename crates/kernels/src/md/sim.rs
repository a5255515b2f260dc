//! The MD simulation driver: the "GROMACS" of the reproduction.
//!
//! Runs velocity-Verlet LJ dynamics and emits a [`Frame`] every `stride`
//! steps — the iterative produce/stage pattern of the paper's simulations
//! (§2.1: "the simulation periodically writes out the data").

use super::forces::{compute_forces, LjParams};
use super::frame::Frame;
use super::integrator::velocity_verlet_step;
use super::system::MolecularSystem;
use super::thermostat::Berendsen;

/// Configuration of an MD run.
#[derive(Debug, Clone)]
pub struct MdConfig {
    /// Atoms per lattice edge (total atoms = cube of this).
    pub atoms_per_side: usize,
    /// Number density (reduced units).
    pub density: f64,
    /// Initial / target temperature.
    pub temperature: f64,
    /// Integration time step (reduced units; the paper's 2 fs analogue).
    pub dt: f64,
    /// LJ cutoff.
    pub cutoff: f64,
    /// Steps between staged frames (the paper's *stride*, 800 there).
    pub stride: u64,
    /// Thermostat coupling constant; `None` runs NVE.
    pub thermostat_tau: Option<f64>,
    /// RNG seed for initial velocities.
    pub seed: u64,
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            atoms_per_side: 8,
            density: 0.8,
            temperature: 1.0,
            dt: 0.002,
            cutoff: 2.5,
            stride: 50,
            thermostat_tau: Some(0.1),
            seed: 2021,
        }
    }
}

/// A running MD simulation that produces frames every stride.
pub struct MdSimulation {
    system: MolecularSystem,
    params: LjParams,
    thermostat: Option<Berendsen>,
    dt: f64,
    stride: u64,
    step: u64,
    last_potential: f64,
}

impl MdSimulation {
    /// Initializes the system and computes initial forces.
    pub fn new(config: &MdConfig) -> Self {
        let mut system = MolecularSystem::lattice(
            config.atoms_per_side,
            config.density,
            config.temperature,
            config.seed,
        );
        let params = LjParams { cutoff: config.cutoff };
        let last_potential = compute_forces(&mut system, &params);
        MdSimulation {
            system,
            params,
            thermostat: config
                .thermostat_tau
                .map(|tau| Berendsen { target: config.temperature, tau }),
            dt: config.dt,
            stride: config.stride.max(1),
            step: 0,
            last_potential,
        }
    }

    /// Current MD step index.
    pub fn step_index(&self) -> u64 {
        self.step
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.system.len()
    }

    /// Total energy (kinetic + potential).
    pub fn total_energy(&self) -> f64 {
        self.last_potential + self.system.kinetic_energy()
    }

    /// Instantaneous temperature.
    pub fn temperature(&self) -> f64 {
        self.system.temperature()
    }

    /// Read access to the system.
    pub fn system(&self) -> &MolecularSystem {
        &self.system
    }

    /// Advances `n` MD steps.
    pub fn run_steps(&mut self, n: u64) {
        for _ in 0..n {
            self.last_potential = velocity_verlet_step(&mut self.system, &self.params, self.dt);
            if let Some(t) = self.thermostat {
                t.apply(&mut self.system, self.dt);
            }
            self.step += 1;
        }
    }

    /// Advances one stride and returns the frame produced at its end —
    /// one *in situ step*'s worth of simulation work (the `S` stage).
    pub fn advance_stride(&mut self) -> Frame {
        self.run_steps(self.stride);
        self.snapshot()
    }

    /// A frame of the current state without advancing.
    pub fn snapshot(&self) -> Frame {
        Frame::from_positions(
            self.step,
            self.step as f64 * self.dt,
            self.system.box_len,
            &self.system.positions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MdConfig {
        MdConfig { atoms_per_side: 4, stride: 10, ..Default::default() }
    }

    #[test]
    fn stride_produces_frames_at_stride_boundaries() {
        let mut sim = MdSimulation::new(&small());
        let f1 = sim.advance_stride();
        assert_eq!(f1.step, 10);
        let f2 = sim.advance_stride();
        assert_eq!(f2.step, 20);
        assert_eq!(f1.num_atoms(), 64);
    }

    #[test]
    fn frames_differ_between_strides() {
        let mut sim = MdSimulation::new(&small());
        let f1 = sim.advance_stride();
        let f2 = sim.advance_stride();
        assert_ne!(f1.positions, f2.positions);
    }

    #[test]
    fn thermostatted_run_stays_near_target() {
        let mut sim = MdSimulation::new(&MdConfig {
            atoms_per_side: 4,
            stride: 20,
            thermostat_tau: Some(0.05),
            ..Default::default()
        });
        for _ in 0..10 {
            sim.advance_stride();
        }
        let t = sim.temperature();
        assert!((t - 1.0).abs() < 0.25, "temperature wandered to {t}");
    }

    #[test]
    fn deterministic_trajectories() {
        let cfg = small();
        let mut a = MdSimulation::new(&cfg);
        let mut b = MdSimulation::new(&cfg);
        assert_eq!(a.advance_stride(), b.advance_stride());
    }

    #[test]
    fn snapshot_does_not_advance() {
        let sim = MdSimulation::new(&small());
        let s1 = sim.snapshot();
        let s2 = sim.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(sim.step_index(), 0);
    }
}
