//! The molecular system: positions, velocities, forces in a cubic periodic
//! box, in reduced Lennard-Jones units (σ = ε = m = 1).

use super::min_image::MinImage;
use crate::rng::Xoshiro256;

/// A 3-vector of coordinates.
pub type Vec3 = [f64; 3];

/// State of an N-atom system in a cubic periodic box.
#[derive(Debug, Clone)]
pub struct MolecularSystem {
    /// Atom positions, wrapped into `[0, box_len)³`.
    pub positions: Vec<Vec3>,
    /// Atom velocities.
    pub velocities: Vec<Vec3>,
    /// Forces from the last evaluation.
    pub forces: Vec<Vec3>,
    /// Edge length of the cubic box.
    pub box_len: f64,
}

impl MolecularSystem {
    /// Builds a system of `n_per_side³` atoms on a simple cubic lattice at
    /// the given number density, with Maxwell-Boltzmann velocities at
    /// `temperature` drawn from a seeded RNG (deterministic).
    pub fn lattice(n_per_side: usize, density: f64, temperature: f64, seed: u64) -> Self {
        assert!(n_per_side > 0 && density > 0.0);
        let n = n_per_side * n_per_side * n_per_side;
        let box_len = (n as f64 / density).cbrt();
        let spacing = box_len / n_per_side as f64;
        let mut positions = Vec::with_capacity(n);
        for x in 0..n_per_side {
            for y in 0..n_per_side {
                for z in 0..n_per_side {
                    positions.push([
                        (x as f64 + 0.5) * spacing,
                        (y as f64 + 0.5) * spacing,
                        (z as f64 + 0.5) * spacing,
                    ]);
                }
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut velocities: Vec<Vec3> = (0..n)
            .map(|_| {
                // Box-Muller-free approximation: sum of uniforms is close
                // enough to Gaussian for equipartition purposes and cheap.
                let mut g = || -> f64 {
                    let s: f64 = (0..12).map(|_| rng.unit()).sum();
                    s - 6.0
                };
                [g(), g(), g()]
            })
            .collect();
        // Remove centre-of-mass drift.
        let mut com = [0.0f64; 3];
        for v in &velocities {
            for d in 0..3 {
                com[d] += v[d];
            }
        }
        for v in &mut velocities {
            for d in 0..3 {
                v[d] -= com[d] / n as f64;
            }
        }
        let mut sys = MolecularSystem { positions, velocities, forces: vec![[0.0; 3]; n], box_len };
        sys.rescale_to_temperature(temperature);
        sys
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True iff the system holds no atoms.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Total kinetic energy `Σ ½ m v²` (m = 1).
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self.velocities.iter().map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sum::<f64>()
    }

    /// Instantaneous temperature from equipartition:
    /// `T = 2 Eₖ / (3 N)` (k_B = 1).
    pub fn temperature(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * self.len() as f64)
    }

    /// Rescales velocities so the instantaneous temperature equals `t`.
    pub fn rescale_to_temperature(&mut self, t: f64) {
        let current = self.temperature();
        if current <= 0.0 {
            return;
        }
        let factor = (t / current).sqrt();
        for v in &mut self.velocities {
            for x in v.iter_mut() {
                *x *= factor;
            }
        }
    }

    /// Minimum-image displacement from atom `j` to atom `i`.
    #[inline]
    pub fn min_image(&self, i: usize, j: usize) -> Vec3 {
        let image = MinImage::new(self.box_len);
        std::array::from_fn(|d| image.apply(self.positions[i][d] - self.positions[j][d]))
    }

    /// Wraps all positions back into the primary box.
    pub fn wrap_positions(&mut self) {
        let l = self.box_len;
        for p in &mut self.positions {
            for x in p.iter_mut() {
                *x -= l * (*x / l).floor();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_builds_requested_size() {
        let s = MolecularSystem::lattice(4, 0.8, 1.0, 42);
        assert_eq!(s.len(), 64);
        assert!(!s.is_empty());
        assert!((s.box_len - (64.0f64 / 0.8).cbrt()).abs() < 1e-12);
    }

    #[test]
    fn initial_temperature_matches_request() {
        let s = MolecularSystem::lattice(5, 0.8, 1.5, 7);
        assert!((s.temperature() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_net_momentum() {
        let s = MolecularSystem::lattice(4, 0.8, 1.0, 11);
        let mut p = [0.0f64; 3];
        for v in &s.velocities {
            for (acc, vd) in p.iter_mut().zip(v) {
                *acc += vd;
            }
        }
        for (d, pd) in p.iter().enumerate() {
            assert!(pd.abs() < 1e-9, "net momentum component {d} = {pd}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = MolecularSystem::lattice(3, 0.8, 1.0, 5);
        let b = MolecularSystem::lattice(3, 0.8, 1.0, 5);
        assert_eq!(a.velocities, b.velocities);
        let c = MolecularSystem::lattice(3, 0.8, 1.0, 6);
        assert_ne!(a.velocities, c.velocities);
    }

    #[test]
    fn min_image_is_short() {
        let mut s = MolecularSystem::lattice(3, 0.5, 1.0, 1);
        // Put two atoms across the periodic boundary.
        s.positions[0] = [0.1, 0.0, 0.0];
        s.positions[1] = [s.box_len - 0.1, 0.0, 0.0];
        let dr = s.min_image(0, 1);
        assert!((dr[0] - 0.2).abs() < 1e-12, "dx {}", dr[0]);
    }

    #[test]
    fn wrap_positions_bounds() {
        let mut s = MolecularSystem::lattice(3, 0.8, 1.0, 1);
        s.positions[0] = [-0.5, s.box_len + 0.25, 0.5];
        s.wrap_positions();
        for d in 0..3 {
            assert!(s.positions[0][d] >= 0.0 && s.positions[0][d] < s.box_len);
        }
    }
}
