//! Lennard-Jones force and energy evaluation.
//!
//! The 12-6 potential is truncated and shifted at the cutoff so energy is
//! continuous: `u(r) = 4(r⁻¹² − r⁻⁶) − u_c` for `r < r_c`.

use super::cell_list::CellList;
use super::min_image::MinImage;
use super::system::{MolecularSystem, Vec3};

/// Parameters of the truncated-shifted LJ potential (reduced units).
#[derive(Debug, Clone, Copy)]
pub struct LjParams {
    /// Interaction cutoff radius.
    pub cutoff: f64,
}

impl Default for LjParams {
    fn default() -> Self {
        LjParams { cutoff: 2.5 }
    }
}

impl LjParams {
    /// Potential shift so `u(r_c) = 0`.
    pub fn energy_shift(&self) -> f64 {
        let inv6 = self.cutoff.powi(-6);
        4.0 * (inv6 * inv6 - inv6)
    }
}

/// Force-evaluation results beyond the forces themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceResult {
    /// Total potential energy.
    pub potential: f64,
    /// Pair virial `Σ_{i<j} f_ij · r_ij` (used for the pressure).
    pub virial: f64,
}

/// Evaluates forces for every atom and returns the total potential energy.
///
/// Each atom's force is computed independently from its cell
/// neighbourhood (pairs are visited twice; energy and virial are
/// half-counted), so no atom's result depends on another's.
pub fn compute_forces(system: &mut MolecularSystem, params: &LjParams) -> f64 {
    compute_forces_full(system, params).potential
}

/// Like [`compute_forces`] but also accumulates the pair virial.
pub fn compute_forces_full(system: &mut MolecularSystem, params: &LjParams) -> ForceResult {
    compute_forces_with(system, params, &mut CellList::default())
}

/// [`compute_forces_full`] with the caller's cell list as scratch: it is
/// rebuilt for the current positions in buffers it keeps, so a caller
/// that evaluates forces every step allocates nothing.
///
/// Forces are written straight into `system.forces`; the energy and
/// virial are summed over atoms in atom order.
pub(crate) fn compute_forces_with(
    system: &mut MolecularSystem,
    params: &LjParams,
    cells: &mut CellList,
) -> ForceResult {
    cells.rebuild(system, params.cutoff);
    let cutoff2 = params.cutoff * params.cutoff;
    let shift = params.energy_shift();
    let image = MinImage::new(system.box_len);
    let MolecularSystem { positions, forces, .. } = system;

    let mut total_energy = 0.0;
    let mut total_virial = 0.0;
    for (i, pi) in positions.iter().enumerate() {
        let mut force = [0.0f64; 3];
        let mut energy = 0.0f64;
        let mut virial = 0.0f64;
        for &cell in cells.atom_hood(i) {
            for &j in cells.cell(cell) {
                let j = j as usize;
                if j == i {
                    continue;
                }
                let pj = &positions[j];
                let dr: Vec3 = [
                    image.apply(pi[0] - pj[0]),
                    image.apply(pi[1] - pj[1]),
                    image.apply(pi[2] - pj[2]),
                ];
                let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                if r2 >= cutoff2 || r2 == 0.0 {
                    continue;
                }
                let inv_r2 = 1.0 / r2;
                let inv_r6 = inv_r2 * inv_r2 * inv_r2;
                let inv_r12 = inv_r6 * inv_r6;
                // f(r)/r = 24 (2 r⁻¹² − r⁻⁶) / r²
                let f_over_r = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
                for d in 0..3 {
                    force[d] += f_over_r * dr[d];
                }
                // Half-counted: the pair is visited again from j.
                energy += 0.5 * (4.0 * (inv_r12 - inv_r6) - shift);
                // Pair virial f_ij · r_ij, also half-counted.
                virial += 0.5 * f_over_r * r2;
            }
        }
        forces[i] = force;
        total_energy += energy;
        total_virial += virial;
    }
    ForceResult { potential: total_energy, virial: total_virial }
}

/// Instantaneous pressure from the virial theorem (reduced units):
/// `P = (N k_B T + W/3) / V` with `W` the pair virial.
pub fn pressure(system: &MolecularSystem, virial: f64) -> f64 {
    let volume = system.box_len.powi(3);
    if volume <= 0.0 || system.is_empty() {
        return 0.0;
    }
    (system.len() as f64 * system.temperature() + virial / 3.0) / volume
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_atoms_at_minimum_feel_no_force() {
        // LJ minimum at r = 2^(1/6).
        let r_min = 2.0f64.powf(1.0 / 6.0);
        let mut s = MolecularSystem {
            positions: vec![[5.0, 5.0, 5.0], [5.0 + r_min, 5.0, 5.0]],
            velocities: vec![[0.0; 3]; 2],
            forces: vec![[0.0; 3]; 2],
            box_len: 20.0,
        };
        compute_forces(&mut s, &LjParams::default());
        for d in 0..3 {
            assert!(s.forces[0][d].abs() < 1e-9, "force {d}: {}", s.forces[0][d]);
        }
    }

    #[test]
    fn close_pair_repels() {
        let mut s = MolecularSystem {
            positions: vec![[5.0, 5.0, 5.0], [5.9, 5.0, 5.0]],
            velocities: vec![[0.0; 3]; 2],
            forces: vec![[0.0; 3]; 2],
            box_len: 20.0,
        };
        compute_forces(&mut s, &LjParams::default());
        // Atom 0 is pushed in -x, atom 1 in +x.
        assert!(s.forces[0][0] < 0.0);
        assert!(s.forces[1][0] > 0.0);
    }

    #[test]
    fn newtons_third_law() {
        let mut s = MolecularSystem::lattice(4, 0.8, 1.0, 9);
        compute_forces(&mut s, &LjParams::default());
        let mut net = [0.0f64; 3];
        for f in &s.forces {
            for (acc, fd) in net.iter_mut().zip(f) {
                *acc += fd;
            }
        }
        for (d, nd) in net.iter().enumerate() {
            assert!(nd.abs() < 1e-6, "net force component {d} = {nd}");
        }
    }

    #[test]
    fn energy_is_negative_near_equilibrium_density() {
        let mut s = MolecularSystem::lattice(5, 0.8, 1.0, 9);
        let e = compute_forces(&mut s, &LjParams::default());
        assert!(e < 0.0, "cohesive LJ energy expected, got {e}");
    }

    #[test]
    fn virial_matches_brute_force() {
        let mut s = MolecularSystem::lattice(3, 0.7, 1.0, 33);
        let params = LjParams::default();
        let result = compute_forces_full(&mut s, &params);
        // O(N²) reference virial.
        let cutoff2 = params.cutoff * params.cutoff;
        let n = s.len();
        let mut w_ref = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dr = s.min_image(i, j);
                let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                if r2 >= cutoff2 {
                    continue;
                }
                let inv_r2 = 1.0 / r2;
                let inv_r6 = inv_r2 * inv_r2 * inv_r2;
                let inv_r12 = inv_r6 * inv_r6;
                w_ref += 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2 * r2;
            }
        }
        assert!((result.virial - w_ref).abs() < 1e-9, "virial {} vs {}", result.virial, w_ref);
    }

    #[test]
    fn pressure_is_positive_for_dense_fluid() {
        // At density 0.9 and T 1.5 a LJ fluid is strongly repulsive:
        // positive pressure.
        let mut s = MolecularSystem::lattice(5, 0.9, 1.5, 34);
        let result = compute_forces_full(&mut s, &LjParams::default());
        let p = pressure(&s, result.virial);
        assert!(p > 0.0, "pressure {p}");
    }

    #[test]
    fn empty_system_pressure_is_zero() {
        let s =
            MolecularSystem { positions: vec![], velocities: vec![], forces: vec![], box_len: 5.0 };
        assert_eq!(pressure(&s, 0.0), 0.0);
    }

    #[test]
    fn matches_brute_force() {
        let mut s = MolecularSystem::lattice(3, 0.7, 1.0, 21);
        let params = LjParams::default();
        let e_fast = compute_forces(&mut s, &params);
        let fast_forces = s.forces.clone();

        // O(N²) reference.
        let cutoff2 = params.cutoff * params.cutoff;
        let shift = params.energy_shift();
        let n = s.len();
        let mut e_ref = 0.0;
        let mut f_ref = vec![[0.0f64; 3]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dr = s.min_image(i, j);
                let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                if r2 >= cutoff2 {
                    continue;
                }
                let inv_r2 = 1.0 / r2;
                let inv_r6 = inv_r2 * inv_r2 * inv_r2;
                let inv_r12 = inv_r6 * inv_r6;
                let f_over_r = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
                for d in 0..3 {
                    f_ref[i][d] += f_over_r * dr[d];
                    f_ref[j][d] -= f_over_r * dr[d];
                }
                e_ref += 4.0 * (inv_r12 - inv_r6) - shift;
            }
        }
        assert!((e_fast - e_ref).abs() < 1e-9, "energy {e_fast} vs {e_ref}");
        for i in 0..n {
            for d in 0..3 {
                assert!(
                    (fast_forces[i][d] - f_ref[i][d]).abs() < 1e-9,
                    "force mismatch atom {i} dim {d}"
                );
            }
        }
    }
}
