//! Velocity-Verlet time integration.

use super::cell_list::CellList;
// The tests below reach it through `super::*`.
#[cfg(test)]
use super::forces::compute_forces;
use super::forces::{compute_forces_with, LjParams};
use super::system::MolecularSystem;

/// One velocity-Verlet step of size `dt`; returns the potential energy at
/// the end of the step. Forces in `system.forces` must be current on entry
/// (call [`compute_forces`](super::compute_forces) once before the first
/// step).
pub fn velocity_verlet_step(system: &mut MolecularSystem, params: &LjParams, dt: f64) -> f64 {
    velocity_verlet_step_with(system, params, dt, &mut CellList::default())
}

/// [`velocity_verlet_step`] with the caller's cell list as force scratch
/// (see [`compute_forces_with`]).
pub(crate) fn velocity_verlet_step_with(
    system: &mut MolecularSystem,
    params: &LjParams,
    dt: f64,
    cells: &mut CellList,
) -> f64 {
    let half_dt = 0.5 * dt;
    // v(t + dt/2), x(t + dt)
    for i in 0..system.len() {
        for d in 0..3 {
            system.velocities[i][d] += half_dt * system.forces[i][d];
            system.positions[i][d] += dt * system.velocities[i][d];
        }
    }
    system.wrap_positions();
    // F(t + dt)
    let potential = compute_forces_with(system, params, cells).potential;
    // v(t + dt)
    for i in 0..system.len() {
        for d in 0..3 {
            system.velocities[i][d] += half_dt * system.forces[i][d];
        }
    }
    potential
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_conserved_in_nve() {
        let mut s = MolecularSystem::lattice(4, 0.8, 0.8, 13);
        let params = LjParams::default();
        let dt = 0.002;
        let e0 = compute_forces(&mut s, &params) + s.kinetic_energy();
        let mut final_e = e0;
        for _ in 0..200 {
            let pot = velocity_verlet_step(&mut s, &params, dt);
            final_e = pot + s.kinetic_energy();
        }
        let drift = ((final_e - e0) / e0).abs();
        assert!(drift < 5e-3, "energy drift {drift} too large (e0={e0}, e={final_e})");
    }

    #[test]
    fn atoms_move() {
        let mut s = MolecularSystem::lattice(3, 0.8, 1.0, 14);
        let p0 = s.positions.clone();
        let params = LjParams::default();
        compute_forces(&mut s, &params);
        for _ in 0..10 {
            velocity_verlet_step(&mut s, &params, 0.002);
        }
        let moved = s
            .positions
            .iter()
            .zip(&p0)
            .any(|(a, b)| a.iter().zip(b).any(|(x, y)| (x - y).abs() > 1e-6));
        assert!(moved);
    }

    #[test]
    fn integration_is_deterministic() {
        let run = || {
            let mut s = MolecularSystem::lattice(3, 0.8, 1.0, 15);
            let params = LjParams::default();
            compute_forces(&mut s, &params);
            for _ in 0..20 {
                velocity_verlet_step(&mut s, &params, 0.002);
            }
            s.positions
        };
        assert_eq!(run(), run());
    }
}
