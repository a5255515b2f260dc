//! Lennard-Jones force and energy evaluation.
//!
//! The 12-6 potential is truncated and shifted at the cutoff so energy is
//! continuous: `u(r) = 4(r⁻¹² − r⁻⁶) − u_c` for `r < r_c`.

use super::cell_list::{CellList, PairTerm};
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
    /// Pairs the evaluation computed: each pair of the atoms' cell
    /// neighbourhoods once, by its lower-indexed atom, whether or not
    /// it falls inside the cutoff.
    pub pairs: u64,
}

/// Evaluates forces for every atom and returns the total potential energy.
///
/// Each atom's force, energy and virial are summed over its cell
/// neighbourhood in a fixed order, and the totals over atoms in atom
/// order. Each pair is computed once, by its lower-indexed atom, and the
/// sums have the bits of every atom computing all of its pairs itself.
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
/// Atom by atom in index order, each atom walks its neighbourhood: hood
/// cells in table order, atoms ascending within a cell. Against a
/// higher-indexed partner it computes the pair, adds the term and leaves
/// it in the pair's record; against a lower-indexed one it adds the
/// negated force and the energy and virial halves that partner left. So
/// each pair is computed once and every atom's sums run in the same
/// order as if it computed all its pairs itself, with the same bits
/// (DESIGN.md §4o). Forces are written straight into `system.forces`; the
/// energy and virial are summed over atoms in atom order.
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
    let mut terms = cells.take_terms();

    let mut total_energy = 0.0;
    let mut total_virial = 0.0;
    let mut pairs = 0;
    for (i, pi) in positions.iter().enumerate() {
        let mut force = [0.0f64; 3];
        let mut energy = 0.0f64;
        let mut virial = 0.0f64;
        let (rank, hood, blocks) = cells.atom_hood(i);
        for (&cell, &block) in hood.iter().zip(blocks) {
            let partners = cells.cell(cell);
            // Ascending within the cell: the lower partners, then possibly
            // `i` itself, then the higher partners.
            let below = partners.partition_point(|&j| (j as usize) < i);
            let above = below + usize::from(partners.get(below) == Some(&(i as u32)));
            pairs += (partners.len() - above) as u64;
            for s in 0..below {
                let [fx, fy, fz, u, w] = terms[block.index(rank, s)];
                force[0] -= fx;
                force[1] -= fy;
                force[2] -= fz;
                energy += u;
                virial += w;
            }
            for (s, &j) in partners.iter().enumerate().skip(above) {
                let pj = &positions[j as usize];
                let dr: Vec3 = [
                    image.apply(pi[0] - pj[0]),
                    image.apply(pi[1] - pj[1]),
                    image.apply(pi[2] - pj[2]),
                ];
                let term = pair_term(dr, cutoff2, shift);
                terms[block.index(rank, s)] = term;
                for d in 0..3 {
                    force[d] += term[d];
                }
                energy += term[3];
                virial += term[4];
            }
        }
        forces[i] = force;
        total_energy += energy;
        total_virial += virial;
    }
    cells.restore_terms(terms);
    ForceResult { potential: total_energy, virial: total_virial, pairs }
}

/// The term of the pair at minimum-image displacement `dr` as its lower
/// atom adds it: zeros beyond the cutoff and for coincident atoms.
#[inline]
fn pair_term(dr: Vec3, cutoff2: f64, shift: f64) -> PairTerm {
    let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
    if r2 >= cutoff2 || r2 == 0.0 {
        return [0.0; 5];
    }
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let inv_r12 = inv_r6 * inv_r6;
    // f(r)/r = 24 (2 r⁻¹² − r⁻⁶) / r²
    let f_over_r = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
    [
        f_over_r * dr[0],
        f_over_r * dr[1],
        f_over_r * dr[2],
        // Half of the pair energy and of the pair virial f_ij · r_ij: the
        // other atom adds the other half.
        0.5 * (4.0 * (inv_r12 - inv_r6) - shift),
        0.5 * f_over_r * r2,
    ]
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
    fn a_reused_list_gives_a_fresh_lists_bits() {
        // Pair records are never cleared between evaluations: each one read
        // must have been written earlier in the same evaluation, whatever a
        // larger or differently binned system left behind. 3, 1, 3, 2 and 4
        // cells per side, the last two over smaller ones' leftovers.
        let params = LjParams::default();
        let mut cells = CellList::default();
        for (side, density) in [(8, 0.8), (3, 0.8), (6, 0.3), (5, 0.8), (8, 0.5)] {
            let mut reused = MolecularSystem::lattice(side, density, 1.0, 7);
            for (k, p) in reused.positions.iter_mut().enumerate() {
                p[k % 3] += 0.01 * (k % 7) as f64;
            }
            let mut fresh = reused.clone();
            let got = compute_forces_with(&mut reused, &params, &mut cells);
            let want = compute_forces_full(&mut fresh, &params);
            assert_eq!(got.potential.to_bits(), want.potential.to_bits(), "{side}³ atoms");
            assert_eq!(got.virial.to_bits(), want.virial.to_bits(), "{side}³ atoms");
            let bits = |s: &MolecularSystem| {
                s.forces.iter().flatten().map(|f| f.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&reused), bits(&fresh), "{side}³ atoms");
        }
    }

    #[test]
    fn each_pair_is_computed_once() {
        // At 27 and 125 atoms every atom's neighbourhood holds every
        // other atom, so each of the N(N − 1)/2 pairs is computed once.
        for (side, pairs) in [(3, 351), (5, 7_750)] {
            let mut s = MolecularSystem::lattice(side, 0.8, 1.0, 5);
            assert_eq!(compute_forces_full(&mut s, &LjParams::default()).pairs, pairs, "{side}³");
        }
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
