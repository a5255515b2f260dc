//! The force loop computes each Lennard-Jones pair once, from its
//! lower-indexed atom, and every atom reads the other half of its pairs
//! back in its own neighbourhood order. This test holds it bit for bit —
//! every force component, the potential and the virial — to the loop it
//! replaced, kept below as the oracle: every atom computes every pair of
//! its neighbourhood itself and counts half of each pair's energy and
//! virial.
//!
//! `md_golden` pins whole trajectories, but its lattices are 1 to 3 cells
//! per side, where every neighbourhood is the whole box. The systems here
//! are seeded random boxes of 1 to 5 cells per side, so neighbourhoods
//! are a part of the box at 4 and 5, and each holds the pairs where the
//! two loops could part:
//! - one pair exactly `L/2` apart along x, which takes the minimum
//!   image's rounding fallback (at 1 cell per side it is also within the
//!   cutoff);
//! - one coincident pair (`r² == 0`, skipped);
//! - one pair `L` apart along x, at `x = 0` and `x = L`, whose x image is
//!   `+0` from both atoms, so the lower atom's negated term is `−0` where
//!   the higher atom would compute `+0`;
//! - pairs beyond the cutoff, asserted present.
//!
//! These are placed at random atom indices among uniformly drawn atoms.
//!
//! Mutations this catches (each checked on a copy of the crate):
//! - a block looked up at the unmirrored hood position (`q` for
//!   `26 − q`) at 3 or more cells per side;
//! - the lower atom's own terms added in index order rather than in its
//!   neighbourhood order.

use kernels::md::{compute_forces_full, CellList, LjParams, MinImage, MolecularSystem, Vec3};
use testkit::{check, Gen};

/// Forces, potential and virial from the loop before pairs were
/// computed once: each atom against every other atom of its cell
/// neighbourhood (hood cells in table order, atoms ascending within a
/// cell), energy and virial half-counted, totals summed in atom order.
fn per_atom_forces(system: &MolecularSystem, params: &LjParams) -> (Vec<Vec3>, f64, f64) {
    let cells = CellList::build(system, params.cutoff);
    let cutoff2 = params.cutoff * params.cutoff;
    let shift = params.energy_shift();
    let image = MinImage::new(system.box_len);
    let positions = &system.positions;
    let mut forces = vec![[0.0f64; 3]; positions.len()];
    let mut total_energy = 0.0;
    let mut total_virial = 0.0;
    for (i, pi) in positions.iter().enumerate() {
        let mut force = [0.0f64; 3];
        let mut energy = 0.0f64;
        let mut virial = 0.0f64;
        for &cell in cells.neighbourhood(pi, system.box_len) {
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
                let f_over_r = 24.0 * (2.0 * inv_r12 - inv_r6) * inv_r2;
                for d in 0..3 {
                    force[d] += f_over_r * dr[d];
                }
                energy += 0.5 * (4.0 * (inv_r12 - inv_r6) - shift);
                virial += 0.5 * f_over_r * r2;
            }
        }
        forces[i] = force;
        total_energy += energy;
        total_virial += virial;
    }
    (forces, total_energy, total_virial)
}

/// A box of `cells_per_side` cells at the default cutoff, holding
/// uniformly drawn atoms plus the special pairs of the module docs at
/// random indices.
fn random_system(g: &mut Gen, cells_per_side: usize) -> MolecularSystem {
    // A few mantissa bits, so `L/8`, `5L/8` and their difference are exact.
    let box_len = 2.5 * cells_per_side as f64 + 2.0;
    let point = |g: &mut Gen| [0; 3].map(|_: u8| g.range(0.0f64..1.0) * box_len);
    let mut positions: Vec<Vec3> = (0..g.range(10usize..=60)).map(|_| point(g)).collect();
    let (y, z) = (g.range(0.0f64..box_len), g.range(0.0f64..box_len));
    let twin = point(g);
    let special = [
        [box_len / 8.0, y, z],
        [5.0 * box_len / 8.0, y, z],
        twin,
        twin,
        [0.0, y, z],
        [box_len, g.range(0.0f64..box_len), z],
    ];
    for p in special {
        let at = g.range(0..=positions.len());
        positions.insert(at, p);
    }
    let n = positions.len();
    MolecularSystem { positions, velocities: vec![[0.0; 3]; n], forces: vec![[0.0; 3]; n], box_len }
}

/// Whether some pair lies beyond the cutoff in the minimum image.
fn has_pair_beyond(system: &MolecularSystem, cutoff: f64) -> bool {
    let n = system.len();
    (0..n).any(|i| {
        (i + 1..n).any(|j| {
            let dr = system.min_image(i, j);
            dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2] >= cutoff * cutoff
        })
    })
}

#[test]
fn each_pair_once_gives_the_per_atom_loops_bits() {
    let params = LjParams::default();
    check(60, |g| {
        for cells_per_side in 1..=5 {
            let mut system = random_system(g, cells_per_side);
            assert_eq!(CellList::build(&system, params.cutoff).cells_per_side, cells_per_side);
            assert!(has_pair_beyond(&system, params.cutoff), "no pair beyond the cutoff");
            let (forces, potential, virial) = per_atom_forces(&system, &params);
            let result = compute_forces_full(&mut system, &params);
            let at = format!("{cells_per_side} cells per side, {} atoms", system.len());
            assert_eq!(result.potential.to_bits(), potential.to_bits(), "potential, {at}");
            assert_eq!(result.virial.to_bits(), virial.to_bits(), "virial, {at}");
            for (i, (got, want)) in system.forces.iter().zip(&forces).enumerate() {
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "atom {i}, {at}");
            }
        }
    });
}
