//! Linked-cell neighbour search: O(N) force evaluation for short-range
//! potentials.

use super::system::MolecularSystem;

/// A spatial decomposition of the box into cubic cells at least as wide as
/// the interaction cutoff, so that all neighbours of an atom lie in its own
/// or the 26 adjacent cells.
///
/// The list is reusable scratch: `rebuild` re-bins the atoms into buffers
/// it keeps, and recomputes the neighbourhood table only when the number
/// of cells per side changes, so rebinning a system of unchanged size
/// allocates nothing. It also keeps the force loop's pair records: one
/// per pair of atoms in neighbouring cells, in one block per pair of
/// neighbouring cells.
#[derive(Debug, Clone, Default)]
pub struct CellList {
    /// Cells per box edge.
    pub cells_per_side: usize,
    /// Cell edge length.
    pub cell_len: f64,
    /// `start[c]..start[c + 1]` is cell `c`'s run of `atoms`.
    start: Vec<u32>,
    /// Atom indices grouped by cell, ascending within each cell.
    atoms: Vec<u32>,
    /// The cell of each atom.
    atom_cell: Vec<u32>,
    /// The distinct cells around each cell, `hood_len` per cell, in the
    /// order `(dx, dy, dz)` scans `-1..=1` (first occurrence kept).
    hoods: Vec<usize>,
    hood_len: usize,
    /// Each atom's rank in its cell: its index in [`CellList::cell`].
    rank: Vec<u32>,
    /// Where the pair records of each cell with each of its `hood_len`
    /// neighbourhood cells lie in `terms`, in `hoods`' order.
    blocks: Vec<Block>,
    /// The pair records. Grown to the largest layout seen and never
    /// cleared: every record is written before it is read.
    terms: Vec<PairTerm>,
}

/// One pair's interaction as its lower-indexed atom computes it:
/// `(f·dx, f·dy, f·dz, ½u, ½w)`, where `(dx, dy, dz)` is the minimum image
/// of the lower atom's position minus the higher one's, `f = f(r)/r`, `u`
/// the shifted potential and `w = f·r²` the pair virial. All zero beyond
/// the cutoff and for coincident atoms.
pub(crate) type PairTerm = [f64; 5];

/// The records of the pairs between the atoms of one cell and those of one
/// cell in its neighbourhood, as seen from the first cell: the pair of its
/// atom at rank `r` with the partner cell's atom at rank `s` is record
/// [`Block::index`]`(r, s)` of [`CellList`]'s scratch.
///
/// Two distinct neighbouring cells share one `|a| × |b|` block, owned by
/// the lower-numbered cell, which sees it row by row and the other cell
/// column by column. A cell's block with itself holds only the pairs
/// `r < s`, as a packed triangle. So the scratch holds one record per pair
/// of atoms in neighbouring cells, which is every pair the force loop
/// visits, counted once.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Block {
    /// A cell with itself: the pair of ranks `lo < hi` at
    /// `base + hi (hi − 1) / 2 + lo`.
    Own { base: usize },
    /// A cell with another: `base + r · own + s · partner`.
    Shared { base: usize, own: usize, partner: usize },
}

impl Block {
    /// The record of the pair of this cell's atom at rank `r` and the
    /// partner cell's atom at rank `s` (`r != s` within one cell).
    #[inline]
    pub(crate) fn index(self, r: usize, s: usize) -> usize {
        match self {
            Block::Own { base } => {
                let (lo, hi) = if r < s { (r, s) } else { (s, r) };
                base + hi * (hi - 1) / 2 + lo
            }
            Block::Shared { base, own, partner } => base + r * own + s * partner,
        }
    }
}

impl CellList {
    /// Builds the cell list for the current positions with the given
    /// cutoff. Falls back to a single cell when the box is small.
    pub fn build(system: &MolecularSystem, cutoff: f64) -> Self {
        let mut cells = CellList::default();
        cells.rebuild(system, cutoff);
        cells
    }

    /// Re-bins `system`'s atoms for `cutoff`, reusing this list's buffers.
    pub(crate) fn rebuild(&mut self, system: &MolecularSystem, cutoff: f64) {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let cps = ((system.box_len / cutoff).floor() as usize).max(1);
        self.cell_len = system.box_len / cps as f64;
        if cps != self.cells_per_side {
            self.set_geometry(cps);
        }
        let n_cells = cps * cps * cps;
        self.atom_cell.clear();
        self.atom_cell.extend(
            system
                .positions
                .iter()
                .map(|p| Self::cell_of(p, self.cell_len, cps, system.box_len) as u32),
        );
        // Counting sort by cell, stable in atom order: count, prefix-sum
        // to each cell's end, then fill from the back.
        self.start.clear();
        self.start.resize(n_cells + 1, 0);
        for &c in &self.atom_cell {
            self.start[c as usize] += 1;
        }
        for c in 1..n_cells {
            self.start[c] += self.start[c - 1];
        }
        self.start[n_cells] = self.atom_cell.len() as u32;
        self.atoms.clear();
        self.atoms.resize(self.atom_cell.len(), 0);
        for (i, &c) in self.atom_cell.iter().enumerate().rev() {
            self.start[c as usize] -= 1;
            self.atoms[self.start[c as usize] as usize] = i as u32;
        }
        self.rank.clear();
        self.rank.resize(self.atoms.len(), 0);
        for c in 0..n_cells {
            let from = self.start[c] as usize;
            for (r, &i) in self.atoms[from..self.start[c + 1] as usize].iter().enumerate() {
                self.rank[i as usize] = r as u32;
            }
        }
        self.lay_out_pairs();
    }

    /// Lays out one [`Block`] per cell and neighbourhood cell for the
    /// current binning, and grows the record scratch to hold them.
    fn lay_out_pairs(&mut self) {
        let hood_len = self.hood_len;
        self.blocks.clear();
        let mut next = 0;
        for a in 0..self.num_cells() {
            for q in 0..hood_len {
                let b = self.hoods[a * hood_len + q];
                let block = if b == a {
                    let n = self.cell(a).len();
                    let block = Block::Own { base: next };
                    next += n * n.saturating_sub(1) / 2;
                    block
                } else if a < b {
                    let n = self.cell(b).len();
                    let block = Block::Shared { base: next, own: n, partner: 1 };
                    next += self.cell(a).len() * n;
                    block
                } else {
                    // `b` laid this block out from its side. Offsets
                    // `(dx, dy, dz)` and `(−dx, −dy, −dz)` sit at mirrored
                    // positions of the `-1..=1` scan when its 27 cells are
                    // distinct; at 2 cells per side a position only records
                    // which axes differ, the same from either cell.
                    let m = if self.cells_per_side >= 3 { hood_len - 1 - q } else { q };
                    debug_assert_eq!(self.hoods[b * hood_len + m], a);
                    match self.blocks[b * hood_len + m] {
                        Block::Shared { base, own, .. } => {
                            Block::Shared { base, own: 1, partner: own }
                        }
                        Block::Own { .. } => unreachable!("cell {b} is not cell {a}"),
                    }
                };
                self.blocks.push(block);
            }
        }
        if self.terms.len() < next {
            self.terms.resize(next, [0.0; 5]);
        }
    }

    /// Recomputes the neighbourhood table for `cps` cells per side.
    fn set_geometry(&mut self, cps: usize) {
        self.cells_per_side = cps;
        self.hood_len = cps.min(3).pow(3);
        self.hoods.clear();
        let side = cps as isize;
        for idx in 0..cps * cps * cps {
            let cx = (idx / (cps * cps)) as isize;
            let cy = ((idx / cps) % cps) as isize;
            let cz = (idx % cps) as isize;
            let from = self.hoods.len();
            for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        let x = (cx + dx).rem_euclid(side) as usize;
                        let y = (cy + dy).rem_euclid(side) as usize;
                        let z = (cz + dz).rem_euclid(side) as usize;
                        let cell = (x * cps + y) * cps + z;
                        if !self.hoods[from..].contains(&cell) {
                            self.hoods.push(cell);
                        }
                    }
                }
            }
            debug_assert_eq!(self.hoods.len() - from, self.hood_len);
        }
    }

    #[inline]
    fn cell_of(p: &[f64; 3], cell_len: f64, cps: usize, box_len: f64) -> usize {
        let mut c = [0usize; 3];
        for d in 0..3 {
            // Positions may sit exactly on the upper boundary after wrap.
            let mut x = p[d];
            if x >= box_len {
                x -= box_len;
            }
            if x < 0.0 {
                x += box_len;
            }
            c[d] = ((x / cell_len) as usize).min(cps - 1);
        }
        (c[0] * cps + c[1]) * cps + c[2]
    }

    /// The cell index containing `p`.
    pub fn cell_index(&self, p: &[f64; 3], box_len: f64) -> usize {
        Self::cell_of(p, self.cell_len, self.cells_per_side, box_len)
    }

    /// Atoms in cell `idx`, in ascending order.
    pub fn cell(&self, idx: usize) -> &[u32] {
        &self.atoms[self.start[idx] as usize..self.start[idx + 1] as usize]
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// The neighbourhood table's row for cell `idx`.
    fn hood(&self, idx: usize) -> &[usize] {
        &self.hoods[idx * self.hood_len..(idx + 1) * self.hood_len]
    }

    /// The distinct cells in the neighbourhood of the cell containing `p`
    /// (its own and the 26 around it, with periodic wrap); fewer than 27
    /// when the box is fewer than three cells wide.
    pub fn neighbourhood(&self, p: &[f64; 3], box_len: f64) -> &[usize] {
        self.hood(self.cell_index(p, box_len))
    }

    /// Atom `i`'s rank in its cell, and the cells of its cell's
    /// neighbourhood beside their [`Block`]s, at the last rebuild.
    pub(crate) fn atom_hood(&self, i: usize) -> (usize, &[usize], &[Block]) {
        let c = self.atom_cell[i] as usize;
        let row = c * self.hood_len..(c + 1) * self.hood_len;
        (self.rank[i] as usize, &self.hoods[row.clone()], &self.blocks[row])
    }

    /// The pair-record scratch, taken out so the force loop can fill it
    /// while it reads the list; give it back with
    /// [`CellList::restore_terms`].
    pub(crate) fn take_terms(&mut self) -> Vec<PairTerm> {
        std::mem::take(&mut self.terms)
    }

    /// Returns the scratch [`CellList::take_terms`] took.
    pub(crate) fn restore_terms(&mut self, terms: Vec<PairTerm>) {
        self.terms = terms;
    }

    /// Total atoms stored (sanity check: must equal the system size).
    pub fn total_atoms(&self) -> usize {
        self.atoms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MolecularSystem {
        MolecularSystem::lattice(5, 0.8, 1.0, 3)
    }

    #[test]
    fn all_atoms_binned() {
        let s = system();
        let cl = CellList::build(&s, 2.5);
        assert_eq!(cl.total_atoms(), s.len());
    }

    #[test]
    fn cell_width_at_least_cutoff() {
        let s = system();
        let cl = CellList::build(&s, 2.5);
        assert!(cl.cell_len >= 2.5);
    }

    #[test]
    fn neighbourhood_contains_own_cell() {
        let s = system();
        let cl = CellList::build(&s, 2.5);
        let p = s.positions[7];
        let own = cl.cell_index(&p, s.box_len);
        assert!(cl.neighbourhood(&p, s.box_len).contains(&own));
    }

    #[test]
    fn neighbourhood_covers_all_close_pairs() {
        // Brute-force check: every pair within the cutoff must be findable
        // via the neighbourhood of either atom.
        let s = system();
        let cutoff = 2.5;
        let cl = CellList::build(&s, cutoff);
        for i in 0..s.len() {
            let hood = cl.neighbourhood(&s.positions[i], s.box_len);
            for j in 0..s.len() {
                if i == j {
                    continue;
                }
                let dr = s.min_image(i, j);
                let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                if r2 < cutoff * cutoff {
                    let j_cell = cl.cell_index(&s.positions[j], s.box_len);
                    assert!(
                        hood.contains(&j_cell),
                        "pair ({i},{j}) at r={} not covered",
                        r2.sqrt()
                    );
                }
            }
        }
    }

    #[test]
    fn small_box_degenerates_to_one_cell() {
        let s = MolecularSystem::lattice(2, 0.9, 1.0, 3);
        let cl = CellList::build(&s, s.box_len * 2.0);
        assert_eq!(cl.num_cells(), 1);
        assert_eq!(cl.total_atoms(), s.len());
    }
}
