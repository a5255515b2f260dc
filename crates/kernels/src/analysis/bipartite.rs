//! Bipartite contact matrices over trajectory frames.
//!
//! The paper's analysis kernel "computes the largest eigenvalue of
//! bipartite matrices as a collective variable of the frames" (citing
//! Johnston et al., *In situ data analytics and indexing of protein
//! trajectories*). Atoms are split into two groups; the matrix entry
//! `B[i][j]` is a smooth contact score between atom `i` of group A and
//! atom `j` of group B. The largest singular value of `B` (equivalently
//! the largest eigenvalue of the bipartite adjacency) tracks large-scale
//! conformational motion.

use crate::md::frame::Frame;

/// Which atoms belong to each side of the bipartite split.
#[derive(Debug, Clone)]
pub struct BipartiteGroups {
    /// Atom indices of group A (matrix rows).
    pub group_a: Vec<u32>,
    /// Atom indices of group B (matrix columns).
    pub group_b: Vec<u32>,
}

impl BipartiteGroups {
    /// Splits the first `2k` atoms into two interleaved groups of `k`.
    pub fn interleaved(num_atoms: usize, k: usize) -> Self {
        let k = k.min(num_atoms / 2);
        BipartiteGroups {
            group_a: (0..k as u32).map(|i| 2 * i).collect(),
            group_b: (0..k as u32).map(|i| 2 * i + 1).collect(),
        }
    }

    /// Validates the groups against a frame.
    pub fn validate(&self, frame: &Frame) -> bool {
        let n = frame.num_atoms() as u32;
        !self.group_a.is_empty()
            && !self.group_b.is_empty()
            && self.group_a.iter().all(|&i| i < n)
            && self.group_b.iter().all(|&i| i < n)
    }
}

/// A dense row-major bipartite contact matrix.
#[derive(Debug, Clone)]
pub struct BipartiteMatrix {
    /// Row count (= |group A|).
    pub rows: usize,
    /// Column count (= |group B|).
    pub cols: usize,
    /// Row-major contact scores.
    pub data: Vec<f64>,
}

impl BipartiteMatrix {
    /// Builds the contact matrix from a frame with Gaussian contact score
    /// `exp(-d² / (2σ²))` under minimum-image distances.
    pub fn from_frame(frame: &Frame, groups: &BipartiteGroups, sigma: f64) -> Self {
        assert!(groups.validate(frame), "groups reference atoms outside the frame");
        assert!(sigma > 0.0, "sigma must be positive");
        let rows = groups.group_a.len();
        let cols = groups.group_b.len();
        let inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma);
        let box_len = frame.box_len as f64;
        let data: Vec<f64> = groups
            .group_a
            .iter()
            .flat_map(|&ia| {
                let pa = frame.positions[ia as usize];
                groups.group_b.iter().map(move |&ib| {
                    let pb = frame.positions[ib as usize];
                    let mut d2 = 0.0f64;
                    for d in 0..3 {
                        let mut x = pa[d] as f64 - pb[d] as f64;
                        if box_len > 0.0 {
                            x -= box_len * (x / box_len).round();
                        }
                        d2 += x * x;
                    }
                    (-d2 * inv_two_sigma2).exp()
                })
            })
            .collect();
        BipartiteMatrix { rows, cols, data }
    }

    /// `y = B x` (x has `cols` entries, y has `rows`).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        y.iter_mut().enumerate().for_each(|(r, out)| {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *out = row.iter().zip(x).map(|(a, b)| a * b).sum();
        });
    }

    /// `y = Bᵀ x` (x has `rows` entries, y has `cols`).
    pub fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(y.len(), self.cols);
        y.iter_mut().enumerate().for_each(|(c, out)| {
            *out = (0..self.rows).map(|r| self.data[r * self.cols + c] * x[r]).sum();
        });
    }

    /// Matrix entry accessor (row-major).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame {
            step: 0,
            time: 0.0,
            box_len: 100.0,
            positions: vec![[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0]],
        }
    }

    #[test]
    fn interleaved_groups() {
        let g = BipartiteGroups::interleaved(10, 3);
        assert_eq!(g.group_a, vec![0, 2, 4]);
        assert_eq!(g.group_b, vec![1, 3, 5]);
    }

    #[test]
    fn contact_scores_decay_with_distance() {
        let f = frame();
        let g = BipartiteGroups { group_a: vec![0], group_b: vec![1, 3] };
        let m = BipartiteMatrix::from_frame(&f, &g, 1.0);
        assert_eq!((m.rows, m.cols), (1, 2));
        // Atom 1 is at distance 1, atom 3 much farther.
        assert!(m.get(0, 0) > m.get(0, 1));
        assert!((m.get(0, 0) - (-0.5f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn identical_positions_score_one() {
        let mut f = frame();
        f.positions[1] = f.positions[0];
        let g = BipartiteGroups { group_a: vec![0], group_b: vec![1] };
        let m = BipartiteMatrix::from_frame(&f, &g, 0.7);
        assert!((m.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_distance_used() {
        let f = Frame {
            step: 0,
            time: 0.0,
            box_len: 10.0,
            positions: vec![[0.5, 0.0, 0.0], [9.5, 0.0, 0.0]],
        };
        let g = BipartiteGroups { group_a: vec![0], group_b: vec![1] };
        let m = BipartiteMatrix::from_frame(&f, &g, 1.0);
        // Minimum-image distance is 1.0, not 9.0.
        assert!((m.get(0, 0) - (-0.5f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = BipartiteMatrix { rows: 2, cols: 3, data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0] };
        let x = [1.0, 0.5, 2.0];
        let mut y = [0.0; 2];
        m.matvec(&x, &mut y);
        assert_eq!(y, [8.0, 18.5]);
        let xt = [1.0, 2.0];
        let mut yt = [0.0; 3];
        m.matvec_t(&xt, &mut yt);
        assert_eq!(yt, [9.0, 12.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "groups reference atoms outside the frame")]
    fn invalid_groups_panic() {
        let f = frame();
        let g = BipartiteGroups { group_a: vec![99], group_b: vec![1] };
        BipartiteMatrix::from_frame(&f, &g, 1.0);
    }
}
