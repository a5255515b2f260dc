//! Classical MD trajectory descriptors as in situ kernels: RMSD against
//! a reference frame, radius of gyration, and native-contact count —
//! the collective variables ensemble methods most commonly monitor.

use super::kernel_trait::FrameKernel;
use crate::md::frame::Frame;

fn min_image_d2(a: [f32; 3], b: [f32; 3], box_len: f64) -> f64 {
    let mut d2 = 0.0f64;
    for d in 0..3 {
        let mut x = a[d] as f64 - b[d] as f64;
        if box_len > 0.0 {
            x -= box_len * (x / box_len).round();
        }
        d2 += x * x;
    }
    d2
}

/// Root-mean-square deviation from a reference frame (no alignment —
/// appropriate for position-restrained or box-fixed comparisons).
#[derive(Debug, Clone)]
pub struct RmsdKernel {
    reference: Option<Frame>,
}

impl RmsdKernel {
    /// RMSD against the **first frame seen** (lazily captured).
    pub fn from_first_frame() -> Self {
        RmsdKernel { reference: None }
    }

    /// RMSD against an explicit reference.
    pub fn with_reference(reference: Frame) -> Self {
        RmsdKernel { reference: Some(reference) }
    }
}

impl FrameKernel for RmsdKernel {
    fn name(&self) -> &str {
        "rmsd"
    }

    fn compute(&mut self, frame: &Frame) -> f64 {
        let reference = self.reference.get_or_insert_with(|| frame.clone());
        assert_eq!(
            reference.num_atoms(),
            frame.num_atoms(),
            "reference and frame atom counts differ"
        );
        if frame.num_atoms() == 0 {
            return 0.0;
        }
        let box_len = frame.box_len as f64;
        let sum: f64 = reference
            .positions
            .iter()
            .zip(&frame.positions)
            .map(|(&a, &b)| min_image_d2(a, b, box_len))
            .sum();
        (sum / frame.num_atoms() as f64).sqrt()
    }
}

/// Radius of gyration: RMS distance of atoms from their centroid.
#[derive(Debug, Clone, Copy, Default)]
pub struct RadiusOfGyration;

impl FrameKernel for RadiusOfGyration {
    fn name(&self) -> &str {
        "radius-of-gyration"
    }

    fn compute(&mut self, frame: &Frame) -> f64 {
        let n = frame.num_atoms();
        if n == 0 {
            return 0.0;
        }
        let mut com = [0.0f64; 3];
        for p in &frame.positions {
            for d in 0..3 {
                com[d] += p[d] as f64;
            }
        }
        for c in &mut com {
            *c /= n as f64;
        }
        let sum: f64 = frame
            .positions
            .iter()
            .map(|p| {
                let mut d2 = 0.0;
                for d in 0..3 {
                    let x = p[d] as f64 - com[d];
                    d2 += x * x;
                }
                d2
            })
            .sum();
        (sum / n as f64).sqrt()
    }
}

/// Number of atom pairs within a cutoff between two groups (a contact
/// count, the discrete cousin of the paper's smooth contact matrix).
#[derive(Debug, Clone)]
pub struct ContactCount {
    /// Group A atom indexes.
    pub group_a: Vec<u32>,
    /// Group B atom indexes.
    pub group_b: Vec<u32>,
    /// Contact cutoff distance.
    pub cutoff: f64,
}

impl ContactCount {
    /// Interleaved groups over the first `2k` atoms.
    pub fn interleaved(num_atoms: usize, k: usize, cutoff: f64) -> Self {
        let groups = super::bipartite::BipartiteGroups::interleaved(num_atoms, k);
        ContactCount { group_a: groups.group_a, group_b: groups.group_b, cutoff }
    }
}

impl FrameKernel for ContactCount {
    fn name(&self) -> &str {
        "contact-count"
    }

    fn compute(&mut self, frame: &Frame) -> f64 {
        let cutoff2 = self.cutoff * self.cutoff;
        let box_len = frame.box_len as f64;
        self.group_a
            .iter()
            .map(|&ia| {
                let pa = frame.positions[ia as usize];
                self.group_b
                    .iter()
                    .filter(|&&ib| {
                        min_image_d2(pa, frame.positions[ib as usize], box_len) < cutoff2
                    })
                    .count() as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_frame(n: usize, spacing: f32) -> Frame {
        Frame {
            step: 0,
            time: 0.0,
            box_len: 1000.0,
            positions: (0..n).map(|i| [i as f32 * spacing, 0.0, 0.0]).collect(),
        }
    }

    #[test]
    fn rmsd_of_identical_frames_is_zero() {
        let f = line_frame(10, 1.0);
        let mut k = RmsdKernel::from_first_frame();
        assert_eq!(k.compute(&f), 0.0, "first frame is its own reference");
        assert_eq!(k.compute(&f), 0.0);
    }

    #[test]
    fn rmsd_of_uniform_shift_is_the_shift() {
        let f = line_frame(10, 1.0);
        let mut shifted = f.clone();
        for p in &mut shifted.positions {
            p[2] += 3.0;
        }
        let mut k = RmsdKernel::with_reference(f);
        assert!((k.compute(&shifted) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rmsd_uses_minimum_image() {
        let mut f = line_frame(2, 1.0);
        f.box_len = 10.0;
        let mut moved = f.clone();
        moved.positions[0][0] += 9.0; // 1.0 away through the boundary
        let mut k = RmsdKernel::with_reference(f);
        let d = k.compute(&moved);
        assert!(d < 1.0 + 1e-6, "min-image RMSD must be small, got {d}");
    }

    #[test]
    fn gyration_of_a_point_is_zero_and_grows_with_spread() {
        let tight = line_frame(8, 0.0);
        let spread = line_frame(8, 2.0);
        let mut k = RadiusOfGyration;
        assert_eq!(k.compute(&tight), 0.0);
        assert!(k.compute(&spread) > 1.0);
    }

    #[test]
    fn contact_count_matches_manual() {
        // Atoms on a line, spacing 1; interleaved groups of 2:
        // A = {0, 2}, B = {1, 3}. Cutoff 1.5: pairs (0,1), (2,1), (2,3)
        // are within reach; (0,3) is not.
        let f = line_frame(4, 1.0);
        let mut k = ContactCount::interleaved(4, 2, 1.5);
        assert_eq!(k.compute(&f), 3.0);
    }

    #[test]
    fn contact_count_zero_when_far_apart() {
        let f = line_frame(6, 100.0);
        let mut k = ContactCount::interleaved(6, 3, 1.5);
        assert_eq!(k.compute(&f), 0.0);
    }

    #[test]
    fn empty_frames_are_safe() {
        let empty = Frame { step: 0, time: 0.0, box_len: 1.0, positions: vec![] };
        assert_eq!(RmsdKernel::from_first_frame().compute(&empty), 0.0);
        assert_eq!(RadiusOfGyration.compute(&empty), 0.0);
    }

    #[test]
    fn kernel_names() {
        assert_eq!(RmsdKernel::from_first_frame().name(), "rmsd");
        assert_eq!(RadiusOfGyration.name(), "radius-of-gyration");
        assert_eq!(ContactCount::interleaved(4, 2, 1.0).name(), "contact-count");
    }
}
