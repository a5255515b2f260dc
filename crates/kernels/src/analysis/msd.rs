//! Mean-squared displacement: a *stateful* in situ kernel.
//!
//! MSD needs the particle trajectory unwrapped across periodic
//! boundaries, so the kernel keeps the previous frame and accumulated
//! displacements — exercising the "analysis with history" pattern the
//! runtime must support (kernels are owned mutably by their component).

use super::kernel_trait::FrameKernel;
use crate::md::frame::Frame;
use crate::md::min_image::MinImage;

/// Mean-squared displacement from the first frame seen.
#[derive(Debug, Clone, Default)]
pub struct MsdKernel {
    origin: Option<Vec<[f64; 3]>>,
    unwrapped: Vec<[f64; 3]>,
    previous: Vec<[f32; 3]>,
}

impl MsdKernel {
    /// A fresh kernel; the first frame becomes the origin (MSD 0).
    pub fn new() -> Self {
        Self::default()
    }
}

impl FrameKernel for MsdKernel {
    fn name(&self) -> &str {
        "mean-squared-displacement"
    }

    fn compute(&mut self, frame: &Frame) -> f64 {
        let image = MinImage::of_box(frame.box_len as f64);
        match &mut self.origin {
            None => {
                self.origin = Some(
                    frame
                        .positions
                        .iter()
                        .map(|p| [p[0] as f64, p[1] as f64, p[2] as f64])
                        .collect(),
                );
                self.unwrapped = self.origin.clone().expect("just set");
                self.previous = frame.positions.clone();
                0.0
            }
            Some(origin) => {
                assert_eq!(origin.len(), frame.num_atoms(), "atom count changed mid-trajectory");
                // Unwrap: add the minimum-image displacement since the
                // previous frame to the accumulated true positions.
                for i in 0..frame.num_atoms() {
                    for d in 0..3 {
                        let delta = frame.positions[i][d] as f64 - self.previous[i][d] as f64;
                        self.unwrapped[i][d] += image.map_or(delta, |m| m.apply(delta));
                    }
                }
                self.previous = frame.positions.clone();
                let n = frame.num_atoms().max(1) as f64;
                self.unwrapped
                    .iter()
                    .zip(origin.iter())
                    .map(|(u, o)| (0..3).map(|d| (u[d] - o[d]) * (u[d] - o[d])).sum::<f64>())
                    .sum::<f64>()
                    / n
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(positions: Vec<[f32; 3]>, box_len: f32) -> Frame {
        Frame { step: 0, time: 0.0, box_len, positions }
    }

    #[test]
    fn first_frame_is_zero() {
        let mut k = MsdKernel::new();
        assert_eq!(k.compute(&frame(vec![[1.0, 2.0, 3.0]], 10.0)), 0.0);
    }

    #[test]
    fn uniform_drift_accumulates_quadratically() {
        let mut k = MsdKernel::new();
        k.compute(&frame(vec![[0.0, 0.0, 0.0]], 100.0));
        // Move +1 in x per frame: MSD after m frames = m².
        let mut msd = 0.0;
        for step in 1..=4 {
            msd = k.compute(&frame(vec![[step as f32, 0.0, 0.0]], 100.0));
        }
        assert!((msd - 16.0).abs() < 1e-9, "MSD {msd}");
    }

    #[test]
    fn unwrapping_crosses_periodic_boundary() {
        // Box of 10; atom walks +3 per frame: 8 → 11 ≡ 1 (wrapped).
        // True displacement after two moves is 6, MSD = 36.
        let mut k = MsdKernel::new();
        k.compute(&frame(vec![[8.0, 0.0, 0.0]], 10.0));
        k.compute(&frame(vec![[1.0, 0.0, 0.0]], 10.0)); // wrapped from 11
        let msd = k.compute(&frame(vec![[4.0, 0.0, 0.0]], 10.0));
        assert!((msd - 36.0).abs() < 1e-9, "MSD {msd}");
    }

    #[test]
    fn averages_over_atoms() {
        let mut k = MsdKernel::new();
        k.compute(&frame(vec![[0.0; 3], [0.0; 3]], 100.0));
        // One atom moves 2, the other stays: MSD = (4 + 0) / 2.
        let msd = k.compute(&frame(vec![[2.0, 0.0, 0.0], [0.0; 3]], 100.0));
        assert!((msd - 2.0).abs() < 1e-9);
    }

    #[test]
    fn real_trajectory_msd_grows() {
        use crate::md::{MdConfig, MdSimulation};
        let mut sim =
            MdSimulation::new(&MdConfig { atoms_per_side: 4, stride: 20, ..Default::default() });
        let mut k = MsdKernel::new();
        let mut last = 0.0;
        let mut grew = false;
        for _ in 0..5 {
            let msd = k.compute(&sim.advance_stride());
            if msd > last {
                grew = true;
            }
            last = msd;
        }
        assert!(grew, "a thermal LJ fluid must diffuse");
        assert!(last.is_finite() && last > 0.0);
    }
}
