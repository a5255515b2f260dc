//! Architectural workload descriptions consumed by the interference model.
//!
//! A [`Workload`] characterizes one ensemble component (a simulation or an
//! analysis) by the quantities that determine its interaction with the
//! memory hierarchy. The values are per *in situ step* (the paper's unit of
//! progress).

/// Architectural profile of one component, per in situ step.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Total dynamic instructions retired per step (across all threads).
    pub instructions_per_step: f64,
    /// Cycles per instruction with a perfect (never-missing) LLC.
    pub base_cpi: f64,
    /// LLC references per instruction.
    pub llc_refs_per_instr: f64,
    /// Miss ratio when the working set fits in the component's LLC share
    /// (compulsory + coherence misses).
    pub base_miss_ratio: f64,
    /// Bytes the component re-touches each step (its resident hot data).
    pub working_set_bytes: f64,
    /// Fraction of the step's work that parallelizes (Amdahl's law).
    pub parallel_fraction: f64,
    /// DRAM traffic per instruction that bypasses LLC refills
    /// (streaming/non-temporal accesses), in bytes.
    pub streaming_bytes_per_instr: f64,
    /// Fraction of DRAM latency this workload hides through memory-level
    /// parallelism and prefetching (0 = fully exposed, 1 = fully hidden).
    /// Streaming simulations sit near 0.9; irregular analyses much lower.
    pub mlp_overlap: f64,
}

impl Workload {
    /// Validates value ranges.
    pub fn validate(&self) -> bool {
        self.instructions_per_step > 0.0
            && self.base_cpi > 0.0
            && self.llc_refs_per_instr >= 0.0
            && (0.0..=1.0).contains(&self.base_miss_ratio)
            && self.working_set_bytes >= 0.0
            && (0.0..=1.0).contains(&self.parallel_fraction)
            && self.streaming_bytes_per_instr >= 0.0
            && (0.0..=1.0).contains(&self.mlp_overlap)
    }

    /// Every field's bits, in declaration order: a total order on
    /// profiles.
    pub fn bits(&self) -> [u64; 8] {
        [
            self.instructions_per_step,
            self.base_cpi,
            self.llc_refs_per_instr,
            self.base_miss_ratio,
            self.working_set_bytes,
            self.parallel_fraction,
            self.streaming_bytes_per_instr,
            self.mlp_overlap,
        ]
        .map(f64::to_bits)
    }

    /// Amdahl speedup of this workload on `cores` cores.
    pub fn speedup(&self, cores: u32) -> f64 {
        amdahl_speedup(self.parallel_fraction, cores)
    }

    /// Scales the amount of work per step (e.g. a different stride or
    /// system size) leaving architectural ratios unchanged.
    pub fn scaled(&self, work_factor: f64) -> Workload {
        Workload {
            instructions_per_step: self.instructions_per_step * work_factor,
            working_set_bytes: self.working_set_bytes * work_factor,
            ..self.clone()
        }
    }
}

/// Amdahl's law: speedup of a workload with parallel fraction `f` on `p`
/// cores.
pub fn amdahl_speedup(parallel_fraction: f64, cores: u32) -> f64 {
    let p = cores.max(1) as f64;
    let f = parallel_fraction.clamp(0.0, 1.0);
    1.0 / ((1.0 - f) + f / p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Workload {
        Workload {
            instructions_per_step: 1e9,
            base_cpi: 0.5,
            llc_refs_per_instr: 0.02,
            base_miss_ratio: 0.05,
            working_set_bytes: 64e6,
            parallel_fraction: 0.95,
            streaming_bytes_per_instr: 0.0,
            mlp_overlap: 0.6,
        }
    }

    #[test]
    fn amdahl_limits() {
        assert!((amdahl_speedup(1.0, 8) - 8.0).abs() < 1e-12);
        assert!((amdahl_speedup(0.0, 8) - 1.0).abs() < 1e-12);
        // Serial fraction bounds the speedup.
        assert!(amdahl_speedup(0.9, 1_000) < 10.0);
        assert!(amdahl_speedup(0.9, 1_000) > 9.0);
    }

    #[test]
    fn speedup_monotone_in_cores() {
        let w = wl();
        let mut prev = 0.0;
        for c in 1..=32 {
            let s = w.speedup(c);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn scaled_preserves_ratios() {
        let w = wl();
        let s = w.scaled(2.0);
        assert!((s.instructions_per_step - 2e9).abs() < 1.0);
        assert!((s.working_set_bytes - 128e6).abs() < 1.0);
        assert_eq!(s.base_cpi, w.base_cpi);
    }

    #[test]
    fn validation() {
        assert!(wl().validate());
        let mut bad = wl();
        bad.base_miss_ratio = 1.5;
        assert!(!bad.validate());
    }
}
