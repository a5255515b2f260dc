//! Synthetic hardware performance counters.
//!
//! The paper collects counters with TAU/PAPI on real Haswell nodes. Here
//! counters are synthesized from the interference model's solved steady
//! state, so the same counter→metric pipeline (Table 1 of the paper) runs
//! unmodified on simulated executions.

use std::ops::{Add, AddAssign};

use crate::interference::PerfEstimate;

/// Accumulated hardware counters for one component over some interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HwCounters {
    /// Dynamic instructions retired.
    pub instructions: f64,
    /// Core cycles consumed while retiring them (busy cycles).
    pub cycles: f64,
    /// Last-level-cache references.
    pub llc_references: f64,
    /// Last-level-cache misses.
    pub llc_misses: f64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: f64,
}

impl HwCounters {
    /// Counters for `steps` steady-state steps of a solved component.
    pub fn from_estimate(est: &PerfEstimate, instructions_per_step: f64, steps: u64) -> Self {
        let n = steps as f64;
        HwCounters {
            instructions: instructions_per_step * n,
            cycles: instructions_per_step * est.cpi * n,
            llc_references: est.llc_refs_per_step * n,
            llc_misses: est.llc_misses_per_step * n,
            dram_bytes: est.dram_bytes_per_step * n,
        }
    }

    /// LLC miss ratio: misses / references (Table 1). NaN-free.
    pub fn llc_miss_ratio(&self) -> f64 {
        if self.llc_references <= 0.0 {
            0.0
        } else {
            self.llc_misses / self.llc_references
        }
    }

    /// Memory intensity: misses / instructions (Table 1). NaN-free.
    pub fn memory_intensity(&self) -> f64 {
        if self.instructions <= 0.0 {
            0.0
        } else {
            self.llc_misses / self.instructions
        }
    }

    /// Instructions per cycle (Table 1). NaN-free.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions / self.cycles
        }
    }

    /// True iff every field is finite and non-negative and misses do not
    /// exceed references.
    pub fn is_consistent(&self) -> bool {
        let fields =
            [self.instructions, self.cycles, self.llc_references, self.llc_misses, self.dram_bytes];
        fields.iter().all(|v| v.is_finite() && *v >= 0.0)
            && self.llc_misses <= self.llc_references + 1e-9
    }
}

impl Add for HwCounters {
    type Output = HwCounters;
    fn add(self, rhs: HwCounters) -> HwCounters {
        HwCounters {
            instructions: self.instructions + rhs.instructions,
            cycles: self.cycles + rhs.cycles,
            llc_references: self.llc_references + rhs.llc_references,
            llc_misses: self.llc_misses + rhs.llc_misses,
            dram_bytes: self.dram_bytes + rhs.dram_bytes,
        }
    }
}

impl AddAssign for HwCounters {
    fn add_assign(&mut self, rhs: HwCounters) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> HwCounters {
        HwCounters {
            instructions: 1e9,
            cycles: 2e9,
            llc_references: 2e7,
            llc_misses: 4e6,
            dram_bytes: 4e6 * 64.0,
        }
    }

    #[test]
    fn table1_metrics() {
        let c = counters();
        assert!((c.ipc() - 0.5).abs() < 1e-12);
        assert!((c.llc_miss_ratio() - 0.2).abs() < 1e-12);
        assert!((c.memory_intensity() - 4e-3).abs() < 1e-15);
        assert!(c.is_consistent());
    }

    #[test]
    fn zero_counters_are_safe() {
        let c = HwCounters::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.llc_miss_ratio(), 0.0);
        assert_eq!(c.memory_intensity(), 0.0);
        assert!(c.is_consistent());
    }

    #[test]
    fn addition_accumulates() {
        let mut a = counters();
        a += counters();
        assert!((a.instructions - 2e9).abs() < 1.0);
        assert!((a.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inconsistent_detected() {
        let mut c = counters();
        c.llc_misses = c.llc_references * 2.0;
        assert!(!c.is_consistent());
    }
}
