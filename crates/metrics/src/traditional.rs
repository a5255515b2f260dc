//! The paper's Table 1 "traditional" metrics at component level:
//! execution time, LLC miss ratio, memory intensity, instructions per
//! cycle.

use hpc_platform::HwCounters;

/// Component-level metrics (Table 1, ensemble-component section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraditionalMetrics {
    /// Time spent in the component, seconds.
    pub execution_time: f64,
    /// LLC misses / LLC references.
    pub llc_miss_ratio: f64,
    /// LLC misses / instructions.
    pub memory_intensity: f64,
    /// Instructions / cycles.
    pub ipc: f64,
}

impl TraditionalMetrics {
    /// Derives the metric set from hardware counters and the component's
    /// execution time.
    pub fn from_counters(counters: &HwCounters, execution_time: f64) -> Self {
        TraditionalMetrics {
            execution_time,
            llc_miss_ratio: counters.llc_miss_ratio(),
            memory_intensity: counters.memory_intensity(),
            ipc: counters.ipc(),
        }
    }

    /// All values finite, ratios within their ranges.
    pub fn is_consistent(&self) -> bool {
        self.execution_time.is_finite()
            && self.execution_time >= 0.0
            && (0.0..=1.0).contains(&self.llc_miss_ratio)
            && self.memory_intensity.is_finite()
            && self.memory_intensity >= 0.0
            && self.ipc.is_finite()
            && self.ipc >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> HwCounters {
        HwCounters {
            instructions: 1e9,
            cycles: 5e8,
            llc_references: 1e7,
            llc_misses: 2.5e6,
            dram_bytes: 1.6e8,
        }
    }

    #[test]
    fn table1_formulas() {
        let m = TraditionalMetrics::from_counters(&counters(), 12.5);
        assert_eq!(m.execution_time, 12.5);
        assert!((m.ipc - 2.0).abs() < 1e-12);
        assert!((m.llc_miss_ratio - 0.25).abs() < 1e-12);
        assert!((m.memory_intensity - 2.5e-3).abs() < 1e-15);
        assert!(m.is_consistent());
    }

    #[test]
    fn zero_counters_are_consistent() {
        let m = TraditionalMetrics::from_counters(&HwCounters::default(), 0.0);
        assert!(m.is_consistent());
        assert_eq!(m.ipc, 0.0);
    }

    #[test]
    fn inconsistency_detected() {
        let mut m = TraditionalMetrics::from_counters(&counters(), 1.0);
        m.llc_miss_ratio = 1.5;
        assert!(!m.is_consistent());
        m.llc_miss_ratio = 0.1;
        m.execution_time = f64::NAN;
        assert!(!m.is_consistent());
    }
}
