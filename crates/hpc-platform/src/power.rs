//! Node power model and DVFS-style power capping.
//!
//! The paper's related work (SeeSAw, Marincic et al. 2020) optimizes in
//! situ analytics under power constraints. This module provides the
//! machinery to reproduce that setting on the simulated platform: a
//! simple socket-level power model (idle + per-core active + per-GB/s
//! DRAM draw) and a frequency-scaling response that inflates compute
//! time when a node exceeds its power cap.

/// Node-level power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Baseline node draw with idle cores, watts.
    pub idle_watts: f64,
    /// Additional draw per busy core, watts.
    pub active_watts_per_core: f64,
    /// Additional draw per GB/s of DRAM traffic, watts.
    pub watts_per_gbs: f64,
    /// Exponent of the frequency/power relation used for capping
    /// (dynamic power ≈ f^exponent; 3.0 for classical voltage scaling).
    pub dvfs_exponent: f64,
}

impl Default for PowerModel {
    /// Values representative of a Haswell Cori node (≈ 90 W idle,
    /// ≈ 6.5 W per busy core, ≈ 1 W per GB/s of DRAM traffic).
    fn default() -> Self {
        PowerModel {
            idle_watts: 90.0,
            active_watts_per_core: 6.5,
            watts_per_gbs: 1.0,
            dvfs_exponent: 3.0,
        }
    }
}

impl PowerModel {
    /// Node draw with `busy_cores` active cores moving
    /// `dram_bytes_per_s` of memory traffic.
    pub fn node_watts(&self, busy_cores: u32, dram_bytes_per_s: f64) -> f64 {
        self.idle_watts
            + self.active_watts_per_core * busy_cores as f64
            + self.watts_per_gbs * dram_bytes_per_s / 1e9
    }

    /// Execution-time multiplier imposed by capping a node drawing
    /// `draw` watts at `cap` watts (≥ 1.0; 1.0 when under the cap).
    ///
    /// Only the dynamic share (draw − idle) responds to frequency; the
    /// model solves for the frequency ratio that brings the node to the
    /// cap and returns its reciprocal as the slowdown.
    pub fn cap_slowdown(&self, draw: f64, cap: f64) -> f64 {
        if draw <= cap || draw <= self.idle_watts {
            return 1.0;
        }
        let dynamic = draw - self.idle_watts;
        let budget = (cap - self.idle_watts).max(dynamic * 1e-3);
        // dynamic × r^e = budget  ⇒  r = (budget/dynamic)^(1/e); time × 1/r.
        let ratio = (budget / dynamic).powf(1.0 / self.dvfs_exponent.max(1.0));
        1.0 / ratio.clamp(1e-3, 1.0)
    }

    /// Energy (joules) of running at `watts` for `seconds`.
    pub fn energy_joules(&self, watts: f64, seconds: f64) -> f64 {
        watts * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_watts_scales_with_load() {
        let p = PowerModel::default();
        let idle = p.node_watts(0, 0.0);
        let half = p.node_watts(16, 30e9);
        let full = p.node_watts(32, 60e9);
        assert_eq!(idle, 90.0);
        assert!(half > idle && full > half);
        assert!((full - (90.0 + 6.5 * 32.0 + 60.0)).abs() < 1e-9);
    }

    #[test]
    fn under_cap_is_free() {
        let p = PowerModel::default();
        assert_eq!(p.cap_slowdown(200.0, 300.0), 1.0);
        assert_eq!(p.cap_slowdown(300.0, 300.0), 1.0);
    }

    #[test]
    fn over_cap_slows_down_monotonically() {
        let p = PowerModel::default();
        let mild = p.cap_slowdown(320.0, 300.0);
        let harsh = p.cap_slowdown(400.0, 300.0);
        assert!(mild > 1.0);
        assert!(harsh > mild);
    }

    #[test]
    fn cubic_dvfs_is_gentle() {
        // Cutting dynamic power in half at e = 3 costs only 2^(1/3) ≈
        // 1.26x in time.
        let p = PowerModel::default();
        let draw = p.idle_watts + 100.0;
        let cap = p.idle_watts + 50.0;
        let s = p.cap_slowdown(draw, cap);
        assert!((s - 2f64.powf(1.0 / 3.0)).abs() < 1e-9, "slowdown {s}");
    }

    #[test]
    fn energy_is_power_times_time() {
        let p = PowerModel::default();
        assert_eq!(p.energy_joules(250.0, 4.0), 1000.0);
    }

    #[test]
    fn cap_below_idle_saturates_safely() {
        let p = PowerModel::default();
        let s = p.cap_slowdown(300.0, 10.0);
        assert!(s.is_finite() && s >= 1.0);
    }
}
