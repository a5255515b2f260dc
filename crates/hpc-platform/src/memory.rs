//! Memory-bandwidth contention model.
//!
//! Each socket sustains a finite DRAM bandwidth. When the aggregate traffic
//! demanded by co-resident components (LLC refills plus streaming stores)
//! exceeds it, every memory access stretches by the over-subscription
//! factor — the standard M/D/1-free approximation used by co-location
//! interference studies (Dauwe et al. 2014).

/// Tunables of the bandwidth model.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    /// Demand beyond this utilization of the socket bandwidth starts to
    /// queue (sustained bandwidth is below nominal peak).
    pub saturation_knee: f64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel { saturation_knee: 0.85 }
    }
}

impl MemoryModel {
    /// Bandwidth pressure multiplier for a socket with total demand
    /// `demand_bytes_per_s` against capacity `bw_bytes_per_s`.
    ///
    /// Returns 1.0 when unsaturated; grows linearly with over-subscription
    /// past the knee.
    pub fn pressure_multiplier(&self, demand_bytes_per_s: f64, bw_bytes_per_s: f64) -> f64 {
        if bw_bytes_per_s <= 0.0 {
            return 1.0;
        }
        let knee = self.saturation_knee.clamp(0.01, 1.0);
        let utilization = demand_bytes_per_s / bw_bytes_per_s;
        if utilization <= knee {
            1.0
        } else {
            1.0 + (utilization - knee) / knee
        }
    }

    /// Exposed (non-overlapped) stall cycles per memory event, given the
    /// uncontended penalty, the workload's memory-level-parallelism
    /// overlap, and the socket's pressure multiplier.
    pub fn exposed_stall_cycles(
        &self,
        penalty_cycles: f64,
        mlp_overlap: f64,
        pressure: f64,
    ) -> f64 {
        penalty_cycles * (1.0 - mlp_overlap.clamp(0.0, 1.0)) * pressure.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsaturated_socket_has_no_pressure() {
        let m = MemoryModel::default();
        assert_eq!(m.pressure_multiplier(10e9, 60e9), 1.0);
    }

    #[test]
    fn pressure_grows_past_knee() {
        let m = MemoryModel::default();
        let p1 = m.pressure_multiplier(60e9, 60e9);
        let p2 = m.pressure_multiplier(120e9, 60e9);
        assert!(p1 > 1.0);
        assert!(p2 > p1);
    }

    #[test]
    fn pressure_monotone_in_demand() {
        let m = MemoryModel::default();
        let mut prev = 0.0;
        for demand in [0.0, 20e9, 40e9, 60e9, 80e9, 100e9] {
            let p = m.pressure_multiplier(demand, 60e9);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn overlap_hides_stalls() {
        let m = MemoryModel::default();
        assert!((m.exposed_stall_cycles(200.0, 0.5, 1.0) - 100.0).abs() < 1e-9);
        assert!((m.exposed_stall_cycles(200.0, 0.0, 1.0) - 200.0).abs() < 1e-9);
        assert!((m.exposed_stall_cycles(200.0, 0.5, 2.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bandwidth_is_safe() {
        let m = MemoryModel::default();
        assert_eq!(m.pressure_multiplier(10e9, 0.0), 1.0);
    }
}
