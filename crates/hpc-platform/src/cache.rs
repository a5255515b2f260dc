//! Shared last-level-cache model.
//!
//! Components co-resident on a socket compete for LLC capacity. The model
//! partitions capacity proportionally to each component's *access pressure*
//! (LLC references per second it would issue), which approximates the
//! steady-state occupancy a thrashing-prone shared cache converges to.
//! Each component's miss ratio then follows a capacity-miss curve in the
//! ratio of its share to its working set.

/// Tunables of the cache model.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheModel {
    /// Exponent of the capacity-miss curve. 1.0 = linear growth of the
    /// miss ratio as the share shrinks below the working set; values < 1
    /// make the curve steeper near the fit point.
    pub miss_curve_exponent: f64,
}

impl Default for CacheModel {
    fn default() -> Self {
        CacheModel { miss_curve_exponent: 1.0 }
    }
}

/// One contender for a socket's LLC.
#[derive(Debug, Clone, Copy)]
pub struct CacheContender {
    /// LLC references per second the contender issues at its current
    /// execution rate.
    pub refs_per_sec: f64,
    /// Bytes of hot data it re-touches (working set on this socket).
    pub working_set_bytes: f64,
    /// Miss ratio floor when fully cache-resident.
    pub base_miss_ratio: f64,
}

impl CacheModel {
    /// Splits `llc_bytes` among contenders proportionally to access
    /// pressure. Zero-pressure contenders receive zero share (they also
    /// don't miss). Returns one share per contender, in bytes.
    pub fn partition(&self, llc_bytes: f64, contenders: &[CacheContender]) -> Vec<f64> {
        let total_pressure: f64 = contenders.iter().map(|c| c.refs_per_sec.max(0.0)).sum();
        if total_pressure <= 0.0 {
            // No pressure: nominal equal split (miss ratios won't use it).
            let n = contenders.len().max(1) as f64;
            return vec![llc_bytes / n; contenders.len()];
        }
        // A component never benefits from more capacity than its working
        // set; redistribute the surplus to the still-needy in proportion to
        // pressure. Two passes suffice for the accuracy we need.
        let mut shares: Vec<f64> = contenders
            .iter()
            .map(|c| llc_bytes * c.refs_per_sec.max(0.0) / total_pressure)
            .collect();
        for _ in 0..2 {
            let mut surplus = 0.0;
            let mut needy_pressure = 0.0;
            for (share, c) in shares.iter_mut().zip(contenders) {
                if *share > c.working_set_bytes {
                    surplus += *share - c.working_set_bytes;
                    *share = c.working_set_bytes;
                } else if *share < c.working_set_bytes {
                    needy_pressure += c.refs_per_sec.max(0.0);
                }
            }
            if surplus <= 0.0 || needy_pressure <= 0.0 {
                break;
            }
            for (share, c) in shares.iter_mut().zip(contenders) {
                if *share < c.working_set_bytes {
                    *share += surplus * c.refs_per_sec.max(0.0) / needy_pressure;
                }
            }
        }
        shares
    }

    /// Capacity-miss curve: the miss ratio of a contender granted `share`
    /// bytes of LLC against a working set of `ws` bytes.
    pub fn miss_ratio(&self, share: f64, ws: f64, base_miss_ratio: f64) -> f64 {
        let base = base_miss_ratio.clamp(0.0, 1.0);
        if ws <= 0.0 || share >= ws {
            return base;
        }
        let deficit = (1.0 - (share / ws).clamp(0.0, 1.0)).powf(self.miss_curve_exponent);
        (base + (1.0 - base) * deficit).clamp(0.0, 1.0)
    }

    /// Convenience: partition then compute each contender's miss ratio.
    pub fn miss_ratios(&self, llc_bytes: f64, contenders: &[CacheContender]) -> Vec<f64> {
        let shares = self.partition(llc_bytes, contenders);
        shares
            .iter()
            .zip(contenders)
            .map(|(&share, c)| self.miss_ratio(share, c.working_set_bytes, c.base_miss_ratio))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LLC: f64 = 40e6;

    fn contender(refs: f64, ws: f64) -> CacheContender {
        CacheContender { refs_per_sec: refs, working_set_bytes: ws, base_miss_ratio: 0.02 }
    }

    #[test]
    fn sole_tenant_fitting_working_set_hits_base_ratio() {
        let m = CacheModel::default();
        let r = m.miss_ratios(LLC, &[contender(1e9, 20e6)]);
        assert!((r[0] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn sole_tenant_overflowing_working_set_misses_more() {
        let m = CacheModel::default();
        let r = m.miss_ratios(LLC, &[contender(1e9, 80e6)]);
        assert!(r[0] > 0.02);
        assert!(r[0] < 1.0);
    }

    #[test]
    fn co_located_tenants_increase_each_others_misses() {
        let m = CacheModel::default();
        let alone = m.miss_ratios(LLC, &[contender(1e9, 30e6)])[0];
        let shared = m.miss_ratios(LLC, &[contender(1e9, 30e6), contender(1e9, 30e6)])[0];
        assert!(
            shared > alone,
            "co-location must raise miss ratio: alone {alone}, shared {shared}"
        );
    }

    #[test]
    fn higher_pressure_wins_more_capacity() {
        let m = CacheModel::default();
        let shares = m.partition(LLC, &[contender(3e9, 100e6), contender(1e9, 100e6)]);
        assert!(shares[0] > shares[1]);
        assert!((shares[0] + shares[1] - LLC).abs() < 1.0);
    }

    #[test]
    fn surplus_redistributes_to_needy() {
        let m = CacheModel::default();
        // First contender needs only 5 MB; the rest should flow to the
        // second, which wants 100 MB.
        let shares = m.partition(LLC, &[contender(3e9, 5e6), contender(1e9, 100e6)]);
        assert!((shares[0] - 5e6).abs() < 1.0);
        assert!(shares[1] > 30e6);
    }

    #[test]
    fn miss_ratio_monotone_in_share() {
        let m = CacheModel::default();
        let mut prev = 1.0;
        for share in [0.0, 10e6, 20e6, 30e6, 40e6] {
            let r = m.miss_ratio(share, 40e6, 0.02);
            assert!(r <= prev + 1e-12, "miss ratio must fall as share grows");
            prev = r;
        }
        assert!((m.miss_ratio(40e6, 40e6, 0.02) - 0.02).abs() < 1e-12);
        assert!((m.miss_ratio(0.0, 40e6, 0.02) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pressure_is_safe() {
        let m = CacheModel::default();
        let shares = m.partition(LLC, &[contender(0.0, 10e6), contender(0.0, 10e6)]);
        assert_eq!(shares.len(), 2);
        assert!(shares.iter().all(|s| s.is_finite()));
    }
}
