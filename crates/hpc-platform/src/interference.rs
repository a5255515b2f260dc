//! Co-location interference: the model that turns *placements* into
//! *performance*.
//!
//! Given the set of components placed on one node (with their core
//! allocations and architectural workloads), the model solves a fixed point
//! over execution rates:
//!
//! 1. components issue LLC references in proportion to their instruction
//!    throughput;
//! 2. each socket's LLC is partitioned by access pressure
//!    ([`crate::cache::CacheModel`]), yielding per-component miss ratios;
//! 3. DRAM traffic (refills + streaming) accumulates per socket; demand
//!    past the saturation knee stretches every access
//!    ([`crate::memory::MemoryModel`]);
//! 4. miss stalls inflate each component's CPI, which feeds back into (1).
//!
//! The negative feedback (slower components issue less traffic) makes the
//! iteration converge; we run a damped fixed number of rounds.

use crate::cache::{CacheContender, CacheModel};
use crate::memory::MemoryModel;
use crate::node::NodeSpec;
use crate::topology::CoreAllocation;
use crate::workload::Workload;

/// Number of damped fixed-point rounds. Convergence is geometric; 24
/// rounds put the residual far below measurement noise.
const FIXED_POINT_ROUNDS: usize = 24;
/// Damping factor applied to CPI updates.
const DAMPING: f64 = 0.5;

/// A component placed on a node: where its threads run and what they do.
#[derive(Debug, Clone)]
pub struct PlacedWorkload {
    /// Core allocation (must all be on the node being analyzed).
    pub alloc: CoreAllocation,
    /// Architectural profile.
    pub workload: Workload,
}

/// Solved steady-state performance of one placed component.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEstimate {
    /// Wall-clock seconds one step of this component takes under the
    /// solved contention (its computational stage duration).
    pub seconds_per_step: f64,
    /// Dynamic instructions retired per step (copied from the workload;
    /// lets callers synthesize counters without the workload in hand).
    pub instructions_per_step: f64,
    /// Steady-state LLC miss ratio (misses / references).
    pub llc_miss_ratio: f64,
    /// Effective cycles per instruction.
    pub cpi: f64,
    /// Effective instructions per cycle (= 1 / cpi).
    pub ipc: f64,
    /// LLC references issued per step.
    pub llc_refs_per_step: f64,
    /// LLC misses per step.
    pub llc_misses_per_step: f64,
    /// DRAM traffic per step, bytes.
    pub dram_bytes_per_step: f64,
    /// Highest bandwidth-pressure multiplier seen across the sockets this
    /// component touches (1.0 = unsaturated).
    pub peak_bw_pressure: f64,
}

/// The combined interference model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterferenceModel {
    /// Shared-cache component.
    pub cache: CacheModel,
    /// Bandwidth component.
    pub memory: MemoryModel,
    /// When true, co-residents do not affect each other at all (ablation:
    /// every component behaves as if alone on the node).
    pub disabled: bool,
}

impl InterferenceModel {
    /// Solves the steady state for all components placed on one node.
    ///
    /// `extra_traffic_per_socket` injects additional DRAM traffic (bytes/s)
    /// per socket, e.g. staging-server activity; pass `&[]` for none.
    ///
    /// # Panics
    /// Panics if allocations reference different nodes or workloads are
    /// invalid.
    pub fn solve_node(
        &self,
        spec: &NodeSpec,
        placed: &[PlacedWorkload],
        extra_traffic_per_socket: &[f64],
    ) -> Vec<PerfEstimate> {
        if placed.is_empty() {
            return Vec::new();
        }
        let node = placed[0].alloc.node;
        for p in placed {
            assert_eq!(p.alloc.node, node, "solve_node requires a single node");
            assert!(p.workload.validate(), "invalid workload");
            assert_eq!(
                p.alloc.per_socket.len(),
                spec.sockets as usize,
                "allocation socket count must match node spec"
            );
        }
        if self.disabled {
            return placed.iter().map(|p| self.solve_isolated(spec, p)).collect();
        }

        let sockets = spec.sockets as usize;
        let line = spec.cache_line_bytes as f64;
        let n = placed.len();
        let mut cpi: Vec<f64> = placed.iter().map(|p| p.workload.base_cpi).collect();
        let mut miss: Vec<Vec<f64>> = vec![vec![0.0; sockets]; n];
        let mut pressure = vec![1.0f64; sockets];

        for _ in 0..FIXED_POINT_ROUNDS {
            // (1) instruction throughput at current CPI.
            let thr: Vec<f64> = placed
                .iter()
                .zip(&cpi)
                .map(|(p, &c)| {
                    let w = &p.workload;
                    spec.core_freq_hz * w.speedup(p.alloc.total_cores()) / c
                })
                .collect();

            // (2) per-socket cache partitioning.
            #[allow(clippy::needless_range_loop)] // `s` indexes the inner dim of `miss[i][s]`
            for s in 0..sockets {
                let mut contenders = Vec::with_capacity(n);
                let mut idx_map = Vec::with_capacity(n);
                for (i, p) in placed.iter().enumerate() {
                    let frac = p.alloc.socket_fraction(s);
                    if frac <= 0.0 {
                        continue;
                    }
                    let w = &p.workload;
                    contenders.push(CacheContender {
                        refs_per_sec: thr[i] * frac * w.llc_refs_per_instr,
                        working_set_bytes: w.working_set_bytes * frac,
                        base_miss_ratio: w.base_miss_ratio,
                    });
                    idx_map.push(i);
                }
                let ratios = self.cache.miss_ratios(spec.llc_bytes_per_socket as f64, &contenders);
                for (k, &i) in idx_map.iter().enumerate() {
                    miss[i][s] = ratios[k];
                }
            }

            // (3) per-socket DRAM traffic and pressure.
            for (s, pr) in pressure.iter_mut().enumerate() {
                let mut demand = extra_traffic_per_socket.get(s).copied().unwrap_or(0.0);
                for (i, p) in placed.iter().enumerate() {
                    let frac = p.alloc.socket_fraction(s);
                    if frac <= 0.0 {
                        continue;
                    }
                    let w = &p.workload;
                    let refill = w.llc_refs_per_instr * miss[i][s] * line;
                    demand += thr[i] * frac * (refill + w.streaming_bytes_per_instr);
                }
                *pr = self.memory.pressure_multiplier(demand, spec.mem_bw_per_socket);
            }

            // (4) stall-inflated CPI (damped update).
            for (i, p) in placed.iter().enumerate() {
                let w = &p.workload;
                let mut stall = 0.0;
                for s in 0..sockets {
                    let frac = p.alloc.socket_fraction(s);
                    if frac <= 0.0 {
                        continue;
                    }
                    let events_per_instr =
                        w.llc_refs_per_instr * miss[i][s] + w.streaming_bytes_per_instr / line;
                    stall += frac
                        * events_per_instr
                        * self.memory.exposed_stall_cycles(
                            spec.llc_miss_penalty_cycles,
                            w.mlp_overlap,
                            pressure[s],
                        );
                }
                let target = w.base_cpi + stall;
                cpi[i] = cpi[i] * (1.0 - DAMPING) + target * DAMPING;
            }
        }

        placed
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let w = &p.workload;
                let overall_miss: f64 =
                    (0..sockets).map(|s| p.alloc.socket_fraction(s) * miss[i][s]).sum();
                let refs = w.instructions_per_step * w.llc_refs_per_instr;
                let misses = refs * overall_miss;
                let peak = (0..sockets)
                    .filter(|&s| p.alloc.socket_fraction(s) > 0.0)
                    .map(|s| pressure[s])
                    .fold(1.0f64, f64::max);
                PerfEstimate {
                    seconds_per_step: w.instructions_per_step * cpi[i]
                        / (spec.core_freq_hz * w.speedup(p.alloc.total_cores())),
                    instructions_per_step: w.instructions_per_step,
                    llc_miss_ratio: overall_miss,
                    cpi: cpi[i],
                    ipc: 1.0 / cpi[i],
                    llc_refs_per_step: refs,
                    llc_misses_per_step: misses,
                    dram_bytes_per_step: misses * line
                        + w.instructions_per_step * w.streaming_bytes_per_instr,
                    peak_bw_pressure: peak,
                }
            })
            .collect()
    }

    /// Performance of a component as if alone on the node (used by the
    /// `disabled` ablation and by baseline estimation).
    pub fn solve_isolated(&self, spec: &NodeSpec, placed: &PlacedWorkload) -> PerfEstimate {
        let w = &placed.workload;
        let line = spec.cache_line_bytes as f64;
        // Alone, the component sees each socket's full LLC against its
        // per-socket working-set slice.
        let sockets = spec.sockets as usize;
        let mut overall_miss = 0.0;
        for s in 0..sockets {
            let frac = placed.alloc.socket_fraction(s);
            if frac <= 0.0 {
                continue;
            }
            let m = self.cache.miss_ratio(
                spec.llc_bytes_per_socket as f64,
                w.working_set_bytes * frac,
                w.base_miss_ratio,
            );
            overall_miss += frac * m;
        }
        let events = w.llc_refs_per_instr * overall_miss + w.streaming_bytes_per_instr / line;
        let stall = events
            * self.memory.exposed_stall_cycles(spec.llc_miss_penalty_cycles, w.mlp_overlap, 1.0);
        let cpi = w.base_cpi + stall;
        let refs = w.instructions_per_step * w.llc_refs_per_instr;
        let misses = refs * overall_miss;
        PerfEstimate {
            seconds_per_step: w.instructions_per_step * cpi
                / (spec.core_freq_hz * w.speedup(placed.alloc.total_cores())),
            instructions_per_step: w.instructions_per_step,
            llc_miss_ratio: overall_miss,
            cpi,
            ipc: 1.0 / cpi,
            llc_refs_per_step: refs,
            llc_misses_per_step: misses,
            dram_bytes_per_step: misses * line
                + w.instructions_per_step * w.streaming_bytes_per_instr,
            peak_bw_pressure: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cori::cori_node;
    use crate::topology::{BindPolicy, Platform};

    fn compute_heavy() -> Workload {
        Workload {
            instructions_per_step: 2e11,
            base_cpi: 0.6,
            llc_refs_per_instr: 0.004,
            base_miss_ratio: 0.03,
            working_set_bytes: 25e6,
            parallel_fraction: 0.98,
            streaming_bytes_per_instr: 0.0,
            mlp_overlap: 0.85,
        }
    }

    fn memory_heavy() -> Workload {
        Workload {
            instructions_per_step: 2e10,
            base_cpi: 0.8,
            llc_refs_per_instr: 0.05,
            base_miss_ratio: 0.08,
            working_set_bytes: 60e6,
            parallel_fraction: 0.92,
            streaming_bytes_per_instr: 0.05,
            mlp_overlap: 0.4,
        }
    }

    fn place(p: &mut Platform, node: usize, cores: u32, w: Workload) -> PlacedWorkload {
        PlacedWorkload { alloc: p.allocate(node, cores, BindPolicy::Spread).unwrap(), workload: w }
    }

    #[test]
    fn isolated_component_hits_base_profile() {
        let spec = cori_node();
        let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
        let placed = place(&mut p, 0, 16, compute_heavy());
        let model = InterferenceModel::default();
        let est = model.solve_node(&spec, std::slice::from_ref(&placed), &[])[0].clone();
        // Working set fits: miss ratio at the base floor.
        assert!((est.llc_miss_ratio - 0.03).abs() < 1e-6, "miss {}", est.llc_miss_ratio);
        assert!(est.seconds_per_step > 0.0);
        assert!(est.ipc > 0.0 && est.ipc <= spec.peak_ipc * 2.0);
    }

    #[test]
    fn co_location_raises_miss_ratio_and_time() {
        let spec = cori_node();
        let model = InterferenceModel::default();

        let mut alone = Platform::new(1, spec.clone(), crate::cori::aries_network());
        let a = place(&mut alone, 0, 16, memory_heavy());
        let est_alone = model.solve_node(&spec, std::slice::from_ref(&a), &[])[0].clone();

        let mut shared = Platform::new(1, spec.clone(), crate::cori::aries_network());
        let b = place(&mut shared, 0, 16, memory_heavy());
        let c = place(&mut shared, 0, 16, memory_heavy());
        let est_shared = model.solve_node(&spec, &[b, c], &[])[0].clone();

        assert!(
            est_shared.llc_miss_ratio > est_alone.llc_miss_ratio,
            "co-location must raise miss ratio ({} vs {})",
            est_shared.llc_miss_ratio,
            est_alone.llc_miss_ratio
        );
        assert!(est_shared.seconds_per_step > est_alone.seconds_per_step);
        assert!(est_shared.ipc < est_alone.ipc);
    }

    #[test]
    fn memory_heavy_pair_contends_more_than_compute_heavy_pair() {
        let spec = cori_node();
        let model = InterferenceModel::default();

        let solo_mem = {
            let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
            let a = place(&mut p, 0, 8, memory_heavy());
            model.solve_node(&spec, &[a], &[])[0].clone()
        };
        let pair_mem = {
            let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
            let a = place(&mut p, 0, 8, memory_heavy());
            let b = place(&mut p, 0, 8, memory_heavy());
            model.solve_node(&spec, &[a, b], &[])[0].clone()
        };
        let solo_cpu = {
            let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
            let a = place(&mut p, 0, 16, compute_heavy());
            model.solve_node(&spec, &[a], &[])[0].clone()
        };
        let pair_cpu = {
            let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
            let a = place(&mut p, 0, 16, compute_heavy());
            let b = place(&mut p, 0, 16, compute_heavy());
            model.solve_node(&spec, &[a, b], &[])[0].clone()
        };
        let slowdown_mem = pair_mem.seconds_per_step / solo_mem.seconds_per_step;
        let slowdown_cpu = pair_cpu.seconds_per_step / solo_cpu.seconds_per_step;
        assert!(
            slowdown_mem > slowdown_cpu,
            "memory-bound co-location should hurt more: {slowdown_mem} vs {slowdown_cpu}"
        );
    }

    #[test]
    fn disabled_model_ignores_neighbours() {
        let spec = cori_node();
        let model = InterferenceModel { disabled: true, ..Default::default() };
        let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
        let a = place(&mut p, 0, 8, memory_heavy());
        let b = place(&mut p, 0, 8, memory_heavy());
        let ests = model.solve_node(&spec, &[a.clone(), b], &[]);
        let solo = model.solve_isolated(&spec, &a);
        assert!((ests[0].seconds_per_step - solo.seconds_per_step).abs() < 1e-12);
        assert!((ests[0].llc_miss_ratio - solo.llc_miss_ratio).abs() < 1e-12);
    }

    #[test]
    fn more_cores_make_steps_faster() {
        let spec = cori_node();
        let model = InterferenceModel::default();
        let mut prev = f64::INFINITY;
        for cores in [1u32, 2, 4, 8, 16, 32] {
            let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
            let a = place(&mut p, 0, cores, compute_heavy());
            let est = model.solve_node(&spec, &[a], &[])[0].clone();
            assert!(est.seconds_per_step < prev, "{cores} cores should beat fewer cores");
            prev = est.seconds_per_step;
        }
    }

    #[test]
    fn extra_traffic_increases_pressure() {
        let spec = cori_node();
        let model = InterferenceModel::default();
        let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
        let a = place(&mut p, 0, 16, memory_heavy());
        let calm = model.solve_node(&spec, std::slice::from_ref(&a), &[])[0].clone();
        let noisy = model.solve_node(&spec, &[a], &[80e9, 80e9])[0].clone();
        assert!(noisy.seconds_per_step >= calm.seconds_per_step);
        assert!(noisy.peak_bw_pressure >= calm.peak_bw_pressure);
    }

    #[test]
    fn estimates_are_finite_and_consistent() {
        let spec = cori_node();
        let model = InterferenceModel::default();
        let mut p = Platform::new(1, spec.clone(), crate::cori::aries_network());
        let a = place(&mut p, 0, 16, compute_heavy());
        let b = place(&mut p, 0, 8, memory_heavy());
        for est in model.solve_node(&spec, &[a, b], &[]) {
            assert!(est.seconds_per_step.is_finite() && est.seconds_per_step > 0.0);
            assert!((0.0..=1.0).contains(&est.llc_miss_ratio));
            assert!((est.ipc * est.cpi - 1.0).abs() < 1e-9);
            assert!(est.llc_misses_per_step <= est.llc_refs_per_step);
        }
    }
}
