//! Assigns architectural workloads to ensemble components for the
//! simulated execution mode.

use ensemble_core::ComponentRef;
use hpc_platform::Workload;
use kernels::profile;
use std::collections::HashMap;

/// Maps components to their [`Workload`] profiles and chunk sizes.
#[derive(Debug, Clone)]
pub struct WorkloadMap {
    sim_default: Workload,
    analysis_default: Workload,
    overrides: HashMap<ComponentRef, Workload>,
    /// Bytes of the frame chunk each simulation stages per in situ step.
    pub chunk_bytes: u64,
}

impl WorkloadMap {
    /// The paper's workloads: GROMACS-like simulation at `stride`,
    /// eigenvalue analyses, GltPh-sized frames.
    pub fn paper_defaults(stride: u64) -> Self {
        WorkloadMap {
            sim_default: profile::simulation_workload(stride),
            analysis_default: profile::analysis_workload(),
            overrides: HashMap::new(),
            chunk_bytes: profile::frame_bytes(profile::GLTPH_ATOMS),
        }
    }

    /// Laptop-scale workloads with the same contention shapes (fast
    /// tests).
    pub fn small_defaults() -> Self {
        WorkloadMap {
            sim_default: profile::small_simulation_workload(),
            analysis_default: profile::small_analysis_workload(),
            overrides: HashMap::new(),
            chunk_bytes: profile::frame_bytes(1000),
        }
    }

    /// Overrides the workload of one component (e.g. a straggler for
    /// failure-injection experiments).
    pub fn set_override(&mut self, component: ComponentRef, workload: Workload) {
        self.overrides.insert(component, workload);
    }

    /// The workload of `component`.
    pub fn workload_for(&self, component: ComponentRef) -> &Workload {
        self.overrides.get(&component).unwrap_or(if component.is_simulation() {
            &self.sim_default
        } else {
            &self.analysis_default
        })
    }

    /// A canonical, deterministic description of this map, suitable as a
    /// cache-key component. Two maps with equal contents always produce
    /// byte-identical fingerprints: the `overrides` HashMap is serialized
    /// in sorted `ComponentRef` order, never in hash-iteration order
    /// (which varies between otherwise-identical maps and would silently
    /// turn any cache keyed on it into a miss machine).
    pub fn canonical_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "sim={:?}|ana={:?}|chunk={}",
            self.sim_default, self.analysis_default, self.chunk_bytes
        );
        let mut overrides: Vec<_> = self.overrides.iter().collect();
        overrides.sort_by_key(|(c, _)| **c);
        for (c, w) in overrides {
            let _ = write!(out, "|ov[{},{}]={:?}", c.member, c.slot, w);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_split_by_kind() {
        let map = WorkloadMap::paper_defaults(800);
        let sim = map.workload_for(ComponentRef::simulation(0));
        let ana = map.workload_for(ComponentRef::analysis(0, 1));
        assert!(sim.instructions_per_step > ana.instructions_per_step);
        assert!(ana.llc_refs_per_instr > sim.llc_refs_per_instr);
    }

    #[test]
    fn override_wins() {
        let mut map = WorkloadMap::small_defaults();
        let mut slow = map.workload_for(ComponentRef::analysis(0, 1)).clone();
        slow.instructions_per_step *= 10.0;
        map.set_override(ComponentRef::analysis(0, 1), slow.clone());
        assert_eq!(map.workload_for(ComponentRef::analysis(0, 1)), &slow);
        // Other analyses unaffected.
        assert_ne!(map.workload_for(ComponentRef::analysis(1, 1)), &slow);
    }

    #[test]
    fn fingerprint_is_independent_of_override_insertion_order() {
        // Two maps with the same overrides inserted in different orders
        // hold HashMaps with different internal layouts — the
        // fingerprint must not leak that.
        let refs = [
            ComponentRef::analysis(3, 2),
            ComponentRef::simulation(0),
            ComponentRef::analysis(1, 1),
        ];
        let mut slow = WorkloadMap::small_defaults().workload_for(refs[0]).clone();
        slow.instructions_per_step *= 7.0;
        let mut forward = WorkloadMap::small_defaults();
        for r in refs {
            forward.set_override(r, slow.clone());
        }
        let mut backward = WorkloadMap::small_defaults();
        for r in refs.iter().rev() {
            backward.set_override(*r, slow.clone());
        }
        assert_eq!(forward.canonical_fingerprint(), backward.canonical_fingerprint());
        // And the overrides actually participate.
        assert_ne!(
            forward.canonical_fingerprint(),
            WorkloadMap::small_defaults().canonical_fingerprint()
        );
    }

    #[test]
    fn chunk_bytes_positive() {
        assert!(WorkloadMap::paper_defaults(800).chunk_bytes > 1_000_000);
        assert!(WorkloadMap::small_defaults().chunk_bytes > 0);
    }
}
