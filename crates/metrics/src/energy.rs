//! Energy accounting over execution traces.
//!
//! Attributes joules to components from their busy time (compute + I/O
//! stages at active per-core power) and to nodes from their idle
//! baseline over the run span — enabling energy-aware comparisons of
//! placements (the SeeSAw-style extension experiments).

use std::collections::HashMap;

use ensemble_core::{ComponentRef, StageGroup};
use hpc_platform::PowerModel;

use crate::trace::ExecutionTrace;

/// Energy breakdown of one run.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Joules attributed to each component's busy time.
    pub per_component: HashMap<ComponentRef, f64>,
    /// Joules of idle baseline per node over the run span.
    pub per_node_idle: HashMap<usize, f64>,
    /// Total joules (components + idle baselines).
    pub total_joules: f64,
    /// Run span in seconds (earliest start to latest end).
    pub span_seconds: f64,
}

impl EnergyReport {
    /// Average power over the run, watts.
    pub fn average_watts(&self) -> f64 {
        if self.span_seconds <= 0.0 {
            0.0
        } else {
            self.total_joules / self.span_seconds
        }
    }
}

/// Computes the energy of a run.
///
/// `cores` and `node_of` map each component to its core count and node;
/// both typically come from the runtime's allocations.
pub fn run_energy(
    trace: &ExecutionTrace,
    power: &PowerModel,
    cores: &HashMap<ComponentRef, u32>,
    node_of: &HashMap<ComponentRef, usize>,
) -> EnergyReport {
    let mut per_component: HashMap<ComponentRef, f64> = HashMap::new();
    let mut span_start = f64::INFINITY;
    let mut span_end = f64::NEG_INFINITY;
    for interval in trace.intervals() {
        span_start = span_start.min(interval.start);
        span_end = span_end.max(interval.end);
        // Idle stages draw only the node baseline (accounted per node).
        if interval.kind.group() == StageGroup::Idle {
            continue;
        }
        let c = cores.get(&interval.component).copied().unwrap_or(0);
        let watts = power.active_watts_per_core * c as f64;
        *per_component.entry(interval.component).or_default() +=
            power.energy_joules(watts, interval.duration());
    }
    let span_seconds = (span_end - span_start).max(0.0);
    let mut nodes: Vec<usize> = node_of.values().copied().collect();
    nodes.sort_unstable();
    nodes.dedup();
    let per_node_idle: HashMap<usize, f64> = nodes
        .into_iter()
        .map(|n| (n, power.energy_joules(power.idle_watts, span_seconds)))
        .collect();
    let total_joules = per_component.values().sum::<f64>() + per_node_idle.values().sum::<f64>();
    EnergyReport { per_component, per_node_idle, total_joules, span_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::interval;
    use ensemble_core::StageKind;

    fn setup() -> (ExecutionTrace, HashMap<ComponentRef, u32>, HashMap<ComponentRef, usize>) {
        let sim = ComponentRef::simulation(0);
        let ana = ComponentRef::analysis(0, 1);
        let rec = vec![
            interval(sim, StageKind::Simulate, 0, 0.0, 10.0),
            interval(sim, StageKind::SimIdle, 0, 10.0, 12.0),
            interval(ana, StageKind::Analyze, 0, 0.0, 8.0),
        ];
        let cores = HashMap::from([(sim, 16u32), (ana, 8u32)]);
        let nodes = HashMap::from([(sim, 0usize), (ana, 0usize)]);
        (ExecutionTrace::new(rec), cores, nodes)
    }

    #[test]
    fn busy_time_dominates_component_energy() {
        let (trace, cores, nodes) = setup();
        let power = PowerModel::default();
        let report = run_energy(&trace, &power, &cores, &nodes);
        let sim_j = report.per_component[&ComponentRef::simulation(0)];
        // 16 cores × 6.5 W × 10 s; idle stage contributes nothing here.
        assert!((sim_j - 16.0 * 6.5 * 10.0).abs() < 1e-9);
        let ana_j = report.per_component[&ComponentRef::analysis(0, 1)];
        assert!((ana_j - 8.0 * 6.5 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn idle_baseline_covers_the_span() {
        let (trace, cores, nodes) = setup();
        let power = PowerModel::default();
        let report = run_energy(&trace, &power, &cores, &nodes);
        // Span is 0..12 s, one node.
        assert!((report.span_seconds - 12.0).abs() < 1e-12);
        assert!((report.per_node_idle[&0] - 90.0 * 12.0).abs() < 1e-9);
        assert!(report.total_joules > report.per_node_idle[&0]);
        assert!(report.average_watts() > 90.0);
    }

    #[test]
    fn empty_trace_is_safe() {
        let report = run_energy(
            &ExecutionTrace::default(),
            &PowerModel::default(),
            &HashMap::new(),
            &HashMap::new(),
        );
        assert_eq!(report.total_joules, 0.0);
        assert_eq!(report.average_watts(), 0.0);
    }
}
