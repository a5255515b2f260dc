//! Member and ensemble makespans measured from traces (Table 1):
//!
//! * member makespan — "timespan between simulation start time and the
//!   latest analysis end time";
//! * ensemble makespan — "maximum makespan among all ensemble members".

use ensemble_core::ComponentRef;

use crate::trace::ExecutionTrace;

/// Member makespan from a trace; `k` is the member's analysis count.
/// Returns `None` if the member left no trace.
pub fn member_makespan(trace: &ExecutionTrace, member: usize, k: usize) -> Option<f64> {
    let (sim_start, sim_end) = trace.component_span(ComponentRef::simulation(member))?;
    let mut latest_end = sim_end;
    for j in 1..=k {
        if let Some((_, end)) = trace.component_span(ComponentRef::analysis(member, j)) {
            latest_end = latest_end.max(end);
        }
    }
    Some(latest_end - sim_start)
}

/// Ensemble makespan: the maximum member makespan. `members` lists each
/// member's analysis count `k`.
pub fn ensemble_makespan(trace: &ExecutionTrace, members: &[usize]) -> Option<f64> {
    members
        .iter()
        .enumerate()
        .filter_map(|(i, &k)| member_makespan(trace, i, k))
        .fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.max(m))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::interval;
    use ensemble_core::StageKind;

    fn trace() -> ExecutionTrace {
        let rec = vec![
            // Member 0: sim spans [0, 20], analysis ends at 22.
            interval(ComponentRef::simulation(0), StageKind::Simulate, 0, 0.0, 20.0),
            interval(ComponentRef::analysis(0, 1), StageKind::Analyze, 0, 5.0, 22.0),
            // Member 1: sim [1, 15], analyses end at 18 and 30.
            interval(ComponentRef::simulation(1), StageKind::Simulate, 0, 1.0, 15.0),
            interval(ComponentRef::analysis(1, 1), StageKind::Analyze, 0, 5.0, 18.0),
            interval(ComponentRef::analysis(1, 2), StageKind::Analyze, 0, 5.0, 30.0),
        ];
        ExecutionTrace::new(rec)
    }

    #[test]
    fn member_makespan_is_sim_start_to_latest_analysis_end() {
        let t = trace();
        assert!((member_makespan(&t, 0, 1).unwrap() - 22.0).abs() < 1e-12);
        assert!((member_makespan(&t, 1, 2).unwrap() - 29.0).abs() < 1e-12);
    }

    #[test]
    fn ensemble_makespan_is_max() {
        let t = trace();
        assert!((ensemble_makespan(&t, &[1, 2]).unwrap() - 29.0).abs() < 1e-12);
    }

    #[test]
    fn missing_member_yields_none() {
        let t = trace();
        assert!(member_makespan(&t, 7, 1).is_none());
        assert!(ensemble_makespan(&ExecutionTrace::default(), &[1]).is_none());
    }

    #[test]
    fn sim_outlasting_analyses_still_counts() {
        let rec = vec![
            interval(ComponentRef::simulation(0), StageKind::Simulate, 0, 0.0, 40.0),
            interval(ComponentRef::analysis(0, 1), StageKind::Analyze, 0, 5.0, 10.0),
        ];
        let t = ExecutionTrace::new(rec);
        assert!((member_makespan(&t, 0, 1).unwrap() - 40.0).abs() < 1e-12);
    }
}
