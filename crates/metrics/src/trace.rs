//! Execution traces: timestamped stage intervals for every component.
//!
//! Both execution modes emit the same trace format — virtual seconds from
//! the discrete-event runtime, wall-clock seconds from the threaded
//! runtime — so every metric downstream is mode-agnostic.

use ensemble_core::{ComponentRef, MemberStepSamples, StageKind};

use crate::summary::{StageSink, StageSummary};

/// One recorded stage execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StageInterval {
    /// Which component executed the stage.
    pub component: ComponentRef,
    /// Which stage.
    pub kind: StageKind,
    /// In situ step index.
    pub step: u64,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

impl StageInterval {
    /// Stage duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A completed execution trace.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    intervals: Vec<StageInterval>,
}

impl ExecutionTrace {
    /// Builds a trace from raw intervals.
    pub fn new(intervals: Vec<StageInterval>) -> Self {
        debug_assert!(intervals.iter().all(|i| i.end >= i.start), "negative-duration interval");
        ExecutionTrace { intervals }
    }

    /// All intervals, in recording order.
    pub fn intervals(&self) -> &[StageInterval] {
        &self.intervals
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Intervals of one component, in recording order.
    pub fn for_component(&self, c: ComponentRef) -> impl Iterator<Item = &StageInterval> {
        self.intervals.iter().filter(move |i| i.component == c)
    }

    /// Durations of one component's stage, ordered by step.
    pub fn stage_series(&self, c: ComponentRef, kind: StageKind) -> Vec<f64> {
        let mut entries: Vec<(u64, f64)> = self
            .for_component(c)
            .filter(|i| i.kind == kind)
            .map(|i| (i.step, i.duration()))
            .collect();
        entries.sort_by_key(|&(step, _)| step);
        entries.into_iter().map(|(_, d)| d).collect()
    }

    /// First start / last end of one component, if it recorded anything.
    pub fn component_span(&self, c: ComponentRef) -> Option<(f64, f64)> {
        let mut span: Option<(f64, f64)> = None;
        for i in self.for_component(c) {
            span = Some(match span {
                None => (i.start, i.end),
                Some((s, e)) => (s.min(i.start), e.max(i.end)),
            });
        }
        span
    }

    /// Per-step stage samples of member `member` with `k` analyses, in
    /// the shape `ensemble_core::steady_state` consumes.
    pub fn member_samples(&self, member: usize, k: usize) -> MemberStepSamples {
        let sim = ComponentRef::simulation(member);
        MemberStepSamples {
            s: self.stage_series(sim, StageKind::Simulate),
            w: self.stage_series(sim, StageKind::Write),
            analyses: (1..=k)
                .map(|j| {
                    let ana = ComponentRef::analysis(member, j);
                    (
                        self.stage_series(ana, StageKind::Read),
                        self.stage_series(ana, StageKind::Analyze),
                    )
                })
                .collect(),
        }
    }

    /// The whole trace reduced in one pass, for members with `ks[i]`
    /// analyses each: every series is exactly what [`stage_series`]
    /// returns (equal steps keep recording order) and every span what
    /// [`component_span`] returns.
    ///
    /// [`stage_series`]: ExecutionTrace::stage_series
    /// [`component_span`]: ExecutionTrace::component_span
    pub fn summarize(&self, ks: impl IntoIterator<Item = usize>) -> StageSummary {
        let ks: Vec<usize> = ks.into_iter().collect();
        let components: usize = ks.iter().map(|k| 1 + k).sum();
        let mut summary = StageSummary::new(ks, self.len() / (2 * components).max(1));
        // Highest step each component has recorded so far. The simulated
        // runtime records in step order and the pass is all there is to
        // do; a component that steps back (a restarted threaded member)
        // has its series redone through the sorting filter.
        let mut highest: Vec<Vec<u64>> =
            summary.members.iter().map(|m| vec![0; m.spans.len()]).collect();
        let mut unsorted: Vec<ComponentRef> = Vec::new();
        for i in &self.intervals {
            let c = i.component;
            if let Some(seen) = highest.get_mut(c.member).and_then(|m| m.get_mut(c.slot)) {
                if i.step < *seen && !unsorted.contains(&c) {
                    unsorted.push(c);
                }
                *seen = (*seen).max(i.step);
            }
            summary.record(c, i.kind, i.step, i.start, i.end);
        }
        for c in unsorted {
            for kind in [StageKind::Simulate, StageKind::Write, StageKind::Read, StageKind::Analyze]
            {
                if let Some(series) = summary.members[c.member].series_mut(c.slot, kind) {
                    *series = self.stage_series(c, kind);
                }
            }
        }
        summary
    }

    /// Total time `c` spent in stages of `kind`.
    pub fn total_in_stage(&self, c: ComponentRef, kind: StageKind) -> f64 {
        // `+ 0.0` normalizes the empty sum's -0.0 to +0.0.
        self.for_component(c).filter(|i| i.kind == kind).map(StageInterval::duration).sum::<f64>()
            + 0.0
    }

    /// The set of member indexes appearing in the trace, ascending.
    pub fn member_indexes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.intervals.iter().map(|i| i.component.member).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One stage interval, for traces built by hand.
    pub(crate) fn interval(
        component: ComponentRef,
        kind: StageKind,
        step: u64,
        start: f64,
        end: f64,
    ) -> StageInterval {
        StageInterval { component, kind, step, start, end }
    }

    fn sample_trace() -> ExecutionTrace {
        let mut rec = Vec::new();
        let sim = ComponentRef::simulation(0);
        let ana = ComponentRef::analysis(0, 1);
        for step in 0..3u64 {
            let base = step as f64 * 10.0;
            rec.push(interval(sim, StageKind::Simulate, step, base, base + 8.0));
            rec.push(interval(sim, StageKind::Write, step, base + 8.0, base + 8.5));
            rec.push(interval(ana, StageKind::Read, step, base + 8.5, base + 9.0));
            rec.push(interval(ana, StageKind::Analyze, step, base + 9.0, base + 9.8));
            rec.push(interval(ana, StageKind::AnaIdle, step, base + 9.8, base + 10.0));
        }
        ExecutionTrace::new(rec)
    }

    #[test]
    fn series_ordered_by_step() {
        let t = sample_trace();
        let s = t.stage_series(ComponentRef::simulation(0), StageKind::Simulate);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|&d| (d - 8.0).abs() < 1e-12));
    }

    #[test]
    fn component_span() {
        let t = sample_trace();
        let (start, end) = t.component_span(ComponentRef::analysis(0, 1)).unwrap();
        assert!((start - 8.5).abs() < 1e-12);
        assert!((end - 30.0).abs() < 1e-12);
        assert!(t.component_span(ComponentRef::simulation(9)).is_none());
    }

    #[test]
    fn member_samples_shape() {
        let t = sample_trace();
        let samples = t.member_samples(0, 1);
        assert_eq!(samples.s.len(), 3);
        assert_eq!(samples.w.len(), 3);
        assert_eq!(samples.analyses.len(), 1);
        assert_eq!(samples.analyses[0].0.len(), 3);
    }

    #[test]
    fn totals_accumulate() {
        let t = sample_trace();
        let idle = t.total_in_stage(ComponentRef::analysis(0, 1), StageKind::AnaIdle);
        assert!((idle - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = ExecutionTrace::default();
        assert!(t.is_empty());
        assert!(t.member_indexes().is_empty());
        assert!(t.stage_series(ComponentRef::simulation(0), StageKind::Write).is_empty());
    }
}
