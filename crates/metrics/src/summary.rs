//! Stage summaries: everything a report reads off a run — the `S/W/R/A`
//! duration series and each component's first-start/last-end span —
//! without the intervals themselves.
//!
//! A run that is only going to be reduced records straight into a
//! [`StageSummary`]; a run whose intervals are wanted (Gantt charts, CSV
//! export, tests) records an [`ExecutionTrace`](crate::ExecutionTrace)
//! and [`summarize`](crate::ExecutionTrace::summarize)s it later. Both
//! arrive at the same value, bit for bit.

use ensemble_core::{ComponentRef, MemberStepSamples, StageKind};

use crate::trace::StageInterval;

/// Where an executing component records the stages it completes.
pub trait StageSink {
    /// One stage of `component`, `start..end` in seconds.
    fn record(&mut self, component: ComponentRef, kind: StageKind, step: u64, start: f64, end: f64);
}

impl StageSink for Vec<StageInterval> {
    fn record(
        &mut self,
        component: ComponentRef,
        kind: StageKind,
        step: u64,
        start: f64,
        end: f64,
    ) {
        self.push(StageInterval { component, kind, step, start, end });
    }
}

/// One member's share of a [`StageSummary`].
#[derive(Debug, Clone, Default)]
pub struct MemberStages {
    /// Stage durations per in situ step, in step order.
    pub samples: MemberStepSamples,
    /// First start and last end over every stage (idle ones included) of
    /// the simulation (index 0) and of analysis `j` (index `j`); `None`
    /// for a component that recorded nothing.
    pub spans: Vec<Option<(f64, f64)>>,
}

impl MemberStages {
    /// The duration series a stage of component `slot` belongs to:
    /// `S`/`W` of the simulation, `R`/`A` of an analysis, none for the
    /// idle stages.
    pub(crate) fn series_mut(&mut self, slot: usize, kind: StageKind) -> Option<&mut Vec<f64>> {
        match (slot.checked_sub(1), kind) {
            (None, StageKind::Simulate) => Some(&mut self.samples.s),
            (None, StageKind::Write) => Some(&mut self.samples.w),
            (Some(j), StageKind::Read) => self.samples.analyses.get_mut(j).map(|(r, _)| r),
            (Some(j), StageKind::Analyze) => self.samples.analyses.get_mut(j).map(|(_, a)| a),
            _ => None,
        }
    }

    /// Member makespan (Table 1): simulation start to the latest end of
    /// the simulation or any analysis. `None` if the simulation recorded
    /// nothing.
    pub fn makespan(&self) -> Option<f64> {
        let (sim_start, sim_end) = (*self.spans.first()?)?;
        let latest = self.spans[1..].iter().flatten().fold(sim_end, |l, &(_, end)| l.max(end));
        Some(latest - sim_start)
    }
}

/// The reduction of a run that reports are built from.
#[derive(Debug, Clone, Default)]
pub struct StageSummary {
    /// One entry per ensemble member, in member order.
    pub members: Vec<MemberStages>,
}

impl StageSummary {
    /// An empty summary for members with `ks[i]` analyses each, every
    /// series sized for `steps` samples.
    pub fn new(ks: impl IntoIterator<Item = usize>, steps: usize) -> Self {
        let series = || Vec::with_capacity(steps);
        let members = ks
            .into_iter()
            .map(|k| MemberStages {
                samples: MemberStepSamples {
                    s: series(),
                    w: series(),
                    analyses: (0..k).map(|_| (series(), series())).collect(),
                },
                spans: vec![None; 1 + k],
            })
            .collect();
        StageSummary { members }
    }
}

/// Series keep recording order, which must already be step order (a
/// component of the simulated runtime completes its steps in order);
/// stages of components the summary was not shaped for are dropped.
impl StageSink for StageSummary {
    fn record(&mut self, component: ComponentRef, kind: StageKind, _: u64, start: f64, end: f64) {
        let Some(member) = self.members.get_mut(component.member) else {
            return;
        };
        let Some(span) = member.spans.get_mut(component.slot) else {
            return;
        };
        *span = Some(match *span {
            None => (start, end),
            Some((s, e)) => (s.min(start), e.max(end)),
        });
        if let Some(series) = member.series_mut(component.slot, kind) {
            series.push(end - start);
        }
    }
}
