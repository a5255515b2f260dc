//! One worker thread's stage intervals, recorded without a lock.
//!
//! The threaded runtime gives each component worker its own
//! [`StageLog`] and gathers the logs when it joins the workers, so a
//! stage record is a push onto a vector the recording thread owns. A
//! component's intervals keep the order its worker recorded them in;
//! every consumer of a trace selects by component before it looks at
//! order.

use ensemble_core::{ComponentRef, StageKind};
use metrics::StageInterval;

/// Per-step buffers of a threaded run reserve room for at most this
/// many steps up front; longer runs grow them. A step count is caller
/// input (`--steps`), and reserving for all of it would abort the
/// process on an impossible allocation.
const PREALLOCATED_STEPS: u64 = 4_096;

/// The step capacity to reserve for a run of `steps` steps.
pub(crate) fn preallocated(steps: u64) -> usize {
    steps.min(PREALLOCATED_STEPS) as usize
}

/// The stage intervals of one component, in recording order.
pub(crate) struct StageLog {
    component: ComponentRef,
    intervals: Vec<StageInterval>,
}

impl StageLog {
    /// An empty log for `component`, sized for `steps` steps of at most
    /// three stages each.
    pub(crate) fn new(component: ComponentRef, steps: u64) -> Self {
        StageLog { component, intervals: Vec::with_capacity(3 * preallocated(steps)) }
    }

    /// Records one stage of this log's component.
    pub(crate) fn record(&mut self, kind: StageKind, step: u64, start: f64, end: f64) {
        debug_assert!(end >= start, "stage {kind:?} of {} ends before it starts", self.component);
        self.intervals.push(StageInterval { component: self.component, kind, step, start, end });
    }

    /// The recorded intervals.
    pub(crate) fn into_intervals(self) -> Vec<StageInterval> {
        self.intervals
    }
}
