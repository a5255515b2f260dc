//! # metrics — measurement pipeline for workflow-ensemble executions
//!
//! The paper's TAU-based measurement stack, reproduced over traces:
//!
//! * [`trace`] — timestamped stage intervals recorded by either runtime
//!   (virtual or wall-clock seconds), reducible to the steady-state
//!   per-step samples the model consumes;
//! * [`summary`] — the same reduction without the intervals: the sink a
//!   run records into when only a report is wanted;
//! * [`traditional`] — the Table 1 component metrics (execution time,
//!   LLC miss ratio, memory intensity, IPC) derived from synthetic
//!   hardware counters;
//! * [`makespan`] — member makespan (simulation start → latest analysis
//!   end) and ensemble makespan (max over members);
//! * [`report`] — serializable experiment reports, one per configuration
//!   run;
//! * [`gantt`] — ASCII stage timelines (the paper's Figure 6 from real
//!   traces).

#![warn(missing_docs)]

pub mod energy;
pub mod export;
pub mod gantt;
pub mod makespan;
pub mod report;
pub mod summary;
pub mod trace;
pub mod traditional;

pub use energy::run_energy;
pub use export::{components_csv, members_csv, trace_csv};
pub use gantt::{render_gantt, GanttOptions};
pub use makespan::{ensemble_makespan, member_makespan};
pub use report::{ComponentReport, EnsembleReport, MemberReport};
pub use summary::{MemberStages, StageSink, StageSummary};
pub use trace::{ExecutionTrace, StageInterval};
pub use traditional::TraditionalMetrics;
