//! CSV export of reports and traces for external plotting tools.
//!
//! No external CSV crate: the rows are simple numeric tables, and
//! fields are escaped conservatively (quotes around anything containing
//! a comma, quote, or newline).

use crate::report::EnsembleReport;
use crate::trace::ExecutionTrace;

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// One CSV row per member: the model quantities of the report.
pub fn members_csv(reports: &[&EnsembleReport]) -> String {
    let mut out = String::from(
        "config,member,sigma_star_s,makespan_s,makespan_model_s,efficiency,cp,lost_frames\n",
    );
    for report in reports {
        for m in &report.members {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                escape(&report.config),
                m.member,
                m.sigma_star,
                m.makespan,
                m.makespan_model,
                m.efficiency,
                m.cp,
                m.lost_frames
            ));
        }
    }
    out
}

/// One CSV row per component: the Table 1 metrics.
pub fn components_csv(reports: &[&EnsembleReport]) -> String {
    let mut out = String::from(
        "config,member,component,cores,exec_time_s,llc_miss_ratio,memory_intensity,ipc\n",
    );
    for report in reports {
        for m in &report.members {
            for c in &m.components {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{}\n",
                    escape(&report.config),
                    m.member,
                    escape(&c.name),
                    c.cores,
                    c.metrics.execution_time,
                    c.metrics.llc_miss_ratio,
                    c.metrics.memory_intensity,
                    c.metrics.ipc
                ));
            }
        }
    }
    out
}

/// One CSV row per stage interval of a trace (for Gantt-style plots).
pub fn trace_csv(trace: &ExecutionTrace) -> String {
    let mut out = String::from("component,stage,step,start_s,end_s,duration_s\n");
    for i in trace.intervals() {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            i.component,
            i.kind.label(),
            i.step,
            i.start,
            i.end,
            i.duration()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::interval;
    use ensemble_core::{ComponentRef, StageKind};

    #[test]
    fn trace_csv_has_header_and_rows() {
        let rec = vec![
            interval(ComponentRef::simulation(0), StageKind::Simulate, 0, 0.0, 1.5),
            interval(ComponentRef::analysis(0, 1), StageKind::Analyze, 0, 1.5, 2.0),
        ];
        let csv = trace_csv(&ExecutionTrace::new(rec));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("component,stage"));
        assert!(lines[1].starts_with("Sim1,S,0,0,1.5,1.5"));
        assert!(lines[2].starts_with("Ana1.1,A,0,1.5,2,0.5"));
    }

    #[test]
    fn escaping_handles_commas_and_quotes() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
