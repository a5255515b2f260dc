//! ASCII Gantt rendering of execution traces — the paper's Figure 6
//! ("example of fine-grained execution steps for a member of one
//! ensemble") regenerated from *measured* traces instead of an
//! illustration.

use ensemble_core::{ComponentRef, StageKind};

use crate::trace::ExecutionTrace;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct GanttOptions {
    /// Total character width of the time axis.
    pub width: usize,
    /// Restrict to a time window `[start, end)` in seconds; `None` spans
    /// the whole trace.
    pub window: Option<(f64, f64)>,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions { width: 100, window: None }
    }
}

fn glyph(kind: StageKind) -> char {
    match kind {
        StageKind::Simulate => 'S',
        StageKind::SimIdle => '.',
        StageKind::Write => 'W',
        StageKind::Read => 'R',
        StageKind::Analyze => 'A',
        StageKind::AnaIdle => '.',
    }
}

/// Renders one row per component: a proportional timeline of its stages.
///
/// ```text
/// Sim1    |SSSSSSSSSSSSSSSSSSSSW SSSSSSSSSSSSSSSSSSSSW ...|
/// Ana1.1  |...RAAAAAAAAAAAAAA.....RAAAAAAAAAAAAAA.....    |
/// ```
pub fn render_gantt(trace: &ExecutionTrace, options: &GanttOptions) -> String {
    if trace.is_empty() {
        return String::from("(empty trace)\n");
    }
    let (t0, t1) = match options.window {
        Some(w) => w,
        None => {
            let start = trace.intervals().iter().map(|i| i.start).fold(f64::INFINITY, f64::min);
            let end = trace.intervals().iter().map(|i| i.end).fold(f64::NEG_INFINITY, f64::max);
            (start, end)
        }
    };
    let span = (t1 - t0).max(f64::MIN_POSITIVE);
    let width = options.width.max(10);

    // Stable component order: member-major, simulation first.
    let mut components: Vec<ComponentRef> = trace.intervals().iter().map(|i| i.component).collect();
    components.sort();
    components.dedup();

    let mut out = String::new();
    out.push_str(&format!(
        "time window: {:.3}s .. {:.3}s ({} columns, {:.4}s/column)\n",
        t0,
        t1,
        width,
        span / width as f64
    ));
    for c in components {
        let mut row = vec![' '; width];
        for interval in trace.for_component(c) {
            if interval.end <= t0 || interval.start >= t1 {
                continue;
            }
            let a = (((interval.start - t0) / span) * width as f64).floor().max(0.0) as usize;
            let b = (((interval.end - t0) / span) * width as f64).ceil().min(width as f64) as usize;
            for cell in row.iter_mut().take(b.max(a + 1).min(width)).skip(a.min(width - 1)) {
                *cell = glyph(interval.kind);
            }
        }
        out.push_str(&format!("{:<8}|{}|\n", c.to_string(), row.iter().collect::<String>()));
    }
    out.push_str("legend: S simulate, W write, R read, A analyze, . idle\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::interval;

    fn sample_trace() -> ExecutionTrace {
        let mut rec = Vec::new();
        let sim = ComponentRef::simulation(0);
        let ana = ComponentRef::analysis(0, 1);
        for step in 0..2u64 {
            let base = step as f64 * 10.0;
            rec.push(interval(sim, StageKind::Simulate, step, base, base + 8.0));
            rec.push(interval(sim, StageKind::Write, step, base + 8.0, base + 8.5));
            rec.push(interval(ana, StageKind::AnaIdle, step, base, base + 8.5));
            rec.push(interval(ana, StageKind::Read, step, base + 8.5, base + 9.0));
            rec.push(interval(ana, StageKind::Analyze, step, base + 9.0, base + 10.0));
        }
        ExecutionTrace::new(rec)
    }

    #[test]
    fn renders_one_row_per_component() {
        let g = render_gantt(&sample_trace(), &GanttOptions::default());
        assert!(g.contains("Sim1"));
        assert!(g.contains("Ana1.1"));
        assert!(g.contains("legend"));
        // The simulation row is dominated by S glyphs.
        let sim_row = g.lines().find(|l| l.starts_with("Sim1")).unwrap();
        assert!(sim_row.matches('S').count() > 50);
        assert!(sim_row.contains('W'));
    }

    #[test]
    fn window_restricts_output() {
        let g =
            render_gantt(&sample_trace(), &GanttOptions { width: 40, window: Some((9.0, 10.0)) });
        // Only the analyze stage of step 0 lands in this window.
        let ana_row = g.lines().find(|l| l.starts_with("Ana1.1")).unwrap();
        assert!(ana_row.contains('A'));
        assert!(!ana_row.contains('R'));
    }

    #[test]
    fn empty_trace_is_handled() {
        assert!(
            render_gantt(&ExecutionTrace::default(), &GanttOptions::default()).contains("empty")
        );
    }

    #[test]
    fn zero_length_stages_do_not_panic() {
        let rec = vec![interval(ComponentRef::simulation(0), StageKind::Write, 0, 1.0, 1.0)];
        let g = render_gantt(&ExecutionTrace::new(rec), &GanttOptions { width: 10, window: None });
        assert!(g.contains("Sim1"));
    }
}
