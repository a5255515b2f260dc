//! In-memory spans for the traced run: name, start, end, the span that
//! caused it, and the op they belong to. Written out once, at exit.
//!
//! The program under test has no spans of its own yet, so a layer span
//! here times the benchmark's own call of that layer's public function
//! with the inputs of the op it is attributed to. Such a span runs after
//! the round trip it explains, which is why self time follows the
//! `cause` links and not the nesting of the intervals.

use std::io::Write;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub cause: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        cause: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span { name, op, cause, start_ns, end_ns: end_ns.max(start_ns) });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        cause: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (self.record(name, op, cause, start, end), out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn ns(&self, id: SpanId) -> u64 {
        self.spans[id].ns()
    }
}

/// Self time of every span: its duration minus the durations of the
/// spans it caused, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for span in spans {
        if let Some(parent) = span.cause {
            own[parent] = own[parent].saturating_sub(span.ns());
        }
    }
    own
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
}

pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (id, s) in spans.iter().enumerate() {
        let cause = s.cause.map_or("null".to_string(), |c| c.to_string());
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"cause\":{cause},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_caused_spans_not_nested_intervals() {
        let mut t = Tracer::new();
        let root = t.record("root", 1, None, 0, 100);
        // Caused by the root although it ran after it ended.
        let scan = t.record("scan", 1, Some(root), 200, 260);
        t.record("walk", 1, Some(scan), 300, 325);
        t.record("other-op", 2, None, 0, 10);
        let own = self_times(t.spans());
        assert_eq!(own, vec![40, 35, 25, 10]);
    }

    #[test]
    fn self_time_floors_at_zero_when_children_overrun() {
        let mut t = Tracer::new();
        let root = t.record("root", 1, None, 0, 10);
        t.record("child", 1, Some(root), 10, 40);
        assert_eq!(self_times(t.spans())[root], 0);
    }

    #[test]
    fn durations_filter_by_name() {
        let mut t = Tracer::new();
        t.record("a", 1, None, 0, 2_000);
        t.record("b", 1, None, 0, 5_000);
        t.record("a", 2, None, 0, 4_000);
        assert_eq!(durations_us(t.spans(), "a"), vec![2.0, 4.0]);
    }
}
