//! Results as JSON, written by hand: the contract line on stdout, and a
//! result file that also carries the provenance of the run.

use std::fmt::Write as _;

use crate::driver::Tally;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// A JSON string literal.
pub fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values become 0, which
/// JSON can carry and which the checks reject as a failed run.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(&m.name),
                number(m.value),
                quoted(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one-line result the driver reads: `correct`, `attempted`,
/// `failed`, `metrics`, and nothing else.
pub fn contract_line(metrics: &[Metric], tally: &Tally) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_object(metrics)
    )
}

/// Where and how a result was produced.
pub struct Provenance {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub clients: usize,
    pub host_cores: usize,
    pub git_commit: String,
    pub rustc: String,
    pub journal_dir: String,
    pub journal_fs: String,
    pub latency_samples: usize,
    /// Ops per client in each pass of a traced run (0 when untraced).
    pub trace_ops: usize,
}

/// The result file: the contract fields plus provenance and the first
/// failure messages.
pub fn result_file(p: &Provenance, metrics: &[Metric], tally: &Tally) -> String {
    let errors: Vec<String> = tally.errors.iter().map(|e| quoted(e)).collect();
    format!(
        concat!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},",
            "\"clients\":{},\"host_cores\":{},\"git_commit\":{},\"rustc\":{},",
            "\"journal_dir\":{},\"journal_fs\":{},\"journal_is_tmpfs\":{},",
            "\"latency_samples\":{},\"trace_ops_per_client\":{},",
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"errors\":[{}],\"metrics\":{}}}\n"
        ),
        quoted(p.workload),
        p.seed,
        number(p.seconds),
        p.trace,
        p.quick,
        p.clients,
        p.host_cores,
        quoted(&p.git_commit),
        quoted(&p.rustc),
        quoted(&p.journal_dir),
        quoted(&p.journal_fs),
        p.journal_fs == "tmpfs",
        p.latency_samples,
        p.trace_ops,
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        errors.join(","),
        metrics_object(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let tally = Tally { attempted: 12, failed: 0, queued: 3, errors: Vec::new() };
        let line = contract_line(&[Metric::new("latency_p50_ms", 1.25, "ms")], &tally);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
