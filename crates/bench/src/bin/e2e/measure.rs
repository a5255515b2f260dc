//! The untraced run: set-up several times, one timed window, the
//! end-to-end metrics.

use std::time::Duration;

use crate::driver::{self, Session, Stop, Tally, Timed};
use crate::report::Metric;
use crate::stats;
use crate::workload::Workload;

/// Set-ups per run. `setup_s` is their median, so one slow bind or one
/// late accept does not decide it; the last one carries the window.
pub const SETUP_REPS: usize = 3;

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_ops_s",
    "work_units_per_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "peak_rss_mb",
];

pub struct Measured {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

fn latencies(timed: &[Timed], kind: Option<&str>) -> Vec<f64> {
    let all = timed.iter().flat_map(|t| t.ops.iter());
    stats::sorted(
        all.filter(|(k, _)| kind.is_none_or(|want| *k == want)).map(|(_, ms)| *ms).collect(),
    )
}

/// Median latency of one op kind, when the stretch held any.
pub fn kind_p50_ms(timed: &[Timed], kind: &str) -> Option<f64> {
    let sorted = latencies(timed, Some(kind));
    (!sorted.is_empty()).then(|| stats::percentile(&sorted, 0.50))
}

/// Median latency over every op of the stretch.
pub fn p50_ms(timed: &[Timed]) -> f64 {
    stats::percentile(&latencies(timed, None), 0.50)
}

/// Throughput, work rate and latency percentiles of one stretch of the
/// closed loop.
pub fn window_metrics(timed: &[Timed]) -> Result<(Vec<Metric>, usize), String> {
    let sorted = latencies(timed, None);
    if sorted.is_empty() {
        return Err("no op completed correctly in the timed window".into());
    }
    // Clients start together; the window ends with the last reply.
    let elapsed = timed.iter().map(|t| t.elapsed_s).fold(0.0, f64::max);
    let work: u64 = timed.iter().map(|t| t.work_units).sum();
    let metrics = vec![
        Metric::new("throughput_ops_s", sorted.len() as f64 / elapsed, "1/s"),
        Metric::new("work_units_per_s", work as f64 / elapsed, "1/s"),
        Metric::new("latency_p50_ms", stats::percentile(&sorted, 0.50), "ms"),
        Metric::new("latency_p95_ms", stats::percentile(&sorted, 0.95), "ms"),
    ];
    Ok((metrics, sorted.len()))
}

/// Runs `workload` untraced for `seconds` and returns the end-to-end
/// metrics with the tally of every op attempted.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<Measured, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut tally = Tally::default();
    for _ in 1..SETUP_REPS {
        let session = Session::start(workload, seed, workload.clients(), quick)?;
        setups.push(session.setup_s);
        tally.absorb(&session.total());
        session.close();
    }
    let mut session = Session::start(workload, seed, workload.clients(), quick)?;
    setups.push(session.setup_s);
    let window = Duration::from_secs_f64(seconds);
    let timed = driver::drive(&mut session.clients, Stop::After(window));
    tally.absorb(&session.finish().0);

    let (mut metrics, samples) = window_metrics(&timed)?;
    metrics.insert(0, Metric::new("setup_s", stats::median(&setups), "s"));
    metrics.push(Metric::new("peak_rss_mb", driver::peak_rss_mb(), "MiB"));
    assert!(
        metrics.iter().map(|m| m.name.as_str()).eq(END_TO_END.iter().copied()),
        "the metrics printed are the metrics declared"
    );
    Ok(Measured { metrics, tally, samples })
}
