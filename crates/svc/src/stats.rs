//! Request-level service metrics: counters, gauges, and a latency
//! histogram with percentile extraction.
//!
//! Everything is lock-free (`AtomicU64`) so the hot path pays a handful
//! of relaxed increments. The histogram uses power-of-two microsecond
//! buckets — coarse, but percentiles of a service latency distribution
//! only need order-of-magnitude resolution, and recording is one atomic
//! add at any concurrency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 40; // 2⁰ µs … 2³⁹ µs ≈ 9 days; saturating top.

/// Concurrent latency histogram over power-of-two microsecond buckets.
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().max(1) as u64;
        let idx = (63 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the *geometric midpoint* of the
    /// power-of-two bucket containing it, in milliseconds. Zero when no
    /// samples exist.
    ///
    /// Bucket `i` covers `[2^i, 2^{i+1})` µs; reporting its geometric
    /// midpoint `2^{i+1/2}` bounds the multiplicative error at `≤ √2`
    /// in either direction (the bucket's upper bound, by contrast,
    /// overstates the true quantile by up to 2×).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let snapshot: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &count) in snapshot.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_midpoint_ms(idx);
            }
        }
        bucket_midpoint_ms(BUCKETS - 1)
    }
}

/// Live counters of the service. Each is the source of the `metrics`
/// row of its name (`requests_<name>` for the request ledger), and
/// `Service::metrics` says beside that row's push what it counts.
#[derive(Default)]
pub struct SvcStats {
    /// Requests offered to admission, refusals at the door included.
    pub submitted: AtomicU64,
    /// Requests accepted into the queue.
    pub accepted: AtomicU64,
    /// Requests answered `overloaded`, at the door or by a rollback.
    pub rejected: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests that reached a worker and executed; the denominator of
    /// the mean-service-time estimate.
    pub executed: AtomicU64,
    /// Requests cancelled cooperatively before completion.
    pub cancelled: AtomicU64,
    /// Requests whose deadline expired before or during execution.
    pub deadline_expired: AtomicU64,
    /// Requests answered with any other structured error.
    pub errored: AtomicU64,
    /// Requests currently executing on a worker.
    pub in_flight: AtomicU64,
    /// Cumulative busy nanoseconds across workers (drives the
    /// retry-after hint).
    pub busy_nanos: AtomicU64,
    /// Placement candidates score scans accounted for, scored or
    /// skipped; `candidates_scanned − candidates_pruned` were scored:
    /// evaluated, or offered their orbit representative's score.
    pub candidates_scanned: AtomicU64,
    /// Of those, candidates never scored: skipped because they could not
    /// rank, alone, with a subtree or with their orbit.
    pub candidates_pruned: AtomicU64,
    /// Delta-evaluator node solves served from its signature cache.
    pub delta_solve_hits: AtomicU64,
    /// Delta-evaluator node solves run.
    pub delta_solve_misses: AtomicU64,
    /// Members the delta evaluator recomputed rather than reused.
    pub delta_members_recomputed: AtomicU64,
    /// Interim progress frames delivered to progress-opted clients.
    pub progress_frames_sent: AtomicU64,
    /// Submit→response latency distribution.
    pub latency: LatencyHistogram,
}

/// Geometric midpoint of power-of-two µs bucket `idx`, in ms.
fn bucket_midpoint_ms(idx: usize) -> f64 {
    (1u64 << idx) as f64 * std::f64::consts::SQRT_2 / 1000.0
}

/// Seed for the mean-service-time estimate before any request finishes
/// (see [`SvcStats::mean_service_time_or`]).
pub const COLD_START_SERVICE_TIME: Duration = Duration::from_millis(25);

impl SvcStats {
    /// Mean execution time of finished requests, or `fallback` while no
    /// sample exists yet. The fallback keeps the overload retry hint
    /// proportional to backlog at cold start instead of collapsing to
    /// the 1 ms floor (a thundering-herd invitation).
    ///
    /// Only requests that genuinely executed count: jobs that expire or
    /// cancel while still queued drain in near-zero time, and letting
    /// them into the denominator dragged the mean — and with it the
    /// overload retry hint — back toward that same floor.
    pub fn mean_service_time_or(&self, fallback: Duration) -> Duration {
        let executed = self.executed.load(Ordering::Relaxed);
        if executed == 0 {
            return fallback;
        }
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed) / executed)
    }
}

/// Point-in-time metrics: the ordered `(wire name, value)` rows of a
/// `metrics` reply. `Service::metrics` pushes every row of a primary and
/// writes each row's meaning beside its push; a standby's image pushes
/// its own `standby_*` rows the same way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot(Vec<(String, f64)>);

/// A row value: counters and gauges as numbers, flags as 0 or 1.
pub(crate) trait RowValue {
    fn into_f64(self) -> f64;
}

impl RowValue for u64 {
    fn into_f64(self) -> f64 {
        self as f64
    }
}

impl RowValue for usize {
    fn into_f64(self) -> f64 {
        self as f64
    }
}

impl RowValue for bool {
    fn into_f64(self) -> f64 {
        f64::from(u8::from(self))
    }
}

impl RowValue for f64 {
    fn into_f64(self) -> f64 {
        self
    }
}

impl MetricsSnapshot {
    /// Appends one row.
    pub(crate) fn push(&mut self, name: impl Into<String>, value: impl RowValue) {
        self.0.push((name.into(), value.into_f64()));
    }

    /// The value of the row named `name`.
    ///
    /// # Panics
    /// When no row has that name: a misspelt or retired row fails
    /// loudly instead of reading as zero.
    pub fn get(&self, name: &str) -> f64 {
        match self.0.iter().find(|(row, _)| row == name) {
            Some(&(_, value)) => value,
            None => panic!("no metrics row named '{name}'"),
        }
    }

    /// The rows in wire order — what the `metrics` response carries.
    pub fn all_rows(self) -> Vec<(String, f64)> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // bucket 2⁶ = 64–128 µs
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50)); // 2¹⁵ µs bucket: 32.8–65.5 ms
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        assert!((0.064..0.128).contains(&p50), "p50 {p50}ms must sit inside the 100µs bucket");
        let p99 = h.quantile_ms(0.99);
        assert!((32.768..65.536).contains(&p99), "p99 {p99}ms must sit inside the 50ms bucket");
        assert!(h.quantile_ms(0.50) <= h.quantile_ms(0.95));
        assert!(h.quantile_ms(0.95) <= h.quantile_ms(0.99));
    }

    #[test]
    fn quantiles_stay_within_the_true_bucket_bounds() {
        // Regression: quantile_ms used to return the bucket's *upper*
        // bound, overstating every percentile by up to 2×. A uniform
        // burst of known-latency samples must now report quantiles
        // within the true bounds of the bucket holding them.
        let h = LatencyHistogram::default();
        for _ in 0..1000 {
            h.record(Duration::from_micros(300)); // bucket 2⁸ = 256–512 µs
        }
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let ms = h.quantile_ms(q);
            assert!(
                (0.256..0.512).contains(&ms),
                "q={q}: {ms}ms escapes the [0.256, 0.512)ms bucket"
            );
        }
        // And the documented error bound: within √2 of the true 0.3ms.
        let p50 = h.quantile_ms(0.5);
        let ratio = (p50 / 0.3).max(0.3 / p50);
        assert!(ratio <= std::f64::consts::SQRT_2 + 1e-9, "ratio error {ratio} exceeds √2");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ms(0.99), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn sub_microsecond_samples_land_in_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.count(), 1);
        assert!(h.quantile_ms(1.0) <= 0.01);
    }

    #[test]
    fn snapshot_rows_keep_push_order_and_read_by_name() {
        let mut snap = MetricsSnapshot::default();
        snap.push("requests_submitted", 10u64);
        snap.push("queue_capacity", 16usize);
        snap.push("journal_enabled", true);
        snap.push("cache_hit_rate", 0.75);
        snap.push(format!("tenant_{}_admitted", "team-a"), 5u64);
        assert_eq!(snap.get("queue_capacity"), 16.0);
        assert_eq!(snap.get("journal_enabled"), 1.0);
        assert_eq!(snap.get("tenant_team-a_admitted"), 5.0);
        let names: Vec<String> = snap.all_rows().into_iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "requests_submitted",
                "queue_capacity",
                "journal_enabled",
                "cache_hit_rate",
                "tenant_team-a_admitted"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "no metrics row named 'requests_complete'")]
    fn a_misspelt_row_name_fails_loudly() {
        let mut snap = MetricsSnapshot::default();
        snap.push("requests_completed", 3u64);
        snap.get("requests_complete");
    }

    #[test]
    fn mean_service_time_defaults_before_data() {
        let stats = SvcStats::default();
        assert_eq!(
            stats.mean_service_time_or(Duration::from_millis(300)),
            Duration::from_millis(300)
        );
        stats.completed.store(2, Ordering::Relaxed);
        stats.executed.store(2, Ordering::Relaxed);
        stats.busy_nanos.store(4_000_000, Ordering::Relaxed);
        assert_eq!(stats.mean_service_time_or(COLD_START_SERVICE_TIME), Duration::from_millis(2));
        // Once real samples exist the fallback is ignored.
        assert_eq!(stats.mean_service_time_or(Duration::from_secs(9)), Duration::from_millis(2));
    }

    #[test]
    fn queue_drains_do_not_deflate_the_mean_service_time() {
        // Regression: expired/cancelled jobs drain from the queue in
        // near-zero time; counting them in the denominator dragged the
        // mean toward zero and the overload retry hint back to its
        // thundering-herd floor.
        let stats = SvcStats::default();
        stats.executed.store(4, Ordering::Relaxed);
        stats.completed.store(4, Ordering::Relaxed);
        stats.busy_nanos.store(4 * 20_000_000, Ordering::Relaxed);
        let before = stats.mean_service_time_or(COLD_START_SERVICE_TIME);
        assert_eq!(before, Duration::from_millis(20));
        // A flood of queue drains: expired + cancelled pile up, with no
        // extra executed work and no extra busy time.
        stats.deadline_expired.store(100, Ordering::Relaxed);
        stats.cancelled.store(50, Ordering::Relaxed);
        assert_eq!(
            stats.mean_service_time_or(COLD_START_SERVICE_TIME),
            before,
            "drains must not shrink the mean"
        );
    }
}
