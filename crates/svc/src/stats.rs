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

/// Live counters of the service (see [`MetricsSnapshot`] for the
/// point-in-time view).
#[derive(Default)]
pub struct SvcStats {
    /// Requests offered to admission. Each is answered in exactly one of
    /// `completed`, `errored`, `rejected`, `cancelled` and
    /// `deadline_expired` — refusals at the door included, whatever the
    /// reply — or is still queued or in flight.
    pub submitted: AtomicU64,
    /// Requests accepted into the queue.
    pub accepted: AtomicU64,
    /// Requests answered `overloaded`: shed at the door, or rolled back
    /// when a co-scheduled job found the worker queue full.
    pub rejected: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests that genuinely reached a worker and executed (as
    /// opposed to draining from the queue already expired/cancelled).
    /// Denominator of the mean-service-time estimate.
    pub executed: AtomicU64,
    /// Requests cancelled cooperatively before completion.
    pub cancelled: AtomicU64,
    /// Requests whose deadline expired before or during execution.
    pub deadline_expired: AtomicU64,
    /// Requests answered with any other structured error (`invalid`,
    /// `shutting_down`, ...).
    pub errored: AtomicU64,
    /// Requests currently executing on a worker.
    pub in_flight: AtomicU64,
    /// Cumulative busy nanoseconds across workers (drives the
    /// retry-after hint).
    pub busy_nanos: AtomicU64,
    /// Placement candidates the scan engine accounted for across all
    /// score requests, evaluated or skipped (cache hits add nothing;
    /// cancelled scans add only what they reached).
    pub candidates_scanned: AtomicU64,
    /// Of those, candidates a bounded (`top_k`) scan skipped unevaluated
    /// because their objective bound could not reach the K-th best —
    /// one leaf at a time or a whole subtree at once:
    /// `candidates_scanned − candidates_pruned` is the scoring work.
    pub candidates_pruned: AtomicU64,
    /// Per-node interference solves served from the delta evaluator's
    /// occupancy-signature cache across all score scans.
    pub delta_solve_hits: AtomicU64,
    /// Per-node interference solves the delta evaluator had to run.
    pub delta_solve_misses: AtomicU64,
    /// Members whose indicator terms the delta evaluator recomputed
    /// (the rest were served from its per-member cache).
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
    /// Mean execution time of finished requests, seeded with
    /// [`COLD_START_SERVICE_TIME`] before the first completion.
    pub fn mean_service_time(&self) -> Duration {
        self.mean_service_time_or(COLD_START_SERVICE_TIME)
    }

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

/// Point-in-time metrics view, exported via `metrics::export::kv_csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests offered to admission.
    pub submitted: u64,
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests shed with `Overloaded`.
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests cancelled before completion.
    pub cancelled: u64,
    /// Requests that hit their deadline.
    pub deadline_expired: u64,
    /// Requests answered with a structured error.
    pub errored: u64,
    /// Requests that genuinely executed on a worker.
    pub executed: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Admission capacity of the queue.
    pub queue_capacity: usize,
    /// Requests executing right now.
    pub in_flight: u64,
    /// Worker pool size.
    pub workers: usize,
    /// Median submit→response latency, milliseconds (geometric midpoint
    /// of the histogram bucket, ≤ √2 ratio error).
    pub latency_p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub latency_p99_ms: f64,
    /// Score-cache hits.
    pub cache_hits: u64,
    /// Score-cache misses.
    pub cache_misses: u64,
    /// Entries resident in the score cache.
    pub cache_entries: usize,
    /// Placement candidates evaluated by the scan engine, cumulative.
    pub candidates_scanned: u64,
    /// Scanned candidates a bounded scan skipped unevaluated, cumulative.
    pub candidates_pruned: u64,
    /// Delta-evaluator per-node solves served from the signature cache.
    pub delta_solve_hits: u64,
    /// Delta-evaluator per-node solves actually run.
    pub delta_solve_misses: u64,
    /// Members the delta evaluator recomputed (vs served from cache).
    pub delta_members_recomputed: u64,
    /// Interim progress frames delivered to progress-opted clients.
    pub progress_frames_sent: u64,
    /// Completed runs held in the attachable-job index.
    pub run_index_entries: usize,
    /// Whether a journal is attached (all `journal_*` rows are zero
    /// when not).
    pub journal_enabled: bool,
    /// Journal records appended since open.
    pub journal_appended: u64,
    /// Journal appends that failed at the I/O layer.
    pub journal_append_errors: u64,
    /// Journal file size, bytes.
    pub journal_bytes: u64,
    /// Journal rotation/compaction passes since open.
    pub journal_rotations: u64,
    /// Score records recovered by the open-time replay.
    pub journal_replayed_scores: u64,
    /// Run records recovered by the open-time replay.
    pub journal_replayed_runs: u64,
    /// Torn/corrupt journal lines the replay dropped.
    pub journal_replay_dropped: u64,
    /// Journal fsync calls that reported failure (counted, never
    /// swallowed).
    pub journal_fsync_errors: u64,
    /// Corrupt journal lines quarantined at open.
    pub journal_quarantined: u64,
    /// Current fencing epoch of the journal.
    pub journal_epoch: u64,
    /// Journal appends rejected because a higher fencing epoch exists
    /// (this service was deposed by a promoted standby).
    pub journal_fenced_appends: u64,
    /// Whether the journal degraded to read-only (fenced, fault-killed,
    /// or past the consecutive-fsync-failure limit).
    pub journal_degraded: bool,
    /// Whether the co-scheduler is enabled (all `cosched_*` rows are
    /// zero when not).
    pub cosched_enabled: bool,
    /// Submit jobs waiting in the co-scheduler admission queue.
    pub cosched_queue_depth: usize,
    /// Reservations currently open in the residency map.
    pub cosched_open_reservations: usize,
    /// Cores committed across all open reservations.
    pub cosched_committed_cores: u64,
    /// Submit jobs placed immediately at admission.
    pub cosched_placed: u64,
    /// Submit jobs queued at admission.
    pub cosched_queued: u64,
    /// Queued jobs started out of FIFO order by backfill.
    pub cosched_backfilled: u64,
    /// Submit jobs shed at a full admission queue.
    pub cosched_shed: u64,
    /// Submit jobs rejected as infeasible on the empty platform.
    pub cosched_infeasible: u64,
    /// Reservations released (completion, failure, or rollback).
    pub cosched_released: u64,
    /// Queued jobs cancelled or expired before placement.
    pub cosched_cancelled: u64,
    /// Per-tenant accounting rows, sorted by tenant name. Requests
    /// without a tenant tag are not listed (the global rows cover them).
    pub tenants: Vec<(String, TenantRow)>,
}

/// Per-tenant request accounting (counted for every request kind, not
/// just submit). The terminal buckets are mutually exclusive, so the
/// conservation invariant holds at every snapshot:
/// `admitted = executed + expired + cancelled + in_queue + in_flight`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantRow {
    /// Requests from this tenant accepted into a queue.
    pub admitted: u64,
    /// Requests from this tenant that genuinely executed.
    pub executed: u64,
    /// Requests from this tenant shed with `Overloaded` (admission-time
    /// only; not part of `admitted`).
    pub shed: u64,
    /// Admitted requests that hit their deadline before executing (or
    /// while executing, when the entry checkpoint caught it).
    pub expired: u64,
    /// Admitted requests cancelled — cooperatively, at shutdown, or by
    /// a post-admission rollback — before executing.
    pub cancelled: u64,
    /// Requests currently queued (gauge).
    pub in_queue: u64,
    /// Requests currently executing on a worker (gauge).
    pub in_flight: u64,
    /// Slot quota applied to this tenant (0 = unlimited).
    pub quota: u64,
    /// Fair-dequeue weight of this tenant's lane.
    pub weight: u64,
    /// Median queue wait of this tenant's dequeued requests, ms.
    pub queue_wait_p50_ms: f64,
    /// 95th-percentile queue wait, ms.
    pub queue_wait_p95_ms: f64,
}

impl MetricsSnapshot {
    /// Cache hit rate in `[0, 1]` (zero before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The snapshot as `(metric, value)` rows, stable order.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("requests_submitted", self.submitted as f64),
            ("requests_accepted", self.accepted as f64),
            ("requests_rejected_overload", self.rejected as f64),
            ("requests_completed", self.completed as f64),
            ("requests_cancelled", self.cancelled as f64),
            ("requests_deadline_expired", self.deadline_expired as f64),
            ("requests_errored", self.errored as f64),
            ("requests_executed", self.executed as f64),
            ("queue_depth", self.queue_depth as f64),
            ("queue_capacity", self.queue_capacity as f64),
            ("in_flight", self.in_flight as f64),
            ("workers", self.workers as f64),
            ("latency_p50_ms", self.latency_p50_ms),
            ("latency_p95_ms", self.latency_p95_ms),
            ("latency_p99_ms", self.latency_p99_ms),
            ("cache_hits", self.cache_hits as f64),
            ("cache_misses", self.cache_misses as f64),
            ("cache_entries", self.cache_entries as f64),
            ("cache_hit_rate", self.cache_hit_rate()),
            ("candidates_scanned", self.candidates_scanned as f64),
            ("candidates_pruned", self.candidates_pruned as f64),
            ("delta_solve_hits", self.delta_solve_hits as f64),
            ("delta_solve_misses", self.delta_solve_misses as f64),
            ("delta_members_recomputed", self.delta_members_recomputed as f64),
            ("progress_frames_sent", self.progress_frames_sent as f64),
            ("run_index_entries", self.run_index_entries as f64),
            ("journal_enabled", f64::from(u8::from(self.journal_enabled))),
            ("journal_appended", self.journal_appended as f64),
            ("journal_append_errors", self.journal_append_errors as f64),
            ("journal_bytes", self.journal_bytes as f64),
            ("journal_rotations", self.journal_rotations as f64),
            ("journal_replayed_scores", self.journal_replayed_scores as f64),
            ("journal_replayed_runs", self.journal_replayed_runs as f64),
            ("journal_replay_dropped", self.journal_replay_dropped as f64),
            ("journal_fsync_errors", self.journal_fsync_errors as f64),
            ("journal_quarantined", self.journal_quarantined as f64),
            ("journal_epoch", self.journal_epoch as f64),
            ("journal_fenced_appends", self.journal_fenced_appends as f64),
            ("journal_degraded", f64::from(u8::from(self.journal_degraded))),
            ("cosched_enabled", f64::from(u8::from(self.cosched_enabled))),
            ("cosched_queue_depth", self.cosched_queue_depth as f64),
            ("cosched_open_reservations", self.cosched_open_reservations as f64),
            ("cosched_committed_cores", self.cosched_committed_cores as f64),
            ("cosched_placed", self.cosched_placed as f64),
            ("cosched_queued", self.cosched_queued as f64),
            ("cosched_backfilled", self.cosched_backfilled as f64),
            ("cosched_shed", self.cosched_shed as f64),
            ("cosched_infeasible", self.cosched_infeasible as f64),
            ("cosched_released", self.cosched_released as f64),
            ("cosched_cancelled", self.cosched_cancelled as f64),
        ]
    }

    /// Every row of [`MetricsSnapshot::rows`] plus eleven
    /// `tenant_<name>_*` rows per tagged tenant — what the wire metrics
    /// response carries. Tenant tags are validated at decode
    /// (`[A-Za-z0-9._-]`, ≤ 64 bytes), so the `tenant_<name>_<counter>`
    /// key grammar stays unambiguous.
    pub fn all_rows(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> =
            self.rows().into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        for (tenant, row) in &self.tenants {
            rows.push((format!("tenant_{tenant}_admitted"), row.admitted as f64));
            rows.push((format!("tenant_{tenant}_executed"), row.executed as f64));
            rows.push((format!("tenant_{tenant}_shed"), row.shed as f64));
            rows.push((format!("tenant_{tenant}_expired"), row.expired as f64));
            rows.push((format!("tenant_{tenant}_cancelled"), row.cancelled as f64));
            rows.push((format!("tenant_{tenant}_queued"), row.in_queue as f64));
            rows.push((format!("tenant_{tenant}_in_flight"), row.in_flight as f64));
            rows.push((format!("tenant_{tenant}_quota"), row.quota as f64));
            rows.push((format!("tenant_{tenant}_weight"), row.weight as f64));
            rows.push((format!("tenant_{tenant}_queue_wait_p50_ms"), row.queue_wait_p50_ms));
            rows.push((format!("tenant_{tenant}_queue_wait_p95_ms"), row.queue_wait_p95_ms));
        }
        rows
    }

    /// CSV rendering through the shared metrics exporter (includes the
    /// per-tenant rows).
    pub fn to_csv(&self) -> String {
        let rows = self.all_rows();
        let borrowed: Vec<(&str, f64)> = rows.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        metrics::export::kv_csv(&borrowed)
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
    fn snapshot_rows_and_hit_rate() {
        let snap = MetricsSnapshot {
            submitted: 10,
            accepted: 8,
            rejected: 2,
            completed: 7,
            cancelled: 0,
            deadline_expired: 1,
            errored: 0,
            executed: 7,
            queue_depth: 0,
            queue_capacity: 16,
            in_flight: 0,
            workers: 2,
            latency_p50_ms: 1.0,
            latency_p95_ms: 4.0,
            latency_p99_ms: 8.0,
            cache_hits: 3,
            cache_misses: 1,
            cache_entries: 1,
            candidates_scanned: 42,
            candidates_pruned: 31,
            delta_solve_hits: 9,
            delta_solve_misses: 3,
            delta_members_recomputed: 27,
            progress_frames_sent: 5,
            run_index_entries: 2,
            journal_enabled: true,
            journal_appended: 12,
            journal_append_errors: 0,
            journal_bytes: 4096,
            journal_rotations: 1,
            journal_replayed_scores: 3,
            journal_replayed_runs: 2,
            journal_replay_dropped: 1,
            journal_fsync_errors: 2,
            journal_quarantined: 1,
            journal_epoch: 3,
            journal_fenced_appends: 0,
            journal_degraded: false,
            cosched_enabled: true,
            cosched_queue_depth: 1,
            cosched_open_reservations: 2,
            cosched_committed_cores: 48,
            cosched_placed: 4,
            cosched_queued: 3,
            cosched_backfilled: 1,
            cosched_shed: 1,
            cosched_infeasible: 0,
            cosched_released: 2,
            cosched_cancelled: 1,
            tenants: vec![
                (
                    "batch".to_string(),
                    TenantRow {
                        admitted: 3,
                        executed: 2,
                        shed: 1,
                        expired: 1,
                        quota: 8,
                        weight: 1,
                        ..TenantRow::default()
                    },
                ),
                (
                    "team-a".to_string(),
                    TenantRow {
                        admitted: 5,
                        executed: 5,
                        weight: 4,
                        queue_wait_p50_ms: 1.5,
                        ..TenantRow::default()
                    },
                ),
            ],
        };
        assert!((snap.cache_hit_rate() - 0.75).abs() < 1e-12);
        let rows = snap.rows();
        assert_eq!(rows.len(), 50);
        let all = snap.all_rows();
        assert_eq!(all.len(), 50 + 22, "eleven rows per tagged tenant");
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("cache_hit_rate,0.75"));
        assert!(csv.contains("candidates_scanned,42"));
        assert!(csv.contains("candidates_pruned,31"));
        assert!(csv.contains("delta_solve_hits,9"));
        assert!(csv.contains("delta_solve_misses,3"));
        assert!(csv.contains("delta_members_recomputed,27"));
        assert!(csv.contains("progress_frames_sent,5"));
        assert!(csv.contains("requests_executed,7"));
        assert!(csv.contains("latency_p95_ms,4"));
        assert!(csv.contains("journal_enabled,1"));
        assert!(csv.contains("journal_replayed_scores,3"));
        assert!(csv.contains("cosched_enabled,1"));
        assert!(csv.contains("cosched_committed_cores,48"));
        assert!(csv.contains("cosched_backfilled,1"));
        assert!(csv.contains("tenant_batch_shed,1"));
        assert!(csv.contains("tenant_batch_expired,1"));
        assert!(csv.contains("tenant_batch_quota,8"));
        assert!(csv.contains("tenant_team-a_admitted,5"));
        assert!(csv.contains("tenant_team-a_weight,4"));
        assert!(csv.contains("tenant_team-a_queue_wait_p50_ms,1.5"));
    }

    #[test]
    fn mean_service_time_defaults_before_data() {
        let stats = SvcStats::default();
        assert_eq!(stats.mean_service_time(), COLD_START_SERVICE_TIME);
        assert_eq!(
            stats.mean_service_time_or(Duration::from_millis(300)),
            Duration::from_millis(300)
        );
        stats.completed.store(2, Ordering::Relaxed);
        stats.executed.store(2, Ordering::Relaxed);
        stats.busy_nanos.store(4_000_000, Ordering::Relaxed);
        assert_eq!(stats.mean_service_time(), Duration::from_millis(2));
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
        let before = stats.mean_service_time();
        assert_eq!(before, Duration::from_millis(20));
        // A flood of queue drains: expired + cancelled pile up, with no
        // extra executed work and no extra busy time.
        stats.deadline_expired.store(100, Ordering::Relaxed);
        stats.cancelled.store(50, Ordering::Relaxed);
        assert_eq!(stats.mean_service_time(), before, "drains must not shrink the mean");
    }
}
