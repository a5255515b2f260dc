//! Parallel streaming placement-scan engine.
//!
//! Every candidate scan in this crate — the DES-scored exhaustive
//! search, the service's closed-form `score` path, and the
//! co-scheduler's admission scan — has the same shape: enumerate canonical
//! placements, evaluate each one independently, rank the results. This
//! module is that shape, made reusable and parallel:
//!
//! * **Streaming enumeration.** Candidates come from
//!   [`PlacementIter`], pulled in chunks under a mutex — no
//!   `O(candidates)` materialization up front. A chunk lands in one
//!   flat buffer the worker reuses for every pull, not in a `Vec` per
//!   candidate.
//! * **The caller scans too.** The calling thread is worker 0 and
//!   `std::thread::scope` adds `workers − 1` threads beside it (default
//!   worker count: available parallelism, overridable per call or via
//!   the `ENSEMBLE_SCAN_WORKERS` environment variable). No new
//!   dependencies — plain `std` threads, like the rest of the
//!   workspace. Each worker owns its own evaluation state (built once
//!   by `init`), so the per-candidate cost stays allocation-free.
//! * **Rows only for survivors.** `eval` returns a candidate's floats;
//!   the `keep` step that copies its assignment into a result row runs
//!   only for a candidate the result set admits.
//! * **Deterministic merge.** Every result is tagged with its
//!   enumeration index; the merge sorts by that index, so the output
//!   order **and every float bit** are identical to a serial scan at
//!   any worker count. (Each candidate's evaluation is a pure function
//!   of `(evaluation state, assignment)` — see the determinism suite in
//!   `tests/scan_properties.rs`.)
//! * **Bounded top-K.** With `top_k > 0` each worker keeps its best K
//!   by `(objective desc, enumeration index asc)`; the merged sets
//!   reproduce exactly the first K rows of the full stable ranking, in
//!   `O(K)` memory per worker. Each candidate carries the K-th best
//!   objective known so far (workers trade theirs at every pull), so an
//!   evaluator with a cheap upper bound can skip what cannot rank.
//! * **Cooperative cancellation.** The `cancel` probe is checked
//!   between chunks; once it fires, all workers stop pulling and the
//!   outcome reports how far the scan got.

use std::sync::Mutex;

use crate::delta::DeltaCounters;
use crate::enumerate::{EnsembleShape, PlacementIter};
use crate::search::NodeBudget;

/// Environment variable overriding the default worker count (used by CI
/// to sweep the determinism suite across 1/2/8 workers without an API
/// change). Explicit [`ScanOptions::workers`] wins over it.
pub const SCAN_WORKERS_ENV: &str = "ENSEMBLE_SCAN_WORKERS";

/// Tuning of one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Worker threads. Zero means "auto": the [`SCAN_WORKERS_ENV`]
    /// environment variable if set, else available parallelism.
    pub workers: usize,
    /// Candidates handed to a worker per feed pull. Smaller chunks probe
    /// cancellation more often; larger ones amortize the feed lock.
    pub chunk: usize,
    /// Keep only the best K results (by objective, ties broken by
    /// enumeration index). Zero keeps everything, in enumeration order.
    pub top_k: usize,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions { workers: 0, chunk: 32, top_k: 0 }
    }
}

impl ScanOptions {
    /// The worker count this scan will actually run with.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        if let Some(n) = workers_from_env(std::env::var(SCAN_WORKERS_ENV).ok().as_deref()) {
            return n;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Parses a worker-count override; `None` for unset/unparseable/zero.
fn workers_from_env(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// A point-in-time view of a running scan, handed to the progress
/// observer of [`scan_placements`].
///
/// Produced under the feed lock at the same probe point cancellation
/// uses (between chunks), so successive observations are monotone:
/// `scanned` never decreases and `best_objective` never worsens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanProgress {
    /// Candidates handed to an evaluator so far, across all workers.
    pub scanned: usize,
    /// Best objective seen so far (`None` until a feasible candidate
    /// has been evaluated).
    pub best_objective: Option<f64>,
    /// Worker threads the scan is running with.
    pub workers: usize,
}

/// One scanned candidate: its enumeration index and evaluation result.
#[derive(Debug, Clone)]
pub struct ScanHit<T> {
    /// Position in the canonical enumeration order.
    pub index: usize,
    /// What the evaluator produced.
    pub value: T,
}

/// What a scan produced.
#[derive(Debug, Clone)]
pub struct ScanOutcome<T> {
    /// Evaluation results. With `top_k == 0`: every feasible candidate,
    /// in enumeration order. With `top_k > 0`: the best K, ranked
    /// best-first (objective descending, enumeration index breaking
    /// ties) — exactly the first K rows of the full stable ranking.
    pub results: Vec<ScanHit<T>>,
    /// Candidates handed to an evaluator (cancelled scans stop short of
    /// the full enumeration).
    pub scanned: usize,
    /// Candidates whose evaluator returned a result (`scanned` minus
    /// those filtered out by an evaluator returning `None`).
    pub feasible: usize,
    /// True when the cancellation probe stopped the scan early.
    pub cancelled: bool,
    /// Worker threads the scan ran with.
    pub workers: usize,
    /// Delta-evaluation cache counters, summed across workers: whatever
    /// the scan's `drain` closure extracted from each worker's state.
    pub delta: DeltaCounters,
}

impl<T> ScanOutcome<T> {
    /// The results stripped of their enumeration indexes.
    pub fn into_values(self) -> Vec<T> {
        self.results.into_iter().map(|h| h.value).collect()
    }
}

/// Rank key for top-K selection: better = higher objective, ties broken
/// toward the earlier enumeration index — the same total order a stable
/// descending sort of the full result set induces, which is what makes
/// bounded top-K bit-identical to `full ranking → truncate(K)`.
#[derive(Debug, Clone, Copy)]
struct Rank {
    objective: f64,
    index: usize,
}

impl Rank {
    /// True when `self` ranks strictly worse than `other`.
    fn worse_than(&self, other: &Rank) -> bool {
        match self.objective.total_cmp(&other.objective) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.index > other.index,
        }
    }
}

/// Fixed-capacity keeper of the best K `(Rank, T)` pairs. It remembers
/// which kept entry ranks worst, so a candidate that does not make the
/// cut costs one comparison and its row is never built; only an
/// admission pays the `O(K)` rescan for the new worst (K is a
/// client-requested top-k — tens — so a slot scan beats heap
/// bookkeeping at this size). The rank order is strict and total, so
/// the kept set is the K best of everything offered however it is
/// maintained — what makes bounded top-K bit-identical to
/// `full ranking → truncate(K)`.
struct TopK<T> {
    capacity: usize,
    kept: Vec<(Rank, T)>,
    /// Index into `kept` of the worst entry; meaningful once full.
    worst: usize,
}

impl<T> TopK<T> {
    fn new(capacity: usize) -> Self {
        TopK { capacity, kept: Vec::with_capacity(capacity), worst: 0 }
    }

    /// The worst kept objective once K are kept (a candidate strictly
    /// below it can no longer be admitted), `−∞` before.
    fn floor(&self) -> f64 {
        if self.kept.len() < self.capacity {
            f64::NEG_INFINITY
        } else {
            self.kept[self.worst].0.objective
        }
    }

    /// Keeps `row()` under `rank` if it ranks among the best K so far.
    fn offer(&mut self, rank: Rank, row: impl FnOnce() -> T) {
        if self.kept.len() < self.capacity {
            self.kept.push((rank, row()));
        } else if self.kept[self.worst].0.worse_than(&rank) {
            self.kept[self.worst] = (rank, row());
        } else {
            return;
        }
        if self.kept.len() == self.capacity {
            self.worst = 0;
            for i in 1..self.kept.len() {
                if self.kept[i].0.worse_than(&self.kept[self.worst].0) {
                    self.worst = i;
                }
            }
        }
    }
}

/// The shared chunk feed: workers pull batches of candidates under this
/// mutex; the first worker to observe cancellation (or an evaluation
/// error) trips `stop` so the others cease pulling at their next visit.
/// The feed also aggregates cross-worker progress (`scanned`, `best`):
/// each worker folds its previous batch in when it returns for the next
/// one, which is where the progress observer fires. A bounded scan's
/// workers also trade top-K floors there: `floor` is the highest K-th
/// best any worker has published. The global K-th best is at least as
/// good as any one worker's, so every worker may prune against it.
struct Feed {
    iter: PlacementIter,
    stop: bool,
    scanned: usize,
    best: Option<f64>,
    floor: f64,
}

/// Per-worker scan state returned to the merge step.
struct WorkerOut<T, E> {
    all: Vec<ScanHit<T>>,
    top: Option<TopK<T>>,
    scanned: usize,
    feasible: usize,
    cancelled: bool,
    error: Option<(usize, E)>,
    delta: DeltaCounters,
}

/// One candidate handed to a scan's `eval` and `keep` closures.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// Position in the canonical enumeration order.
    pub index: usize,
    /// Flattened node assignment (member-major, simulation first).
    pub assignment: &'a [usize],
    /// `Some(h)` promises `assignment[..h]` equals the assignment this
    /// worker evaluated immediately before — what
    /// [`crate::DeltaEvaluator::score_delta`] takes. `None` at
    /// enumeration index 0 and whenever the worker's previous candidate
    /// was not the direct predecessor (hints are relative to the
    /// predecessor, and across a chunk boundary the worker's own
    /// previous candidate is some unrelated assignment; the evaluator's
    /// hint-free self-diff is always correct there, just wider).
    pub first_changed: Option<usize>,
    /// The objective a candidate must reach to still rank in a bounded
    /// scan: the best K-th kept objective this worker knows of (its
    /// own, or one another worker published), `−∞` with `top_k == 0`
    /// and until K are kept. A candidate strictly below it cannot enter
    /// the top K, so `eval` may return `Ok(None)` for it unevaluated
    /// ([`crate::DeltaEvaluator::score_above`]).
    pub floor: f64,
}

/// Scans every canonical feasible placement of `shape` under `budget`,
/// in parallel, with deterministic output — the one scan entry point.
///
/// The calling thread is scan worker 0; `workers − 1` scoped threads
/// are spawned beside it (none at one worker), so a caller that would
/// only wait for the scan does a share of it instead.
///
/// * `init` builds one evaluation state per worker (a
///   [`crate::DeltaEvaluator`], or a reusable DES run configuration) —
///   called once per worker, never shared.
/// * `eval` scores one [`Candidate`]: `Ok(Some(scored))` — something
///   small, the candidate's floats — `Ok(None)` to skip it (it still
///   counts as scanned, not as feasible), or `Err` to abort the scan.
///   Under `top_k`, skipping a candidate whose objective is strictly
///   below [`Candidate::floor`] never changes the result.
/// * `keep` turns an admitted candidate and its scored value into the
///   result row (this is where the assignment is copied out). It runs
///   for every feasible candidate of a full scan, and under `top_k`
///   only for one that ranks among the worker's best K so far.
/// * `drain` runs once per worker when it stops pulling, extracting the
///   worker's [`DeltaCounters`] (pass
///   [`crate::DeltaEvaluator::take_counters`], or
///   `|_| DeltaCounters::default()` when the state has none); the sum
///   lands in [`ScanOutcome::delta`].
/// * `objective` extracts the ranking key of a scored value.
/// * `cancel` is polled between chunks on every worker; returning
///   `true` stops the scan and marks the outcome cancelled.
/// * `progress` fires under the feed lock at the same probe point —
///   each time a worker returns for its next chunk and the global
///   candidate count has advanced. Observations are strictly monotone
///   in `scanned`. Keep the observer cheap (push to a channel, update
///   an atomic): it briefly serializes workers. The last chunk of a
///   completed scan is still reported (the worker that drains the
///   iterator folds its final batch in first); use the returned
///   [`ScanOutcome`] for authoritative totals.
///
/// On error the scan stops and the error belonging to the **smallest
/// enumeration index** is returned — the same error a serial scan would
/// have surfaced first, regardless of which worker hit it.
#[allow(clippy::too_many_arguments)]
pub fn scan_placements<S, V, T, E>(
    shape: &EnsembleShape,
    budget: NodeBudget,
    opts: &ScanOptions,
    init: impl Fn() -> S + Sync,
    eval: impl Fn(&mut S, Candidate<'_>) -> Result<Option<V>, E> + Sync,
    keep: impl Fn(&mut S, Candidate<'_>, V) -> T + Sync,
    drain: impl Fn(&mut S) -> DeltaCounters + Sync,
    objective: impl Fn(&V) -> f64 + Sync,
    cancel: impl Fn() -> bool + Sync,
    progress: impl Fn(&ScanProgress) + Sync,
) -> Result<ScanOutcome<T>, E>
where
    T: Send,
    E: Send,
{
    let workers = opts.effective_workers();
    let chunk = opts.chunk.max(1);
    let width = shape.num_components();
    let feed = Mutex::new(Feed {
        iter: PlacementIter::new(shape, budget.max_nodes, budget.cores_per_node),
        stop: false,
        scanned: 0,
        best: None,
        floor: f64::NEG_INFINITY,
    });

    let run_worker = || -> WorkerOut<T, E> {
        let mut state = init();
        let mut out = WorkerOut {
            all: Vec::new(),
            top: (opts.top_k > 0).then(|| TopK::new(opts.top_k)),
            scanned: 0,
            feasible: 0,
            cancelled: false,
            error: None,
            delta: DeltaCounters::default(),
        };
        // One chunk of consecutive candidates, end to end, and each
        // one's first-changed position: refilled in place per pull.
        let mut flat: Vec<usize> = Vec::new();
        let mut hints: Vec<usize> = Vec::new();
        // This worker's contribution since it last folded into the feed.
        let mut batch_scanned = 0usize;
        let mut batch_best: Option<f64> = None;
        // Enumeration index of the candidate this worker evaluated last;
        // first-changed hints are valid only for its direct successor.
        let mut last_index: Option<usize> = None;
        // What a candidate must reach to rank (`Candidate::floor`).
        let mut floor = f64::NEG_INFINITY;
        'pull: loop {
            let first = {
                let mut feed = feed.lock().expect("scan feed lock");
                feed.floor = feed.floor.max(floor);
                floor = feed.floor;
                if batch_scanned > 0 {
                    feed.scanned += batch_scanned;
                    batch_scanned = 0;
                    if let Some(b) = batch_best.take() {
                        feed.best = Some(feed.best.map_or(b, |cur: f64| cur.max(b)));
                    }
                    progress(&ScanProgress {
                        scanned: feed.scanned,
                        best_objective: feed.best,
                        workers,
                    });
                }
                if feed.stop {
                    break;
                }
                if cancel() {
                    feed.stop = true;
                    out.cancelled = true;
                    break;
                }
                let first = feed.iter.yielded();
                if feed.iter.fill_chunk(&mut flat, &mut hints, chunk) == 0 {
                    break;
                }
                first
            };
            for (offset, (assignment, &hint)) in flat.chunks_exact(width).zip(&hints).enumerate() {
                let index = first + offset;
                out.scanned += 1;
                batch_scanned += 1;
                let first_changed =
                    last_index.is_some_and(|last| last + 1 == index).then_some(hint);
                last_index = Some(index);
                let candidate = Candidate { index, assignment, first_changed, floor };
                match eval(&mut state, candidate) {
                    Ok(Some(scored)) => {
                        out.feasible += 1;
                        let obj = objective(&scored);
                        batch_best = Some(batch_best.map_or(obj, |cur| cur.max(obj)));
                        match &mut out.top {
                            Some(top) => {
                                top.offer(Rank { objective: obj, index }, || {
                                    keep(&mut state, candidate, scored)
                                });
                                floor = floor.max(top.floor());
                            }
                            None => {
                                let value = keep(&mut state, candidate, scored);
                                out.all.push(ScanHit { index, value });
                            }
                        }
                    }
                    Ok(None) => {}
                    Err(e) => {
                        out.error = Some((index, e));
                        feed.lock().expect("scan feed lock").stop = true;
                        break 'pull;
                    }
                }
            }
        }
        out.delta = drain(&mut state);
        out
    };

    // The caller is worker 0; a helper's panic resurfaces at its join.
    let mut outputs: Vec<WorkerOut<T, E>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
        let mut outputs = vec![run_worker()];
        outputs.extend(helpers.into_iter().map(|h| h.join().expect("scan worker panicked")));
        outputs
    });

    // Propagate the error a serial scan would have hit first.
    let mut first_error: Option<(usize, E)> = None;
    for out in &mut outputs {
        if let Some((index, _)) = &out.error {
            let better = first_error.as_ref().is_none_or(|(best, _)| index < best);
            if better {
                first_error = out.error.take();
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }

    let scanned = outputs.iter().map(|o| o.scanned).sum();
    let feasible = outputs.iter().map(|o| o.feasible).sum();
    let cancelled = outputs.iter().any(|o| o.cancelled);
    let mut delta = DeltaCounters::default();
    for out in &outputs {
        delta.absorb(out.delta);
    }
    let results = if opts.top_k > 0 {
        let mut merged: Vec<(Rank, T)> =
            outputs.into_iter().flat_map(|o| o.top.expect("top-k mode").kept).collect();
        merged.sort_by(|(a, _), (b, _)| {
            b.objective.total_cmp(&a.objective).then(a.index.cmp(&b.index))
        });
        merged.truncate(opts.top_k);
        merged.into_iter().map(|(rank, value)| ScanHit { index: rank.index, value }).collect()
    } else {
        let mut merged: Vec<ScanHit<T>> = outputs.into_iter().flat_map(|o| o.all).collect();
        merged.sort_by_key(|h| h.index);
        merged
    };
    Ok(ScanOutcome { results, scanned, feasible, cancelled, workers, delta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn shape() -> EnsembleShape {
        EnsembleShape::uniform(2, 16, 1, 8)
    }

    fn budget() -> NodeBudget {
        NodeBudget { max_nodes: 3, cores_per_node: 32 }
    }

    fn no_counters<S>(_: &mut S) -> DeltaCounters {
        DeltaCounters::default()
    }

    /// A deterministic toy objective so engine tests need no simulator.
    fn toy_objective(assignment: &[usize]) -> f64 {
        assignment.iter().enumerate().map(|(i, &n)| 1.0 / (1.0 + (i * n) as f64)).sum()
    }

    fn full_scan(workers: usize) -> ScanOutcome<(Vec<usize>, f64)> {
        scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers, chunk: 2, top_k: 0 },
            || (),
            |(), c| Ok::<_, ()>(Some((c.assignment.to_vec(), toy_objective(c.assignment)))),
            |_, _, v| v,
            no_counters,
            |(_, obj)| *obj,
            || false,
            |_| {},
        )
        .expect("scan")
    }

    #[test]
    fn results_arrive_in_enumeration_order_at_any_worker_count() {
        let expected = crate::enumerate::enumerate_placements(&shape(), 3, 32);
        for workers in [1, 2, 8] {
            let outcome = full_scan(workers);
            assert_eq!(outcome.workers, workers);
            assert_eq!(outcome.scanned, expected.len());
            assert_eq!(outcome.feasible, expected.len());
            assert!(!outcome.cancelled);
            for (i, hit) in outcome.results.iter().enumerate() {
                assert_eq!(hit.index, i);
                assert_eq!(hit.value.0, expected[i], "workers={workers}");
            }
        }
    }

    #[test]
    fn top_k_equals_first_k_of_the_full_stable_ranking() {
        let full = full_scan(1);
        let mut ranked = full.results.clone();
        ranked.sort_by(|a, b| b.value.1.total_cmp(&a.value.1));
        for workers in [1, 2, 8] {
            for k in [1usize, 2, 3, 100] {
                let outcome = scan_placements(
                    &shape(),
                    budget(),
                    &ScanOptions { workers, chunk: 2, top_k: k },
                    || (),
                    |(), c| Ok::<_, ()>(Some((c.assignment.to_vec(), toy_objective(c.assignment)))),
                    |_, _, v| v,
                    no_counters,
                    |(_, obj)| *obj,
                    || false,
                    |_| {},
                )
                .expect("scan");
                assert_eq!(outcome.results.len(), k.min(ranked.len()));
                for (hit, expect) in outcome.results.iter().zip(&ranked) {
                    assert_eq!(hit.index, expect.index, "workers={workers} k={k}");
                    assert_eq!(hit.value.1.to_bits(), expect.value.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn cancellation_stops_between_chunks() {
        let pulls = AtomicUsize::new(0);
        let outcome = scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers: 1, chunk: 1, top_k: 0 },
            || (),
            |(), c| Ok::<_, ()>(Some(c.assignment.to_vec())),
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || pulls.fetch_add(1, Ordering::SeqCst) >= 2,
            |_| {},
        )
        .expect("scan");
        assert!(outcome.cancelled);
        let total = crate::enumerate::enumerate_placements(&shape(), 3, 32).len();
        assert!(outcome.scanned < total, "{} of {total} scanned", outcome.scanned);
        assert_eq!(outcome.results.len(), outcome.scanned);
    }

    #[test]
    fn first_error_in_enumeration_order_wins() {
        for workers in [1, 4] {
            let err = scan_placements(
                &shape(),
                budget(),
                &ScanOptions { workers, chunk: 1, top_k: 0 },
                || (),
                |(), c| {
                    if c.index >= 1 {
                        Err(c.index)
                    } else {
                        Ok(Some(c.index))
                    }
                },
                |_, _, v| v,
                no_counters,
                |_| 0.0,
                || false,
                |_| {},
            )
            .expect_err("scan must fail");
            assert_eq!(err, 1, "workers={workers}: smallest failing index wins");
        }
    }

    #[test]
    fn infeasible_candidates_count_as_scanned_not_feasible() {
        let outcome = scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers: 2, chunk: 2, top_k: 0 },
            || (),
            |(), c| Ok::<_, ()>((c.index % 2 == 0).then_some(c.index)),
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || false,
            |_| {},
        )
        .expect("scan");
        assert!(outcome.feasible < outcome.scanned);
        assert_eq!(outcome.feasible, outcome.results.len());
    }

    #[test]
    fn progress_observations_are_monotone_and_cover_the_scan() {
        let expected = crate::enumerate::enumerate_placements(&shape(), 3, 32);
        for workers in [1, 2, 8] {
            let seen: Mutex<Vec<ScanProgress>> = Mutex::new(Vec::new());
            let outcome = scan_placements(
                &shape(),
                budget(),
                &ScanOptions { workers, chunk: 2, top_k: 0 },
                || (),
                |(), c| Ok::<_, ()>(Some((c.assignment.to_vec(), toy_objective(c.assignment)))),
                |_, _, v| v,
                no_counters,
                |(_, obj)| *obj,
                || false,
                |p| seen.lock().unwrap().push(*p),
            )
            .expect("scan");
            let seen = seen.into_inner().unwrap();
            assert!(!seen.is_empty(), "workers={workers}: a multi-chunk scan must report");
            let mut last = 0usize;
            let mut last_best = f64::NEG_INFINITY;
            for p in &seen {
                assert!(p.scanned >= last, "scanned must be monotone");
                last = p.scanned;
                let best = p.best_objective.expect("toy eval always feasible");
                assert!(best >= last_best, "best must never worsen");
                last_best = best;
                assert_eq!(p.workers, workers);
            }
            // The final observation covers the whole enumeration (the
            // draining worker folds its last batch in before stopping).
            assert_eq!(last, expected.len());
            assert_eq!(outcome.scanned, expected.len());
        }
    }

    #[test]
    fn cancelled_scans_still_report_progress_up_to_the_stop() {
        let pulls = AtomicUsize::new(0);
        let seen = Mutex::new(Vec::new());
        let outcome = scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers: 1, chunk: 1, top_k: 0 },
            || (),
            |(), c| Ok::<_, ()>(Some(c.assignment.to_vec())),
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || pulls.fetch_add(1, Ordering::SeqCst) >= 3,
            |p: &ScanProgress| seen.lock().unwrap().push(p.scanned),
        )
        .expect("scan");
        assert!(outcome.cancelled);
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        assert!(*seen.last().unwrap() <= outcome.scanned);
    }

    #[test]
    fn delta_hints_only_flow_to_direct_successors_and_counters_sum() {
        for workers in [1usize, 2, 8] {
            for chunk in [1usize, 2, 5] {
                let hinted = AtomicUsize::new(0);
                let outcome = scan_placements(
                    &shape(),
                    budget(),
                    &ScanOptions { workers, chunk, top_k: 0 },
                    || None::<Vec<usize>>,
                    |prev, c| {
                        let a = c.assignment;
                        if let Some(h) = c.first_changed {
                            let p = prev.as_ref().expect("hint implies a predecessor");
                            assert_eq!(p[..h], a[..h], "hint skipped a real change");
                            hinted.fetch_add(1, Ordering::SeqCst);
                        }
                        *prev = Some(a.to_vec());
                        Ok::<_, ()>(Some((a.to_vec(), toy_objective(a))))
                    },
                    |_, _, v| v,
                    |_| DeltaCounters {
                        solve_hits: 1,
                        solve_misses: 2,
                        members_recomputed: 3,
                        pruned: 4,
                    },
                    |(_, obj)| *obj,
                    || false,
                    |_| {},
                )
                .expect("scan");
                // Results are still the full deterministic enumeration.
                let expected = crate::enumerate::enumerate_placements(&shape(), 3, 32);
                assert_eq!(outcome.results.len(), expected.len());
                // One drain per spawned worker, summed into the outcome.
                assert_eq!(outcome.delta.solve_hits, workers as u64);
                assert_eq!(outcome.delta.solve_misses, 2 * workers as u64);
                assert_eq!(outcome.delta.members_recomputed, 3 * workers as u64);
                assert_eq!(outcome.delta.pruned, 4 * workers as u64);
                if workers == 1 {
                    // A serial scan sees every candidate in order: every
                    // candidate after the first carries a hint.
                    assert_eq!(hinted.load(Ordering::SeqCst), expected.len() - 1);
                }
            }
        }
    }

    /// Scans with `objective` as the whole evaluation, counting how
    /// often the row-building step runs.
    fn count_keeps(
        objective: impl Fn(usize) -> Option<f64> + Sync,
        workers: usize,
        top_k: usize,
    ) -> (ScanOutcome<usize>, usize) {
        count_keeps_with(|c| objective(c.index), workers, top_k)
    }

    /// [`count_keeps`] with the whole candidate in view.
    fn count_keeps_with(
        eval: impl Fn(Candidate<'_>) -> Option<f64> + Sync,
        workers: usize,
        top_k: usize,
    ) -> (ScanOutcome<usize>, usize) {
        let keeps = AtomicUsize::new(0);
        let outcome = scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers, chunk: 2, top_k },
            || (),
            |(), c| Ok::<_, ()>(eval(c)),
            |(), c, _| {
                keeps.fetch_add(1, Ordering::SeqCst);
                c.index
            },
            no_counters,
            |obj| *obj,
            || false,
            |_| {},
        )
        .expect("scan");
        (outcome, keeps.into_inner())
    }

    #[test]
    fn keep_runs_only_for_admitted_candidates() {
        let total = crate::enumerate::enumerate_placements(&shape(), 3, 32).len();
        assert!(total > 3);
        // Descending objective: after the first K nothing is admitted.
        let (outcome, keeps) = count_keeps(|i| Some(-(i as f64)), 1, 3);
        assert_eq!(keeps, 3);
        assert_eq!(outcome.results.iter().map(|h| h.value).collect::<Vec<_>>(), [0, 1, 2]);
        // Ascending: every candidate displaces the worst kept one.
        let (outcome, keeps) = count_keeps(|i| Some(i as f64), 1, 3);
        assert_eq!(keeps, total);
        let best: Vec<usize> = outcome.results.iter().map(|h| h.value).collect();
        assert_eq!(best, [total - 1, total - 2, total - 3]);
        // A tie never displaces: the earlier index ranks higher.
        let (outcome, keeps) = count_keeps(|_| Some(1.0), 1, 3);
        assert_eq!(keeps, 3);
        assert_eq!(outcome.results.iter().map(|h| h.index).collect::<Vec<_>>(), [0, 1, 2]);
        // A full scan keeps every feasible candidate, and a skipped
        // candidate is never kept in either mode.
        for top_k in [0, 3] {
            let (outcome, keeps) = count_keeps(|i| (i % 2 == 0).then_some(i as f64), 2, top_k);
            assert_eq!(outcome.feasible, total.div_ceil(2));
            assert!(outcome.results.iter().all(|h| h.value % 2 == 0), "top_k={top_k}");
            if top_k == 0 {
                assert_eq!(keeps, outcome.feasible);
            } else {
                assert!(keeps <= outcome.feasible);
            }
        }
    }

    #[test]
    fn floors_are_the_kth_best_so_far_and_skipping_below_them_changes_nothing() {
        let total = crate::enumerate::enumerate_placements(&shape(), 3, 32).len();
        // Serial, ascending objectives: at index i ≥ K the K-th best of
        // 0..i is i − K; a full scan never has a floor.
        for (top_k, expect) in [(0usize, None), (3, Some(3usize))] {
            count_keeps_with(
                |c| {
                    let want = expect
                        .filter(|&k| c.index >= k)
                        .map_or(f64::NEG_INFINITY, |k| (c.index - k) as f64);
                    assert_eq!(c.floor, want, "index {} top_k {top_k}", c.index);
                    Some(c.index as f64)
                },
                1,
                top_k,
            );
        }
        // Skipping everything strictly below the floor (a perfect bound)
        // returns what evaluating everything returns, at any width.
        let objective = |i: usize| ((i * 7) % 11) as f64;
        for workers in [1usize, 2, 8] {
            for top_k in [1usize, 3, total + 1] {
                let (all, _) = count_keeps(|i| Some(objective(i)), workers, top_k);
                let (pruned, _) = count_keeps_with(
                    |c| Some(objective(c.index)).filter(|&o| o >= c.floor),
                    workers,
                    top_k,
                );
                let ranks = |o: &ScanOutcome<usize>| -> Vec<usize> {
                    o.results.iter().map(|h| h.index).collect()
                };
                assert_eq!(ranks(&pruned), ranks(&all), "workers={workers} top_k={top_k}");
                assert_eq!(pruned.scanned, total);
            }
        }
    }

    #[test]
    fn top_k_edges_one_more_than_feasible_and_an_empty_space() {
        let total = crate::enumerate::enumerate_placements(&shape(), 3, 32).len();
        for workers in [1, 2, 8] {
            let (outcome, _) = count_keeps(|i| Some((i % 5) as f64), workers, 1);
            assert_eq!(outcome.results.len(), 1);
            assert_eq!(outcome.results[0].index, 4, "the earliest of the maxima");
            let (outcome, keeps) = count_keeps(|i| Some((i % 5) as f64), workers, total + 7);
            assert_eq!((outcome.results.len(), keeps), (total, total));
            let ranks: Vec<(usize, usize)> =
                outcome.results.iter().map(|h| (4 - h.index % 5, h.index)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "best first, ties by index");
            // 48 cores never fit one 32-core node: nothing to scan.
            let empty = scan_placements(
                &shape(),
                NodeBudget { max_nodes: 1, cores_per_node: 32 },
                &ScanOptions { workers, chunk: 2, top_k: 1 },
                || (),
                |(), c| Ok::<_, ()>(Some(c.index)),
                |(), _, v| v,
                no_counters,
                |_| 0.0,
                || false,
                |_| panic!("an empty scan has no progress to report"),
            )
            .expect("scan");
            assert_eq!((empty.scanned, empty.feasible, empty.results.len()), (0, 0, 0));
            assert!(!empty.cancelled);
        }
    }

    #[test]
    fn the_caller_is_worker_zero_and_one_worker_spawns_no_thread() {
        let caller = std::thread::current().id();
        for workers in [1usize, 2, 3] {
            let inits = Mutex::new(Vec::new());
            let foreign = AtomicUsize::new(0);
            let note = || {
                if std::thread::current().id() != caller {
                    foreign.fetch_add(1, Ordering::SeqCst);
                }
            };
            scan_placements(
                &shape(),
                budget(),
                &ScanOptions { workers, chunk: 1, top_k: 0 },
                || inits.lock().unwrap().push(std::thread::current().id()),
                |(), c| {
                    note();
                    Ok::<_, ()>(Some(c.index))
                },
                |(), _, v| {
                    note();
                    v
                },
                |()| {
                    note();
                    DeltaCounters::default()
                },
                |_| 0.0,
                || false,
                |_| {},
            )
            .expect("scan");
            let inits = inits.into_inner().unwrap();
            assert_eq!(inits.len(), workers, "one state per worker");
            assert_eq!(inits.iter().filter(|&&id| id == caller).count(), 1, "workers={workers}");
            if workers == 1 {
                assert_eq!(foreign.into_inner(), 0, "a one-worker scan never leaves its caller");
            }
        }
    }

    /// The `eval` prologue of the two-worker tests below: each worker's
    /// first evaluation waits for the other's, so with `chunk: 1` the
    /// caller and the helper are both sure to hold a candidate — neither
    /// can drain the space before the other has started.
    fn meet(barrier: &std::sync::Barrier, met: &mut bool) {
        if !std::mem::replace(met, true) {
            barrier.wait();
        }
    }

    #[test]
    fn a_cancel_seen_by_the_caller_stops_the_helper_too() {
        // Only the caller's probe ever fires, after its first
        // candidate; the helper must stop at its next pull instead of
        // draining the space.
        let caller = std::thread::current().id();
        let on_caller = || std::thread::current().id() == caller;
        let barrier = std::sync::Barrier::new(2);
        let caller_evals = AtomicUsize::new(0);
        let outcome = scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers: 2, chunk: 1, top_k: 0 },
            || false,
            |met, c| {
                meet(&barrier, met);
                if on_caller() {
                    caller_evals.fetch_add(1, Ordering::SeqCst);
                }
                Ok::<_, ()>(Some(c.index))
            },
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || on_caller() && caller_evals.load(Ordering::SeqCst) > 0,
            |_| {},
        )
        .expect("scan");
        assert!(outcome.cancelled);
        assert_eq!(caller_evals.into_inner(), 1);
        assert_eq!(outcome.results.len(), outcome.scanned);
    }

    #[test]
    fn an_error_on_the_caller_and_one_on_the_helper_resolve_by_index() {
        // Both workers fail on their first candidate; whichever thread
        // drew the earlier index, that index's error is the scan's.
        let barrier = std::sync::Barrier::new(2);
        let err = scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers: 2, chunk: 1, top_k: 0 },
            || false,
            |met, c| {
                meet(&barrier, met);
                Err::<Option<usize>, usize>(c.index)
            },
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || false,
            |_| {},
        )
        .expect_err("scan must fail");
        assert_eq!(err, 0);
    }

    #[test]
    #[should_panic(expected = "scan worker panicked")]
    fn a_panic_in_a_helper_resurfaces_on_the_caller() {
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let _ = scan_placements(
            &shape(),
            budget(),
            &ScanOptions { workers: 2, chunk: 1, top_k: 0 },
            || false,
            |met, c| {
                meet(&barrier, met);
                assert!(std::thread::current().id() == caller, "helper evaluation blows up");
                Ok::<_, ()>(Some(c.index))
            },
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || false,
            |_| {},
        );
    }

    #[test]
    fn worker_env_override_parses_strictly() {
        assert_eq!(workers_from_env(None), None);
        assert_eq!(workers_from_env(Some("")), None);
        assert_eq!(workers_from_env(Some("0")), None);
        assert_eq!(workers_from_env(Some("nope")), None);
        assert_eq!(workers_from_env(Some("4")), Some(4));
        assert_eq!(workers_from_env(Some(" 2 ")), Some(2));
    }

    #[test]
    fn explicit_workers_beat_the_default() {
        assert_eq!(ScanOptions { workers: 3, ..Default::default() }.effective_workers(), 3);
        assert!(ScanOptions::default().effective_workers() >= 1);
    }
}
