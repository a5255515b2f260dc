//! The service core: a bounded worker pool fed by an admission-controlled
//! queue, with score caching, per-request deadlines, cooperative
//! cancellation, and graceful drain.
//!
//! Life of a request: the front end's router answers `metrics` and
//! `attach` inline and offers the rest to admission. Admission stamps
//! it; a `score` gets its cache keys built there, once, and one whose
//! ranking is cached is answered at that door, on the caller's own
//! thread. Everything else tries the bounded queue — full means an
//! immediate [`Rejected`] with a retry hint (the caller never blocks) —
//! and gets back a [`Pending`] reply handle. A worker pops the job,
//! re-checks deadline and cancellation, executes (a score looks in the
//! memo cache once more before it scans), and sends exactly one
//! [`Response`] to the handle. [`Service::shutdown`] closes admissions,
//! lets workers drain everything already accepted, and joins them.
//!
//! Every step of that life — answered at the door, admitted, started by
//! a worker, settled with its final frame — is counted by one function,
//! `fair::count`, which moves the global counters and the
//! request's tenant row together. The tenant rows live in the admission
//! state with the queue's lanes, under the queue's one lock.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use ensemble_core::WarmupPolicy;
use runtime::{SimRunConfig, WorkloadMap};
use scheduler::{
    CoScheduler, RankError, RankHooks, Ranker, ScanOptions, ScanProgress, SolveCache, WalkCache,
};

use crate::cache::ScoreCache;
use crate::cosched::{Admitted, Cosched, CoschedSvcConfig, Placed, Start, Waiter};
use crate::fair::{Entry, FairQueue, Refusal, Stage, Step, Tagged, TenantPolicy};
use crate::image::{FinishedRun, Image, Window};
use crate::journal::{Journal, JournalConfig, ReplayedReservation};
use crate::protocol::{
    validate_tenant, ErrorKind, Frame, MemberSummary, Progress, ProgressBody, ProgressSpec,
    Ranking, Request, RequestBody, Response, RunRequest, ScoreRequest, SubmitRequest, Workloads,
};
use crate::server::{route, Mount, Routed};
use crate::stats::{MetricsSnapshot, SvcStats, COLD_START_SERVICE_TIME};

/// Tuning of the service.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Worker threads. Zero means "size to host cores minus one".
    pub workers: usize,
    /// Bounded submission-queue capacity.
    pub queue_capacity: usize,
    /// Score-cache capacity (entries).
    pub cache_capacity: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline: Option<Duration>,
    /// Optional on-disk journal. When set, admitted requests and
    /// completed results persist across restarts: the score cache is
    /// warmed and the attachable-run index rebuilt by replay at start.
    /// Compaction keeps `cache_capacity` scores and runs.
    pub journal: Option<JournalConfig>,
    /// Most scan worker threads of a `score` request that names none (a
    /// scan brings in helpers only once its first pull leaves work to
    /// share, and a bounded one only once its caller has handed out
    /// [`scheduler::scan::SOLO_CANDIDATES`] leaves). Zero
    /// means the host's available parallelism; a request carrying its
    /// own nonzero `workers` outranks this default. The co-scheduler's
    /// placement of a `submit` always scans on one thread.
    pub scan_workers: usize,
    /// Optional online co-scheduler. When set, `submit` requests are
    /// placed against live residual capacity before they reach the
    /// worker pool; when `None`, they are answered with an `invalid`
    /// error.
    pub cosched: Option<CoschedSvcConfig>,
    /// Per-tenant admission quotas and fair-dequeue weights. Inactive
    /// (the default) leaves admission and pop order byte-identical to
    /// an untenanted service; the tenant-row cap applies regardless.
    pub tenant_policy: TenantPolicy,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 256,
            default_deadline: None,
            journal: None,
            scan_workers: 0,
            cosched: None,
            tenant_policy: TenantPolicy::default(),
        }
    }
}

/// Cooperative cancellation flag shared between a reply handle and the
/// worker executing the request.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Requests cancellation; workers observe it at their next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Admission refusal returned by [`Service::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// Queue full: shed with a back-off hint.
    Overloaded {
        /// Suggested client back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// The service stopped admitting work.
    ShuttingDown,
}

impl Rejected {
    /// The wire response for this refusal.
    pub fn to_response(&self, id: u64) -> Response {
        match self {
            Rejected::Overloaded { retry_after_ms } => {
                Response::Overloaded { id, retry_after_ms: *retry_after_ms }
            }
            Rejected::ShuttingDown => Response::Error {
                id,
                kind: ErrorKind::ShuttingDown,
                message: "service is shutting down".into(),
            },
        }
    }
}

/// Reply handle for an accepted request. The worker sends zero or more
/// [`Frame::Progress`] frames (only for progress-opted requests)
/// followed by exactly one [`Frame::Final`].
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Frame>,
    cancel: CancelToken,
    /// A co-scheduled submit's own deadline, cleared by the one reap of
    /// the service's wait queue it triggers: on a quiet server nothing
    /// else answers a waiter that expired.
    reap_at: Cell<Option<Instant>>,
    /// The service to reap; weak so an abandoned handle never keeps the
    /// pool alive.
    reaper: Option<Weak<Shared>>,
}

impl Pending {
    /// Blocks until the final response arrives, discarding any interim
    /// progress frames — the drop-in behavior for callers that never
    /// opted in.
    pub fn wait(self) -> Response {
        self.wait_with(|_| {})
    }

    /// Blocks until the final response arrives, handing every interim
    /// progress frame to `on_progress` as it lands.
    pub fn wait_with(self, mut on_progress: impl FnMut(&Progress)) -> Response {
        loop {
            match self.recv_frame() {
                Frame::Final(response) => return response,
                Frame::Progress(p) => on_progress(&p),
            }
        }
    }

    /// Blocks until the next frame (progress or final) arrives. The
    /// streaming front end drains a reply frame-by-frame with this.
    pub fn recv_frame(&self) -> Frame {
        self.next(None).expect("an unbounded receive ends with a frame")
    }

    /// Blocks up to `timeout` for the *final* response, discarding
    /// progress frames; `Err(self)` hands the handle back.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, Pending> {
        let until = Instant::now() + timeout;
        loop {
            match self.next(Some(until)) {
                Some(Frame::Final(response)) => return Ok(response),
                Some(Frame::Progress(_)) => {}
                None => return Err(self),
            }
        }
    }

    /// The one receive: the next frame, or `None` once `until` passes
    /// first. When this job's own deadline passes on the way, the
    /// co-scheduler's wait queue is reaped once, which may answer this
    /// very job.
    fn next(&self, until: Option<Instant>) -> Option<Frame> {
        loop {
            let reap_at = self.reap_at.get();
            let wake = reap_at.into_iter().chain(until).min();
            let received = match wake {
                Some(at) => self.rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => self.rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            };
            match received {
                Ok(frame) => return Some(frame),
                Err(mpsc::RecvTimeoutError::Timeout) if wake == reap_at => {
                    self.reap_at.set(None);
                    if let Some(shared) = self.reaper.as_ref().and_then(Weak::upgrade) {
                        reap_waiting(&shared);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => return None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("worker always responds before exiting")
                }
            }
        }
    }

    /// Requests cooperative cancellation of the pending work. The
    /// response still arrives (as a `cancelled` error if the worker saw
    /// the flag in time, or the real result if it had already finished).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

struct Job {
    request: Request,
    submitted: Instant,
    deadline_at: Option<Instant>,
    cancel: CancelToken,
    reply: mpsc::Sender<Frame>,
    /// A `score`'s cache keys, or why its budget cannot be ranked: what
    /// the door worked out, carried so the worker builds no key again.
    /// `None` for every other kind.
    keys: Option<Result<ScoreKeys, String>>,
    /// Present on `submit` jobs that hold a co-scheduler reservation:
    /// the placement decision the worker runs the ensemble at. The
    /// reservation is released when the worker finishes the job — on
    /// success, failure, cancellation, or deadline drain alike.
    cosched: Option<Placed>,
}

impl Waiter for Job {
    fn deadline_at(&self) -> Option<Instant> {
        self.deadline_at
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

impl Tagged for Job {
    fn tag(&self) -> Option<&str> {
        self.request.tenant.as_deref()
    }
}

struct Shared {
    /// The admission state: the worker queue's lanes, the tenant rows and
    /// the tenant policy, under one lock. Lock order: cosched → queue,
    /// never the reverse, and no lock but the co-scheduler's is held
    /// through a placement scan.
    queue: FairQueue<Job>,
    stats: SvcStats,
    cache: ScoreCache<Ranking>,
    /// Platform/workload tail of every score-cache key (see
    /// [`score_cache_key`]): `[paper, small]`.
    platform_fingerprints: [String; 2],
    /// Node solves that outlive a request, one cache per workload scale
    /// (`[paper, small]`): a solve is a pure function of the platform
    /// and the resident `(workload, cores)` sequence, so later cold
    /// scores reuse what earlier ones solved. Entry-bounded.
    solve_caches: [Arc<SolveCache>; 2],
    /// Bounded walks' subtree counts and orbit decisions, kept across
    /// requests: a pure function of the shape, the node budget and the
    /// member classes, so later cold scores of a shape walk from memory.
    walks: WalkCache,
    /// Cores of the platform node every score is evaluated on: a
    /// `score` budget above it is refused (see [`scheduler::check_budget`]).
    node_cores: u32,
    /// Completed run results by job id (the original request id), the
    /// index behind `attach`. Bounded like the score cache; the journal
    /// rebuilds it across restarts.
    runs: Mutex<Window<u64, FinishedRun>>,
    journal: Option<Journal>,
    workers: usize,
    /// Most scan threads of a `score` whose request names none: the
    /// configured `scan_workers`, else the host's available parallelism
    /// (resolved once, at start).
    scan_workers: usize,
    /// The host's available parallelism: the most scan threads a
    /// request's own `workers` can ask for.
    host_threads: usize,
    cosched: Option<Mutex<Cosched<Job>>>,
    /// Cold-start seed of the retry-after hint (the default deadline
    /// budget when configured).
    hint_fallback: Duration,
}

/// The ensemble provisioning service. Cheap to clone handles are not
/// provided; share it behind an [`Arc`] (the TCP front end does).
pub struct Service {
    shared: Arc<Shared>,
    config: SvcConfig,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Starts the worker pool. Panics if the configured journal cannot
    /// be opened — use [`Service::try_start`] to handle that gracefully.
    pub fn start(config: SvcConfig) -> Service {
        Service::try_start(config).expect("open journal")
    }

    /// Starts the worker pool, opening (and replaying) the journal when
    /// one is configured. Replay warms the score cache — the first
    /// post-restart `score` of a previously-seen query is a hit — and
    /// rebuilds the completed-run index behind `attach`.
    pub fn try_start(mut config: SvcConfig) -> std::io::Result<Service> {
        // The one place the service asks the host its parallelism: a scan
        // handed a width of zero would ask again on every request.
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        if config.workers == 0 {
            config.workers = host_threads.saturating_sub(1).max(1);
        }
        let stats = SvcStats::default();
        // The journal keeps through compaction what the service holds.
        let journal = config.journal.clone().map(|mut journal| {
            journal.retain_scores = config.cache_capacity;
            journal.retain_runs = config.cache_capacity;
            journal
        });
        let (journal, image) = match journal.map(Journal::open).transpose()? {
            Some((journal, image)) => (Some(journal), image),
            None => (None, Image::new(0, 0)),
        };
        // Entries in order of last write: when the replay holds more
        // than a window fits, the newest survive.
        let cache = ScoreCache::new(config.cache_capacity);
        for (key, placements) in image.scores.iter() {
            cache.insert(key.clone(), placements.clone());
        }
        let mut runs = Window::new(config.cache_capacity.max(1));
        for (&job, run) in image.runs.iter() {
            runs.put(job, run.clone());
        }
        let queue = FairQueue::with_policy(config.queue_capacity, config.tenant_policy.clone());
        let cosched = config.cosched.clone().map(|cc| {
            let mut state = Cosched::new(&cc, cosched_base(cc.workloads));
            // Rebuild the residency map from the journaled reservations
            // still open at the last shutdown/crash: capacity committed
            // to jobs the old process never finished stays committed
            // (and visible in metrics) until explicitly released. Their
            // tenants re-occupy quota too — the reserve record's own
            // attribution first, the admit map as the pre-tenant-record
            // fallback.
            for (_, r) in image.reservations.iter() {
                let tenant = r.tenant.clone().or_else(|| image.admit_tenants.get(&r.job).cloned());
                if let Err(e) = state.restore(r, tenant.clone()) {
                    eprintln!("svc cosched: dropped journaled reservation for job {}: {e}", r.job);
                } else if let Some(tenant) = tenant {
                    queue.book(&stats, Some(&tenant), Step::Restore);
                }
            }
            Mutex::new(state)
        });
        let shared = Arc::new(Shared {
            queue,
            stats,
            cache,
            platform_fingerprints: [Workloads::Paper, Workloads::Small].map(platform_fingerprint),
            solve_caches: [Workloads::Paper, Workloads::Small].map(|workloads| {
                let cfg = base_config(ensemble_core::EnsembleSpec::new(Vec::new()), workloads);
                Arc::new(SolveCache::new(&cfg))
            }),
            walks: WalkCache::new(),
            node_cores: base_config(ensemble_core::EnsembleSpec::new(Vec::new()), Workloads::Paper)
                .node_spec
                .cores_per_node(),
            runs: Mutex::new(runs),
            journal,
            workers: config.workers,
            scan_workers: match config.scan_workers {
                0 => host_threads,
                workers => workers,
            },
            host_threads,
            cosched,
            hint_fallback: config.default_deadline.unwrap_or(COLD_START_SERVICE_TIME),
        });
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker"),
            );
        }
        Ok(Service { shared, config, handles: Mutex::new(handles) })
    }

    /// Routes a request as a connection thread does: `metrics`,
    /// `attach` and a `score` whose ranking is cached are answered
    /// inline, `replicate` (a TCP takeover) is refused, and the rest is
    /// offered for admission. Never blocks: a full queue sheds the
    /// request with [`Rejected::Overloaded`].
    pub fn submit(&self, request: Request) -> Result<Pending, Rejected> {
        let reply = match route(Mount::Primary(self), request) {
            Routed::Admitted(pending) => return Ok(pending),
            Routed::Answered(reply) => reply,
            Routed::Replicate(_, id) => {
                let message = "replication streams take over a TCP connection".into();
                Response::Error { id, kind: ErrorKind::Invalid, message }
            }
        };
        match reply {
            Response::Overloaded { retry_after_ms, .. } => {
                Err(Rejected::Overloaded { retry_after_ms })
            }
            Response::Error { kind: ErrorKind::ShuttingDown, .. } => Err(Rejected::ShuttingDown),
            // Any other answer still flows through a reply channel, so
            // the caller's Pending works unchanged.
            reply => {
                let (tx, rx) = mpsc::channel();
                let _ = tx.send(Frame::Final(reply));
                let (reap_at, reaper) = (Cell::new(None), None);
                Ok(Pending { rx, cancel: CancelToken::default(), reap_at, reaper })
            }
        }
    }

    /// The router's admission arm: stamps a request, answers a `score`
    /// whose ranking is cached on the caller's own thread, and offers the
    /// rest to [`admit`]. `Err` is the reply that answered it at the door:
    /// a cached ranking, or a refusal.
    pub(crate) fn offer(&self, mut request: Request) -> Result<Pending, Response> {
        if request.deadline.is_none() {
            request.deadline = self.config.default_deadline;
        }
        let submitted = Instant::now();
        let keys = match &request.body {
            RequestBody::Score(score) => {
                let keys = score_keys(&self.shared, score);
                if let Some(hit) = self.answer_hit(&request, score, &keys, submitted) {
                    return Err(hit);
                }
                Some(keys)
            }
            _ => None,
        };
        let deadline_at = request.deadline.map(|d| submitted + d);
        // Only a co-scheduled submit can wait where no worker sees it.
        let cosched =
            matches!(request.body, RequestBody::Submit(_)) && self.shared.cosched.is_some();
        let reap_at = Cell::new(deadline_at.filter(|_| cosched));
        let reaper = cosched.then(|| Arc::downgrade(&self.shared));
        let (reply, rx) = mpsc::channel();
        let cancel = CancelToken::default();
        let job = Job {
            request,
            submitted,
            deadline_at,
            cancel: cancel.clone(),
            reply,
            keys,
            cosched: None,
        };
        admit(&self.shared, job).map(|()| Pending { rx, cancel, reap_at, reaper })
    }

    /// The door's answer to a `score` whose ranking is cached: the reply,
    /// counted as one hit, one submitted and one completed request, with
    /// no queue slot, no worker, no tenant row and no journal record.
    /// `None` leaves the request to admission: a miss, a budget the
    /// platform cannot rank, and what admission answers otherwise than a
    /// hit would be — a request already past its deadline on arrival, an
    /// unparseable tenant tag, or any score once the service is shutting
    /// down. Only a hit is counted here; a miss is counted by the worker
    /// that looks again.
    fn answer_hit(
        &self,
        request: &Request,
        score: &ScoreRequest,
        keys: &Result<ScoreKeys, String>,
        submitted: Instant,
    ) -> Option<Response> {
        let shared = &*self.shared;
        let answerable = request.deadline != Some(Duration::ZERO)
            && request.tenant.as_deref().is_none_or(|tag| validate_tenant(tag).is_ok())
            && !shared.queue.is_closed();
        let keys = keys.as_ref().ok().filter(|_| answerable)?;
        let ranked = shared.cache.hit(&keys.full, keys.bounded.as_deref())?;
        let latency = submitted.elapsed();
        let reply = Response::ScoreResult {
            id: request.id,
            placements: served_rows(score, &ranked),
            cached: true,
            elapsed_ms: latency.as_secs_f64() * 1e3,
            scan_workers: 0,
            candidates_scanned: 0,
        };
        let step = Step::Door { reply: &reply, latency: Some(latency) };
        shared.queue.book(&shared.stats, None, step);
        Some(reply)
    }

    /// Releases a reservation by job id: the one way to free an orphan
    /// restored from the journal, whose worker died with the old process.
    /// In process only — no CLI flag or wire kind reaches it. Pumps the
    /// wait queue like any completion; false when the job holds none.
    pub fn release_reservation(&self, job: u64) -> bool {
        finish_cosched(&self.shared, job)
    }

    /// Suggested back-off for a request shed now, behind the worker
    /// queue's backlog. Seeded before the first completion so a
    /// cold-start overload still gets a hint proportional to backlog (a
    /// zero-mean estimate told every shed client "retry in 1 ms",
    /// inviting a thundering herd).
    pub fn retry_after_hint_ms(&self) -> u64 {
        hint_ms(&self.shared, self.shared.queue.len() as u64)
    }

    /// Serves an `attach { job }` lookup against the completed-run
    /// index: the stored result re-emitted under the attach request's
    /// own correlation id, or a `not_found` error. The router answers it
    /// inline (like `metrics`) — it never queues, so re-attaching works
    /// even under overload.
    pub fn attach(&self, id: u64, job: u64) -> Response {
        attach_reply(id, job, self.shared.runs.lock().expect("run index lock").get(&job))
    }

    /// Point-in-time metrics: every row of the wire `metrics` reply, in
    /// order, each read straight from its live source. This is the one
    /// place a row is named; the comment beside its push says what it
    /// means.
    pub fn metrics(&self) -> MetricsSnapshot {
        let shared = &*self.shared;
        let s = &shared.stats;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        // Scraping metrics doubles as a liveness tick: on a quiet server
        // nothing else visits the co-scheduler's waiting queue, so dead
        // waiters would hold their quota slots until the next submit.
        // Reaped first, so this snapshot already counts them.
        reap_waiting(shared);
        let mut m = MetricsSnapshot::default();
        // Requests offered to admission, a score answered from the cache
        // at its door included. Each is answered in exactly one of the
        // five reply buckets below, or is still queued or in flight.
        m.push("requests_submitted", load(&s.submitted));
        // Requests accepted into the queue; a score answered at the door
        // never is.
        m.push("requests_accepted", load(&s.accepted));
        // Reply bucket: answered `overloaded`.
        m.push("requests_rejected_overload", load(&s.rejected));
        // Reply bucket: answered successfully.
        m.push("requests_completed", load(&s.completed));
        // Reply bucket: cancelled before completion.
        m.push("requests_cancelled", load(&s.cancelled));
        // Reply bucket: deadline expired before or during execution.
        m.push("requests_deadline_expired", load(&s.deadline_expired));
        // Reply bucket: any other structured error.
        m.push("requests_errored", load(&s.errored));
        // Requests that genuinely executed on a worker; a score answered
        // at the door did not.
        m.push("requests_executed", load(&s.executed));
        // Worker-queue depth and admission capacity.
        m.push("queue_depth", shared.queue.len());
        m.push("queue_capacity", shared.queue.capacity());
        // Requests executing on a worker right now.
        m.push("in_flight", load(&s.in_flight));
        // Worker pool size.
        m.push("workers", shared.workers);
        // Submit→response latency quantiles, ms: the geometric midpoint
        // of the histogram bucket, within a √2 ratio of the truth.
        m.push("latency_p50_ms", s.latency.quantile_ms(0.50));
        m.push("latency_p95_ms", s.latency.quantile_ms(0.95));
        m.push("latency_p99_ms", s.latency.quantile_ms(0.99));
        // Score-cache lookups, resident entries, and the hit rate in
        // [0, 1] (zero before any lookup).
        let (hits, misses) = (shared.cache.hits(), shared.cache.misses());
        m.push("cache_hits", hits);
        m.push("cache_misses", misses);
        m.push("cache_entries", shared.cache.len());
        let lookups = hits + misses;
        m.push("cache_hit_rate", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 });
        // Placement candidates score scans accounted for, scored or
        // skipped; of those, the ones never scored — skipped because
        // they could not rank, with a subtree or with their orbit — so
        // the difference counts evaluated candidates plus copies offered
        // their representative's score.
        m.push("candidates_scanned", load(&s.candidates_scanned));
        m.push("candidates_pruned", load(&s.candidates_pruned));
        // Delta-evaluator node solves served from its signature cache,
        // node solves run, and members recomputed rather than reused.
        m.push("delta_solve_hits", load(&s.delta_solve_hits));
        m.push("delta_solve_misses", load(&s.delta_solve_misses));
        m.push("delta_members_recomputed", load(&s.delta_members_recomputed));
        // Interim progress frames delivered to progress-opted clients.
        m.push("progress_frames_sent", load(&s.progress_frames_sent));
        // Completed runs held in the attachable-job index.
        m.push("run_index_entries", shared.runs.lock().expect("run index lock").len());
        // Whether a journal is attached; every `journal_*` row below is
        // zero when not.
        m.push("journal_enabled", shared.journal.is_some());
        let j = shared.journal.as_ref().map(Journal::stats).unwrap_or_default();
        // Records appended since open, appends that failed at the I/O
        // layer, and the file size in bytes.
        m.push("journal_appended", j.appended);
        m.push("journal_append_errors", j.append_errors);
        m.push("journal_bytes", j.bytes);
        // Rotation/compaction passes since open.
        m.push("journal_rotations", j.rotations);
        // What the open-time replay recovered, and the torn or corrupt
        // lines it dropped.
        m.push("journal_replayed_scores", j.replayed_scores);
        m.push("journal_replayed_runs", j.replayed_runs);
        m.push("journal_replay_dropped", j.replay_dropped);
        // fsync calls that reported failure (counted, never swallowed).
        m.push("journal_fsync_errors", j.fsync_errors);
        // Corrupt lines quarantined at open.
        m.push("journal_quarantined", j.quarantined);
        // Current fencing epoch, and appends refused because a promoted
        // standby holds a higher one.
        m.push("journal_epoch", j.epoch);
        m.push("journal_fenced_appends", j.fenced_appends);
        // Whether the journal degraded to read-only (fenced, fault-killed,
        // or past the consecutive-fsync-failure limit).
        m.push("journal_degraded", j.degraded);
        // Whether the co-scheduler is on; every `cosched_*` row below is
        // zero when not.
        let cosched = shared.cosched.as_ref().map(|c| c.lock().expect("cosched lock"));
        m.push("cosched_enabled", cosched.is_some());
        let sched = cosched.as_ref().map(|state| state.scheduler());
        // Submit jobs waiting in the co-scheduler's admission queue.
        m.push("cosched_queue_depth", sched.map_or(0, CoScheduler::queue_depth));
        // Reservations open in the residency map, and the cores they hold.
        m.push("cosched_open_reservations", sched.map_or(0, |c| c.residency().open()));
        m.push("cosched_committed_cores", sched.map_or(0, |c| c.residency().committed_cores()));
        let c = sched.map(CoScheduler::counters).unwrap_or_default();
        // Submit jobs placed at admission, queued at admission, and
        // started out of FIFO order by backfill.
        m.push("cosched_placed", c.placed);
        m.push("cosched_queued", c.queued);
        m.push("cosched_backfilled", c.backfilled);
        // Submit jobs shed at a full queue, or infeasible on the empty
        // platform.
        m.push("cosched_shed", c.shed);
        m.push("cosched_infeasible", c.infeasible);
        // Reservations released (completion, failure, or rollback), and
        // queued jobs cancelled or expired before placement.
        m.push("cosched_released", c.released);
        m.push("cosched_cancelled", c.cancelled);
        drop(cosched);
        // Eleven rows per tagged tenant, sorted by tag (validated at
        // decode to `[A-Za-z0-9._-]`, so `tenant_<tag>_<counter>` parses
        // one way). Untagged requests appear only in the global rows.
        // The terminal buckets are exclusive: `admitted = executed +
        // expired + cancelled + queued + in_flight` at every quiescent
        // point. Locked per tenant (rows are never removed), so an
        // admission waits for at most one tenant's eleven pushes.
        let tags: Vec<String> = shared.queue.lock().rows.keys().cloned().collect();
        for tag in &tags {
            let state = shared.queue.lock();
            let (t, policy) = (&state.rows[tag], &state.policy);
            // Requests accepted into a queue.
            m.push(format!("tenant_{tag}_admitted"), t.admitted);
            // Admitted requests that genuinely executed.
            m.push(format!("tenant_{tag}_executed"), t.executed);
            // Requests shed `overloaded` at admission (not admitted).
            m.push(format!("tenant_{tag}_shed"), t.shed);
            // Admitted requests that hit their deadline before running.
            m.push(format!("tenant_{tag}_expired"), t.expired);
            // Admitted requests cancelled before running: cooperatively,
            // at shutdown, or by a post-admission rollback.
            m.push(format!("tenant_{tag}_cancelled"), t.cancelled);
            // Gauges: waiting for a worker, and running on one.
            m.push(format!("tenant_{tag}_queued"), t.in_queue);
            m.push(format!("tenant_{tag}_in_flight"), t.in_flight);
            // Slot quota (0 = unlimited) and fair-dequeue weight.
            m.push(format!("tenant_{tag}_quota"), policy.quota_for(tag).unwrap_or(0));
            m.push(format!("tenant_{tag}_weight"), policy.weight_for(tag));
            // Queue-wait quantiles of the tenant's dequeued requests, ms.
            m.push(format!("tenant_{tag}_queue_wait_p50_ms"), t.queue_wait.quantile_ms(0.50));
            m.push(format!("tenant_{tag}_queue_wait_p95_ms"), t.queue_wait.quantile_ms(0.95));
        }
        m
    }

    /// Empties the score cache (benchmark cold path).
    pub fn clear_cache(&self) {
        self.shared.cache.clear();
    }

    /// Point-in-time journal counters, when a journal is configured.
    /// The replication stream reads the fencing epoch and append count
    /// from here for its heartbeat frames.
    pub fn journal_stats(&self) -> Option<crate::journal::JournalStats> {
        self.shared.journal.as_ref().map(|j| j.stats())
    }

    /// Worker pool size.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &SvcConfig {
        &self.config
    }

    /// Graceful shutdown: stop admitting, drain everything accepted,
    /// join the pool. `submit` jobs still waiting in the co-scheduler
    /// queue are answered with `shutting_down` so their callers unblock
    /// (placed jobs drained normally and released their reservations as
    /// the workers finished them). Idempotent.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles lock"));
        for h in handles {
            let _ = h.join();
        }
        if let Some(cosched) = &self.shared.cosched {
            for job in cosched.lock().expect("cosched lock").drain() {
                let reply = Rejected::ShuttingDown.to_response(job.request.id);
                answer_queued(&self.shared, job, reply);
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let waited = job.submitted.elapsed();
        shared.queue.book(&shared.stats, job.tag(), Step::Start { waited });
        let started = Instant::now();
        let (response, executed) = execute(shared, &job);
        let busy = executed.then(|| started.elapsed());
        let from = Stage::Worker { busy, latency: job.submitted.elapsed() };
        shared.queue.book(&shared.stats, job.tag(), Step::Settle { reply: &response, from });
        // Completed runs become attachable by their job id (the request
        // id), and durable when a journal is attached.
        if let Some(run) = FinishedRun::of(&response) {
            let job_id = job.request.id;
            shared.runs.lock().expect("run index lock").put(job_id, run);
            if let Some(journal) = &shared.journal {
                journal.append_run(job_id, &response);
            }
        }
        // A co-scheduled job releases its reservation no matter how it
        // finished — success, failure, cancellation, or deadline drain.
        // Leaking capacity on the error paths is exactly the bug the
        // release-on-every-exit rule exists to prevent. Released
        // *before* the final frame so a client that has seen its result
        // also sees the capacity freed (and an identical serial request
        // stream observes an identical residency at every admission).
        if job.cosched.is_some() {
            finish_cosched(shared, job.request.id);
        }
        // The receiver may be gone (client disconnected) — that is fine.
        let _ = job.reply.send(Frame::Final(response));
    }
}

/// Answers a job that was admitted but never reached a worker.
fn answer_queued(shared: &Shared, job: Job, reply: Response) {
    let from = Stage::Queued;
    shared.queue.book(&shared.stats, job.tag(), Step::Settle { reply: &reply, from });
    let _ = job.reply.send(Frame::Final(reply));
}

/// Suggested back-off for a shed request: `backlog` jobs ahead of it —
/// the worker queue's, or a quota'd tenant's own occupancy — plus
/// itself, spread over the pool at the observed mean service time.
/// Before any request has finished the mean is seeded with the default
/// deadline budget (or [`COLD_START_SERVICE_TIME`]), so a cold-start
/// overload still produces a hint proportional to backlog. Computed in
/// nanoseconds so sub-ms means still scale with backlog instead of
/// truncating to zero.
fn hint_ms(shared: &Shared, backlog: u64) -> u64 {
    let mean = shared.stats.mean_service_time_or(shared.hint_fallback);
    let per_worker = (backlog + 1).div_ceil(shared.workers as u64);
    (mean.as_nanos() as u64).saturating_mul(per_worker).div_ceil(1_000_000).max(1)
}

/// The one admission gate: `Ok` when the request is admitted — into the
/// worker queue ([`FairQueue::admit`]), or, for a co-scheduled `submit`,
/// by [`place`] — and `Err` with the reply that answers it at the door
/// otherwise. Either way it is counted before this returns.
fn admit(shared: &Shared, job: Job) -> Result<(), Response> {
    let id = job.request.id;
    // Wire requests were validated at decode; in-process callers get the
    // same rule here, so an unparseable tag can never reach the tenant
    // rows (or mint an unbounded metrics row).
    let tag = job.request.tenant.as_deref().map(validate_tenant);
    let unfit = match (tag, &job.request.body, &shared.cosched) {
        (Some(Err(message)), ..) => Some(message),
        (_, RequestBody::Submit(_), None) => {
            Some("submit requires the co-scheduler (start the service with --cosched)".to_string())
        }
        _ => None,
    };
    if let Some(message) = unfit {
        let reply = Response::Error { id, kind: ErrorKind::Invalid, message };
        shared.queue.book(&shared.stats, None, Step::Door { reply: &reply, latency: None });
        return Err(reply);
    }
    // Only *admitted* requests are journaled; copied up front because
    // the queue owns the job once pushed.
    let admit_copy = shared.journal.as_ref().map(|_| job.request.clone());
    let reserve = match (&shared.cosched, &job.request.body) {
        (Some(cosched), RequestBody::Submit(_)) => place(shared, cosched, job)?,
        _ => {
            let refuse = |refusal| refused(shared, id, refusal);
            shared.queue.admit(&shared.stats, job, Entry::Fresh, refuse).map_err(|r| r.1)?;
            None
        }
    };
    if let (Some(journal), Some(request)) = (&shared.journal, &admit_copy) {
        journal.append_admit(request);
        if let Some(reserve) = &reserve {
            journal.append_reserve(reserve);
        }
    }
    Ok(())
}

/// The reply to a request the admission state refused: `overloaded`
/// with a hint sized to the backlog ahead of it, or `shutting_down`.
fn refused(shared: &Shared, id: u64, refusal: Refusal) -> Response {
    match refusal {
        Refusal::Overloaded(backlog) => {
            Response::Overloaded { id, retry_after_ms: hint_ms(shared, backlog) }
        }
        Refusal::Closed => Rejected::ShuttingDown.to_response(id),
    }
}

/// Admission of a `submit`: once dead waiters are reaped (so they hold no
/// queue slot or quota ahead of live ones) and its tenant's quota slot
/// is held ([`FairQueue::hold`]), the co-scheduler starts it, queues it
/// when nothing fits, or refuses it, holding only its own lock through
/// the scan. `Ok` carries the reservation record of a start, to journal
/// after the admit record.
fn place(
    shared: &Shared,
    cosched: &Mutex<Cosched<Job>>,
    job: Job,
) -> Result<Option<ReplayedReservation>, Response> {
    let id = job.request.id;
    let RequestBody::Submit(submit) = &job.request.body else { unreachable!("routed on body") };
    let shape = submit.shape.clone();
    let tenant = job.request.tenant.clone();
    let mut state = cosched.lock().expect("cosched lock");
    let now = Instant::now();
    reap(shared, &mut state, now);
    shared.queue.hold(&shared.stats, tenant.as_deref(), |refusal| refused(shared, id, refusal))?;
    let (kind, message) = match state.admit(id, shape, job, now) {
        Ok(Admitted::Start(start)) => {
            return launch(shared, Entry::Held, *start).map(Some).map_err(|refused| {
                state.withdraw(id);
                refused.1
            })
        }
        Ok(Admitted::Queued(depth)) => {
            shared.queue.decided(&shared.stats, tenant.as_deref(), None);
            let job = state.waiter(id).expect("just queued");
            submit_progress(shared, job, Some(depth as u64), None);
            return Ok(None);
        }
        Ok(Admitted::Shed) => {
            let reply = refused(shared, id, Refusal::Overloaded(shared.queue.len() as u64));
            shared.queue.decided(&shared.stats, tenant.as_deref(), Some(&reply));
            return Err(reply);
        }
        Ok(Admitted::Infeasible) => (
            ErrorKind::Invalid,
            "ensemble cannot fit the co-scheduled platform even when idle".to_string(),
        ),
        Err(scheduler::CoschedError::DuplicateJob(job)) => {
            (ErrorKind::Invalid, format!("job {job} already holds a reservation or queue slot"))
        }
        Err(e) => (ErrorKind::Internal, format!("placement scoring failed: {e}")),
    };
    let reply = Response::Error { id, kind, message };
    shared.queue.decided(&shared.stats, tenant.as_deref(), Some(&reply));
    Err(reply)
}

/// The one start path of a co-scheduled submit, at admission and out of
/// the wait queue alike: a job that waited hears its placement, and the
/// job goes to a worker carrying its decision, its wait and the residual
/// its reservation left. `Ok` is the reservation record to journal; on a
/// refused push the caller withdraws the reservation.
fn launch(
    shared: &Shared,
    entry: Entry,
    start: Start<Job>,
) -> Result<ReplayedReservation, Box<(Job, Response)>> {
    let Start { mut job, placed, reserve } = start;
    if placed.waited.is_some() {
        submit_progress(shared, &job, None, Some(placed.decision.assignment.clone()));
    }
    job.cosched = Some(placed);
    let id = job.request.id;
    let refuse = |refusal| refused(shared, id, refusal);
    shared.queue.admit(&shared.stats, job, entry, refuse)?;
    Ok(reserve)
}

/// Sends a progress-opted `submit` its queue depth (on entering the wait
/// queue) or its placement (on leaving it).
fn submit_progress(
    shared: &Shared,
    job: &Job,
    queue_depth: Option<u64>,
    assignment: Option<Vec<usize>>,
) {
    if job.request.progress.is_some() {
        let body = ProgressBody::Submit { queue_depth, assignment };
        send_progress(&shared.stats, &job.reply, job.request.id, body);
    }
}

/// The base platform/workload model the co-scheduler scores candidate
/// placements with (the member shapes come from each submit request).
fn cosched_base(workloads: Workloads) -> SimRunConfig {
    let placeholder = scheduler::EnsembleShape::uniform(1, 16, 1, 8);
    let mut cfg = base_config(placeholder.materialize(&[0; 2]), workloads);
    cfg.n_steps = 6;
    cfg
}

/// Answers every waiting `submit` whose caller cancelled it or whose
/// deadline passed by `now`.
fn reap(shared: &Shared, state: &mut Cosched<Job>, now: Instant) {
    for job in state.reap(now) {
        let dead = checkpoint(&job, || "while queued for co-scheduling".to_string());
        let reply = dead.expect_err("a reaped job was cancelled or expired");
        let reply = reply.to_response(job.request.id);
        answer_queued(shared, job, reply);
    }
}

/// [`reap`]s the co-scheduler's wait queue now, when there is one.
fn reap_waiting(shared: &Shared) {
    if let Some(cosched) = &shared.cosched {
        reap(shared, &mut cosched.lock().expect("cosched lock"), Instant::now());
    }
}

/// Completion hook of a co-scheduled job: release its reservation,
/// journal the release, and start every waiting job the freed capacity
/// lets the scheduler start. False when the job held no reservation.
fn finish_cosched(shared: &Shared, job_id: u64) -> bool {
    let Some(cosched) = &shared.cosched else { return false };
    let mut state = cosched.lock().expect("cosched lock");
    let now = Instant::now();
    reap(shared, &mut state, now);
    let Some(released) = state.release(job_id, now) else { return false };
    // A restored orphan (reservation replayed from the journal with no
    // live caller) occupied its tenant's quota since restart; releasing
    // it retires that occupancy.
    if let Some(tenant) = released.retired {
        shared.queue.book(&shared.stats, Some(&tenant), Step::Retire);
    }
    if let Some(journal) = &shared.journal {
        journal.append_release(job_id);
    }
    let mut starts = VecDeque::from(released.starts);
    while let Some(start) = starts.pop_front() {
        // A started job keeps its tenant's lane: it was admitted when it
        // entered the wait queue, so its dequeue competes fairly against
        // direct traffic of the same tenant.
        let id = start.reserve.job;
        match launch(shared, Entry::Waited, start) {
            Ok(reserve) => {
                if let Some(journal) = &shared.journal {
                    journal.append_reserve(&reserve);
                }
            }
            // Admitted when it entered the wait queue, so the rollback
            // settles it from the queue: never a shed, which only ever
            // counts jobs that never got in. What it gave back goes to
            // the jobs still waiting.
            Err(refused) => {
                starts.extend(state.withdraw_waited(id, now));
                answer_queued(shared, refused.0, refused.1);
            }
        }
    }
    true
}

/// The `attach { job }` reply both mounts give: the run their index
/// holds for `job`, re-emitted under the attach request's own `id`, or
/// `not_found`.
pub(crate) fn attach_reply(id: u64, job: u64, run: Option<&FinishedRun>) -> Response {
    match run {
        Some(run) => run.reply(id),
        None => Response::Error {
            id,
            kind: ErrorKind::NotFound,
            message: format!("no completed run with job id {job}"),
        },
    }
}

enum ExecError {
    Deadline(String),
    Cancelled,
    Invalid(String),
    Internal(String),
}

impl ExecError {
    fn to_response(&self, id: u64) -> Response {
        let (kind, message) = match self {
            ExecError::Deadline(detail) => (ErrorKind::Deadline, detail.clone()),
            ExecError::Cancelled => (ErrorKind::Cancelled, "request cancelled".to_string()),
            ExecError::Invalid(detail) => (ErrorKind::Invalid, detail.clone()),
            ExecError::Internal(detail) => (ErrorKind::Internal, detail.clone()),
        };
        Response::Error { id, kind, message }
    }
}

fn checkpoint(job: &Job, progress: impl Fn() -> String) -> Result<(), ExecError> {
    if job.cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    if let Some(at) = job.deadline_at {
        if Instant::now() >= at {
            return Err(ExecError::Deadline(format!("deadline expired {}", progress())));
        }
    }
    Ok(())
}

/// Runs one job to its final response. The second value reports whether
/// the request body genuinely executed: `false` means the job was
/// drained pre-execution (already expired or cancelled at its entry
/// checkpoint), so its near-zero turnaround must not enter the
/// service-time mean.
fn execute(shared: &Shared, job: &Job) -> (Response, bool) {
    let id = job.request.id;
    let before = match &job.request.body {
        RequestBody::Score(_) => "before evaluation started",
        RequestBody::Run(_) => "before the simulated run started",
        _ => "before the co-scheduled run started",
    };
    // Drained expired/cancelled submits still release their reservation
    // — the worker loop's completion hook runs on every exit path of a
    // co-scheduled job.
    if let Err(e) = checkpoint(job, || before.to_string()) {
        return (e.to_response(id), false);
    }
    // Submit to result, read once the result is in.
    let elapsed_ms = || job.submitted.elapsed().as_secs_f64() * 1e3;
    let result = match &job.request.body {
        RequestBody::Score(score) => {
            execute_score(shared, job, score).map(|out| Response::ScoreResult {
                id,
                placements: out.placements,
                cached: out.cached,
                elapsed_ms: elapsed_ms(),
                scan_workers: out.scan_workers,
                candidates_scanned: out.candidates_scanned,
            })
        }
        RequestBody::Run(run) => {
            execute_run(shared, job, run).map(|(makespan, members)| Response::RunResult {
                id,
                ensemble_makespan: makespan,
                members,
                elapsed_ms: elapsed_ms(),
            })
        }
        RequestBody::Submit(submit) => execute_submit(shared, job, submit),
        // The router answers every other kind without admitting it.
        _ => Err(ExecError::Internal("only score, run and submit requests are admitted".into())),
    };
    (result.unwrap_or_else(|e| e.to_response(id)), true)
}

fn base_config(spec: ensemble_core::EnsembleSpec, workloads: Workloads) -> SimRunConfig {
    let mut cfg = SimRunConfig::paper(spec);
    if workloads == Workloads::Small {
        cfg.workloads = WorkloadMap::small_defaults();
    }
    cfg
}

/// Canonical cache key of a score request under the service's platform.
/// Built from the full query description plus the platform/workload
/// fingerprint — two keys are equal iff closed-form scoring is
/// guaranteed to return bit-identical results (it is deterministic; see
/// the scheduler's determinism tests).
///
/// Every part serializes in a fixed order — in particular the workload
/// map goes through [`WorkloadMap::canonical_fingerprint`], which sorts
/// its per-component override HashMap before rendering. Nothing here may
/// ever iterate a HashMap in hash order: the key doubles as the journal
/// replay key, so a nondeterministic rendering would silently turn both
/// the cache and the restart warm-up into a miss machine.
fn score_cache_key(score: &ScoreRequest, platform_fingerprints: &[String; 2]) -> String {
    format!(
        "score:v2|shape={:?}|max_nodes={}|cores_per_node={}|steps={}{}",
        score.shape.members,
        score.budget.max_nodes,
        score.budget.cores_per_node,
        score.steps,
        per_workloads(platform_fingerprints, score.workloads),
    )
}

/// A score's cache keys: the full ranking's, and for a bounded request
/// its own. A full ranking serves any `top_k` by truncation. A bounded
/// scan holds only its own first K, so it caches under a k-suffixed key
/// that never masquerades as the full result (bounded top-K equals the
/// first K of the stable full ranking, so truncation and bounded scan are
/// byte-identical answers). Either entry answers the request.
struct ScoreKeys {
    full: String,
    bounded: Option<String>,
}

/// The keys of `score`, built once at the door, or why its budget cannot
/// be ranked ([`scheduler::check_budget`]): such a request is refused
/// before any key is built.
fn score_keys(shared: &Shared, score: &ScoreRequest) -> Result<ScoreKeys, String> {
    scheduler::check_budget(&score.shape, score.budget, shared.node_cores)
        .map_err(|e| e.to_string())?;
    let full = score_cache_key(score, &shared.platform_fingerprints);
    let bounded = (score.top_k > 0).then(|| format!("{full}|k={}", score.top_k));
    Ok(ScoreKeys { full, bounded })
}

/// The rows a cached ranking serves `score`: its first `top_k`, or all of
/// them. The reply shares the cached rows and their encoded bytes
/// instead of copying them.
fn served_rows(score: &ScoreRequest, ranked: &Ranking) -> Ranking {
    ranked.prefix(if score.top_k > 0 { score.top_k } else { ranked.len() })
}

/// The entry of a `[paper, small]` pair that `workloads` selects.
fn per_workloads<T>([paper, small]: &[T; 2], workloads: Workloads) -> &T {
    match workloads {
        Workloads::Paper => paper,
        Workloads::Small => small,
    }
}

/// The part of a score-cache key that depends only on the workload
/// scale: the platform every score is evaluated on and the workload
/// map. About a kilobyte of Debug rendering, so it is rendered once per
/// service, not per request.
fn platform_fingerprint(workloads: Workloads) -> String {
    let cfg = base_config(ensemble_core::EnsembleSpec::new(Vec::new()), workloads);
    format!(
        "|wl={:?}|wlmap={}|node={:?}|net={:?}|interf={:?}|bind={:?}",
        workloads,
        cfg.workloads.canonical_fingerprint(),
        cfg.node_spec,
        cfg.network,
        cfg.interference,
        cfg.bind_policy,
    )
}

/// Sends a progress-opted job's interim [`Frame::Progress`] frames at
/// the cadence its [`ProgressSpec`] asks for. Candidate cadence fires
/// when the monotone count crosses into a new `every_candidates` bucket
/// (the scan reports per chunk, so exact multiples are not guaranteed);
/// time cadence fires when `every_ms` has elapsed since the last frame.
/// An empty spec (`"progress": {}`) defaults to the time cadence at
/// [`ProgressSpec::DEFAULT_EVERY_MS`].
struct ProgressEmitter {
    id: u64,
    reply: mpsc::Sender<Frame>,
    every_candidates: Option<u64>,
    every_ms: Option<u64>,
    last_bucket: u64,
    last_sent: Option<Instant>,
}

impl ProgressEmitter {
    fn new(spec: ProgressSpec, job: &Job) -> Self {
        let every_candidates = spec.every_candidates;
        let default_ms = every_candidates.is_none().then_some(ProgressSpec::DEFAULT_EVERY_MS);
        let (id, reply, every_ms) =
            (job.request.id, job.reply.clone(), spec.every_ms.or(default_ms));
        ProgressEmitter { id, reply, every_candidates, every_ms, last_bucket: 0, last_sent: None }
    }

    /// Sends the frame `body` builds when `count`, the job's monotone
    /// progress counter (candidates scanned for `score`, member step
    /// events for `run`), makes one due.
    fn observe(&mut self, count: u64, stats: &SvcStats, body: impl FnOnce() -> ProgressBody) {
        let mut due = false;
        if let Some(n) = self.every_candidates {
            let bucket = count / n.max(1);
            if bucket > self.last_bucket {
                self.last_bucket = bucket;
                due = true;
            }
        }
        if let Some(ms) = self.every_ms {
            due |= self.last_sent.is_none_or(|at| at.elapsed() >= Duration::from_millis(ms));
        }
        if due {
            self.last_sent = Some(Instant::now());
            send_progress(stats, &self.reply, self.id, body());
        }
    }
}

/// Sends one progress frame down a reply channel and counts it. A failed
/// send (the reply handle was dropped) is ignored: the scan's cancel
/// probe, not the sender, decides when to stop.
fn send_progress(stats: &SvcStats, reply: &mpsc::Sender<Frame>, id: u64, body: ProgressBody) {
    if reply.send(Frame::Progress(Progress { id, body })).is_ok() {
        stats.progress_frames_sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// What a score execution produced, beyond the placements themselves.
struct ScoreExec {
    placements: Ranking,
    cached: bool,
    /// Worker threads that scanned; zero on cache hits (no scan ran).
    scan_workers: u64,
    /// Candidates evaluated or skipped; zero on cache hits.
    candidates_scanned: u64,
}

/// What a `score` request's ranking asks of and tells the service: its
/// cancel probe, and — for progress-opted requests — throttled interim
/// frames from the scan's per-chunk hook. The hook runs under the scan's
/// feed lock (worker threads take turns), so the emitter's mutex is
/// uncontended; non-opted requests pay nothing.
struct ScoreHooks<'a> {
    job: &'a Job,
    emitter: Option<Mutex<ProgressEmitter>>,
    stats: &'a SvcStats,
}

impl RankHooks for ScoreHooks<'_> {
    fn cancel(&self) -> bool {
        checkpoint(self.job, String::new).is_err()
    }

    fn progress(&self, p: &ScanProgress) {
        if let Some(emitter) = &self.emitter {
            let scanned = p.scanned as u64;
            let emitter = &mut *emitter.lock().expect("progress emitter lock");
            emitter.observe(scanned, self.stats, || ProgressBody::Score {
                candidates_scanned: scanned,
                best_objective: p.best_objective,
                workers: p.workers as u64,
            });
        }
    }
}

impl From<RankError> for ExecError {
    fn from(e: RankError) -> Self {
        ExecError::Invalid(e.to_string())
    }
}

fn execute_score(shared: &Shared, job: &Job, score: &ScoreRequest) -> Result<ScoreExec, ExecError> {
    let keys = match &job.keys {
        Some(Ok(keys)) => keys,
        Some(Err(why)) => return Err(ExecError::Invalid(why.clone())),
        None => {
            return Err(ExecError::Internal("a score reached a worker without its keys".into()))
        }
    };
    // A miss looks again before it scans: an identical request queued
    // ahead of it may have cached the ranking while it waited. This look
    // is the request's one counted probe.
    if let Some(ranked) = shared.cache.get_either(&keys.full, keys.bounded.as_deref()) {
        return Ok(ScoreExec {
            placements: served_rows(score, &ranked),
            cached: true,
            scan_workers: 0,
            candidates_scanned: 0,
        });
    }

    let placeholder = score.shape.materialize(&vec![0; score.shape.num_components()]);
    let mut cfg = base_config(placeholder, score.workloads);
    cfg.n_steps = score.steps;
    let opts = ScanOptions {
        // A request's `workers` arrives off the wire: it bounds the scan's
        // threads, never past what the host runs at once.
        workers: match score.workers {
            0 => shared.scan_workers,
            asked => asked.min(shared.host_threads),
        },
        top_k: score.top_k,
        ..ScanOptions::default()
    };
    // Each worker scores through its own delta evaluator — bit-identical
    // to scoring from scratch, so cache keys and journal replays are
    // unaffected — which looks a node occupancy no evaluator of this
    // request has seen up in the service's solve cache first (an earlier
    // request has usually solved it); the walk starts from what earlier
    // scans of the shape learned.
    let hooks = ScoreHooks {
        job,
        emitter: job.request.progress.map(|spec| Mutex::new(ProgressEmitter::new(spec, job))),
        stats: &shared.stats,
    };
    let solves = per_workloads(&shared.solve_caches, score.workloads);
    let ranker = Ranker::new(&cfg, &score.shape, solves, Some(&shared.walks), hooks);
    let outcome = ranker.rank(score.budget, &opts)?;
    shared.stats.candidates_scanned.fetch_add(outcome.scanned as u64, Ordering::Relaxed);
    shared.stats.candidates_pruned.fetch_add(outcome.delta.pruned, Ordering::Relaxed);
    shared.stats.delta_solve_hits.fetch_add(outcome.delta.solve_hits, Ordering::Relaxed);
    shared.stats.delta_solve_misses.fetch_add(outcome.delta.solve_misses, Ordering::Relaxed);
    shared
        .stats
        .delta_members_recomputed
        .fetch_add(outcome.delta.members_recomputed, Ordering::Relaxed);
    if outcome.cancelled {
        // The scan stopped between chunks; report which trigger fired
        // (deadline beats cancel in `checkpoint`, matching the serial
        // path's precedence).
        let scanned = outcome.scanned;
        checkpoint(job, || format!("after {scanned} candidates"))?;
        return Err(ExecError::Cancelled);
    }
    let scan_workers = outcome.workers as u64;
    let candidates_scanned = outcome.scanned as u64;
    let ranked = Ranking::from(outcome.into_values());
    let store_key = keys.bounded.as_ref().unwrap_or(&keys.full).clone();
    if let Some(journal) = &shared.journal {
        // The ranking exactly as cached (full, or bounded under its
        // k-suffixed key) — what a replay re-inserts.
        journal.append_score(&store_key, &ranked);
    }
    shared.cache.insert(store_key, ranked.clone());
    Ok(ScoreExec { placements: ranked, cached: false, scan_workers, candidates_scanned })
}

fn execute_run(
    shared: &Shared,
    job: &Job,
    run: &RunRequest,
) -> Result<(f64, Vec<MemberSummary>), ExecError> {
    run.spec.validate(None).map_err(|e| ExecError::Invalid(format!("invalid spec: {e}")))?;
    let mut cfg = base_config(run.spec.clone(), run.workloads);
    cfg.n_steps = run.steps;
    cfg.jitter = run.jitter;
    cfg.seed = run.seed;
    run_and_report(shared, job, cfg)
}

/// Runs a co-scheduled `submit` job at its reserved placement and wraps
/// the run summary with the placement metadata admission decided.
fn execute_submit(
    shared: &Shared,
    job: &Job,
    submit: &SubmitRequest,
) -> Result<Response, ExecError> {
    let cosched = job.cosched.as_ref().ok_or_else(|| {
        ExecError::Internal("submit job reached a worker without a reservation".to_string())
    })?;
    let spec = submit.shape.materialize(&cosched.decision.assignment);
    spec.validate(None)
        .map_err(|e| ExecError::Internal(format!("placed spec failed validation: {e}")))?;
    let mut cfg = base_config(spec, submit.workloads);
    cfg.n_steps = submit.steps;
    cfg.jitter = submit.jitter;
    cfg.seed = submit.seed;
    let (ensemble_makespan, members) = run_and_report(shared, job, cfg)?;
    Ok(Response::SubmitResult {
        id: job.request.id,
        assignment: cosched.decision.assignment.clone(),
        objective: cosched.decision.objective,
        nodes_used: cosched.decision.nodes_used as u64,
        backfilled: cosched.decision.backfilled,
        queue_wait_ms: cosched.waited.map_or(0.0, |waited| waited.as_secs_f64() * 1e3),
        residual: cosched.residual.clone(),
        ensemble_makespan,
        members,
        elapsed_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
    })
}

/// The shared run machinery of `run` and `submit`: simulate `cfg`
/// (streaming member-step progress frames for opted-in requests) and
/// summarize the report.
fn run_and_report(
    shared: &Shared,
    job: &Job,
    cfg: SimRunConfig,
) -> Result<(f64, Vec<MemberSummary>), ExecError> {
    // The DES run itself is not interruptible; deadlines are enforced at
    // the checkpoints around it (and per candidate on the score path).
    // Progress-opted requests observe every member step and stream
    // throttled frames whose headline is the ensemble frontier.
    let mut emitter = job.request.progress.map(|spec| ProgressEmitter::new(spec, job));
    let mut member_steps = vec![0u64; cfg.spec.members.len()];
    let mut events = 0u64;
    let exec = runtime::run_summarized(&cfg, &mut |member, done| {
        let Some(emitter) = &mut emitter else { return };
        if let Some(slot) = member_steps.get_mut(member) {
            *slot = done;
        }
        events += 1;
        // The headline step count is the ensemble frontier — the lowest
        // member step — so it never runs ahead of a straggler.
        emitter.observe(events, &shared.stats, || ProgressBody::Run {
            steps: member_steps.iter().copied().min().unwrap_or(0),
            member_steps: member_steps.to_vec(),
        });
    })
    .map_err(|e| ExecError::Invalid(format!("run failed: {e}")))?;
    checkpoint(job, || "after the simulated run, before reporting".to_string())?;
    let warmup = WarmupPolicy::default();
    let report = runtime::build_summary_report("svc-run", &cfg.spec, &exec, cfg.n_steps, warmup)
        .map_err(|e| ExecError::Internal(format!("report failed: {e}")))?;
    let members = report
        .members
        .iter()
        .map(|m| MemberSummary {
            sigma_star: m.sigma_star,
            efficiency: m.efficiency,
            cp: m.cp,
            makespan: m.makespan,
        })
        .collect();
    Ok((report.ensemble_makespan, members))
}

/// Convenience: score request against the small workloads (tests,
/// benches, examples).
pub fn small_score_request(
    id: u64,
    n: usize,
    sim_cores: u32,
    k: usize,
    ana_cores: u32,
    max_nodes: usize,
) -> Request {
    Request {
        id,
        deadline: None,
        progress: None,
        tenant: None,
        body: RequestBody::Score(ScoreRequest {
            shape: scheduler::EnsembleShape::uniform(n, sim_cores, k, ana_cores),
            budget: scheduler::NodeBudget { max_nodes, cores_per_node: 32 },
            top_k: 0,
            steps: 6,
            workloads: Workloads::Small,
            workers: 0,
        }),
    }
}

/// A `score` that holds a worker until its caller cancels it: eleven
/// 5+3-core members on up to 22 nodes, about 4.5 × 10¹⁵ candidates,
/// `top_k` 1 on one scan thread, so its memory stays constant however
/// long it runs. Its odd core counts keep the members from being
/// declared interchangeable (a socket split sees allocation order), so
/// no orbit reduction shortens its walk: on a 2-core host it was still
/// scanning after 300 s in release and in debug (ten times the longest
/// wait, 30 s, of a test that holds it), with 0.12 % of its space
/// walked in release, and answered a cancel within 0.7 s. Nine 4+4-core
/// members on 18 nodes, whose orbits the walk reduces, finish in 75 ms
/// in release and 0.8 s in debug.
pub fn held_score_request(id: u64) -> Request {
    let mut req = small_score_request(id, 11, 5, 1, 3, 22);
    if let RequestBody::Score(ref mut score) = req.body {
        score.top_k = 1;
        score.workers = 1;
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_core::ConfigId;

    fn tiny_service(workers: usize, queue: usize) -> Service {
        Service::start(SvcConfig {
            workers,
            queue_capacity: queue,
            cache_capacity: 16,
            default_deadline: None,
            journal: None,
            scan_workers: 0,
            cosched: None,
            tenant_policy: TenantPolicy::default(),
        })
    }

    fn run_request(id: u64, steps: u64) -> Request {
        Request {
            id,
            deadline: None,
            progress: None,
            tenant: None,
            body: RequestBody::Run(RunRequest {
                spec: ConfigId::C1_5.build(),
                steps,
                jitter: 0.0,
                seed: 1,
                workloads: Workloads::Small,
            }),
        }
    }

    #[test]
    fn score_request_returns_ranked_placements() {
        let svc = tiny_service(2, 8);
        let pending = svc.submit(small_score_request(9, 2, 16, 1, 8, 3)).unwrap();
        match pending.wait() {
            Response::ScoreResult { id, placements, cached, .. } => {
                assert_eq!(id, 9);
                assert!(!cached);
                assert!(!placements.is_empty());
                for w in placements.windows(2) {
                    assert!(w[0].objective >= w[1].objective, "ranked best-first");
                }
                // The paper's conclusion: the best placement co-locates
                // each member on its own node.
                assert_eq!(placements[0].nodes_used, 2);
            }
            other => panic!("expected score result, got {other:?}"),
        }
    }

    #[test]
    fn identical_scores_hit_the_cache() {
        let svc = tiny_service(2, 8);
        let first = svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait();
        let second = svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap().wait();
        match (&first, &second) {
            (
                Response::ScoreResult { cached: c1, placements: p1, .. },
                Response::ScoreResult { cached: c2, placements: p2, .. },
            ) => {
                assert!(!c1);
                assert!(c2, "second identical query must be served from cache");
                assert_eq!(p1.len(), p2.len());
                for (a, b) in p1.iter().zip(p2) {
                    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.get("cache_hits"), 1.0);
        assert_eq!(m.get("cache_misses"), 1.0);
        assert!((m.get("cache_hit_rate") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_request_summarizes_report() {
        let svc = tiny_service(1, 4);
        match svc.submit(run_request(5, 6)).unwrap().wait() {
            Response::RunResult { id, ensemble_makespan, members, .. } => {
                assert_eq!(id, 5);
                assert!(ensemble_makespan > 0.0);
                assert_eq!(members.len(), 2);
                for m in &members {
                    assert!(m.efficiency > 0.0 && m.efficiency <= 1.0);
                    assert!((m.cp - 1.0).abs() < 1e-12, "C1.5 is fully co-located");
                }
            }
            other => panic!("expected run result, got {other:?}"),
        }
    }

    #[test]
    fn overload_sheds_instead_of_blocking() {
        // One worker held by a scan until it is cancelled; capacity-1
        // queue holds one more; the next submit must shed immediately.
        let svc = tiny_service(1, 1);
        let slow = svc.submit(held_score_request(1)).unwrap();
        // Wait until the held job occupies the worker so queue slots are
        // observable deterministically.
        wait_in_flight(&svc);
        let queued = svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap();
        let before = Instant::now();
        let shed = svc.submit(small_score_request(3, 2, 16, 1, 8, 3));
        assert!(before.elapsed() < Duration::from_millis(100), "shedding must not block");
        match shed {
            Err(Rejected::Overloaded { retry_after_ms }) => assert!(retry_after_ms >= 1),
            other => panic!("expected overload, got {other:?}"),
        }
        slow.cancel();
        assert!(matches!(slow.wait(), Response::Error { kind: ErrorKind::Cancelled, .. }));
        assert!(matches!(queued.wait(), Response::ScoreResult { .. }));
        let m = svc.metrics();
        assert_eq!(m.get("requests_rejected_overload"), 1.0);
        assert_eq!(m.get("requests_accepted"), 2.0);
    }

    #[test]
    fn expired_deadline_is_reported_not_executed() {
        let svc = tiny_service(1, 4);
        let mut req = run_request(1, 6);
        req.deadline = Some(Duration::ZERO);
        match svc.submit(req).unwrap().wait() {
            Response::Error { kind: ErrorKind::Deadline, message, .. } => {
                assert!(message.contains("deadline expired"), "{message}");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(svc.metrics().get("requests_deadline_expired"), 1.0);
    }

    #[test]
    fn cancellation_is_cooperative() {
        let svc = tiny_service(1, 4);
        // Occupy the worker so the target request sits queued when the
        // cancel lands — deterministic cancellation-before-execution.
        let blocker = svc.submit(held_score_request(1)).unwrap();
        let victim = svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap();
        victim.cancel();
        blocker.cancel();
        assert!(matches!(blocker.wait(), Response::Error { kind: ErrorKind::Cancelled, .. }));
        match victim.wait() {
            Response::Error { kind: ErrorKind::Cancelled, .. } => {}
            other => panic!("expected cancelled, got {other:?}"),
        }
        assert_eq!(svc.metrics().get("requests_cancelled"), 2.0);
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let svc = tiny_service(1, 8);
        let mut pendings = Vec::new();
        for i in 0..4 {
            pendings.push(svc.submit(small_score_request(i, 2, 16, 1, 8, 2)).unwrap());
        }
        svc.shutdown();
        // Every accepted request still gets its real answer.
        for p in pendings {
            assert!(matches!(p.wait(), Response::ScoreResult { .. }));
        }
        // New work is refused once shut down.
        assert_eq!(
            svc.submit(small_score_request(99, 2, 16, 1, 8, 2)).err(),
            Some(Rejected::ShuttingDown)
        );
    }

    #[test]
    fn infeasible_budget_is_an_invalid_error() {
        let svc = tiny_service(1, 4);
        // 2×(16+8) cores cannot fit one 32-core node → empty enumeration
        // → empty ranking (not an error), while a malformed spec errors.
        // So does a component no node can hold — the wire bounds cores
        // by u32 only — and it must not cost the one worker.
        for (id, n, sim_cores) in [(1, 2, 16), (2, 1, 70_000)] {
            match svc.submit(small_score_request(id, n, sim_cores, 1, 8, 1)).unwrap().wait() {
                Response::ScoreResult { placements, .. } => assert!(placements.is_empty()),
                other => panic!("expected empty score result, got {other:?}"),
            }
        }
        match svc.submit(small_score_request(3, 1, 16, 1, 8, 1)).unwrap().wait() {
            Response::ScoreResult { placements, .. } => assert!(!placements.is_empty()),
            other => panic!("expected score result, got {other:?}"),
        }
    }

    #[test]
    fn a_budget_wider_than_the_node_is_invalid_whatever_the_top_k() {
        // Cori nodes have 2 × 16 cores. A 64-core budget packs nodes the
        // solve cannot hold; the request is refused before any scan, so
        // a bounded scan and a full ranking give the same reply.
        let svc = tiny_service(1, 4);
        let replies: Vec<(ErrorKind, String)> = [0usize, 10]
            .into_iter()
            .map(|top_k| {
                let mut req = small_score_request(1, 2, 16, 1, 8, 3);
                if let RequestBody::Score(ref mut s) = req.body {
                    s.budget.cores_per_node = 64;
                    s.top_k = top_k;
                }
                match svc.submit(req).unwrap().wait() {
                    Response::Error { kind, message, .. } => (kind, message),
                    other => panic!("top_k {top_k}: expected an error, got {other:?}"),
                }
            })
            .collect();
        assert_eq!(replies[0], replies[1]);
        let (kind, message) = &replies[0];
        assert_eq!(*kind, ErrorKind::Invalid);
        assert!(message.contains("cores_per_node 64") && message.contains("32"), "{message}");
        let m = svc.metrics();
        assert_eq!(
            (m.get("candidates_scanned"), m.get("cache_misses")),
            (0.0, 0.0),
            "refused before key or scan"
        );
    }

    #[test]
    fn cold_start_retry_hint_scales_with_backlog() {
        // Regression: before any request completes, the hint used to
        // collapse to 1 ms regardless of backlog (zero observed mean ×
        // anything = 0, floored to 1) — every shed client retried at
        // once. The cold-start seed must make it scale with queue depth.
        let svc = tiny_service(1, 8);
        let empty_hint = svc.retry_after_hint_ms();
        let cold_ms = COLD_START_SERVICE_TIME.as_millis() as u64;
        assert!(empty_hint >= cold_ms, "empty-queue cold hint {empty_hint} < seed {cold_ms}");
        // Occupy the single worker so queued work stays queued.
        let blocker = svc.submit(held_score_request(1)).unwrap();
        wait_in_flight(&svc);
        let mut queued = Vec::new();
        for i in 0..8 {
            queued.push(svc.submit(small_score_request(10 + i, 2, 16, 1, 8, 3)).unwrap());
        }
        let full_hint = svc.retry_after_hint_ms();
        assert!(
            full_hint >= empty_hint.saturating_mul(8),
            "hint must scale with backlog: empty {empty_hint}ms, 8-deep {full_hint}ms"
        );
        blocker.cancel();
        assert!(matches!(blocker.wait(), Response::Error { kind: ErrorKind::Cancelled, .. }));
        for p in queued {
            assert!(matches!(p.wait(), Response::ScoreResult { .. }));
        }
    }

    #[test]
    fn deadline_budget_seeds_the_cold_start_hint() {
        let svc = Service::start(SvcConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            default_deadline: Some(Duration::from_secs(2)),
            journal: None,
            scan_workers: 0,
            cosched: None,
            tenant_policy: TenantPolicy::default(),
        });
        assert!(
            svc.retry_after_hint_ms() >= 2000,
            "a configured deadline budget outranks the generic cold-start seed"
        );
    }

    #[test]
    fn independently_built_identical_queries_share_a_cache_key() {
        // Byte-identical keys from independently built (but equal)
        // specs: nothing in the key builder may iterate a HashMap in
        // hash order. String equality is byte equality.
        let key_of = || {
            let req = small_score_request(1, 2, 16, 1, 8, 3);
            let RequestBody::Score(score) = req.body else { unreachable!() };
            score_cache_key(&score, &[Workloads::Paper, Workloads::Small].map(platform_fingerprint))
        };
        let (a, b) = (key_of(), key_of());
        assert_eq!(a, b);
        assert!(a.contains("wlmap="), "key carries the workload-map fingerprint: {a}");
    }

    #[test]
    fn attach_replays_a_completed_run_in_process() {
        let svc = tiny_service(1, 4);
        let done = svc.submit(run_request(41, 6)).unwrap().wait();
        let Response::RunResult { ensemble_makespan, .. } = &done else {
            panic!("expected run result, got {done:?}");
        };
        match svc.attach(7, 41) {
            Response::RunResult { id, ensemble_makespan: m, .. } => {
                assert_eq!(id, 7, "attach answers under its own correlation id");
                assert_eq!(m.to_bits(), ensemble_makespan.to_bits());
            }
            other => panic!("expected run result, got {other:?}"),
        }
        match svc.attach(8, 999) {
            Response::Error { kind: ErrorKind::NotFound, message, .. } => {
                assert!(message.contains("999"), "{message}");
            }
            other => panic!("expected not_found, got {other:?}"),
        }
        assert_eq!(svc.metrics().get("run_index_entries"), 1.0);
    }

    /// A score request over a space no scan finishes within a test's
    /// patience, in any build: 12 four-core components on up to 12
    /// nodes are the set partitions of 12 with no block above 8 (a
    /// 32-core node holds 8 of them).
    fn big_score_request(id: u64) -> Request {
        Request {
            id,
            deadline: None,
            progress: None,
            tenant: None,
            body: RequestBody::Score(ScoreRequest {
                shape: scheduler::EnsembleShape::uniform(6, 4, 1, 4),
                budget: scheduler::NodeBudget { max_nodes: 12, cores_per_node: 32 },
                top_k: 0,
                steps: 6,
                workloads: Workloads::Small,
                workers: 1,
            }),
        }
    }

    /// The size of `big_score_request`'s space: Bell(12) = 4 213 597
    /// partitions, less the 1 245 with a block of 9 or more
    /// (220·5 + 66·2 + 12 + 1).
    const BIG_SPACE_TOTAL: u64 = 4_212_352;

    /// Waits until a worker has picked up a job.
    fn wait_in_flight(svc: &Service) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.metrics().get("in_flight") == 0.0 {
            assert!(Instant::now() < deadline, "worker never picked up the job");
            std::thread::yield_now();
        }
    }

    /// A score over a ~4k-candidate space: big enough for dozens of
    /// per-64-candidate progress frames, small enough that a full debug
    /// scan finishes in seconds on one core.
    fn medium_score_request(id: u64) -> Request {
        Request {
            id,
            deadline: None,
            progress: None,
            tenant: None,
            body: RequestBody::Score(ScoreRequest {
                shape: scheduler::EnsembleShape::uniform(4, 4, 1, 4),
                budget: scheduler::NodeBudget { max_nodes: 6, cores_per_node: 32 },
                top_k: 0,
                steps: 6,
                workloads: Workloads::Small,
                workers: 1,
            }),
        }
    }

    fn medium_space_total() -> usize {
        scheduler::enumerate_placements(&scheduler::EnsembleShape::uniform(4, 4, 1, 4), 6, 32).len()
    }

    #[test]
    fn deadline_expiring_mid_scan_stops_the_scan() {
        let svc = tiny_service(1, 4);
        let mut req = big_score_request(1);
        // Long enough to survive submit→pop, far too short for the full
        // enumeration.
        req.deadline = Some(Duration::from_millis(40));
        match svc.submit(req).unwrap().wait() {
            Response::Error { kind: ErrorKind::Deadline, message, .. } => {
                assert!(message.contains("deadline expired"), "{message}");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        let scanned = svc.metrics().get("candidates_scanned") as u64;
        let total = BIG_SPACE_TOTAL;
        assert!(
            scanned < total / 2,
            "the scan must stop well short of the full space: {scanned} of {total}"
        );
        assert_eq!(svc.metrics().get("requests_deadline_expired"), 1.0);
    }

    #[test]
    fn cancellation_mid_scan_stops_the_scan() {
        let svc = tiny_service(1, 4);
        let pending = svc.submit(big_score_request(2)).unwrap();
        // Wait until the scan is executing, then cancel: the probe
        // between chunks must abandon the remaining space.
        wait_in_flight(&svc);
        pending.cancel();
        match pending.wait() {
            Response::Error { kind: ErrorKind::Cancelled, .. } => {}
            other => panic!("expected cancelled, got {other:?}"),
        }
        let scanned = svc.metrics().get("candidates_scanned") as u64;
        let total = BIG_SPACE_TOTAL;
        assert!(scanned < total, "cancel must stop before the full space: {scanned} of {total}");
        assert_eq!(svc.metrics().get("requests_cancelled"), 1.0);
    }

    #[test]
    fn score_responses_carry_scan_metadata() {
        let svc = tiny_service(1, 4);
        let total =
            scheduler::enumerate_placements(&scheduler::EnsembleShape::uniform(2, 16, 1, 8), 3, 32)
                .len() as u64;
        match svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { cached, scan_workers, candidates_scanned, .. } => {
                assert!(!cached);
                assert!(scan_workers >= 1);
                assert_eq!(candidates_scanned, total);
            }
            other => panic!("expected score result, got {other:?}"),
        }
        assert_eq!(svc.metrics().get("candidates_scanned"), total as f64);
        // A cache hit scans nothing and says so.
        match svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { cached, scan_workers, candidates_scanned, .. } => {
                assert!(cached);
                assert_eq!(scan_workers, 0);
                assert_eq!(candidates_scanned, 0);
            }
            other => panic!("expected score result, got {other:?}"),
        }
        assert_eq!(svc.metrics().get("candidates_scanned"), total as f64, "hits add nothing");
    }

    #[test]
    fn bounded_scores_prune_what_cannot_rank_and_full_rankings_prune_nothing() {
        let svc = tiny_service(1, 4);
        let total = medium_space_total() as u64;
        let placements = |top_k: usize| {
            let mut req = medium_score_request(top_k as u64);
            if let RequestBody::Score(ref mut s) = req.body {
                s.top_k = top_k;
            }
            match svc.submit(req).unwrap().wait() {
                Response::ScoreResult { placements, cached, candidates_scanned, .. } => {
                    assert!(!cached);
                    assert_eq!(candidates_scanned, total, "pruned candidates still count");
                    placements
                }
                other => panic!("expected score result, got {other:?}"),
            }
        };
        // Bounded first: a full ranking in the cache would answer it.
        let bounded = placements(10);
        let pruned = svc.metrics().get("candidates_pruned") as u64;
        assert!(pruned > total / 2, "most of the space cannot rank: {pruned} of {total}");
        // `pruned` counts leaves, whole skipped subtrees and orbits alike,
        // so what is left of the space is exactly what the scan evaluated
        // or offered a shared score: the same serial scan, run here,
        // scores that many.
        let req = medium_score_request(10);
        let RequestBody::Score(score) = &req.body else { unreachable!() };
        let mut cfg = base_config(score.shape.materialize(&[0; 8]), score.workloads);
        cfg.n_steps = score.steps;
        let solves = Arc::new(SolveCache::new(&cfg));
        let opts = ScanOptions { workers: 1, top_k: 10, ..ScanOptions::default() };
        let walks = WalkCache::new();
        let ranker = Ranker::new(&cfg, &score.shape, &solves, Some(&walks), ());
        let Ok(outcome) = ranker.rank(score.budget, &opts) else {
            panic!("the scan the service just ran fails here");
        };
        assert_eq!(total - pruned, outcome.feasible as u64, "scanned − pruned is what was scored");
        let full = placements(0);
        assert_eq!(
            svc.metrics().get("candidates_pruned"),
            pruned as f64,
            "a full ranking prunes nothing"
        );
        assert_eq!(bounded.len(), 10);
        for (b, f) in bounded.iter().zip(full.iter()) {
            assert_eq!(b.assignment, f.assignment);
            assert_eq!(b.objective.to_bits(), f.objective.to_bits());
        }
    }

    #[test]
    fn score_scans_report_delta_cache_counters() {
        let svc = tiny_service(1, 4);
        let m0 = svc.metrics();
        assert_eq!(
            (
                m0.get("delta_solve_hits"),
                m0.get("delta_solve_misses"),
                m0.get("delta_members_recomputed")
            ),
            (0.0, 0.0, 0.0)
        );
        match svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { cached, .. } => assert!(!cached),
            other => panic!("expected score result, got {other:?}"),
        }
        let m1 = svc.metrics();
        assert!(m1.get("delta_solve_misses") > 0.0, "an uncached scan must run solves");
        assert!(
            m1.get("delta_solve_hits") > 0.0,
            "the enumeration revisits occupancy signatures — some solves must be cache hits"
        );
        assert!(m1.get("delta_members_recomputed") > 0.0);
        // A score-cache hit runs no scan: counters must not move.
        match svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { cached, .. } => assert!(cached),
            other => panic!("expected score result, got {other:?}"),
        }
        let m2 = svc.metrics();
        assert_eq!(m2.get("delta_solve_hits"), m1.get("delta_solve_hits"));
        assert_eq!(m2.get("delta_solve_misses"), m1.get("delta_solve_misses"));
        assert_eq!(m2.get("delta_members_recomputed"), m1.get("delta_members_recomputed"));
    }

    #[test]
    fn request_workers_bound_the_threads_a_scan_brings_in() {
        // A request's `workers` outranks the service default, as an upper
        // bound: a ~4k-candidate full ranking outlasts its first pull and
        // brings a helper in; an 11-candidate one is finished after its
        // first pull and never does.
        let svc = tiny_service(1, 4);
        for (mut req, threads) in
            [(medium_score_request(1), 2), (small_score_request(2, 2, 16, 1, 8, 3), 1)]
        {
            if let RequestBody::Score(ref mut s) = req.body {
                s.workers = 2;
            }
            match svc.submit(req).unwrap().wait() {
                Response::ScoreResult { scan_workers, .. } => assert_eq!(scan_workers, threads),
                other => panic!("expected score result, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_request_never_asks_for_more_threads_than_the_host_runs() {
        // `workers` is a size off the wire: a million once meant a
        // million scoped threads. The full M ranking answers the same
        // rows at any request width, on at most the host's threads.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let ranking = |id: u64, workers: usize| {
            let mut req = small_score_request(id, 4, 8, 1, 4, 6);
            if let RequestBody::Score(ref mut s) = req.body {
                s.workers = workers;
            }
            match tiny_service(1, 4).submit(req).unwrap().wait() {
                Response::ScoreResult { placements, scan_workers, candidates_scanned, .. } => {
                    assert_eq!(candidates_scanned, 4038);
                    (placements, scan_workers)
                }
                other => panic!("expected score result, got {other:?}"),
            }
        };
        let (default, _) = ranking(1, 0);
        let (wide, threads) = ranking(2, 1_000_000);
        assert!(threads >= 1 && threads <= host, "{threads} threads on a {host}-thread host");
        assert_eq!(wide, default);
    }

    #[test]
    fn bounded_top_k_matches_the_truncated_full_ranking() {
        let svc = tiny_service(1, 8);
        // Full ranking first, on its own service so the bounded query
        // below starts cold.
        let full = match svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { placements, .. } => placements,
            other => panic!("expected score result, got {other:?}"),
        };
        assert!(full.len() > 3);
        let cold = tiny_service(1, 8);
        let mut bounded_req = small_score_request(2, 2, 16, 1, 8, 3);
        if let RequestBody::Score(ref mut s) = bounded_req.body {
            s.top_k = 3;
        }
        let bounded = match cold.submit(bounded_req.clone()).unwrap().wait() {
            Response::ScoreResult { placements, cached, .. } => {
                assert!(!cached);
                placements
            }
            other => panic!("expected score result, got {other:?}"),
        };
        assert_eq!(bounded.len(), 3);
        for (b, f) in bounded.iter().zip(&full) {
            assert_eq!(b.assignment, f.assignment);
            assert_eq!(b.objective.to_bits(), f.objective.to_bits());
            assert_eq!(b.ensemble_makespan.to_bits(), f.ensemble_makespan.to_bits());
        }
        // The bounded result was cached under its k-key: a repeat hits.
        match cold.submit(bounded_req).unwrap().wait() {
            Response::ScoreResult { cached, placements, .. } => {
                assert!(cached, "repeat bounded query must hit the k-keyed entry");
                assert_eq!(placements.len(), 3);
            }
            other => panic!("expected score result, got {other:?}"),
        }
        // But a later full query must NOT be served from the bounded
        // entry — it runs the full scan.
        match cold.submit(small_score_request(3, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { cached, placements, .. } => {
                assert!(!cached, "a bounded entry must never serve a full query");
                assert_eq!(placements.len(), full.len());
            }
            other => panic!("expected score result, got {other:?}"),
        }
    }

    #[test]
    fn a_top_k_request_counts_one_cache_probe_and_serves_the_head_of_the_ranking() {
        let top3 = |svc: &Service, id: u64| {
            let mut req = small_score_request(id, 2, 16, 1, 8, 3);
            if let RequestBody::Score(ref mut s) = req.body {
                s.top_k = 3;
            }
            match svc.submit(req).unwrap().wait() {
                Response::ScoreResult { placements, cached, .. } => (placements, cached),
                other => panic!("expected score result, got {other:?}"),
            }
        };
        let wire = |rows: &Ranking| crate::json::encoded(|out| rows.write_json(out));
        let counts = |svc: &Service| {
            let m = svc.metrics();
            (m.get("cache_hits"), m.get("cache_misses"))
        };
        // Full-key case: a primed full ranking answers the bounded query.
        let primed = tiny_service(1, 8);
        let full = match primed.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait() {
            Response::ScoreResult { placements, .. } => placements,
            other => panic!("expected score result, got {other:?}"),
        };
        assert_eq!(counts(&primed), (0.0, 1.0));
        let (rows, cached) = top3(&primed, 2);
        assert!(cached);
        assert_eq!(counts(&primed), (1.0, 1.0), "one hit, no extra miss");
        assert_eq!(wire(&rows), wire(&full.prefix(3)), "the reply is the head of the full ranking");
        // Bounded-key case: a cold bounded query is one miss, its repeat
        // one hit on the k-keyed entry.
        let cold = tiny_service(1, 8);
        let (first, cached) = top3(&cold, 3);
        assert!(!cached);
        assert_eq!(counts(&cold), (0.0, 1.0), "a cold bounded query probes once");
        let (again, cached) = top3(&cold, 4);
        assert!(cached);
        assert_eq!(counts(&cold), (1.0, 1.0));
        assert_eq!(wire(&again), wire(&first));
        assert_eq!(wire(&again), wire(&full.prefix(3)));
    }

    #[test]
    fn any_top_k_of_a_cached_full_ranking_is_the_bounded_scans_own_reply() {
        let rows_json = |svc: &Service, id: u64, top_k: usize| {
            let mut req = small_score_request(id, 2, 16, 1, 8, 3);
            if let RequestBody::Score(ref mut s) = req.body {
                s.top_k = top_k;
            }
            let reply = svc.submit(req).unwrap().wait();
            let Response::ScoreResult { cached, placements, .. } = &reply else {
                panic!("expected score result, got {reply:?}");
            };
            let line = reply.to_json();
            let rows = line.find("\"placements\":").expect("a placements field");
            (*cached, placements.len(), line[rows..].to_string())
        };
        let primed = tiny_service(1, 8);
        let (_, len, full) = rows_json(&primed, 1, 0);
        assert!(len > 10, "the space must be wider than the largest prefix asked for");
        for (i, top_k) in [1, 10, len, len + 1].into_iter().enumerate() {
            let (cached, rows, head) = rows_json(&primed, 10 + i as u64, top_k);
            assert!(cached, "top_k {top_k} is a prefix of the cached full ranking");
            assert_eq!(rows, top_k.min(len));
            // The same request against a service that never saw the
            // full ranking runs the bounded scan.
            let (cached, _, scanned) = rows_json(&tiny_service(1, 8), 20 + i as u64, top_k);
            assert!(!cached);
            assert_eq!(head, scanned, "top_k {top_k}");
            if top_k >= len {
                assert_eq!(head, full);
            }
        }
    }

    #[test]
    fn a_cold_score_its_journal_record_and_every_hit_share_one_encoding() {
        let path = std::env::temp_dir().join(format!("svc-encode-once-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let svc = Service::start(SvcConfig {
            workers: 1,
            journal: Some(crate::journal::JournalConfig::new(&path)),
            ..SvcConfig::default()
        });
        let score = |id: u64, top_k: usize| {
            let mut req = small_score_request(id, 4, 8, 1, 4, 4);
            if let RequestBody::Score(ref mut s) = req.body {
                s.top_k = top_k;
            }
            match svc.submit(req).unwrap().wait() {
                Response::ScoreResult { placements, cached, .. } => (placements, cached),
                other => panic!("expected score result, got {other:?}"),
            }
        };
        let (cold, cached) = score(1, 0);
        assert!(!cached && cold.len() > 100, "a ranking worth caching, got {} rows", cold.len());
        // The journal append formatted the rows, before any reply was
        // encoded; every hit then serves that same allocation, so its
        // rows are never formatted again, whatever the prefix.
        assert!(cold.is_encoded(), "the journal record spliced the ranking's own bytes");
        for (i, top_k) in [0, 0, 10, 1, cold.len() + 5].into_iter().enumerate() {
            let (hit, cached) = score(10 + i as u64, top_k);
            assert!(cached && hit.shares_rows_with(&cold), "top_k {top_k}");
            assert_eq!(hit.len(), if top_k == 0 { cold.len() } else { top_k.min(cold.len()) });
        }
        svc.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latency_percentiles_populate() {
        let svc = tiny_service(2, 8);
        for i in 0..6 {
            let _ = svc.submit(small_score_request(i, 2, 16, 1, 8, 2)).unwrap().wait();
        }
        let m = svc.metrics();
        assert_eq!(m.get("requests_completed"), 6.0);
        assert!(m.get("latency_p50_ms") > 0.0);
        assert!(m.get("latency_p50_ms") <= m.get("latency_p95_ms"));
        assert!(m.get("latency_p95_ms") <= m.get("latency_p99_ms"));
    }

    #[test]
    fn progress_opted_score_streams_monotone_frames_then_the_final() {
        let svc = tiny_service(1, 4);
        let mut req = medium_score_request(1);
        // One frame per 64-candidate bucket: deterministic in the space
        // size, independent of wall-clock speed.
        req.progress = Some(ProgressSpec { every_candidates: Some(64), every_ms: None });
        let pending = svc.submit(req).unwrap();
        let mut seen = Vec::new();
        let response = pending.wait_with(|p| {
            assert_eq!(p.id, 1, "frames carry the request id");
            match &p.body {
                ProgressBody::Score { candidates_scanned, workers, .. } => {
                    seen.push(*candidates_scanned);
                    assert_eq!(*workers, 1);
                }
                other => panic!("expected score progress, got {other:?}"),
            }
        });
        let total = medium_space_total() as u64;
        match response {
            Response::ScoreResult { candidates_scanned, .. } => {
                assert_eq!(candidates_scanned, total);
            }
            other => panic!("expected score result, got {other:?}"),
        }
        assert!(
            seen.len() >= 2,
            "a {total}-candidate scan at one frame per 64 must stream several frames: {seen:?}"
        );
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "monotone counts: {seen:?}");
        assert!(seen.iter().all(|&c| c <= total));
        let m = svc.metrics();
        assert_eq!(m.get("progress_frames_sent"), seen.len() as f64);
    }

    #[test]
    fn progress_opted_run_streams_the_ensemble_frontier() {
        let svc = tiny_service(1, 4);
        let mut req = run_request(3, 12);
        // Every step event: C1.5 has 2 members × 12 steps = 24 frames.
        req.progress = Some(ProgressSpec { every_candidates: Some(1), every_ms: None });
        let pending = svc.submit(req).unwrap();
        let mut frames = Vec::new();
        let response = pending.wait_with(|p| match &p.body {
            ProgressBody::Run { steps, member_steps } => {
                frames.push((*steps, member_steps.clone()));
            }
            other => panic!("expected run progress, got {other:?}"),
        });
        assert!(matches!(response, Response::RunResult { .. }), "got {response:?}");
        assert_eq!(frames.len(), 24, "one frame per member step event");
        for (steps, member_steps) in &frames {
            assert_eq!(member_steps.len(), 2);
            assert_eq!(
                *steps,
                *member_steps.iter().min().unwrap(),
                "the headline is the ensemble frontier"
            );
        }
        let (final_steps, final_members) = frames.last().unwrap();
        assert_eq!(*final_steps, 12);
        assert!(final_members.iter().all(|&s| s == 12));
        assert_eq!(svc.metrics().get("progress_frames_sent"), 24.0);
    }

    #[test]
    fn non_opted_requests_see_no_progress_frames() {
        let svc = tiny_service(1, 4);
        let pending = svc.submit(medium_score_request(1)).unwrap();
        let mut frames = 0usize;
        let response = pending.wait_with(|_| frames += 1);
        assert!(matches!(response, Response::ScoreResult { .. }));
        assert_eq!(frames, 0, "no opt-in, no frames");
        assert_eq!(svc.metrics().get("progress_frames_sent"), 0.0);
    }

    #[test]
    fn queue_drained_jobs_do_not_deflate_the_retry_hint() {
        // Regression for the hint-deflation bug: a worker draining a
        // backlog of already-expired jobs used to fold their near-zero
        // turnaround into the service-time mean, collapsing
        // `retry_after_hint_ms` while the pool was still saturated.
        let svc = tiny_service(1, 16);
        // One genuinely executed job establishes a real mean.
        assert!(matches!(
            svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait(),
            Response::ScoreResult { .. }
        ));
        let m = svc.metrics();
        assert_eq!(m.get("requests_executed"), 1.0);
        let hint_before = svc.retry_after_hint_ms();
        // A pile of born-expired jobs drains without executing.
        let mut drained = Vec::new();
        for i in 0..10 {
            let mut req = small_score_request(100 + i, 2, 16, 1, 8, 3);
            req.deadline = Some(Duration::ZERO);
            drained.push(svc.submit(req).unwrap());
        }
        for p in drained {
            assert!(matches!(p.wait(), Response::Error { kind: ErrorKind::Deadline, .. }));
        }
        let m = svc.metrics();
        assert_eq!(m.get("requests_executed"), 1.0, "drained jobs must not count as executed");
        assert_eq!(m.get("requests_deadline_expired"), 10.0);
        let hint_after = svc.retry_after_hint_ms();
        assert!(
            hint_after >= hint_before,
            "10 near-zero drains must not deflate the hint: {hint_before}ms -> {hint_after}ms"
        );
    }

    /// Asserts the ledger's equation: every submitted request is in one
    /// reply bucket, queued, or in flight.
    fn assert_balanced(svc: &Service) {
        let m = svc.metrics();
        let buckets = [
            "requests_completed",
            "requests_errored",
            "requests_rejected_overload",
            "requests_cancelled",
            "requests_deadline_expired",
            "queue_depth",
            "cosched_queue_depth",
            "in_flight",
        ];
        let settled: f64 = buckets.iter().map(|row| m.get(row)).sum();
        assert_eq!(
            m.get("requests_submitted"),
            settled,
            "submitted = buckets + queued + in flight"
        );
    }

    fn cached(reply: &Response) -> bool {
        match reply {
            Response::ScoreResult { cached, .. } => *cached,
            other => panic!("expected score result, got {other:?}"),
        }
    }

    #[test]
    fn a_cached_score_is_answered_at_the_door_while_a_miss_is_shed() {
        let svc = tiny_service(1, 1);
        assert!(!cached(&svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait()));
        let held = svc.submit(held_score_request(2)).unwrap();
        wait_in_flight(&svc);
        let queued = svc.submit(small_score_request(3, 2, 16, 1, 8, 2)).unwrap();
        let accepted = svc.metrics().get("requests_accepted");
        // The queue is full: the repeat is answered where it arrives, with
        // the bytes a worker would have sent, and a new shape is shed.
        let hit = svc.submit(small_score_request(4, 2, 16, 1, 8, 3)).unwrap();
        let hit = hit.wait_timeout(Duration::ZERO).expect("a hit is answered before it returns");
        match &hit {
            Response::ScoreResult { id, cached, scan_workers, candidates_scanned, .. } => {
                assert_eq!((*id, *cached, *scan_workers, *candidates_scanned), (4, true, 0, 0));
            }
            other => panic!("expected a cached score, got {other:?}"),
        }
        assert!(matches!(
            svc.submit(small_score_request(5, 1, 16, 1, 8, 2)),
            Err(Rejected::Overloaded { .. })
        ));
        let m = svc.metrics();
        assert_eq!(m.get("requests_accepted"), accepted, "a hit takes no queue slot");
        assert_eq!((m.get("cache_hits"), m.get("cache_misses")), (1.0, 2.0));
        assert_balanced(&svc);
        held.cancel();
        assert!(matches!(held.wait(), Response::Error { kind: ErrorKind::Cancelled, .. }));
        assert!(!cached(&queued.wait()));
        let m = svc.metrics();
        assert_eq!(m.get("requests_executed"), 3.0, "the hit never reached the worker");
        assert_eq!(m.get("requests_completed"), 3.0);
        assert_balanced(&svc);
    }

    #[test]
    fn a_tagged_hit_is_answered_at_quota_and_moves_no_tenant_row() {
        let mut tenant_policy = TenantPolicy::default();
        tenant_policy.quotas.insert("team-a".to_string(), 1);
        let svc = Service::start(SvcConfig { workers: 1, tenant_policy, ..SvcConfig::default() });
        let tagged = |mut req: Request| {
            req.tenant = Some("team-a".to_string());
            req
        };
        assert!(!cached(&svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait()));
        // The tenant's one slot is held.
        let held = svc.submit(tagged(held_score_request(2))).unwrap();
        wait_in_flight(&svc);
        let rows = |svc: &Service| {
            let m = svc.metrics();
            let row = |name: &str| m.get(&format!("tenant_team-a_{name}"));
            ["admitted", "executed", "shed", "expired", "cancelled", "queued", "in_flight"].map(row)
        };
        let before = rows(&svc);
        let hit = svc.submit(tagged(small_score_request(3, 2, 16, 1, 8, 3))).unwrap().wait();
        assert!(cached(&hit), "a hit holds no quota slot");
        assert_eq!(rows(&svc), before, "a hit moves no tenant row");
        // A miss of the same tenant needs the slot, and is shed.
        assert!(matches!(
            svc.submit(tagged(small_score_request(4, 2, 16, 1, 8, 2))),
            Err(Rejected::Overloaded { .. })
        ));
        assert_eq!(svc.metrics().get("tenant_team-a_shed"), 1.0);
        held.cancel();
        assert!(matches!(held.wait(), Response::Error { kind: ErrorKind::Cancelled, .. }));
        assert_balanced(&svc);
    }

    #[test]
    fn a_hit_past_its_deadline_or_after_shutdown_is_answered_as_before() {
        let svc = tiny_service(1, 4);
        assert!(!cached(&svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait()));
        let mut expired = small_score_request(2, 2, 16, 1, 8, 3);
        expired.deadline = Some(Duration::ZERO);
        match svc.submit(expired).unwrap().wait() {
            Response::Error { kind: ErrorKind::Deadline, .. } => {}
            other => panic!("expected deadline_expired, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.get("requests_deadline_expired"), 1.0);
        assert_eq!(m.get("requests_accepted"), 2.0, "admitted, as before the door");
        assert_eq!(m.get("cache_hits"), 0.0, "expired before any look");
        svc.shutdown();
        assert_eq!(
            svc.submit(small_score_request(3, 2, 16, 1, 8, 3)).err(),
            Some(Rejected::ShuttingDown)
        );
        assert_eq!(svc.metrics().get("cache_hits"), 0.0);
        assert_balanced(&svc);
    }

    #[test]
    fn identical_misses_queued_together_scan_once() {
        let svc = tiny_service(1, 4);
        let held = svc.submit(held_score_request(1)).unwrap();
        wait_in_flight(&svc);
        let probes = |svc: &Service| {
            let m = svc.metrics();
            (m.get("cache_hits"), m.get("cache_misses"))
        };
        let (hits, misses) = probes(&svc);
        let first = svc.submit(small_score_request(2, 2, 16, 1, 8, 3)).unwrap();
        let second = svc.submit(small_score_request(3, 2, 16, 1, 8, 3)).unwrap();
        held.cancel();
        assert!(matches!(held.wait(), Response::Error { kind: ErrorKind::Cancelled, .. }));
        match (first.wait(), second.wait()) {
            (
                Response::ScoreResult { cached: false, placements: scanned, .. },
                Response::ScoreResult { cached: true, placements, scan_workers, .. },
            ) => {
                assert_eq!(scan_workers, 0, "the second looked again and did not scan");
                assert!(placements.shares_rows_with(&scanned));
            }
            other => panic!("expected one scan and one hit, got {other:?}"),
        }
        assert_eq!(probes(&svc), (hits + 1.0, misses + 1.0), "one miss and one hit");
        assert_balanced(&svc);
    }

    #[test]
    fn the_ledger_balances_over_hits_misses_sheds_and_expiries() {
        let svc = tiny_service(1, 3);
        assert!(!cached(&svc.submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait()));
        let held = svc.submit(held_score_request(2)).unwrap();
        wait_in_flight(&svc);
        let mut pending = Vec::new();
        for id in [3, 4] {
            pending.push(svc.submit(small_score_request(id, 2, 16, 1, 8, 3)).unwrap());
        }
        pending.push(svc.submit(small_score_request(5, 2, 16, 1, 8, 2)).unwrap());
        let mut expired = small_score_request(6, 2, 16, 1, 8, 3);
        expired.deadline = Some(Duration::ZERO);
        pending.push(svc.submit(expired).unwrap());
        pending.push(svc.submit(small_score_request(7, 1, 16, 1, 8, 2)).unwrap());
        assert!(matches!(
            svc.submit(small_score_request(8, 1, 16, 1, 8, 1)),
            Err(Rejected::Overloaded { .. })
        ));
        pending.push(svc.submit(small_score_request(9, 2, 16, 1, 8, 3)).unwrap());
        assert_balanced(&svc);
        held.cancel();
        for p in pending {
            p.wait();
        }
        let m = svc.metrics();
        assert_eq!(m.get("requests_submitted"), 9.0);
        assert_eq!(m.get("requests_accepted"), 5.0, "the cold score, the held one, three queued");
        assert_eq!(m.get("requests_completed"), 6.0, "three hits, three scans");
        assert_eq!(m.get("requests_rejected_overload"), 1.0);
        assert_eq!(m.get("requests_deadline_expired"), 1.0);
        assert_eq!(m.get("requests_cancelled"), 1.0);
        assert_balanced(&svc);
    }
}
