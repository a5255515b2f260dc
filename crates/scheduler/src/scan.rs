//! Parallel streaming placement-scan engine.
//!
//! Every candidate scan in this crate — the closed-form ranking
//! ([`crate::rank`]) and the co-scheduler's admission scan — has the
//! same shape: enumerate canonical placements, evaluate each one
//! independently, rank the results. This module is that shape, made
//! reusable and parallel:
//!
//! * **One visitor.** A scan is driven by a [`ScanVisitor`]: how to
//!   build a worker's state, evaluate a candidate, turn a kept one into
//!   a row — and, optionally, what to drain, when to stop, whom to tell
//!   about progress, and how to bound a prefix.
//! * **Streaming enumeration.** Candidates come from
//!   [`PlacementIter`], pulled in chunks under a mutex — no
//!   `O(candidates)` materialization up front. A chunk lands in one
//!   flat buffer the worker reuses for every pull, not in a `Vec` per
//!   candidate.
//! * **The caller scans first, helpers only when it pays.** The calling
//!   thread is worker 0 and scans alone; `std::thread::scope` adds up to
//!   `workers − 1` threads beside it (default: available parallelism) at
//!   its first pull that leaves the walk unfinished — in a bounded scan,
//!   one that has also handed out [`SOLO_CANDIDATES`]. Each worker owns
//!   its evaluation state, so a candidate costs no allocation.
//! * **Rows only for survivors.** `eval` returns a candidate's floats;
//!   the `keep` step that copies its assignment into a result row runs
//!   only for a candidate the result set admits.
//! * **Deterministic merge.** Every result is tagged with its
//!   enumeration index; the merge sorts by that index, so the output
//!   order **and every float bit** are identical to a serial scan at
//!   any worker count. (Each candidate's evaluation is a pure function
//!   of `(evaluation state, assignment)` — see the determinism suite in
//!   `tests/scan_properties.rs`.)
//! * **Bounded top-K, walked branch and bound.** With `top_k > 0` each
//!   worker keeps its best K by `(objective desc, enumeration index
//!   asc)`; the merged sets reproduce exactly the first K rows of the
//!   full stable ranking, in `O(K)` memory per worker. At every pull the
//!   workers fold what they admitted into one K-best; the walk skips
//!   every subtree whose [`ScanVisitor::prefix_bound`] is strictly below
//!   its K-th objective, counting it at its exact size, and each
//!   candidate handed out carries that floor so `eval` can skip a leaf
//!   the same way.
//! * **One placement per orbit.** A bounded scan whose visitor declares
//!   member classes ([`ScanVisitor::member_classes`]) gets the walk's
//!   orbit representatives only: the least placement of each set that
//!   members of one class trading places produce. Every copy scores
//!   exactly what its representative did — a visitor declares classes
//!   only where that holds — so the worker that evaluated a
//!   representative offers its copies that score in enumeration order
//!   until the top K refuses one (each later copy ties it and ranks
//!   behind it). The copies were counted skipped by the
//!   walk, so `scanned` is the whole space as before. A copy's place in
//!   the enumeration is its packed assignment until the merge, which
//!   counts the index of each row it returns.
//! * **A walk that remembers its shape.** What a bounded walk computes
//!   besides its leaves — subtree sizes, the orbits it reduces by, the
//!   rearrangement search at each member block's end — depends on the
//!   shape, the node budget and the member classes alone. A visitor that
//!   names a [`WalkCache`] ([`ScanVisitor::walk_cache`]) has the walk
//!   start from what earlier scans of that key learned, and check in
//!   what this one learned; the outcome reports what was still computed
//!   ([`ScanOutcome::orbit_searches`], [`ScanOutcome::count_states`]).
//! * **Cooperative cancellation.** The `cancel` probe is checked
//!   between chunks; once it fires, all workers stop pulling and the
//!   outcome reports how far the scan got.

use std::sync::Mutex;

use crate::delta::DeltaCounters;
use crate::enumerate::{Chunk, Copies, EnsembleShape, Orbits, PlacementIter, WalkCache};
use crate::search::NodeBudget;

/// Leaves a bounded (`top_k > 0`) scan's caller hands out alone before it
/// brings helpers in; a full scan brings them at its first unfinished
/// pull. From `BENCH_scan.json` (2 cores): a helper lost in the median
/// on the rows it joined up to `score_topk1/680835331228` (4 883 leaves,
/// near even) and won from `score_topk10/234870` `classless` (24 778) up.
pub const SOLO_CANDIDATES: usize = 8_192;

/// Tuning of one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Most worker threads the scan may use. Zero means the host's
    /// available parallelism.
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

/// A point-in-time view of a running scan, handed to
/// [`ScanVisitor::progress`].
///
/// Produced under the feed lock at the same probe point cancellation
/// uses (between chunks), so successive observations are monotone:
/// `scanned` never decreases and `best_objective` never worsens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanProgress {
    /// Candidates accounted for so far, across all workers: evaluated,
    /// or skipped by a bounded walk.
    pub scanned: usize,
    /// Best objective seen so far (`None` until a feasible candidate
    /// has been evaluated).
    pub best_objective: Option<f64>,
    /// Worker threads scanning so far; when helpers join is fixed by the request.
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
    /// Candidates accounted for: handed to an evaluator, or skipped
    /// with a subtree whose bound could not rank. A completed scan
    /// counts the whole space; a cancelled one stops short of it.
    pub scanned: usize,
    /// Candidates whose evaluator returned a result (`scanned` minus
    /// those skipped or filtered out by an evaluator returning `None`).
    pub feasible: usize,
    /// True when the cancellation probe stopped the scan early.
    pub cancelled: bool,
    /// Worker threads that scanned: the caller, plus the helpers it
    /// brought in — a function of the request, never of timing.
    pub workers: usize,
    /// Delta-evaluation counters, summed across workers: whatever
    /// [`ScanVisitor::drain`] extracted from each worker's state, plus
    /// in `pruned` the candidates the walk skipped and no worker offered
    /// as a copy — so `scanned − pruned` counts evaluated plus offered
    /// their representative's score.
    pub delta: DeltaCounters,
    /// Block-end orbit checks the walk computed rather than remembered
    /// ([`ScanVisitor::walk_cache`]).
    pub orbit_searches: u64,
    /// Subtree-count states the walk (and the merge's index counts)
    /// expanded rather than remembered.
    pub count_states: u64,
}

impl<T> ScanOutcome<T> {
    /// The results stripped of their enumeration indexes.
    pub fn into_values(self) -> Vec<T> {
        self.results.into_iter().map(|h| h.value).collect()
    }
}

/// Where a candidate sits in the enumeration: its index, or — in a scan
/// with member classes, where a copy's index is counted only if it makes
/// the result — its assignment packed into a key that orders as
/// enumeration does ([`Orbits::key`]). One scan uses one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Order {
    Index(usize),
    Leaf(u128),
}

/// Rank key for top-K selection: better = higher objective, ties broken
/// toward the earlier enumeration position — the same total order a
/// stable descending sort of the full result set induces, which is what
/// makes bounded top-K bit-identical to `full ranking → truncate(K)`.
#[derive(Debug, Clone, Copy)]
struct Rank {
    objective: f64,
    order: Order,
}

impl Rank {
    /// True when `self` ranks strictly worse than `other`.
    fn worse_than(&self, other: &Rank) -> bool {
        match self.objective.total_cmp(&other.objective) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.order > other.order,
        }
    }
}

/// Keeper of the best K `(Rank, T)` pairs. It remembers which kept
/// entry ranks worst, so a candidate that does not make the cut costs
/// one comparison and its row is never built; only an admission pays
/// the `O(K)` rescan for the new worst (K is a client-requested top-k —
/// tens — so a slot scan beats heap bookkeeping at this size). The rank
/// order is strict and total, so the kept set is the K best of
/// everything offered however it is maintained — what makes bounded
/// top-K bit-identical to `full ranking → truncate(K)`. Its storage
/// grows with what is kept, never with K: K arrives off the wire.
struct TopK<T> {
    capacity: usize,
    kept: Vec<(Rank, T)>,
    /// Index into `kept` of the worst entry; meaningful once full.
    worst: usize,
}

impl<T> TopK<T> {
    fn new(capacity: usize) -> Self {
        TopK { capacity, kept: Vec::new(), worst: 0 }
    }

    /// The worst kept objective once K are kept (a candidate strictly
    /// below it can no longer be admitted), `−∞` before — and always
    /// when K is 0, a full scan.
    fn floor(&self) -> f64 {
        if self.capacity == 0 || self.kept.len() < self.capacity {
            f64::NEG_INFINITY
        } else {
            self.kept[self.worst].0.objective
        }
    }

    /// Keeps `row()` under `rank` if it ranks among the best K so far;
    /// true when it does.
    fn offer(&mut self, rank: Rank, row: impl FnOnce() -> T) -> bool {
        if self.kept.len() < self.capacity {
            self.kept.push((rank, row()));
        } else if self.kept[self.worst].0.worse_than(&rank) {
            self.kept[self.worst] = (rank, row());
        } else {
            return false;
        }
        if self.kept.len() == self.capacity {
            self.worst = 0;
            for i in 1..self.kept.len() {
                if self.kept[i].0.worse_than(&self.kept[self.worst].0) {
                    self.worst = i;
                }
            }
        }
        true
    }
}

/// The shared chunk feed: workers pull batches of candidates under this
/// mutex; the first worker to observe cancellation (or an evaluation
/// error) trips `stop` so the others cease pulling at their next visit.
/// The feed also aggregates cross-worker progress (`scanned`, `best`):
/// each worker folds its previous batch in when it returns for the next
/// one, which is where the progress observer fires. A bounded scan's
/// workers also fold in the ranks their top-K admitted: `ranks` keeps
/// the K best of all of them, so its floor is the K-th best objective of
/// everything evaluated so far — a candidate strictly below it cannot
/// rank, whichever worker meets it, and the walk skips against it too.
struct Feed {
    iter: PlacementIter,
    stop: bool,
    /// Candidates evaluated or skipped, as folded in so far.
    scanned: usize,
    /// `scanned` as of the last progress observation.
    reported: usize,
    best: Option<f64>,
    ranks: TopK<()>,
    /// Worker threads scanning.
    workers: usize,
}

/// Per-worker scan state returned to the merge step.
struct WorkerOut<T, E> {
    all: Vec<ScanHit<T>>,
    top: Option<TopK<T>>,
    scanned: usize,
    feasible: usize,
    /// Copies offered their representative's score: the walk counted
    /// each as skipped.
    copies: usize,
    cancelled: bool,
    error: Option<(usize, E)>,
    delta: DeltaCounters,
}

/// One worker's results and what it has yet to tell the feed.
struct Worker<T, E> {
    out: WorkerOut<T, E>,
    /// What a candidate must reach to rank (`Candidate::floor`).
    floor: f64,
    /// Ranks admitted since the last fold into the feed.
    admitted: Vec<Rank>,
    /// Best objective since the last fold into the feed.
    batch_best: Option<f64>,
}

impl<T, E> Worker<T, E> {
    /// Takes one scored candidate into the results: every one in a full
    /// scan, one that ranks among this worker's best K in a bounded one.
    /// False when the top K refused it.
    fn offer<V: ScanVisitor<Row = T, Error = E>>(
        &mut self,
        visitor: &V,
        state: &mut V::State,
        candidate: Candidate<'_>,
        order: Order,
        scored: V::Scored,
    ) -> bool {
        self.out.feasible += 1;
        let obj = visitor.objective(&scored);
        self.batch_best = Some(self.batch_best.map_or(obj, |cur| cur.max(obj)));
        match &mut self.out.top {
            Some(top) => {
                let rank = Rank { objective: obj, order };
                let kept = top.offer(rank, || visitor.keep(state, candidate, scored));
                if kept {
                    self.admitted.push(rank);
                    self.floor = self.floor.max(top.floor());
                }
                kept
            }
            None => {
                let value = visitor.keep(state, candidate, scored);
                self.out.all.push(ScanHit { index: candidate.index, value });
                true
            }
        }
    }

    /// Offers the representative `rep` that `eval` just scored, then its
    /// copies. A copy scores what `rep` did, ties it and comes after it in
    /// enumeration order, so it ranks strictly behind it, and each listed
    /// copy behind the one before: they are offered that score in order
    /// until the top K refuses one, and not listed at all when it refused
    /// the representative or the score is strictly below the floor (which
    /// another worker may have raised).
    fn orbit<V: ScanVisitor<Row = T, Error = E>>(
        &mut self,
        visitor: &V,
        state: &mut V::State,
        orbits: &mut Orbits,
        copies: &mut Copies,
        rep: Candidate<'_>,
        scored: V::Scored,
    ) {
        let below = visitor.objective(&scored) < self.floor;
        let key = Order::Leaf(orbits.key(rep.assignment));
        let kept = self.offer(visitor, state, rep, key, scored.clone());
        if below || !kept {
            return;
        }
        orbits.copies(rep.assignment, copies);
        let width = rep.assignment.len();
        for (i, &key) in copies.keys.iter().enumerate() {
            self.out.copies += 1;
            let copy = Candidate {
                assignment: &copies.flat[i * width..(i + 1) * width],
                first_changed: None,
                floor: self.floor,
                ..rep
            };
            if !self.offer(visitor, state, copy, Order::Leaf(key), scored.clone()) {
                break;
            }
        }
    }
}

/// One candidate handed to [`ScanVisitor::eval`] and
/// [`ScanVisitor::keep`].
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// Position in the canonical enumeration order — for a copy offered
    /// its representative's score, the representative's: the copy's own
    /// is counted at the merge, for the rows returned.
    pub index: usize,
    /// Flattened node assignment (member-major, simulation first).
    pub assignment: &'a [usize],
    /// `Some(h)` promises `assignment[..h]` equals the assignment this
    /// worker evaluated immediately before — what
    /// [`crate::DeltaEvaluator::score_delta`] takes. `None` for the
    /// first candidate and whenever the worker's previous candidate was
    /// not the one the walk handed out just before this one (hints are
    /// relative to the previous leaf handed out, which a skipped subtree
    /// does not change; across a chunk boundary the worker's own previous
    /// candidate may be some unrelated assignment, and the evaluator's
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

/// What a scan does with the candidates [`scan_placements`] walks: one
/// value, shared by every worker, that builds each worker's own state.
pub trait ScanVisitor: Sync {
    /// One worker's evaluation state (a [`crate::DeltaEvaluator`]), never shared.
    type State;
    /// What `eval` returns for a candidate: something small, its floats.
    /// The copies of an orbit's representative get clones of its score.
    type Scored: Clone;
    /// A result row.
    type Row: Send;
    /// An evaluation error; the first in enumeration order aborts the
    /// scan.
    type Error: Send;

    /// Builds one worker's state — once per worker.
    fn init(&self) -> Self::State;

    /// Scores one candidate: `Ok(Some(scored))`, `Ok(None)` to skip it
    /// (it still counts as scanned, not as feasible), or `Err` to abort
    /// the scan. Under `top_k`, skipping a candidate whose objective is
    /// strictly below [`Candidate::floor`] never changes the result.
    fn eval(
        &self,
        state: &mut Self::State,
        candidate: Candidate<'_>,
    ) -> Result<Option<Self::Scored>, Self::Error>;

    /// The ranking key of a scored candidate.
    fn objective(&self, scored: &Self::Scored) -> f64;

    /// Turns an admitted candidate and its scored value into the result
    /// row (this is where the assignment is copied out). It runs for
    /// every feasible candidate of a full scan, and under `top_k` only
    /// for one that ranks among the worker's best K so far.
    fn keep(
        &self,
        state: &mut Self::State,
        candidate: Candidate<'_>,
        scored: Self::Scored,
    ) -> Self::Row;

    /// Extracts a worker's counters when it stops pulling; the sum lands
    /// in [`ScanOutcome::delta`].
    fn drain(&self, _state: &mut Self::State) -> DeltaCounters {
        DeltaCounters::default()
    }

    /// Polled between chunks on every worker; `true` stops the scan and
    /// marks the outcome cancelled.
    fn cancel(&self) -> bool {
        false
    }

    /// Fires under the feed lock at the same probe point each time a
    /// worker returns for its next chunk and the scan's count has
    /// advanced; observations are strictly monotone in `scanned`. Keep
    /// it cheap (push to a channel, update an atomic): it briefly
    /// serializes workers. Use the returned [`ScanOutcome`] for
    /// authoritative totals. Its pulls depend on how workers interleave.
    fn progress(&self, _progress: &ScanProgress) {}

    /// An upper bound on the objective of every placement that starts
    /// with `prefix`, which spans `open_nodes` distinct nodes: a bounded
    /// scan skips the whole subtree when it is strictly below the
    /// floor. It must never be below the objective of any completion.
    /// The default, `+∞`, never skips.
    fn prefix_bound(&self, _prefix: &[usize], _open_nodes: usize) -> f64 {
        f64::INFINITY
    }

    /// Member classes for a bounded scan's walk, asked once of the
    /// caller's `state` before the walk starts, whose node labels run
    /// below `labels`: one id per member, members of equal id
    /// interchangeable — a placement and every copy of it with such
    /// members trading places score exactly the same, bit for bit. The
    /// walk then hands `eval` only the least placement of each orbit, and
    /// every other member of the orbit is offered the representative's
    /// score; a representative that `eval` skips skips its whole orbit.
    /// Declare classes only where that holds. The default, `None`, keeps
    /// every member its own class: the walk hands out every placement, as
    /// a full scan's always does (it scores every copy anyway, and
    /// skipping one costs about what evaluating it does).
    fn member_classes(&self, _state: &Self::State, _labels: usize) -> Option<Vec<usize>> {
        None
    }

    /// Where the walk's memos — subtree counts, orbit decisions — live
    /// between scans: a scan checks its key's out when it starts and back
    /// in when it returns its outcome (a scan that fails drops them), so a
    /// later scan of the same shape, node budget and classes counts and
    /// searches nothing an earlier one did. The default, `None`, starts
    /// every walk empty.
    fn walk_cache(&self) -> Option<&WalkCache> {
        None
    }
}

/// Scans every canonical feasible placement of `shape` under `budget`
/// with `visitor`, in parallel, with deterministic output — the one
/// scan entry point.
///
/// The calling thread is scan worker 0 and brings its helpers in as the
/// module doc says ([`SOLO_CANDIDATES`]): a short scan never pays for one.
///
/// On error the scan stops and the error belonging to the **smallest
/// enumeration index** is returned — the same error a serial scan would
/// have surfaced first, regardless of which worker hit it.
pub fn scan_placements<V: ScanVisitor>(
    shape: &EnsembleShape,
    budget: NodeBudget,
    opts: &ScanOptions,
    visitor: &V,
) -> Result<ScanOutcome<V::Row>, V::Error> {
    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        asked => asked,
    };
    let chunk_len = opts.chunk.max(1);
    let width = shape.num_components();
    // The caller's state declares the member classes before the walk
    // starts; a helper comes in later, and reduces by the same ones. A
    // full scan keeps every member its own class: it scores every copy,
    // and skipping one costs about what evaluating it does.
    let caller_state = visitor.init();
    let labels = budget.max_nodes.min(width);
    let classes = (opts.top_k > 0).then(|| visitor.member_classes(&caller_state, labels)).flatten();
    let classes = classes.as_deref();
    let (max_nodes, cores_per_node) = (budget.max_nodes, budget.cores_per_node);
    let feed = Mutex::new(Feed {
        iter: PlacementIter::start(shape, max_nodes, cores_per_node, classes, visitor.walk_cache()),
        stop: false,
        scanned: 0,
        reported: 0,
        best: None,
        ranks: TopK::new(opts.top_k),
        workers: 1,
    });
    let bound = |prefix: &[usize], open_nodes: usize| visitor.prefix_bound(prefix, open_nodes);

    // Only the caller holds a `spawn` (so a pull's hand-out number before
    // it is the caller's count); it runs it once, when it is due.
    let run_worker = |mut state: V::State, mut spawn: Option<&mut dyn FnMut()>| {
        let mut orbits = feed.lock().expect("scan feed lock").iter.orbits().cloned();
        let mut copies = Copies::default();
        let mut w = Worker {
            out: WorkerOut {
                all: Vec::new(),
                top: (opts.top_k > 0).then(|| TopK::new(opts.top_k)),
                scanned: 0,
                feasible: 0,
                copies: 0,
                cancelled: false,
                error: None,
                delta: DeltaCounters::default(),
            },
            floor: f64::NEG_INFINITY,
            admitted: Vec::new(),
            batch_best: None,
        };
        let mut chunk = Chunk::default();
        // This worker's contribution since it last folded into the feed.
        let mut batch_scanned = 0usize;
        // Hand-out number of the candidate this worker evaluated last;
        // first-changed hints are valid only for the next one handed out.
        let mut last: Option<usize> = None;
        'pull: loop {
            let unfinished = {
                let mut feed = feed.lock().expect("scan feed lock");
                for rank in w.admitted.drain(..) {
                    feed.ranks.offer(rank, || ());
                }
                w.floor = w.floor.max(feed.ranks.floor());
                feed.scanned += batch_scanned;
                batch_scanned = 0;
                if let Some(b) = w.batch_best.take() {
                    feed.best = Some(feed.best.map_or(b, |cur: f64| cur.max(b)));
                }
                if feed.scanned > feed.reported {
                    feed.reported = feed.scanned;
                    visitor.progress(&ScanProgress {
                        scanned: feed.scanned,
                        best_objective: feed.best,
                        workers: feed.workers,
                    });
                }
                if feed.stop {
                    break;
                }
                if visitor.cancel() {
                    feed.stop = true;
                    w.out.cancelled = true;
                    break;
                }
                let skipped = feed.iter.skipped();
                feed.iter.fill_chunk(&mut chunk, chunk_len, w.floor, &bound);
                feed.scanned += feed.iter.skipped() - skipped;
                if chunk.indices.is_empty() && feed.iter.is_done() {
                    break;
                }
                !feed.iter.is_done()
            };
            let handed = chunk.first + chunk.indices.len();
            let due = unfinished && (opts.top_k == 0 || handed >= SOLO_CANDIDATES);
            if let Some(spawn) = spawn.take_if(|_| due) {
                spawn();
            }
            let leaves = chunk.flat.chunks_exact(width).zip(&chunk.hints).zip(&chunk.indices);
            for (offset, ((assignment, &hint), &index)) in leaves.enumerate() {
                let handed = chunk.first + offset;
                w.out.scanned += 1;
                batch_scanned += 1;
                let first_changed = last.is_some_and(|l| l + 1 == handed).then_some(hint);
                last = Some(handed);
                let candidate = Candidate { index, assignment, first_changed, floor: w.floor };
                match (visitor.eval(&mut state, candidate), &mut orbits) {
                    (Ok(None), _) => {}
                    (Ok(Some(scored)), Some(orbits)) => {
                        w.orbit(visitor, &mut state, orbits, &mut copies, candidate, scored)
                    }
                    (Ok(Some(scored)), None) => {
                        w.offer(visitor, &mut state, candidate, Order::Index(index), scored);
                    }
                    (Err(e), _) => {
                        w.out.error = Some((index, e));
                        feed.lock().expect("scan feed lock").stop = true;
                        break 'pull;
                    }
                }
            }
        }
        w.out.delta = visitor.drain(&mut state);
        w.out
    };

    // The caller is worker 0; a helper's panic resurfaces at its join.
    let mut outputs: Vec<WorkerOut<V::Row, V::Error>> = std::thread::scope(|scope| {
        let mut helpers = Vec::new();
        let mut spawn = || {
            feed.lock().expect("scan feed lock").workers = workers;
            for _ in 1..workers {
                helpers.push(scope.spawn(|| run_worker(visitor.init(), None)));
            }
        };
        let mut outputs = vec![run_worker(caller_state, Some(&mut spawn))];
        outputs.extend(helpers.into_iter().map(|h| h.join().expect("scan worker panicked")));
        outputs
    });

    // Propagate the error a serial scan would have hit first.
    let mut first_error: Option<(usize, V::Error)> = None;
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

    let mut feed = feed.into_inner().expect("scan feed lock");
    let skipped = feed.iter.skipped();
    let scanned = outputs.iter().map(|o| o.scanned).sum::<usize>() + skipped;
    let feasible = outputs.iter().map(|o| o.feasible).sum();
    let cancelled = outputs.iter().any(|o| o.cancelled);
    // A copy was counted skipped by the walk and offered its
    // representative's score: it is not pruned.
    let copies: usize = outputs.iter().map(|o| o.copies).sum();
    let pruned = skipped.saturating_sub(copies) as u64;
    let mut delta = DeltaCounters { pruned, ..DeltaCounters::default() };
    for out in &outputs {
        delta.absorb(out.delta);
    }
    let mut index_of = |order: Order| match order {
        Order::Index(index) => index,
        Order::Leaf(key) => {
            let leaf = feed.iter.orbits().expect("keys come from orbits").unpack(key, width);
            feed.iter.index_of(&leaf)
        }
    };
    let results = if opts.top_k > 0 {
        let mut merged: Vec<(Rank, V::Row)> =
            outputs.into_iter().flat_map(|o| o.top.expect("top-k mode").kept).collect();
        merged.sort_by(|(a, _), (b, _)| {
            b.objective.total_cmp(&a.objective).then_with(|| a.order.cmp(&b.order))
        });
        merged.truncate(opts.top_k);
        merged
            .into_iter()
            .map(|(rank, value)| ScanHit { index: index_of(rank.order), value })
            .collect()
    } else {
        let mut merged: Vec<ScanHit<V::Row>> = outputs.into_iter().flat_map(|o| o.all).collect();
        merged.sort_by_key(|h| h.index);
        merged
    };
    let (orbit_searches, count_states) = (feed.iter.orbit_searches(), feed.iter.count_states());
    if let Some(cache) = visitor.walk_cache() {
        cache.check_in(shape, classes, feed.iter);
    }
    Ok(ScanOutcome {
        results,
        scanned,
        feasible,
        cancelled,
        workers: feed.workers,
        delta,
        orbit_searches,
        count_states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The engine's hooks as closures, for tests that vary one at a time.
    #[allow(clippy::type_complexity)]
    struct Closures<'a, S, V, T, E> {
        init: &'a (dyn Fn() -> S + Sync),
        eval: &'a (dyn Fn(&mut S, Candidate<'_>) -> Result<Option<V>, E> + Sync),
        keep: &'a (dyn Fn(&mut S, Candidate<'_>, V) -> T + Sync),
        drain: &'a (dyn Fn(&mut S) -> DeltaCounters + Sync),
        objective: &'a (dyn Fn(&V) -> f64 + Sync),
        cancel: &'a (dyn Fn() -> bool + Sync),
        progress: &'a (dyn Fn(&ScanProgress) + Sync),
    }

    impl<S, V: Clone, T: Send, E: Send> ScanVisitor for Closures<'_, S, V, T, E> {
        type State = S;
        type Scored = V;
        type Row = T;
        type Error = E;
        fn init(&self) -> S {
            (self.init)()
        }
        fn eval(&self, state: &mut S, c: Candidate<'_>) -> Result<Option<V>, E> {
            (self.eval)(state, c)
        }
        fn objective(&self, scored: &V) -> f64 {
            (self.objective)(scored)
        }
        fn keep(&self, state: &mut S, c: Candidate<'_>, scored: V) -> T {
            (self.keep)(state, c, scored)
        }
        fn drain(&self, state: &mut S) -> DeltaCounters {
            (self.drain)(state)
        }
        fn cancel(&self) -> bool {
            (self.cancel)()
        }
        fn progress(&self, p: &ScanProgress) {
            (self.progress)(p)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scan<S, V: Clone, T: Send, E: Send>(
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
    ) -> Result<ScanOutcome<T>, E> {
        let visitor = Closures {
            init: &init,
            eval: &eval,
            keep: &keep,
            drain: &drain,
            objective: &objective,
            cancel: &cancel,
            progress: &progress,
        };
        scan_placements(shape, budget, opts, &visitor)
    }

    /// 186 candidates: many pulls at `chunk` 1 or 2.
    fn shape() -> EnsembleShape {
        EnsembleShape::uniform(3, 8, 1, 4)
    }

    fn budget() -> NodeBudget {
        NodeBudget { max_nodes: 4, cores_per_node: 32 }
    }

    fn no_counters<S>(_: &mut S) -> DeltaCounters {
        DeltaCounters::default()
    }

    /// A deterministic toy objective so engine tests need no simulator.
    fn toy_objective(assignment: &[usize]) -> f64 {
        assignment.iter().enumerate().map(|(i, &n)| 1.0 / (1.0 + (i * n) as f64)).sum()
    }

    fn full_scan(workers: usize) -> ScanOutcome<(Vec<usize>, f64)> {
        scan(
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
        let expected = crate::enumerate::enumerate_placements(&shape(), 4, 32);
        for workers in [1, 2, 8] {
            let outcome = full_scan(workers);
            assert_eq!(outcome.workers, workers, "a 93-pull full scan brings its helpers in");
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
                let outcome = scan(
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
        let outcome = scan(
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
        let total = crate::enumerate::enumerate_placements(&shape(), 4, 32).len();
        assert!(outcome.scanned < total, "{} of {total} scanned", outcome.scanned);
        assert_eq!(outcome.results.len(), outcome.scanned);
    }

    #[test]
    fn first_error_in_enumeration_order_wins() {
        for workers in [1, 4] {
            let err = scan(
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
        let outcome = scan(
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
        let expected = crate::enumerate::enumerate_placements(&shape(), 4, 32);
        for workers in [1, 2, 8] {
            let seen: Mutex<Vec<ScanProgress>> = Mutex::new(Vec::new());
            let outcome = scan(
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
                assert!(p.workers == 1 || p.workers == workers, "{p:?}");
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
        let outcome = scan(
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
                let outcome = scan(
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
                let expected = crate::enumerate::enumerate_placements(&shape(), 4, 32);
                assert_eq!(outcome.results.len(), expected.len());
                // One drain per worker that scanned, summed into the
                // outcome.
                let drained = outcome.workers as u64;
                assert!(drained == 1 || drained == workers as u64);
                assert_eq!(outcome.delta.solve_hits, drained);
                assert_eq!(outcome.delta.solve_misses, 2 * drained);
                assert_eq!(outcome.delta.members_recomputed, 3 * drained);
                assert_eq!(outcome.delta.pruned, 4 * drained);
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
        let outcome = scan(
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
        let total = crate::enumerate::enumerate_placements(&shape(), 4, 32).len();
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
        let total = crate::enumerate::enumerate_placements(&shape(), 4, 32).len();
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
    fn a_top_k_beyond_the_space_is_never_an_allocation_size() {
        // `top_k` arrives off the wire; each worker once reserved room
        // for that many rows up front and aborted the process.
        let total = crate::enumerate::enumerate_placements(&shape(), 4, 32).len();
        for workers in [1, 2] {
            let (outcome, keeps) = count_keeps(|i| Some((i % 7) as f64), workers, 1 << 40);
            assert_eq!((outcome.results.len(), keeps, outcome.scanned), (total, total, total));
        }
    }

    #[test]
    fn top_k_edges_one_more_than_feasible_and_an_empty_space() {
        let total = crate::enumerate::enumerate_placements(&shape(), 4, 32).len();
        for workers in [1, 2, 8] {
            let (outcome, _) = count_keeps(|i| Some((i % 5) as f64), workers, 1);
            assert_eq!(outcome.results.len(), 1);
            assert_eq!(outcome.results[0].index, 4, "the earliest of the maxima");
            let (outcome, keeps) = count_keeps(|i| Some((i % 5) as f64), workers, total + 7);
            assert_eq!((outcome.results.len(), keeps), (total, total));
            let ranks: Vec<(usize, usize)> =
                outcome.results.iter().map(|h| (4 - h.index % 5, h.index)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "best first, ties by index");
            // 36 cores never fit one 32-core node: nothing to scan.
            let empty = scan(
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
    fn the_caller_scans_alone_until_a_bounded_scan_hands_out_its_solo_candidates() {
        let caller = std::thread::current().id();
        // 27 250 candidates: more than the solo count.
        let big = (EnsembleShape::uniform(5, 16, 1, 8), NodeBudget { max_nodes: 8, ..budget() });
        let small = (shape(), budget());
        let unbounded = 1usize << 40;
        // (space, top_k, chunk, evaluations before the scan is cancelled,
        // whether helpers come in). A full scan needs no more than a walk
        // left unfinished by its first pull; one pull of 256 holds all 186
        // candidates of the small space, so that walk is finished by the
        // time the caller could bring helpers in. A bounded one (`top_k`
        // beyond the space, so it skips nothing) also needs the solo
        // count handed out: one short never brings them in, the pull that
        // hands out number `SOLO_CANDIDATES` does.
        let cases = [
            (&small, 0usize, 1usize, None, true),
            (&small, 0, 256, None, false),
            (&small, unbounded, 1, None, false),
            (&small, unbounded, 256, None, false),
            (&big, unbounded, 1, Some(SOLO_CANDIDATES - 1), false),
            (&big, unbounded, 1, Some(SOLO_CANDIDATES), true),
            (&big, unbounded, SOLO_CANDIDATES, Some(1), true),
        ];
        for (space, top_k, chunk, stop, long) in cases {
            for workers in [1usize, 2, 3] {
                let inits = Mutex::new(Vec::new());
                let (foreign, evals) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let note = || {
                    if std::thread::current().id() != caller {
                        foreign.fetch_add(1, Ordering::SeqCst);
                    }
                };
                let outcome = scan(
                    &space.0,
                    space.1,
                    &ScanOptions { workers, chunk, top_k },
                    || inits.lock().unwrap().push(std::thread::current().id()),
                    |(), c| {
                        note();
                        evals.fetch_add(1, Ordering::SeqCst);
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
                    || stop.is_some_and(|n| evals.load(Ordering::SeqCst) >= n),
                    |_| {},
                )
                .expect("scan");
                let at = format!("top_k={top_k} chunk={chunk} stop={stop:?} workers={workers}");
                let inits = inits.into_inner().unwrap();
                let scanned_by = if long { workers } else { 1 };
                assert_eq!((inits.len(), outcome.workers), (scanned_by, scanned_by), "{at}");
                assert_eq!(inits.iter().filter(|&&id| id == caller).count(), 1, "{at}");
                assert_eq!(outcome.cancelled, stop.is_some(), "{at}");
                if scanned_by == 1 {
                    assert_eq!(foreign.into_inner(), 0, "{at}: a lone caller left its thread");
                }
            }
        }
    }

    /// The `eval` prologue of the two-worker full scans below. At `chunk`
    /// 1 the caller brings the helper in when it comes back for index 1;
    /// from there each worker's first evaluation waits for the other's,
    /// so the caller and the helper are both sure to hold a candidate —
    /// neither can drain the space before the other has started.
    fn meet(barrier: &std::sync::Barrier, met: &mut bool, c: Candidate<'_>) {
        if c.index >= 1 && !std::mem::replace(met, true) {
            barrier.wait();
        }
    }

    #[test]
    fn a_cancel_seen_by_the_caller_stops_the_helper_too() {
        // Only the caller's probe ever fires, after its first candidate
        // beside the helper; the helper must stop at its next pull
        // instead of draining the space.
        let caller = std::thread::current().id();
        let on_caller = || std::thread::current().id() == caller;
        let barrier = std::sync::Barrier::new(2);
        let caller_evals = AtomicUsize::new(0);
        let outcome = scan(
            &shape(),
            budget(),
            &ScanOptions { workers: 2, chunk: 1, top_k: 0 },
            || false,
            |met, c| {
                meet(&barrier, met, c);
                if on_caller() {
                    caller_evals.fetch_add(1, Ordering::SeqCst);
                }
                Ok::<_, ()>(Some(c.index))
            },
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || on_caller() && caller_evals.load(Ordering::SeqCst) > 1,
            |_| {},
        )
        .expect("scan");
        assert!(outcome.cancelled);
        assert_eq!(outcome.workers, 2);
        assert_eq!(caller_evals.into_inner(), 2);
        assert_eq!(outcome.results.len(), outcome.scanned);
    }

    #[test]
    fn an_error_on_the_caller_and_one_on_the_helper_resolve_by_index() {
        // Both workers fail on their first candidate side by side;
        // whichever thread drew the earlier index, that index's error is
        // the scan's.
        let barrier = std::sync::Barrier::new(2);
        let err = scan(
            &shape(),
            budget(),
            &ScanOptions { workers: 2, chunk: 1, top_k: 0 },
            || false,
            |met, c| {
                meet(&barrier, met, c);
                if c.index == 0 {
                    return Ok(Some(c.index));
                }
                Err::<Option<usize>, usize>(c.index)
            },
            |_, _, v| v,
            no_counters,
            |_| 0.0,
            || false,
            |_| {},
        )
        .expect_err("scan must fail");
        assert_eq!(err, 1);
    }

    #[test]
    #[should_panic(expected = "scan worker panicked")]
    fn a_panic_in_a_helper_resurfaces_on_the_caller() {
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let _ = scan(
            &shape(),
            budget(),
            &ScanOptions { workers: 2, chunk: 1, top_k: 0 },
            || false,
            |met, c| {
                meet(&barrier, met, c);
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

    /// A bounded scan whose visitor skips every prefix that splits a
    /// member (an analysis off its simulation's node) once it keeps
    /// `top_k`: each leaf it evaluates keeps its full-enumeration index,
    /// every skipped candidate is counted in `scanned` and `pruned`,
    /// and the result is the head of the full ranking.
    struct SplitSkipper {
        all: Vec<Vec<usize>>,
        hinted: AtomicUsize,
    }

    impl ScanVisitor for SplitSkipper {
        type State = Option<Vec<usize>>;
        type Scored = f64;
        type Row = Vec<usize>;
        type Error = ();
        fn init(&self) -> Option<Vec<usize>> {
            None
        }
        fn eval(&self, prev: &mut Option<Vec<usize>>, c: Candidate<'_>) -> Result<Option<f64>, ()> {
            assert_eq!(c.assignment, &self.all[c.index][..], "index {} moved", c.index);
            if let Some(h) = c.first_changed {
                let p = prev.as_ref().expect("hint implies a predecessor");
                assert_eq!(p[..h], c.assignment[..h], "hint skipped a real change");
                self.hinted.fetch_add(1, Ordering::SeqCst);
            }
            *prev = Some(c.assignment.to_vec());
            Ok(Some(toy_objective(c.assignment)))
        }
        fn objective(&self, scored: &f64) -> f64 {
            *scored
        }
        fn keep(&self, _: &mut Option<Vec<usize>>, c: Candidate<'_>, _: f64) -> Vec<usize> {
            c.assignment.to_vec()
        }
        fn prefix_bound(&self, prefix: &[usize], _: usize) -> f64 {
            let split = prefix.chunks_exact(2).any(|member| member[0] != member[1]);
            if split {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
    }

    #[test]
    fn skipped_subtrees_count_exactly_and_hints_follow_the_last_leaf_handed_out() {
        let all = crate::enumerate::enumerate_placements(&shape(), 4, 32);
        for workers in [1usize, 2, 8] {
            for chunk in [1usize, 7, 32] {
                for top_k in [1usize, 3] {
                    let visitor = SplitSkipper { all: all.clone(), hinted: AtomicUsize::new(0) };
                    let opts = ScanOptions { workers, chunk, top_k };
                    let outcome =
                        scan_placements(&shape(), budget(), &opts, &visitor).expect("scan");
                    assert_eq!(outcome.scanned, all.len(), "workers={workers} chunk={chunk}");
                    let evaluated = outcome.scanned - outcome.delta.pruned as usize;
                    assert_eq!(evaluated, outcome.feasible);
                    assert!(evaluated < all.len() / 2, "{evaluated} of {}", all.len());
                    if workers == 1 {
                        // Serial: every leaf after the first is hinted
                        // against the one handed out before it, however
                        // much was skipped between them.
                        assert_eq!(visitor.hinted.into_inner(), evaluated - 1, "chunk={chunk}");
                    }
                    assert_eq!(outcome.results.len(), top_k);
                }
            }
        }
    }

    /// Scores a toy objective blind to which member is which, with every
    /// member of [`shape`] one class: every copy scores what its
    /// representative does.
    struct Classed {
        evals: AtomicUsize,
    }

    fn classed_score(a: &[usize]) -> f64 {
        let colocated = a.chunks_exact(2).filter(|member| member[0] == member[1]).count();
        colocated as f64 - 0.1 * a.iter().max().map_or(0, |&n| n + 1) as f64
    }

    impl ScanVisitor for Classed {
        type State = ();
        type Scored = f64;
        type Row = Vec<usize>;
        type Error = ();
        fn init(&self) {}
        fn eval(&self, _: &mut (), c: Candidate<'_>) -> Result<Option<f64>, ()> {
            self.evals.fetch_add(1, Ordering::SeqCst);
            Ok(Some(classed_score(c.assignment)))
        }
        fn objective(&self, scored: &f64) -> f64 {
            *scored
        }
        fn keep(&self, _: &mut (), c: Candidate<'_>, _: f64) -> Vec<usize> {
            c.assignment.to_vec()
        }
        fn member_classes(&self, _: &(), _: usize) -> Option<Vec<usize>> {
            Some(vec![0; shape().members.len()])
        }
    }

    #[test]
    fn orbit_copies_rank_as_in_a_full_ranking() {
        let all = crate::enumerate::enumerate_placements(&shape(), 4, 32);
        let mut ranked: Vec<(usize, f64)> =
            all.iter().map(|a| classed_score(a)).enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        for workers in [1usize, 2, 8] {
            for top_k in [1usize, 3, 10] {
                let visitor = Classed { evals: AtomicUsize::new(0) };
                let opts = ScanOptions { workers, chunk: 2, top_k };
                let outcome = scan_placements(&shape(), budget(), &opts, &visitor).expect("scan");
                let at = format!("workers={workers} top_k={top_k}");
                let rows: Vec<(usize, &[usize])> =
                    outcome.results.iter().map(|h| (h.index, &h.value[..])).collect();
                let want: Vec<(usize, &[usize])> =
                    ranked[..top_k].iter().map(|&(i, _)| (i, &all[i][..])).collect();
                assert_eq!(rows, want, "{at}");
                assert_eq!(outcome.scanned, all.len(), "{at}");
                let evals = visitor.evals.into_inner();
                assert!(evals < all.len() / 2, "{at}: {evals} evaluated");
            }
        }
    }

    #[test]
    fn explicit_workers_beat_the_default() {
        assert_eq!(full_scan(3).workers, 3);
        assert!(full_scan(0).workers >= 1);
    }
}
