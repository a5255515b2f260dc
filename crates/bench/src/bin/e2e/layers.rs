//! The traced run: the same stream at one client, each op followed by
//! timed calls of the layers it went through, made with its own inputs.
//!
//! Passes, each on a freshly set-up service so that caches and counters
//! start equal:
//!
//! * **A**: every client of the workload, untraced: the per-kind
//!   medians under load, and one side of the queue-wait estimate;
//! * **C**: one client, untraced: the other side, and the base of
//!   the tracing-overhead ratio;
//! * **D**: one client calling the service in this process: a request
//!   without the wire and the codec;
//! * **B**: one client, traced: the spans, and every `(count)` metric.
//!
//! All four run a pinned number of ops, not a duration, so that the
//! counts of a traced run repeat exactly for a seed.

use std::collections::{BTreeMap, HashMap};

use crate::driver::{self, Client, Session, Stop, Tally, Timed};
use crate::measure;
use crate::oracle::{self, Outcome};
use crate::probes::{self, CoschedProbe, Inproc, InterferenceProbe, ServiceKind, SvcLayers};
use crate::report::Metric;
use crate::stats;
use crate::trace::{self, Span, SpanId, Tracer};
use crate::workload::{Kind, Op, Workload, WORKING_SET};

/// Every per-layer metric, with its unit. A workload that does not pass
/// through a layer reports 0 for it: the run prints the same names on
/// every workload, and a zero is the prediction "nothing moves here".
pub const PER_LAYER: &[(&str, &str)] = &[
    ("svc.server.wire_us", "us"),
    ("svc.service.inproc_us", "us"),
    ("svc.service.queue_wait_ms", "ms"),
    ("svc.json.parse_us", "us"),
    ("svc.json.parse_mb_s", "MB/s"),
    ("svc.protocol.decode_us", "us"),
    ("svc.protocol.encode_us", "us"),
    ("svc.protocol.reply_bytes", "B"),
    ("svc.cache.get_us", "us"),
    ("svc.cache.hit_ratio", "ratio"),
    ("svc.fair.push_pop_us", "us"),
    ("svc.journal.append_score_us", "us"),
    ("svc.journal.append_run_us", "us"),
    ("svc.journal.bytes_per_op", "B"),
    ("svc.journal.appends_per_op", "count"),
    ("svc.stats.snapshot_us", "us"),
    ("svc.requests_completed", "count"),
    ("svc.requests_rejected_overload", "count"),
    ("svc.requests_errored", "count"),
    ("scheduler.enumerate.ns_per_candidate", "ns"),
    ("scheduler.delta.ns_per_candidate", "ns"),
    ("scheduler.delta.solve_hit_ratio", "ratio"),
    ("scheduler.delta.members_recomputed_per_candidate", "1/candidate"),
    ("scheduler.scan.overhead_us", "us"),
    ("scheduler.scan.workers", "count"),
    ("scheduler.cosched.place_us", "us"),
    ("scheduler.cosched.release_us", "us"),
    ("scheduler.cosched.scanned_per_place", "count"),
    ("hpc-platform.interference.solve_us", "us"),
    ("hpc-platform.interference.solve4_us", "us"),
    ("hpc-platform.interference.solves_per_op", "1/op"),
    ("runtime.predictor.score_us", "us"),
    ("runtime.sim_exec.us_per_member_step", "us"),
    ("runtime.report.build_us", "us"),
    ("runtime.thread_exec.step_us", "us"),
    ("runtime.thread_exec.spawn_join_us", "us"),
    ("sim-des.engine.ns_per_event", "ns"),
    ("metrics.trace.records_per_run", "count"),
    ("ensemble-core.objective.ns_per_member", "ns"),
    ("dtl.staging.pair_us", "us"),
    ("dtl.staging.handoff_us", "us"),
    ("dtl.marshal.roundtrip_us", "us"),
    ("dtl.staging.puts", "count"),
    ("dtl.staging.gets", "count"),
    ("dtl.staging.retries", "count"),
    ("kernels.md.stride_us", "us"),
    ("kernels.analysis.frame_us", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_share", "ratio"),
    ("score_hit_p50_ms", "ms"),
    ("score_hit_full_p50_ms", "ms"),
    ("submit_p50_ms", "ms"),
    ("attach_p50_ms", "ms"),
    ("share.scheduler", "ratio"),
    ("share.runtime_des", "ratio"),
    ("share.svc", "ratio"),
    ("share.dtl_thread_exec", "ratio"),
    ("share.scheduler.score_hit", "ratio"),
    ("share.svc.score_hit", "ratio"),
    ("share.svc.attach", "ratio"),
    ("share.scheduler.submit", "ratio"),
];

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub samples: usize,
    pub spans: Vec<Span>,
}

/// The layer group a span's time is credited to in the shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Group {
    Scheduler,
    RuntimeDes,
    Svc,
    DtlThreads,
    Kernels,
}

fn group_of(name: &str) -> Option<Group> {
    let crate_name = name.split('.').next()?;
    Some(match crate_name {
        "scheduler" => Group::Scheduler,
        "svc" => Group::Svc,
        "dtl" => Group::DtlThreads,
        "kernels" => Group::Kernels,
        "runtime" if name.starts_with("runtime.thread_exec") => Group::DtlThreads,
        "runtime" => Group::RuntimeDes,
        _ => return None,
    })
}

/// Values collected while the metrics are put together.
struct Sheet(BTreeMap<&'static str, f64>);

impl Sheet {
    fn new() -> Sheet {
        Sheet(PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot =
            self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// Median duration of the spans called `span`, in µs; 0 when none.
    fn set_median_us(&mut self, name: &'static str, spans: &[Span], span: &str) {
        let us = trace::durations_us(spans, span);
        if !us.is_empty() {
            self.set(name, stats::median(&us));
        }
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER.iter().map(|(name, unit)| Metric::new(name, self.0[name], unit)).collect()
    }
}

/// `part / whole`, 0 when there is no whole. The sum of no spans is
/// `-0.0`; adding `0.0` keeps that sign out of the output.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole + 0.0
    } else {
        0.0
    }
}

/// Private instances of the layers a traced op is replayed through.
struct Replicas<'a> {
    svc: Option<SvcLayers>,
    cosched: CoschedProbe,
    inproc: Option<&'a Inproc>,
    /// Keys already stored in the replica caches.
    cached: std::collections::HashSet<String>,
    /// Median round trip of a request that does nothing (an `attach` of
    /// a job that never ran), ns.
    null_request_ns: u64,
}

/// What the traced pass learned per op, beyond the spans.
#[derive(Default)]
struct Observed {
    /// `(op id, kind, root ns)` per correct op.
    roots: Vec<(u64, &'static str, SpanId)>,
    /// Position in the stream of each of those ops.
    positions: Vec<usize>,
    /// RTT minus the service's own `elapsed_ms`, µs, per queued op.
    wire_us: Vec<f64>,
    /// Serial delta-walk time of each cold score, by op id.
    delta_ns: HashMap<u64, u64>,
    request_bytes: u64,
    reply_bytes: u64,
    replies: u64,
    scan_workers: u64,
    cold_scores: u64,
    candidates: u64,
    enumerate_ns: u64,
    delta_only_ns: u64,
    scanned_by_place: u64,
    places: u64,
    sim_ns: u64,
    member_steps: u64,
    trace_records: u64,
    runs: u64,
    staged: Vec<probes::StagedRun>,
    staged_steps: u64,
    /// The latest top-10 hit and full hit, for the journal score probe.
    last_hit: Option<(String, probes::Reply)>,
}

fn cache_key(kind: &Kind, id: u64) -> String {
    match kind {
        Kind::ScoreCold { shape, steps, top_k } => {
            format!("{}|{steps}|k={top_k}", shape.candidates())
        }
        Kind::ScoreHit { shape, steps } => format!("{}|{steps}|k=10", shape.candidates()),
        Kind::ScoreHitFull => "full".to_string(),
        Kind::Attach { job } => job.to_string(),
        _ => id.to_string(),
    }
}

/// What came back for a traced op, kept until the pass is over.
enum Answer {
    Line(String),
    /// A reply too large to keep per op; its rows are those of the first
    /// such reply, its `elapsed_ms` its own.
    LargeLine {
        elapsed_ms: f64,
    },
    Staged(probes::StagedRun),
}

/// Replies above this size are kept once, not per op.
const LARGE_REPLY: usize = 64 << 10;

/// Replays one answered request through the layers it crossed. Every
/// span is caused by `root`. `elapsed_ms` overrides the reply's own when
/// `line` stands in for a reply with the same rows.
fn replay_request(
    t: &mut Tracer,
    r: &mut Replicas<'_>,
    seen: &mut Observed,
    op: &Op,
    line: &str,
    elapsed_ms: Option<f64>,
    root: SpanId,
) -> Result<(), String> {
    let id = op.id;
    let under = Some(root);
    let reply = probes::decode_reply(line)?;
    let elapsed_ns = (elapsed_ms.unwrap_or(reply.elapsed_ms) * 1e6) as u64;
    let svc = r.svc.as_ref().expect("request workloads have service layers");

    // The connection thread: parse, decode, and later encode.
    let (parse, parsed) = t.span("svc.json.parse", id, under, || probes::json_parse(&op.line));
    let parsed = parsed?;
    let (decode, request) =
        t.span("svc.protocol.decode", id, under, || probes::decode_request(&parsed));
    let request = request?;
    let (encode, bytes) = t.span("svc.protocol.encode", id, under, || probes::encode_reply(&reply));
    seen.request_bytes += op.line.len() as u64;
    seen.reply_bytes += bytes as u64;
    seen.replies += 1;
    // Time on the round trip but outside the service's `elapsed_ms`
    // clock, which runs from admission to the worker's reply: the codec,
    // and the records a worker appends after it stopped that clock.
    let mut outside_clock_ns = t.ns(parse) + t.ns(decode) + t.ns(encode);

    if op.kind.queued() {
        // Admission, the worker's pop, and the admit record.
        t.span("svc.fair.push_pop", id, under, || svc.fair_push_pop(id));
        if svc.journals() {
            t.span("svc.journal.append_admit", id, under, || svc.journal_admit(&request));
        }
    }

    let key = cache_key(&op.kind, id);
    match op.kind {
        Kind::ScoreCold { shape, steps, .. } => {
            let (delta, walk) =
                t.span("scheduler.delta", id, under, || probes::delta_walk(shape, steps));
            let walk = walk?;
            let (walked, _) =
                t.span("scheduler.enumerate", id, Some(delta), || probes::enumerate_walk(shape));
            seen.delta_ns.insert(id, t.ns(delta));
            seen.cold_scores += 1;
            seen.candidates += walk.candidates;
            seen.enumerate_ns += t.ns(walked);
            seen.delta_only_ns += t.ns(delta).saturating_sub(t.ns(walked));
            seen.scan_workers = seen.scan_workers.max(reply.scan_workers);
            t.span("svc.cache.insert", id, under, || svc.cache_insert(&key, &reply));
            if svc.journals() {
                t.span("svc.journal.append_score", id, under, || svc.journal_score(&key, &reply));
            }
        }
        Kind::ScoreHit { .. } | Kind::ScoreHitFull => {
            if r.cached.insert(key.clone()) {
                svc.cache_insert(&key, &reply);
            }
            let (_, hit) = t.span("svc.cache.get", id, under, || svc.cache_get(&key, false));
            if !hit {
                return Err(format!("replica cache lost key {key}"));
            }
            if matches!(op.kind, Kind::ScoreHit { .. }) {
                seen.last_hit = Some((key, reply));
            }
        }
        Kind::Run { config, steps, jitter, seed, small } => {
            let (sim, run) = t.span("runtime.sim_exec", id, under, || {
                probes::SimRun::of_config(config, steps, jitter, seed, small)
            });
            let run = run?;
            t.span("runtime.report.build", id, under, || run.build_report()).1?;
            seen.sim_ns += t.ns(sim);
            seen.member_steps += op.kind.work_units();
            seen.trace_records += run.trace_records() as u64;
            seen.runs += 1;
            r.cached.insert(key.clone());
            t.span("svc.cache.insert", id, under, || svc.cache_insert(&key, &reply));
            if svc.journals() {
                let (append, ()) =
                    t.span("svc.journal.append_run", id, under, || svc.journal_run(&reply));
                outside_clock_ns += t.ns(append);
            }
        }
        Kind::Submit { shape, steps, seed } => {
            // One client: the previous job released its nodes before its
            // reply was sent, so the replica scheduler is as empty as the
            // service's was.
            let (_, placed) =
                t.span("scheduler.cosched.place", id, under, || r.cosched.place(id, shape));
            let (scanned, assignment) = placed?;
            seen.scanned_by_place += scanned;
            seen.places += 1;
            let (sim, run) = t.span("runtime.sim_exec", id, under, || {
                probes::SimRun::of_placement(shape, &assignment, steps, seed)
            });
            let run = run?;
            t.span("runtime.report.build", id, under, || run.build_report()).1?;
            seen.sim_ns += t.ns(sim);
            seen.member_steps += op.kind.work_units();
            seen.trace_records += run.trace_records() as u64;
            seen.runs += 1;
            let (release, released) =
                t.span("scheduler.cosched.release", id, under, || r.cosched.release(id));
            released?;
            outside_clock_ns += t.ns(release);
            if svc.journals() {
                let (append, ()) =
                    t.span("svc.journal.append_release", id, under, || svc.journal_release(id));
                outside_clock_ns += t.ns(append);
            }
        }
        Kind::Attach { .. } => {
            if r.cached.insert(key.clone()) {
                svc.cache_insert(&key, &reply);
            }
            let (_, hit) = t.span("svc.cache.get", id, under, || svc.cache_get(&key, true));
            if !hit {
                return Err(format!("replica run index lost job {key}"));
            }
        }
        Kind::Metrics => {
            if let Some(inproc) = r.inproc {
                t.span("svc.stats.snapshot", id, under, || inproc.stats_snapshot());
            }
        }
        Kind::Staged { .. } => unreachable!("staged ops have no request line"),
    }

    // The wire: what is left of the round trip once the service's own
    // clock and the spans outside it are taken out (sockets, wake-ups,
    // the transfer). Requests the connection thread answers itself carry
    // no clock of their own; theirs is the round trip of a null request.
    let wire_ns = if op.kind.queued() {
        let beyond_clock = t.ns(root).saturating_sub(elapsed_ns);
        seen.wire_us.push(beyond_clock as f64 / 1e3);
        beyond_clock.saturating_sub(outside_clock_ns)
    } else {
        r.null_request_ns.min(t.ns(root))
    };
    let start = t.spans()[root].start_ns;
    t.record("svc.server.wire", id, under, start, start + wire_ns);
    Ok(())
}

/// Replays one threaded call. On its blocking path are the simulation's
/// strides, the hand-off of each frame and the start and join of the
/// threads; the analysis of frame `i` overlaps stride `i + 1`, so its
/// span is recorded beside the call, not under it.
fn replay_staged(t: &mut Tracer, id: u64, root: SpanId, steps: u64) -> Result<(), String> {
    let under = Some(root);
    let (_, frames) = t.span("kernels.md.stride", id, under, || probes::md_strides(steps));
    t.span("kernels.analysis.frame", id, None, || probes::analyse_frames(&frames));
    let frame = frames.last().ok_or("no frame produced")?;
    t.span("dtl.staging.handoff", id, under, || probes::staging_handoff(frame, steps)).1?;
    t.span("runtime.thread_exec.spawn_join", id, under, || probes::staged_run(1)).1?;
    // Not on the path: the same pairs with nobody waiting, and the codec.
    t.span("dtl.staging.pair", id, None, || probes::staging_pairs(frame, steps)).1?;
    t.span("dtl.marshal.roundtrip", id, None, || probes::marshal_roundtrip(frame)).1?;
    Ok(())
}

/// Median of `reps` timings of `f`, in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Layers that sit inside other layers' calls, where the benchmark
/// cannot time them per op: measured once, on the workloads whose ops
/// reach them.
fn nested_layers(
    workload: Workload,
    sheet: &mut Sheet,
    inproc: Option<&Inproc>,
) -> Result<(), String> {
    let scores = matches!(workload, Workload::ScoreCold | Workload::SvcMix);
    let simulates = matches!(workload, Workload::RunDes | Workload::SvcMix);
    if scores || simulates {
        for (name, tenants) in
            [("hpc-platform.interference.solve_us", 2), ("hpc-platform.interference.solve4_us", 4)]
        {
            let probe = InterferenceProbe::new(tenants)?;
            sheet.set(
                name,
                median_ns(200, || {
                    std::hint::black_box(probe.solve());
                }) / 1e3,
            );
        }
    }
    if scores {
        let ns = median_ns(200, || {
            std::hint::black_box(probes::predictor_score(probes::RUN_CONFIG_C1_5).ok());
        });
        sheet.set("runtime.predictor.score_us", ns / 1e3);
        let members = 1_000;
        let ns = median_ns(200, || {
            std::hint::black_box(probes::objective_of(members));
        });
        sheet.set("ensemble-core.objective.ns_per_member", ns / members as f64);
    }
    if simulates {
        let events = 10_000;
        let ns = median_ns(20, || {
            std::hint::black_box(probes::engine_events(events));
        });
        sheet.set("sim-des.engine.ns_per_event", ns / events as f64);
    }
    if let Some(inproc) = inproc {
        let ns = median_ns(200, || {
            std::hint::black_box(inproc.stats_snapshot());
        });
        sheet.set("svc.stats.snapshot_us", ns / 1e3);
    }
    Ok(())
}

/// An untraced pass of `n` ops per client on a fresh session.
fn plain_pass(
    workload: Workload,
    seed: u64,
    clients: usize,
    n: usize,
    quick: bool,
    tally: &mut Tally,
) -> Result<Vec<Timed>, String> {
    let mut session = Session::start(workload, seed, clients, quick)?;
    let timed = driver::drive(&mut session.clients, Stop::Ops(n));
    tally.absorb(&session.total());
    session.close();
    Ok(timed)
}

/// Latency of each correct op of a one-client pass, by position.
fn by_position(timed: &[Timed]) -> Vec<f64> {
    timed.first().map_or(Vec::new(), |t| t.ops.iter().map(|(_, ms)| *ms).collect())
}

/// The traced pass proper: `n` ops of client 0, back to back, each with
/// a root span; then the replay of every op's layers under its root.
fn traced_pass(
    session: &mut Session<'_>,
    replicas: &mut Replicas<'_>,
    n: usize,
) -> Result<(Tracer, Observed), String> {
    let mut tracer = Tracer::new();
    let mut seen = Observed::default();
    // A request that does nothing, sent after every eighth op: what a
    // round trip costs in the middle of this stream when the service has
    // no work to do for it.
    let null_request = Op::new(0, Kind::Attach { job: 0 });
    let mut null_round_trips = Vec::new();
    // The ops run back to back, as in the untraced passes: replaying an
    // op's layers before sending the next one would let the service's
    // threads go to sleep between requests, and the traced round trips
    // would measure their waking up. So the loop only keeps what the
    // replay needs, and the layers are replayed when the pass is over.
    let mut answered: Vec<(Op, Answer, SpanId)> = Vec::with_capacity(n);
    let mut large_reply: Option<String> = None;
    let client: &mut Client<'_> = &mut session.clients[0];
    for position in 0..n {
        let op = client.stream.next_op();
        let Some((outcome, ns)) = client.issue(&op) else { continue };
        let end = tracer.now_ns();
        let root = tracer.record("op", op.id, None, end.saturating_sub(ns), end);
        seen.roots.push((op.id, op.kind.label(), root));
        seen.positions.push(position);
        let answer = match outcome {
            Outcome::Staged(run) => Answer::Staged(run),
            // Every full hit carries the same 4 038 rows; one copy serves
            // them all, each with its own `elapsed_ms`.
            Outcome::Line(line) if line.len() > LARGE_REPLY => {
                let elapsed_ms = oracle::scalar_field(&line, "elapsed_ms")
                    .and_then(|raw| raw.parse().ok())
                    .ok_or("reply without elapsed_ms")?;
                large_reply.get_or_insert(line);
                Answer::LargeLine { elapsed_ms }
            }
            Outcome::Line(line) => Answer::Line(line),
        };
        answered.push((op, answer, root));
        if replicas.svc.is_some() && position % 8 == 7 {
            let (_, ns) = client.endpoint.call(&null_request)?;
            null_round_trips.push(ns as f64);
        }
    }
    if !null_round_trips.is_empty() {
        replicas.null_request_ns = stats::median(&null_round_trips) as u64;
    }
    for (op, answer, root) in &answered {
        let (t, root) = (&mut tracer, *root);
        let replayed = match answer {
            Answer::Line(line) => replay_request(t, replicas, &mut seen, op, line, None, root),
            Answer::LargeLine { elapsed_ms } => {
                let line = large_reply.as_deref().expect("kept with the first large reply");
                replay_request(t, replicas, &mut seen, op, line, Some(*elapsed_ms), root)
            }
            Answer::Staged(run) => {
                seen.staged.push(*run);
                seen.staged_steps += op.kind.work_units();
                replay_staged(t, op.id, root, op.kind.work_units())
            }
        };
        if let Err(what) = replayed {
            client.tally.fail(format!("{} #{} (replay): {what}", op.kind.label(), op.id));
        }
    }
    // The journal's score record is written by cold scores, which
    // `svc_mix` only has while priming: timed here on the working set's
    // top-10 rankings.
    if let (Some(svc), Some((key, reply))) = (&replicas.svc, &seen.last_hit) {
        if svc.journals() {
            for _ in 0..WORKING_SET {
                tracer.span("svc.journal.append_score", 0, None, || svc.journal_score(key, reply));
            }
        }
    }
    Ok((tracer, seen))
}

/// What the four passes produced.
struct Passes {
    /// Ops per client in each pass.
    n: usize,
    timed_a: Vec<Timed>,
    timed_c: Vec<Timed>,
    /// Pass D latencies by op position, ms.
    inproc_ms: Vec<f64>,
    tracer: Tracer,
    seen: Observed,
    /// The service's `metrics` rows after pass B drained.
    rows: Vec<(String, f64)>,
    /// Ops the pass-B service answered, priming and checks included.
    ops_answered: f64,
    tally: Tally,
}

impl Passes {
    fn row(&self, name: &str) -> f64 {
        self.rows.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v)
    }

    /// Round trip of every correct traced op, µs.
    fn traced_us(&self) -> Vec<f64> {
        let spans = self.tracer.spans();
        self.seen.roots.iter().map(|(_, _, root)| spans[*root].ns() as f64 / 1e3).collect()
    }
}

fn run_passes(
    workload: Workload,
    seed: u64,
    quick: bool,
    sheet: &mut Sheet,
) -> Result<Passes, String> {
    let n = workload.trace_ops(quick);
    let mut tally = Tally::default();
    let has_service = workload != Workload::StagingThreaded;

    // Pass A.
    let timed_a = (workload.clients() > 1)
        .then(|| plain_pass(workload, seed, workload.clients(), n, quick, &mut tally))
        .transpose()?;

    // Pass D, on a service of the same configuration in this process.
    let inproc_journal = driver::fresh_journal();
    let inproc = match workload {
        Workload::StagingThreaded => None,
        Workload::SvcMix => Some(ServiceKind::Mix { journal: inproc_journal.clone() }),
        _ => Some(ServiceKind::Plain),
    }
    .map(|kind| Inproc::start(&kind).map_err(|e| format!("in-process service: {e}")))
    .transpose()?;
    let mut inproc_ms = Vec::new();
    if let Some(service) = &inproc {
        let mut session = Session::inproc(workload, seed, service, quick)?;
        inproc_ms = by_position(&driver::drive(&mut session.clients, Stop::Ops(n)));
        tally.absorb(&session.total());
    }

    // Pass C, right before the traced pass it is compared with.
    let timed_c = plain_pass(workload, seed, 1, n, quick, &mut tally)?;
    let timed_a = timed_a.unwrap_or_else(|| timed_c.clone());

    // Pass B.
    let layer_journal = driver::fresh_journal();
    let journaled = (workload == Workload::SvcMix).then_some(layer_journal.as_path());
    let mut replicas = Replicas {
        svc: has_service
            .then(|| SvcLayers::new(journaled))
            .transpose()
            .map_err(|e| format!("layer journal: {e}"))?,
        cosched: CoschedProbe::new(),
        inproc: inproc.as_ref(),
        cached: Default::default(),
        null_request_ns: 0,
    };
    let mut session = Session::start(workload, seed, 1, quick)?;
    let (tracer, seen) = traced_pass(&mut session, &mut replicas, n)?;
    let (sent, rows) = session.finish();
    tally.absorb(&sent);

    nested_layers(workload, sheet, inproc.as_ref())?;
    drop(replicas);
    if let Some(service) = inproc {
        service.shutdown();
    }
    driver::remove_journal(&inproc_journal);
    driver::remove_journal(&layer_journal);
    Ok(Passes {
        n,
        timed_a,
        timed_c,
        inproc_ms,
        tracer,
        seen,
        rows,
        ops_answered: sent.attempted as f64,
        tally,
    })
}

fn svc_metrics(p: &Passes, sheet: &mut Sheet) {
    let (spans, seen) = (p.tracer.spans(), &p.seen);
    if !p.inproc_ms.is_empty() {
        sheet.set("svc.service.inproc_us", stats::median(&p.inproc_ms) * 1e3);
    }
    sheet.set(
        "svc.service.queue_wait_ms",
        measure::p50_ms(&p.timed_a) - measure::p50_ms(&p.timed_c),
    );
    for (metric, kind) in [
        ("score_hit_p50_ms", "score_hit"),
        ("score_hit_full_p50_ms", "score_hit_full"),
        ("submit_p50_ms", "submit"),
        ("attach_p50_ms", "attach"),
    ] {
        sheet.set(metric, measure::kind_p50_ms(&p.timed_a, kind).unwrap_or(0.0));
    }
    if !seen.wire_us.is_empty() {
        sheet.set("svc.server.wire_us", stats::median(&seen.wire_us));
    }
    sheet.set_median_us("svc.json.parse_us", spans, "svc.json.parse");
    let parse_us: f64 = trace::durations_us(spans, "svc.json.parse").iter().sum();
    sheet.set("svc.json.parse_mb_s", ratio(seen.request_bytes as f64, parse_us));
    sheet.set_median_us("svc.protocol.decode_us", spans, "svc.protocol.decode");
    sheet.set_median_us("svc.protocol.encode_us", spans, "svc.protocol.encode");
    sheet.set("svc.protocol.reply_bytes", ratio(seen.reply_bytes as f64, seen.replies as f64));
    sheet.set_median_us("svc.cache.get_us", spans, "svc.cache.get");
    let lookups = p.row("cache_hits") + p.row("cache_misses");
    sheet.set("svc.cache.hit_ratio", ratio(p.row("cache_hits"), lookups));
    sheet.set_median_us("svc.fair.push_pop_us", spans, "svc.fair.push_pop");
    sheet.set_median_us("svc.journal.append_score_us", spans, "svc.journal.append_score");
    sheet.set_median_us("svc.journal.append_run_us", spans, "svc.journal.append_run");
    sheet.set("svc.journal.bytes_per_op", ratio(p.row("journal_bytes"), p.ops_answered));
    sheet.set("svc.journal.appends_per_op", ratio(p.row("journal_appended"), p.ops_answered));
    // In-stream `metrics` ops, where the workload has them, outrank the
    // one-off timing `nested_layers` took.
    if trace::durations_us(spans, "svc.stats.snapshot").len() > 1 {
        sheet.set_median_us("svc.stats.snapshot_us", spans, "svc.stats.snapshot");
    }
    sheet.set("svc.requests_completed", p.row("requests_completed"));
    sheet.set("svc.requests_rejected_overload", p.row("requests_rejected_overload"));
    sheet.set("svc.requests_errored", p.row("requests_errored"));
}

fn scheduler_metrics(p: &Passes, sheet: &mut Sheet) {
    let (spans, seen) = (p.tracer.spans(), &p.seen);
    let candidates = seen.candidates as f64;
    sheet.set("scheduler.enumerate.ns_per_candidate", ratio(seen.enumerate_ns as f64, candidates));
    sheet.set("scheduler.delta.ns_per_candidate", ratio(seen.delta_only_ns as f64, candidates));
    let solves = p.row("delta_solve_hits") + p.row("delta_solve_misses");
    sheet.set("scheduler.delta.solve_hit_ratio", ratio(p.row("delta_solve_hits"), solves));
    sheet.set(
        "scheduler.delta.members_recomputed_per_candidate",
        ratio(p.row("delta_members_recomputed"), p.row("candidates_scanned")),
    );
    // The same cold score in process (pass D) minus its serial walk here:
    // thread fan-out, chunk hand-off, merge, sort and the cache insert.
    // Ops pair up by position, so every op of both passes must be there.
    let overheads: Vec<f64> = seen
        .roots
        .iter()
        .zip(&seen.positions)
        .filter_map(|((id, _, _), &position)| {
            let walk_us = *seen.delta_ns.get(id)? as f64 / 1e3;
            Some(p.inproc_ms.get(position)? * 1e3 - walk_us)
        })
        .collect();
    if !overheads.is_empty() && p.inproc_ms.len() == p.n && seen.positions.len() == p.n {
        sheet.set("scheduler.scan.overhead_us", stats::median(&overheads));
    }
    sheet.set("scheduler.scan.workers", seen.scan_workers as f64);
    sheet.set_median_us("scheduler.cosched.place_us", spans, "scheduler.cosched.place");
    sheet.set_median_us("scheduler.cosched.release_us", spans, "scheduler.cosched.release");
    sheet.set(
        "scheduler.cosched.scanned_per_place",
        ratio(seen.scanned_by_place as f64, seen.places as f64),
    );
    sheet.set(
        "hpc-platform.interference.solves_per_op",
        ratio(p.row("delta_solve_misses"), p.row("requests_executed")),
    );
}

fn runtime_metrics(p: &Passes, sheet: &mut Sheet) {
    let (spans, seen) = (p.tracer.spans(), &p.seen);
    sheet.set(
        "runtime.sim_exec.us_per_member_step",
        ratio(seen.sim_ns as f64 / 1e3, seen.member_steps as f64),
    );
    sheet.set_median_us("runtime.report.build_us", spans, "runtime.report.build");
    let staged_records: u64 = seen.staged.iter().map(|s| s.trace_records as u64).sum();
    sheet.set(
        "metrics.trace.records_per_run",
        ratio(
            (seen.trace_records + staged_records) as f64,
            (seen.runs + seen.staged.len() as u64) as f64,
        ),
    );
    if seen.staged.is_empty() {
        return;
    }
    let steps = seen.staged_steps as f64;
    let total_us = |span: &str| trace::durations_us(spans, span).iter().sum::<f64>();
    let spawn_join = "runtime.thread_exec.spawn_join";
    sheet.set_median_us("runtime.thread_exec.spawn_join_us", spans, spawn_join);
    let spawn_us = stats::median(&trace::durations_us(spans, spawn_join));
    let calls = seen.staged.len() as f64;
    sheet.set("runtime.thread_exec.step_us", (total_us("op") - spawn_us * calls) / steps);
    for (metric, span) in [
        ("dtl.staging.pair_us", "dtl.staging.pair"),
        ("dtl.staging.handoff_us", "dtl.staging.handoff"),
        ("kernels.md.stride_us", "kernels.md.stride"),
        ("kernels.analysis.frame_us", "kernels.analysis.frame"),
    ] {
        sheet.set(metric, total_us(span) / steps);
    }
    sheet.set_median_us("dtl.marshal.roundtrip_us", spans, "dtl.marshal.roundtrip");
    sheet.set("dtl.staging.puts", seen.staged.iter().map(|s| s.puts).sum::<u64>() as f64);
    sheet.set("dtl.staging.gets", seen.staged.iter().map(|s| s.gets).sum::<u64>() as f64);
    sheet.set("dtl.staging.retries", seen.staged.iter().map(|s| s.retries).sum::<u64>() as f64);
}

/// Self time of each layer group as a share of the round trips, per op
/// kind and over the pass, and what no span explains. Prints the table
/// of every kind on standard error.
fn share_metrics(p: &Passes, sheet: &mut Sheet, workload: Workload) {
    let spans = p.tracer.spans();
    let own = trace::self_times(spans);
    let mut root_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unexplained_ns: HashMap<&'static str, f64> = HashMap::new();
    let mut group_ns: HashMap<(&'static str, Group), f64> = HashMap::new();
    let kind_of: HashMap<SpanId, &'static str> =
        p.seen.roots.iter().map(|(_, k, root)| (*root, *k)).collect();
    for (_, kind, root) in &p.seen.roots {
        *root_ns.entry(*kind).or_default() += spans[*root].ns() as f64;
        *unexplained_ns.entry(*kind).or_default() += own[*root] as f64;
    }
    for (id, span) in spans.iter().enumerate() {
        // Credit self time, so a span and the spans it caused never count
        // the same nanosecond twice.
        let mut top = id;
        while let Some(parent) = spans[top].cause {
            top = parent;
        }
        if let (Some(kind), Some(group)) = (kind_of.get(&top), group_of(span.name)) {
            *group_ns.entry((*kind, group)).or_default() += own[id] as f64;
        }
    }
    let total_root: f64 = root_ns.values().sum();
    let share = |kind: Option<&str>, group: Group| -> f64 {
        let part: f64 = group_ns
            .iter()
            .filter(|((k, g), _)| kind.is_none_or(|want| *k == want) && *g == group)
            .map(|(_, ns)| *ns)
            .sum();
        let whole = kind.map_or(total_root, |k| root_ns.get(k).copied().unwrap_or(0.0));
        ratio(part, whole)
    };
    sheet.set("share.scheduler", share(None, Group::Scheduler));
    sheet.set("share.runtime_des", share(None, Group::RuntimeDes));
    sheet.set("share.svc", share(None, Group::Svc));
    // Whatever a threaded call spends outside the MD kernel is staging
    // and thread management, whether or not a span names it.
    let staged_root = root_ns.get("staged").copied().unwrap_or(0.0);
    let md = group_ns.get(&("staged", Group::Kernels)).copied().unwrap_or(0.0);
    sheet.set("share.dtl_thread_exec", ratio(staged_root - md, staged_root));
    sheet.set("share.scheduler.score_hit", share(Some("score_hit"), Group::Scheduler));
    sheet.set("share.svc.score_hit", share(Some("score_hit"), Group::Svc));
    sheet.set("share.svc.attach", share(Some("attach"), Group::Svc));
    sheet.set("share.scheduler.submit", share(Some("submit"), Group::Scheduler));

    let groups =
        [Group::Scheduler, Group::RuntimeDes, Group::Svc, Group::Kernels, Group::DtlThreads];
    let mut worst: f64 = 0.0;
    eprintln!("e2e: {}: share of the round trip by layer group, per op kind", workload.name());
    eprintln!(
        "  {:<16} {:>6} {:>10} {:>9} {:>11} {:>7} {:>8} {:>8} {:>12}",
        "kind",
        "ops",
        "p50_us",
        "scheduler",
        "runtime_des",
        "svc",
        "kernels",
        "dtl_thr",
        "unattributed"
    );
    for (kind, ns) in &root_ns {
        let unattributed = ratio(unexplained_ns[kind], *ns);
        worst = worst.max(unattributed);
        let us: Vec<f64> = p
            .seen
            .roots
            .iter()
            .filter(|(_, k, _)| k == kind)
            .map(|(_, _, root)| spans[*root].ns() as f64 / 1e3)
            .collect();
        let [scheduler, runtime_des, svc, kernels, dtl_thr] =
            groups.map(|group| share(Some(kind), group));
        eprintln!(
            "  {kind:<16} {:>6} {:>10.1} {scheduler:>9.3} {runtime_des:>11.3} {svc:>7.3} {kernels:>8.3} {dtl_thr:>8.3} {unattributed:>12.3}",
            us.len(),
            stats::median(&us),
        );
    }
    sheet.set("trace.unattributed_share", worst);
}

pub fn traced(workload: Workload, seed: u64, quick: bool) -> Result<Traced, String> {
    let mut sheet = Sheet::new();
    let passes = run_passes(workload, seed, quick, &mut sheet)?;
    svc_metrics(&passes, &mut sheet);
    scheduler_metrics(&passes, &mut sheet);
    runtime_metrics(&passes, &mut sheet);
    share_metrics(&passes, &mut sheet, workload);
    let traced_us = passes.traced_us();
    if !traced_us.is_empty() {
        let traced_p50_ms = stats::median(&traced_us) / 1e3;
        sheet.set("trace.overhead_ratio", ratio(traced_p50_ms, measure::p50_ms(&passes.timed_c)));
    }
    let tally = passes.tally;
    sheet.set("failed_share", ratio(tally.failed as f64, tally.attempted as f64));
    Ok(Traced {
        metrics: sheet.into_metrics(),
        tally,
        samples: traced_us.len(),
        spans: passes.tracer.spans().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_grouped_by_crate() {
        assert_eq!(group_of("scheduler.delta"), Some(Group::Scheduler));
        assert_eq!(group_of("runtime.sim_exec"), Some(Group::RuntimeDes));
        assert_eq!(group_of("runtime.thread_exec.spawn_join"), Some(Group::DtlThreads));
        assert_eq!(group_of("svc.server.wire"), Some(Group::Svc));
        assert_eq!(group_of("op"), None);
    }

    /// `BENCHMARK.json` sits at the repository root, above whichever
    /// package this file is built in.
    #[test]
    fn benchmark_json_declares_exactly_the_metrics_printed() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        };
        let declared = probes::parse_benchmark(&text).unwrap();
        let printed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared.per_layer, printed);
        let end_to_end: Vec<&str> =
            declared.end_to_end.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(end_to_end, measure::END_TO_END);
    }

    #[test]
    fn metric_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}
