//! Request/response schema of the provisioning service and its
//! JSON-lines wire form.
//!
//! One request or response per line. Two work request kinds mirror the
//! two evaluation paths the library offers:
//!
//! * `score` — ensemble shape + node budget → every canonical feasible
//!   placement evaluated with the closed-form predictor
//!   ([`scheduler::fast_eval`]), ranked by `F(Pᵁ·ᴬ·ᴾ)`, top-k returned.
//! * `run` — a fully placed spec → one simulated execution through
//!   [`runtime::EnsembleRunner`], summarized per member.
//!
//! Plus `metrics`, answered immediately from the live counters (it never
//! queues, so it works under overload — that is the point of a health
//! endpoint).
//!
//! ```text
//! → {"type":"score","id":1,"members":[{"sim_cores":16,"analyses":[8]}],
//!    "max_nodes":3,"cores_per_node":32,"top_k":3,"steps":6,"workloads":"small"}
//! ← {"type":"score_result","id":1,"cached":false,"elapsed_ms":2.1,
//!    "placements":[{"assignment":[0,0],"objective":0.93,...}]}
//! ```

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ensemble_core::{ComponentSpec, EnsembleSpec, MemberSpec};
use scheduler::{EnsembleShape, NodeBudget};

use crate::json::{encoded, write_bool, write_f64, write_seq, write_str, write_u64, Value};

/// One ranked placement in a score response: the scheduler's ranking
/// row.
pub use scheduler::RankedPlacement;

/// Which workload map a request evaluates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workloads {
    /// The paper's Cori-scale workloads (default).
    #[default]
    Paper,
    /// Laptop-scale workloads (same contention shapes, ~1000× less
    /// virtual work) — what tests and benchmarks use.
    Small,
}

impl Workloads {
    fn tag(self) -> &'static str {
        match self {
            Workloads::Paper => "paper",
            Workloads::Small => "small",
        }
    }
}

/// A `score` request: rank placements of `shape` under `budget`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Component structure to place.
    pub shape: EnsembleShape,
    /// Node/core budget constraining the enumeration.
    pub budget: NodeBudget,
    /// Placements to return (best-first). Zero means all.
    pub top_k: usize,
    /// Steps assumed by the closed-form evaluation.
    pub steps: u64,
    /// Workload scale.
    pub workloads: Workloads,
    /// Most scan worker threads for this request, clamped to the host's
    /// available parallelism (the reply's `scan_workers` says how many
    /// scanned). Zero defers to the service's configured default. Never
    /// part of the cache key: the
    /// scan is bit-identical at every worker count, so results are
    /// shared across requests that differ only here.
    pub workers: usize,
}

/// A `submit` request: hand an *unplaced* shape to the co-scheduler,
/// which places it against the live residual capacity (queueing or
/// backfilling as needed) and then runs it at the decided placement.
/// Requires the service to be started in co-scheduling mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Component structure to place and run.
    pub shape: EnsembleShape,
    /// In situ steps to simulate once placed.
    pub steps: u64,
    /// Per-step jitter fraction.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
    /// Workload scale.
    pub workloads: Workloads,
}

/// A `run` request: simulate one fully placed spec.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The placed ensemble.
    pub spec: EnsembleSpec,
    /// In situ steps to simulate.
    pub steps: u64,
    /// Per-step jitter fraction.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
    /// Workload scale.
    pub workloads: Workloads,
}

/// The work carried by a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Rank placements analytically.
    Score(ScoreRequest),
    /// Full simulated run.
    Run(RunRequest),
    /// Co-scheduled run: the service places the shape against live
    /// residual capacity, then runs it.
    Submit(SubmitRequest),
    /// Re-fetch the result of a completed `run` by its job id (the
    /// request id the original `run` carried). Served from the
    /// completed-job index, which the journal rebuilds across restarts.
    Attach {
        /// Job id of the completed run to fetch.
        job: u64,
    },
    /// Metrics snapshot (served out-of-band, never queued).
    Metrics,
    /// Open a replication stream: the server tails its journal and
    /// streams every record (plus heartbeats carrying the fencing
    /// epoch) over this connection until the client hangs up. Served
    /// out-of-band by the connection's own thread, never queued.
    Replicate,
}

/// Opt-in request for interim `progress` frames ahead of the final
/// response. Absent from the wire entirely when not requested, so
/// legacy clients see byte-identical behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressSpec {
    /// Emit a frame roughly every N candidates scanned (`score` only).
    pub every_candidates: Option<u64>,
    /// Emit a frame at most every T milliseconds of wall clock.
    pub every_ms: Option<u64>,
}

impl ProgressSpec {
    /// The throttle applied when `{"progress":{}}` names no cadence:
    /// one frame per 100 ms.
    pub const DEFAULT_EVERY_MS: u64 = 100;
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Relative deadline; expired requests are answered with a
    /// `deadline` error instead of (or part-way through) executing.
    pub deadline: Option<Duration>,
    /// When set, the server interleaves `progress` frames before the
    /// final response on the same connection.
    pub progress: Option<ProgressSpec>,
    /// Optional tenant id for per-tenant metrics attribution (and,
    /// later, quotas). Absent from the wire when unset, so legacy
    /// clients see byte-identical behavior.
    pub tenant: Option<String>,
    /// The work.
    pub body: RequestBody,
}

/// A best-first ranking: immutable, shared by reference count between
/// the score cache, every reply that serves it and the journal record
/// that persists it. Dereferences to its rows; a [`prefix`](Self::prefix)
/// is the same allocation with a shorter view, which is how one cached
/// full ranking answers any `top_k`.
///
/// The rows' wire bytes are produced once, the first time anything
/// encodes the ranking, and kept beside the rows: from then on a reply
/// or a journal record carrying it is a copy of those bytes behind a
/// freshly written header, whatever the prefix.
#[derive(Clone)]
pub struct Ranking {
    shared: Arc<RankingRows>,
    len: usize,
}

struct RankingRows {
    rows: Vec<RankedPlacement>,
    wire: OnceLock<RowBytes>,
}

/// `row,row,...` and, per row, the offset just past it (before the
/// comma), so the first `k` rows are `bytes[..ends[k - 1]]`.
struct RowBytes {
    bytes: String,
    ends: Vec<usize>,
}

impl Ranking {
    /// The first `rows` placements (all of them when there are fewer).
    pub fn prefix(&self, rows: usize) -> Ranking {
        Ranking { shared: Arc::clone(&self.shared), len: rows.min(self.len) }
    }

    /// True when both view one allocation, whose rows are formatted at
    /// most once whichever of the two is encoded, and however often.
    #[cfg(test)]
    pub(crate) fn shares_rows_with(&self, other: &Ranking) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// True once the rows' bytes exist.
    #[cfg(test)]
    pub(crate) fn is_encoded(&self) -> bool {
        self.shared.wire.get().is_some()
    }

    /// Appends the rows in view as a JSON array.
    pub(crate) fn write_json(&self, out: &mut String) {
        let wire = self.shared.wire.get_or_init(|| {
            let rows = &self.shared.rows;
            let mut bytes = String::new();
            let mut ends = Vec::with_capacity(rows.len());
            for row in rows {
                if !bytes.is_empty() {
                    bytes.push(',');
                }
                write_placement(&mut bytes, row);
                ends.push(bytes.len());
            }
            bytes.shrink_to_fit();
            RowBytes { bytes, ends }
        });
        // An empty view has no last row to end at.
        let end = wire.ends[..self.len].last().copied().unwrap_or(0);
        // Room for the rows and for the few bytes every caller closes
        // with (`]}` and a newline, or a journal seal), so a buffer
        // sized by this call is not doubled by them.
        out.reserve(end + 64);
        out.push('[');
        out.push_str(&wire.bytes[..end]);
        out.push(']');
    }
}

impl From<Vec<RankedPlacement>> for Ranking {
    fn from(rows: Vec<RankedPlacement>) -> Ranking {
        let len = rows.len();
        Ranking { shared: Arc::new(RankingRows { rows, wire: OnceLock::new() }), len }
    }
}

impl std::ops::Deref for Ranking {
    type Target = [RankedPlacement];

    fn deref(&self) -> &[RankedPlacement] {
        &self.shared.rows[..self.len]
    }
}

impl<'a> IntoIterator for &'a Ranking {
    type Item = &'a RankedPlacement;
    type IntoIter = std::slice::Iter<'a, RankedPlacement>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Ranking {
    fn eq(&self, other: &Ranking) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Ranking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Per-member summary of a run response.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSummary {
    /// `σ̄*`, seconds.
    pub sigma_star: f64,
    /// `E` (Eq. 3).
    pub efficiency: f64,
    /// `CP` (Eq. 6).
    pub cp: f64,
    /// Member makespan, seconds.
    pub makespan: f64,
}

/// Structured error kinds a request can be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a valid request.
    Malformed,
    /// The deadline expired before a result was produced.
    Deadline,
    /// The request was cancelled (client gone, explicit cancel).
    Cancelled,
    /// The spec/budget was structurally invalid or infeasible.
    Invalid,
    /// Evaluation failed internally.
    Internal,
    /// An `attach` named a job the completed-run index does not hold.
    NotFound,
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
    /// The service is a warm standby: it serves read-only requests
    /// (`metrics`, `attach`) but does not admit work until promoted.
    Standby,
}

impl ErrorKind {
    /// Wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Internal => "internal",
            ErrorKind::NotFound => "not_found",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Standby => "standby",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "malformed" => ErrorKind::Malformed,
            "deadline" => ErrorKind::Deadline,
            "cancelled" => ErrorKind::Cancelled,
            "invalid" => ErrorKind::Invalid,
            "internal" => ErrorKind::Internal,
            "not_found" => ErrorKind::NotFound,
            "shutting_down" => ErrorKind::ShuttingDown,
            "standby" => ErrorKind::Standby,
            _ => return None,
        })
    }
}

/// One service response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ranked placements for a score request.
    ScoreResult {
        /// Echoed request id.
        id: u64,
        /// Best-first placements.
        placements: Ranking,
        /// True when served from the score cache.
        cached: bool,
        /// Submit→response latency, milliseconds.
        elapsed_ms: f64,
        /// Worker threads the scan actually ran with (zero for cache
        /// hits — no scan happened).
        scan_workers: u64,
        /// Candidates the scan accounted for — evaluated, or skipped
        /// with a subtree that could not rank — before finishing (or
        /// being stopped by deadline/cancel). Zero for cache hits.
        candidates_scanned: u64,
    },
    /// Summary of a completed simulated run.
    RunResult {
        /// Echoed request id.
        id: u64,
        /// Ensemble makespan, seconds.
        ensemble_makespan: f64,
        /// Per-member summaries, member order.
        members: Vec<MemberSummary>,
        /// Submit→response latency, milliseconds.
        elapsed_ms: f64,
    },
    /// Summary of a completed co-scheduled run, including the placement
    /// the scheduler decided and the residual capacity it left behind.
    SubmitResult {
        /// Echoed request id.
        id: u64,
        /// Physical node assignment chosen (member-major, simulation
        /// first) — same layout as a score placement.
        assignment: Vec<usize>,
        /// Objective `F(Pᵁ·ᴬ·ᴾ)` of residents + this job at admission.
        objective: f64,
        /// Nodes this job occupies.
        nodes_used: u64,
        /// True when the job started ahead of the queue head via
        /// backfill.
        backfilled: bool,
        /// Wall-clock time spent in the admission queue, milliseconds.
        queue_wait_ms: f64,
        /// Free cores per node right after this job's reservation
        /// opened (the residual the *next* submit will see).
        residual: Vec<u64>,
        /// Ensemble makespan, seconds.
        ensemble_makespan: f64,
        /// Per-member summaries, member order.
        members: Vec<MemberSummary>,
        /// Submit→response latency, milliseconds.
        elapsed_ms: f64,
    },
    /// Metrics snapshot rows.
    Metrics {
        /// Echoed request id.
        id: u64,
        /// `(metric, value)` rows in wire order (see `Service::metrics`).
        rows: Vec<(String, f64)>,
    },
    /// Admission refused: the queue is full. Retry after the hint.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Suggested client back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// Structured failure.
    Error {
        /// Echoed request id (zero when the request had none).
        id: u64,
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::ScoreResult { id, .. }
            | Response::RunResult { id, .. }
            | Response::SubmitResult { id, .. }
            | Response::Metrics { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

const NON_NEGATIVE: &str = "a non-negative integer";

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?.as_u64().ok_or_else(|| format!("field '{key}' must be {NON_NEGATIVE}"))
}

/// An optional field: absent is `None`; present but refused by `read`
/// is an error naming the field and the `expected` type, never a
/// silent default.
fn optional<'v, T>(
    v: &'v Value,
    key: &str,
    read: impl FnOnce(&'v Value) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, String> {
    v.get(key)
        .map(|x| read(x).ok_or_else(|| format!("field '{key}' must be {expected}")))
        .transpose()
}

/// The nonempty `members` array of a `kind` request.
fn member_list<'v>(v: &'v Value, kind: &str) -> Result<&'v [Value], String> {
    let members = field(v, "members")?.as_arr().ok_or("field 'members' must be an array")?;
    if members.is_empty() {
        return Err(format!("{kind} request needs at least one member"));
    }
    Ok(members)
}

/// The ensemble shape of a `score` or `submit` request, or of a
/// journaled reservation.
pub(crate) fn shape_from_value(v: &Value, kind: &str) -> Result<EnsembleShape, String> {
    let members = member_list(v, kind)?
        .iter()
        .map(|m| {
            let sim = u32::try_from(u64_field(m, "sim_cores")?)
                .map_err(|_| "sim_cores too large".to_string())?;
            let anas = field(m, "analyses")?
                .as_arr()
                .ok_or("field 'analyses' must be an array")?
                .iter()
                .map(|a| {
                    a.as_u64()
                        .and_then(|c| u32::try_from(c).ok())
                        .ok_or("analysis core counts must be small integers")
                })
                .collect::<Result<Vec<u32>, _>>()?;
            Ok((sim, anas))
        })
        .collect::<Result<_, String>>()?;
    Ok(EnsembleShape { members })
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?.as_f64().ok_or_else(|| format!("field '{key}' must be a number"))
}

/// Appends an ensemble shape as the `members` array of `score` and
/// `submit` requests and of journaled reservations.
pub(crate) fn write_shape_members(out: &mut String, members: &[(u32, Vec<u32>)]) {
    write_seq(out, members, |out, (sim, anas)| {
        out.push_str("{\"sim_cores\":");
        write_u64(out, u64::from(*sim));
        out.push_str(",\"analyses\":");
        write_seq(out, anas, |out, &a| write_u64(out, u64::from(a)));
        out.push('}');
    });
}

/// Appends `,"steps":..,"jitter":..,"seed":..,"workloads":".."`, the
/// shared tail of `run` and `submit` requests.
fn write_run_settings(out: &mut String, steps: u64, jitter: f64, seed: u64, workloads: Workloads) {
    out.push_str(",\"steps\":");
    write_u64(out, steps);
    out.push_str(",\"jitter\":");
    write_f64(out, jitter);
    out.push_str(",\"seed\":");
    write_u64(out, seed);
    out.push_str(",\"workloads\":");
    write_str(out, workloads.tag());
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        encoded(|out| self.write_json(out))
    }

    /// Appends the request's JSON object to `out` (the journal embeds
    /// requests inside its admit records).
    pub fn write_json(&self, out: &mut String) {
        let kind = match &self.body {
            RequestBody::Score(_) => "score",
            RequestBody::Run(_) => "run",
            RequestBody::Submit(_) => "submit",
            RequestBody::Attach { .. } => "attach",
            RequestBody::Metrics => "metrics",
            RequestBody::Replicate => "replicate",
        };
        out.push_str("{\"type\":");
        write_str(out, kind);
        out.push_str(",\"id\":");
        write_u64(out, self.id);
        match &self.body {
            RequestBody::Score(s) => {
                out.push_str(",\"members\":");
                write_shape_members(out, &s.shape.members);
                out.push_str(",\"max_nodes\":");
                write_u64(out, s.budget.max_nodes as u64);
                out.push_str(",\"cores_per_node\":");
                write_u64(out, u64::from(s.budget.cores_per_node));
                out.push_str(",\"top_k\":");
                write_u64(out, s.top_k as u64);
                out.push_str(",\"steps\":");
                write_u64(out, s.steps);
                out.push_str(",\"workloads\":");
                write_str(out, s.workloads.tag());
                if s.workers != 0 {
                    out.push_str(",\"workers\":");
                    write_u64(out, s.workers as u64);
                }
            }
            RequestBody::Run(r) => {
                let first_node = |c: &ComponentSpec| c.nodes.iter().next().copied().unwrap_or(0);
                out.push_str(",\"members\":");
                write_seq(out, &r.spec.members, |out, m| {
                    out.push_str("{\"sim_cores\":");
                    write_u64(out, u64::from(m.simulation.cores));
                    out.push_str(",\"sim_node\":");
                    write_u64(out, first_node(&m.simulation) as u64);
                    out.push_str(",\"analyses\":");
                    write_seq(out, &m.analyses, |out, a| {
                        out.push_str("{\"cores\":");
                        write_u64(out, u64::from(a.cores));
                        out.push_str(",\"node\":");
                        write_u64(out, first_node(a) as u64);
                        out.push('}');
                    });
                    out.push('}');
                });
                write_run_settings(out, r.steps, r.jitter, r.seed, r.workloads);
            }
            RequestBody::Submit(s) => {
                out.push_str(",\"members\":");
                write_shape_members(out, &s.shape.members);
                write_run_settings(out, s.steps, s.jitter, s.seed, s.workloads);
            }
            RequestBody::Attach { job } => {
                out.push_str(",\"job\":");
                write_u64(out, *job);
            }
            RequestBody::Metrics | RequestBody::Replicate => {}
        }
        if let Some(d) = self.deadline {
            out.push_str(",\"deadline_ms\":");
            write_u64(out, d.as_millis() as u64);
        }
        if let Some(p) = self.progress {
            out.push_str(",\"progress\":{");
            if let Some(n) = p.every_candidates {
                out.push_str("\"every_candidates\":");
                write_u64(out, n);
            }
            if let Some(t) = p.every_ms {
                if p.every_candidates.is_some() {
                    out.push(',');
                }
                out.push_str("\"every_ms\":");
                write_u64(out, t);
            }
            out.push('}');
        }
        if let Some(t) = &self.tenant {
            out.push_str(",\"tenant\":");
            write_str(out, t);
        }
        out.push('}');
    }

    /// Decodes a request from a parsed JSON value.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let id = optional(v, "id", Value::as_u64, NON_NEGATIVE)?.unwrap_or(0);
        let deadline =
            optional(v, "deadline_ms", Value::as_u64, NON_NEGATIVE)?.map(Duration::from_millis);
        let progress = match v.get("progress") {
            None => None,
            Some(p) => {
                if !matches!(p, Value::Obj(_)) {
                    return Err("field 'progress' must be an object".into());
                }
                Some(ProgressSpec {
                    every_candidates: optional(p, "every_candidates", Value::as_u64, NON_NEGATIVE)?,
                    every_ms: optional(p, "every_ms", Value::as_u64, NON_NEGATIVE)?,
                })
            }
        };
        let tenant = match optional(v, "tenant", Value::as_str, "a string")? {
            None => None,
            Some(tag) => {
                validate_tenant(tag)?;
                Some(tag.to_string())
            }
        };
        let kind = field(v, "type")?.as_str().ok_or("field 'type' must be a string")?;
        let workloads = match optional(v, "workloads", Value::as_str, "a string")? {
            None | Some("paper") => Workloads::Paper,
            Some("small") => Workloads::Small,
            Some(other) => return Err(format!("unknown workloads '{other}'")),
        };
        // Run settings, refused only by the kinds that read them.
        let steps = optional(v, "steps", Value::as_u64, NON_NEGATIVE);
        let jitter = optional(v, "jitter", Value::as_f64, "a number");
        let seed = optional(v, "seed", Value::as_u64, NON_NEGATIVE);
        let body = match kind {
            "metrics" => RequestBody::Metrics,
            "replicate" => RequestBody::Replicate,
            "attach" => RequestBody::Attach { job: u64_field(v, "job")? },
            "score" => RequestBody::Score(ScoreRequest {
                shape: shape_from_value(v, kind)?,
                budget: NodeBudget {
                    max_nodes: u64_field(v, "max_nodes")? as usize,
                    cores_per_node: u32::try_from(u64_field(v, "cores_per_node")?)
                        .map_err(|_| "cores_per_node too large".to_string())?,
                },
                top_k: optional(v, "top_k", Value::as_usize, NON_NEGATIVE)?.unwrap_or(0),
                steps: steps?.unwrap_or(6),
                workloads,
                workers: optional(v, "workers", Value::as_usize, NON_NEGATIVE)?.unwrap_or(0),
            }),
            "run" => {
                let mut specs = Vec::new();
                for m in member_list(v, kind)? {
                    let sim_cores = u32::try_from(u64_field(m, "sim_cores")?)
                        .map_err(|_| "sim_cores too large".to_string())?;
                    let sim_node = u64_field(m, "sim_node")? as usize;
                    let analyses = field(m, "analyses")?
                        .as_arr()
                        .ok_or("field 'analyses' must be an array")?
                        .iter()
                        .map(|a| {
                            let cores = u32::try_from(u64_field(a, "cores")?)
                                .map_err(|_| "analysis cores too large".to_string())?;
                            let node = u64_field(a, "node")? as usize;
                            Ok(ComponentSpec::analysis(cores, node))
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    specs.push(MemberSpec::new(
                        ComponentSpec::simulation(sim_cores, sim_node),
                        analyses,
                    ));
                }
                RequestBody::Run(RunRequest {
                    spec: EnsembleSpec::new(specs),
                    steps: steps?.unwrap_or(8),
                    jitter: jitter?.unwrap_or(0.0),
                    seed: seed?.unwrap_or(0),
                    workloads,
                })
            }
            "submit" => RequestBody::Submit(SubmitRequest {
                shape: shape_from_value(v, kind)?,
                steps: steps?.unwrap_or(8),
                jitter: jitter?.unwrap_or(0.0),
                seed: seed?.unwrap_or(0),
                workloads,
            }),
            other => return Err(format!("unknown request type '{other}'")),
        };
        Ok(Request { id, deadline, progress, tenant, body })
    }

    /// Decodes a request from one JSON line.
    pub fn from_json(line: &str) -> Result<Request, String> {
        let v = Value::parse(line).map_err(|e| e.to_string())?;
        Request::from_value(&v)
    }
}

/// Maximum accepted tenant-tag length, bytes.
pub const MAX_TENANT_LEN: usize = 64;

/// Validates a tenant tag: nonempty, at most [`MAX_TENANT_LEN`] bytes,
/// drawn from `[A-Za-z0-9._-]`. Rejecting everything else at decode
/// keeps a hostile client from growing the tenant table with arbitrary
/// strings and keeps the `tenant_<name>_<counter>` metric-row grammar
/// unambiguous (tags cannot contain `,`, whitespace, or further `_`
/// ambiguity beyond their own). Error messages start with
/// `invalid tenant` so the server can answer with a structured
/// `invalid` error instead of `malformed`.
pub fn validate_tenant(tag: &str) -> Result<(), String> {
    if tag.is_empty() {
        return Err("invalid tenant: tag must be nonempty".to_string());
    }
    if tag.len() > MAX_TENANT_LEN {
        return Err(format!(
            "invalid tenant: tag exceeds {MAX_TENANT_LEN} bytes ({} given)",
            tag.len()
        ));
    }
    if let Some(bad) =
        tag.chars().find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!("invalid tenant: character {bad:?} outside [A-Za-z0-9._-] in tag"));
    }
    Ok(())
}

/// Appends a placement's JSON object (a row of a score response and of
/// a journaled ranking).
fn write_placement(out: &mut String, row: &RankedPlacement) {
    out.push_str("{\"assignment\":");
    write_seq(out, &row.assignment, |out, &n| write_u64(out, n as u64));
    out.push_str(",\"objective\":");
    write_f64(out, row.objective);
    out.push_str(",\"nodes_used\":");
    write_u64(out, row.nodes_used as u64);
    out.push_str(",\"ensemble_makespan\":");
    write_f64(out, row.ensemble_makespan);
    out.push_str(",\"eq4_satisfied\":");
    write_bool(out, row.eq4_satisfied);
    out.push('}');
}

/// Decodes one ranked placement from a JSON value.
pub(crate) fn placement_from_value(p: &Value) -> Result<RankedPlacement, String> {
    Ok(RankedPlacement {
        assignment: field(p, "assignment")?
            .as_arr()
            .ok_or("assignment must be an array")?
            .iter()
            .map(|n| n.as_usize().ok_or("assignment entries must be ints"))
            .collect::<Result<Vec<_>, _>>()?,
        objective: f64_field(p, "objective")?,
        nodes_used: u64_field(p, "nodes_used")? as usize,
        ensemble_makespan: f64_field(p, "ensemble_makespan")?,
        eq4_satisfied: field(p, "eq4_satisfied")?
            .as_bool()
            .ok_or("eq4_satisfied must be a bool")?,
    })
}

/// Appends `,"ensemble_makespan":..,"elapsed_ms":..,"members":[..]}`,
/// the shared tail of `run_result` and `submit_result`.
fn write_run_summary(out: &mut String, makespan: f64, elapsed_ms: f64, members: &[MemberSummary]) {
    out.push_str(",\"ensemble_makespan\":");
    write_f64(out, makespan);
    out.push_str(",\"elapsed_ms\":");
    write_f64(out, elapsed_ms);
    out.push_str(",\"members\":");
    write_seq(out, members, |out, m| {
        out.push_str("{\"sigma_star\":");
        write_f64(out, m.sigma_star);
        out.push_str(",\"efficiency\":");
        write_f64(out, m.efficiency);
        out.push_str(",\"cp\":");
        write_f64(out, m.cp);
        out.push_str(",\"makespan\":");
        write_f64(out, m.makespan);
        out.push('}');
    });
    out.push('}');
}

fn member_from_value(m: &Value) -> Result<MemberSummary, String> {
    Ok(MemberSummary {
        sigma_star: f64_field(m, "sigma_star")?,
        efficiency: f64_field(m, "efficiency")?,
        cp: f64_field(m, "cp")?,
        makespan: f64_field(m, "makespan")?,
    })
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        encoded(|out| self.write_json(out))
    }

    /// Appends the response's JSON object to `out` (the journal embeds
    /// run results inside its own records).
    pub fn write_json(&self, out: &mut String) {
        let kind = match self {
            Response::ScoreResult { .. } => "score_result",
            Response::RunResult { .. } => "run_result",
            Response::SubmitResult { .. } => "submit_result",
            Response::Metrics { .. } => "metrics",
            Response::Overloaded { .. } => "overloaded",
            Response::Error { .. } => "error",
        };
        out.push_str("{\"type\":");
        write_str(out, kind);
        out.push_str(",\"id\":");
        write_u64(out, self.id());
        match self {
            Response::ScoreResult {
                placements,
                cached,
                elapsed_ms,
                scan_workers,
                candidates_scanned,
                ..
            } => {
                out.push_str(",\"cached\":");
                write_bool(out, *cached);
                out.push_str(",\"elapsed_ms\":");
                write_f64(out, *elapsed_ms);
                out.push_str(",\"scan_workers\":");
                write_u64(out, *scan_workers);
                out.push_str(",\"candidates_scanned\":");
                write_u64(out, *candidates_scanned);
                out.push_str(",\"placements\":");
                placements.write_json(out);
                out.push('}');
            }
            Response::RunResult { ensemble_makespan, members, elapsed_ms, .. } => {
                write_run_summary(out, *ensemble_makespan, *elapsed_ms, members);
            }
            Response::SubmitResult {
                assignment,
                objective,
                nodes_used,
                backfilled,
                queue_wait_ms,
                residual,
                ensemble_makespan,
                members,
                elapsed_ms,
                ..
            } => {
                out.push_str(",\"assignment\":");
                write_seq(out, assignment, |out, &n| write_u64(out, n as u64));
                out.push_str(",\"objective\":");
                write_f64(out, *objective);
                out.push_str(",\"nodes_used\":");
                write_u64(out, *nodes_used);
                out.push_str(",\"backfilled\":");
                write_bool(out, *backfilled);
                out.push_str(",\"queue_wait_ms\":");
                write_f64(out, *queue_wait_ms);
                out.push_str(",\"residual\":");
                write_seq(out, residual, |out, &c| write_u64(out, c));
                write_run_summary(out, *ensemble_makespan, *elapsed_ms, members);
            }
            Response::Metrics { rows, .. } => {
                out.push_str(",\"rows\":{");
                for (i, (name, value)) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, name);
                    out.push(':');
                    write_f64(out, *value);
                }
                out.push_str("}}");
            }
            Response::Overloaded { retry_after_ms, .. } => {
                out.push_str(",\"retry_after_ms\":");
                write_u64(out, *retry_after_ms);
                out.push('}');
            }
            Response::Error { kind, message, .. } => {
                out.push_str(",\"kind\":");
                write_str(out, kind.tag());
                out.push_str(",\"message\":");
                write_str(out, message);
                out.push('}');
            }
        }
    }

    /// Decodes a response from one JSON line (the client side).
    pub fn from_json(line: &str) -> Result<Response, String> {
        let v = Value::parse(line).map_err(|e| e.to_string())?;
        Response::from_value(&v)
    }

    /// Decodes a response from a parsed JSON value.
    pub fn from_value(v: &Value) -> Result<Response, String> {
        let id = u64_field(v, "id")?;
        match field(v, "type")?.as_str().ok_or("field 'type' must be a string")? {
            "score_result" => {
                let placements = field(v, "placements")?
                    .as_arr()
                    .ok_or("field 'placements' must be an array")?
                    .iter()
                    .map(placement_from_value)
                    .collect::<Result<Vec<_>, String>>()?;
                // Absent on records written before the scan engine
                // existed (journal replay): zero.
                let count = |key: &str| {
                    optional(v, key, Value::as_u64, NON_NEGATIVE).map(Option::unwrap_or_default)
                };
                Ok(Response::ScoreResult {
                    id,
                    placements: placements.into(),
                    cached: field(v, "cached")?.as_bool().ok_or("cached must be a bool")?,
                    elapsed_ms: f64_field(v, "elapsed_ms")?,
                    scan_workers: count("scan_workers")?,
                    candidates_scanned: count("candidates_scanned")?,
                })
            }
            "run_result" => {
                let members = field(v, "members")?
                    .as_arr()
                    .ok_or("field 'members' must be an array")?
                    .iter()
                    .map(member_from_value)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::RunResult {
                    id,
                    ensemble_makespan: f64_field(v, "ensemble_makespan")?,
                    members,
                    elapsed_ms: f64_field(v, "elapsed_ms")?,
                })
            }
            "submit_result" => {
                let members = field(v, "members")?
                    .as_arr()
                    .ok_or("field 'members' must be an array")?
                    .iter()
                    .map(member_from_value)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::SubmitResult {
                    id,
                    assignment: field(v, "assignment")?
                        .as_arr()
                        .ok_or("assignment must be an array")?
                        .iter()
                        .map(|n| n.as_usize().ok_or("assignment entries must be ints"))
                        .collect::<Result<Vec<_>, _>>()?,
                    objective: f64_field(v, "objective")?,
                    nodes_used: u64_field(v, "nodes_used")?,
                    backfilled: field(v, "backfilled")?
                        .as_bool()
                        .ok_or("backfilled must be a bool")?,
                    queue_wait_ms: f64_field(v, "queue_wait_ms")?,
                    residual: field(v, "residual")?
                        .as_arr()
                        .ok_or("residual must be an array")?
                        .iter()
                        .map(|c| c.as_u64().ok_or("residual entries must be ints"))
                        .collect::<Result<Vec<_>, _>>()?,
                    ensemble_makespan: f64_field(v, "ensemble_makespan")?,
                    members,
                    elapsed_ms: f64_field(v, "elapsed_ms")?,
                })
            }
            "metrics" => {
                let rows = match field(v, "rows")? {
                    Value::Obj(fields) => fields
                        .iter()
                        .map(|(k, val)| {
                            val.as_f64()
                                .map(|n| (k.clone(), n))
                                .ok_or("metric values must be numbers")
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("field 'rows' must be an object".into()),
                };
                Ok(Response::Metrics { id, rows })
            }
            "overloaded" => {
                Ok(Response::Overloaded { id, retry_after_ms: u64_field(v, "retry_after_ms")? })
            }
            "error" => Ok(Response::Error {
                id,
                kind: ErrorKind::from_tag(
                    field(v, "kind")?.as_str().ok_or("kind must be a string")?,
                )
                .ok_or("unknown error kind")?,
                message: field(v, "message")?
                    .as_str()
                    .ok_or("message must be a string")?
                    .to_string(),
            }),
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}

/// What an interim progress frame reports, by request kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressBody {
    /// Scan progress of a `score` request.
    Score {
        /// Candidates evaluated so far.
        candidates_scanned: u64,
        /// Best objective seen so far (absent until one is feasible).
        best_objective: Option<f64>,
        /// Worker threads driving the scan.
        workers: u64,
    },
    /// Step progress of a `run` simulation.
    Run {
        /// Lowest simulated step across members (the ensemble frontier).
        steps: u64,
        /// Current simulated step per member, member order.
        member_steps: Vec<u64>,
    },
    /// Admission progress of a co-scheduled `submit` request.
    Submit {
        /// Wait-queue position ahead of this job (present while
        /// queued).
        queue_depth: Option<u64>,
        /// Decided physical assignment (present once placed, before
        /// the run starts).
        assignment: Option<Vec<usize>>,
    },
}

/// One interim progress frame, sent before the final response of a
/// progress-opted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Progress {
    /// Echoed request id.
    pub id: u64,
    /// Kind-specific progress payload.
    pub body: ProgressBody,
}

impl Progress {
    /// Encodes the frame as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        encoded(|out| self.write_json(out))
    }

    /// Appends the frame's JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"type\":\"progress\",\"id\":");
        write_u64(out, self.id);
        match &self.body {
            ProgressBody::Score { candidates_scanned, best_objective, workers } => {
                out.push_str(",\"kind\":\"score\",\"candidates_scanned\":");
                write_u64(out, *candidates_scanned);
                if let Some(best) = best_objective {
                    out.push_str(",\"best_objective\":");
                    write_f64(out, *best);
                }
                out.push_str(",\"workers\":");
                write_u64(out, *workers);
            }
            ProgressBody::Run { steps, member_steps } => {
                out.push_str(",\"kind\":\"run\",\"steps\":");
                write_u64(out, *steps);
                out.push_str(",\"member_steps\":");
                write_seq(out, member_steps, |out, &s| write_u64(out, s));
            }
            ProgressBody::Submit { queue_depth, assignment } => {
                out.push_str(",\"kind\":\"submit\"");
                if let Some(d) = queue_depth {
                    out.push_str(",\"queue_depth\":");
                    write_u64(out, *d);
                }
                if let Some(a) = assignment {
                    out.push_str(",\"assignment\":");
                    write_seq(out, a, |out, &n| write_u64(out, n as u64));
                }
            }
        }
        out.push('}');
    }

    /// Decodes a frame from a parsed JSON value.
    pub fn from_value(v: &Value) -> Result<Progress, String> {
        let id = u64_field(v, "id")?;
        let body = match field(v, "kind")?.as_str().ok_or("field 'kind' must be a string")? {
            "score" => ProgressBody::Score {
                candidates_scanned: u64_field(v, "candidates_scanned")?,
                best_objective: v.get("best_objective").and_then(Value::as_f64),
                workers: u64_field(v, "workers")?,
            },
            "run" => ProgressBody::Run {
                steps: u64_field(v, "steps")?,
                member_steps: field(v, "member_steps")?
                    .as_arr()
                    .ok_or("field 'member_steps' must be an array")?
                    .iter()
                    .map(|s| s.as_u64().ok_or("member_steps entries must be ints"))
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "submit" => ProgressBody::Submit {
                queue_depth: optional(v, "queue_depth", Value::as_u64, NON_NEGATIVE)?,
                assignment: match v.get("assignment") {
                    None => None,
                    Some(a) => Some(
                        a.as_arr()
                            .ok_or("assignment must be an array")?
                            .iter()
                            .map(|n| n.as_usize().ok_or("assignment entries must be ints"))
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                },
            },
            other => return Err(format!("unknown progress kind '{other}'")),
        };
        Ok(Progress { id, body })
    }
}

/// One wire frame of a (possibly streaming) reply: zero or more
/// `Progress` frames followed by exactly one `Final` response.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Interim progress of a progress-opted request.
    Progress(Progress),
    /// The terminal response; exactly one per request.
    Final(Response),
}

impl Frame {
    /// The request id this frame answers.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Progress(p) => p.id,
            Frame::Final(r) => r.id(),
        }
    }

    /// Encodes the frame as one JSON line (no trailing newline).
    /// Final responses encode exactly as [`Response::to_json`] — the
    /// frame wrapper adds nothing to the wire.
    pub fn to_json(&self) -> String {
        encoded(|out| self.write_json(out))
    }

    /// Appends the frame's JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Frame::Progress(p) => p.write_json(out),
            Frame::Final(r) => r.write_json(out),
        }
    }

    /// Decodes one reply line into a frame: `{"type":"progress",...}`
    /// becomes [`Frame::Progress`], anything else a final [`Response`].
    pub fn from_json(line: &str) -> Result<Frame, String> {
        let v = Value::parse(line).map_err(|e| e.to_string())?;
        if v.get("type").and_then(Value::as_str) == Some("progress") {
            Ok(Frame::Progress(Progress::from_value(&v)?))
        } else {
            Ok(Frame::Final(Response::from_value(&v)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score_request() -> Request {
        Request {
            id: 42,
            deadline: Some(Duration::from_millis(750)),
            progress: None,
            tenant: None,
            body: RequestBody::Score(ScoreRequest {
                shape: EnsembleShape::uniform(2, 16, 1, 8),
                budget: NodeBudget { max_nodes: 3, cores_per_node: 32 },
                top_k: 5,
                steps: 6,
                workloads: Workloads::Small,
                workers: 0,
            }),
        }
    }

    #[test]
    fn score_request_roundtrips() {
        let req = score_request();
        let decoded = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn score_request_workers_roundtrip_and_default() {
        let mut req = score_request();
        // workers = 0 (service default) stays off the wire entirely.
        assert!(!req.to_json().contains("workers"), "{}", req.to_json());
        if let RequestBody::Score(ref mut s) = req.body {
            s.workers = 4;
        }
        let line = req.to_json();
        assert!(line.contains("\"workers\":4"), "{line}");
        assert_eq!(Request::from_json(&line).unwrap(), req);
    }

    #[test]
    fn run_request_roundtrips() {
        let req = Request {
            id: 7,
            deadline: None,
            progress: None,
            tenant: None,
            body: RequestBody::Run(RunRequest {
                spec: ensemble_core::ConfigId::C1_5.build(),
                steps: 8,
                jitter: 0.01,
                seed: 3,
                workloads: Workloads::Paper,
            }),
        };
        let decoded = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn attach_request_roundtrips() {
        let req = Request {
            id: 3,
            deadline: None,
            progress: None,
            tenant: None,
            body: RequestBody::Attach { job: 77 },
        };
        let line = req.to_json();
        assert!(line.contains("\"type\":\"attach\""), "{line}");
        assert!(line.contains("\"job\":77"), "{line}");
        let decoded = Request::from_json(&line).unwrap();
        assert_eq!(decoded, req);
        // A missing job id is malformed, not a silent default.
        assert!(Request::from_json(r#"{"type":"attach","id":3}"#).unwrap_err().contains("job"));
    }

    #[test]
    fn submit_request_roundtrips() {
        let req = Request {
            id: 11,
            deadline: Some(Duration::from_millis(5000)),
            progress: None,
            tenant: Some("team-a".into()),
            body: RequestBody::Submit(SubmitRequest {
                shape: EnsembleShape::uniform(2, 16, 1, 8),
                steps: 4,
                jitter: 0.0,
                seed: 7,
                workloads: Workloads::Small,
            }),
        };
        let line = req.to_json();
        assert!(line.contains("\"type\":\"submit\""), "{line}");
        assert!(line.contains("\"tenant\":\"team-a\""), "{line}");
        assert_eq!(Request::from_json(&line).unwrap(), req);
        // An empty member list is malformed.
        let err = Request::from_json(r#"{"type":"submit","id":1,"members":[]}"#).unwrap_err();
        assert!(err.contains("at least one member"), "{err}");
    }

    #[test]
    fn tenant_stays_off_the_wire_when_unset() {
        // Legacy wire lines are byte-identical: no tenant key appears
        // unless the client set one, and absent decodes to None.
        let req = score_request();
        assert!(!req.to_json().contains("tenant"), "{}", req.to_json());
        assert_eq!(Request::from_json(&req.to_json()).unwrap().tenant, None);
        let mut with = req.clone();
        with.tenant = Some("acme".into());
        assert_eq!(Request::from_json(&with.to_json()).unwrap(), with);
        // A non-string tenant is refused, not silently dropped.
        let err = Request::from_json(r#"{"type":"metrics","id":1,"tenant":7}"#).unwrap_err();
        assert!(err.contains("tenant"), "{err}");
    }

    #[test]
    fn tenant_tags_are_validated_at_decode() {
        for good in ["a", "team-a", "batch_7", "a.b.c", "A-Z_0.9", &"x".repeat(64)] {
            assert!(validate_tenant(good).is_ok(), "{good} should be accepted");
            let line = format!(r#"{{"type":"metrics","id":1,"tenant":"{good}"}}"#);
            assert_eq!(Request::from_json(&line).unwrap().tenant.as_deref(), Some(good));
        }
        for bad in ["", "has space", "semi;colon", "new\nline", "\u{e9}clair", &"x".repeat(65)] {
            let err = validate_tenant(bad).unwrap_err();
            assert!(err.starts_with("invalid tenant"), "{err}");
        }
        // The decode path refuses them too — a bad tag never reaches
        // the tenant table.
        let err =
            Request::from_json(r#"{"type":"metrics","id":1,"tenant":"no spaces"}"#).unwrap_err();
        assert!(err.starts_with("invalid tenant"), "{err}");
    }

    #[test]
    fn submit_result_roundtrips() {
        let r = Response::SubmitResult {
            id: 12,
            assignment: vec![0, 0, 1, 1],
            objective: 0.91,
            nodes_used: 2,
            backfilled: true,
            queue_wait_ms: 37.5,
            residual: vec![0, 16, 32],
            ensemble_makespan: 120.25,
            members: vec![MemberSummary {
                sigma_star: 10.0,
                efficiency: 0.9,
                cp: 1.0,
                makespan: 119.0,
            }],
            elapsed_ms: 44.0,
        };
        let line = r.to_json();
        assert!(line.contains("\"type\":\"submit_result\""), "{line}");
        assert!(line.contains("\"residual\":[0,16,32]"), "{line}");
        let decoded = Response::from_json(&line).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.id(), 12);
    }

    #[test]
    fn submit_progress_frames_roundtrip() {
        // Queued: depth present, assignment absent.
        let queued = Progress {
            id: 4,
            body: ProgressBody::Submit { queue_depth: Some(3), assignment: None },
        };
        let line = queued.to_json();
        assert!(line.contains("\"kind\":\"submit\""), "{line}");
        assert!(!line.contains("assignment"), "{line}");
        match Frame::from_json(&line).unwrap() {
            Frame::Progress(p) => assert_eq!(p.body, queued.body),
            other => panic!("expected progress frame, got {other:?}"),
        }
        // Placed: assignment present, depth absent.
        let placed = Progress {
            id: 4,
            body: ProgressBody::Submit { queue_depth: None, assignment: Some(vec![1, 1]) },
        };
        let line = placed.to_json();
        assert!(!line.contains("queue_depth"), "{line}");
        match Frame::from_json(&line).unwrap() {
            Frame::Progress(p) => assert_eq!(p.body, placed.body),
            other => panic!("expected progress frame, got {other:?}"),
        }
    }

    #[test]
    fn not_found_error_roundtrips() {
        let r = Response::Error {
            id: 9,
            kind: ErrorKind::NotFound,
            message: "no completed run with job id 9".into(),
        };
        assert_eq!(Response::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn responses_roundtrip() {
        let responses = vec![
            Response::ScoreResult {
                id: 1,
                placements: vec![RankedPlacement {
                    assignment: vec![0, 0, 1, 1],
                    objective: 0.875,
                    nodes_used: 2,
                    ensemble_makespan: 123.5,
                    eq4_satisfied: true,
                }]
                .into(),
                cached: true,
                elapsed_ms: 0.25,
                scan_workers: 2,
                candidates_scanned: 17,
            },
            Response::RunResult {
                id: 2,
                ensemble_makespan: 760.0,
                members: vec![MemberSummary {
                    sigma_star: 20.5,
                    efficiency: 0.93,
                    cp: 1.0,
                    makespan: 758.5,
                }],
                elapsed_ms: 14.0,
            },
            Response::Metrics {
                id: 3,
                rows: vec![("queue_depth".into(), 2.0), ("cache_hit_rate".into(), 0.5)],
            },
            Response::Overloaded { id: 4, retry_after_ms: 40 },
            Response::Error {
                id: 5,
                kind: ErrorKind::Deadline,
                message: "deadline expired after 3 of 17 candidates".into(),
            },
        ];
        for r in responses {
            let decoded = Response::from_json(&r.to_json()).unwrap();
            assert_eq!(decoded, r);
            assert_eq!(decoded.id(), r.id());
        }
    }

    #[test]
    fn pre_scan_score_results_decode_with_zero_scan_fields() {
        // Journal records written before the scan engine carry neither
        // scan_workers nor candidates_scanned; replay must not reject
        // them.
        let line =
            r#"{"type":"score_result","id":1,"cached":false,"elapsed_ms":1.5,"placements":[]}"#;
        match Response::from_json(line).unwrap() {
            Response::ScoreResult { scan_workers, candidates_scanned, .. } => {
                assert_eq!(scan_workers, 0);
                assert_eq!(candidates_scanned, 0);
            }
            other => panic!("expected score_result, got {other:?}"),
        }
    }

    #[test]
    fn a_mistyped_optional_reply_field_is_refused_not_defaulted() {
        // Each of these once decoded as absent: a score reply's scan
        // counts as zero, a submit frame's queue depth as none.
        let score =
            r#""type":"score_result","id":1,"cached":false,"elapsed_ms":1.5,"placements":[]"#;
        let submit = r#""type":"progress","id":1,"kind":"submit""#;
        for (base, field) in
            [(score, "scan_workers"), (score, "candidates_scanned"), (submit, "queue_depth")]
        {
            for value in [r#""2""#, "-1", "true", "2.5", "null"] {
                let line = format!(r#"{{{base},"{field}":{value}}}"#);
                let err = Frame::from_json(&line).expect_err(&line);
                assert_eq!(err, format!("field '{field}' must be {NON_NEGATIVE}"), "{line}");
            }
            // Absent is still the default, and a well-typed value is read.
            let line = format!(r#"{{{base},"{field}":3}}"#);
            match Frame::from_json(&line).expect(&line) {
                Frame::Final(Response::ScoreResult {
                    scan_workers, candidates_scanned, ..
                }) => {
                    let read =
                        if field == "scan_workers" { scan_workers } else { candidates_scanned };
                    assert_eq!(read, 3, "{line}");
                }
                Frame::Progress(Progress {
                    body: ProgressBody::Submit { queue_depth, .. },
                    ..
                }) => assert_eq!(queue_depth, Some(3)),
                other => panic!("{line}: {other:?}"),
            }
            let absent = format!("{{{base}}}");
            assert!(Frame::from_json(&absent).is_ok(), "{absent}");
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("{\"id\":1}", "type"),
            ("{\"type\":\"frobnicate\",\"id\":1}", "unknown request type"),
            ("{\"type\":\"score\",\"id\":1}", "members"),
            ("{\"type\":\"score\",\"id\":1,\"members\":[]}", "at least one member"),
            ("{\"type\":\"run\",\"id\":\"x\"}", "id"),
            ("not json at all", "at byte"),
        ] {
            let err = Request::from_json(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // `score` and `submit` decode their members alike.
        for kind in ["score", "submit"] {
            for (members, needle) in [
                ("[]", format!("{kind} request needs at least one member")),
                ("{}", "field 'members' must be an array".to_string()),
                (r#"[{"analyses":[8]}]"#, "missing field 'sim_cores'".to_string()),
                (r#"[{"sim_cores":4294967296,"analyses":[]}]"#, "sim_cores too large".to_string()),
                (r#"[{"sim_cores":16}]"#, "missing field 'analyses'".to_string()),
                (r#"[{"sim_cores":16,"analyses":8}]"#, "'analyses' must be an array".to_string()),
                (r#"[{"sim_cores":16,"analyses":[-8]}]"#, "small integers".to_string()),
            ] {
                let line = format!(
                    r#"{{"type":"{kind}","id":1,"members":{members},"max_nodes":2,"cores_per_node":32}}"#
                );
                let err = Request::from_json(&line).unwrap_err();
                assert!(err.contains(&needle), "{line}: {err}");
            }
        }
    }

    #[test]
    fn a_mistyped_optional_field_is_refused_not_defaulted() {
        // Each of these once decoded as its default: the `top_k` ones as
        // an unbounded full ranking, the most expensive score there is.
        let score = r#""type":"score","id":1,"members":[{"sim_cores":16,"analyses":[8]}],"max_nodes":2,"cores_per_node":32"#;
        let run = r#""type":"run","id":1,"members":[{"sim_cores":16,"sim_node":0,"analyses":[]}]"#;
        let submit = r#""type":"submit","id":1,"members":[{"sim_cores":16,"analyses":[8]}]"#;
        for (base, field, value) in [
            (score, "top_k", r#""10""#),
            (score, "top_k", "-1"),
            (score, "top_k", "1e16"),
            (score, "top_k", "2.5"),
            (score, "workers", "true"),
            (score, "steps", r#""6""#),
            (score, "workloads", "1"),
            (score, "every_candidates", r#""256""#),
            (score, "every_ms", "-5"),
            (run, "steps", "null"),
            (run, "jitter", r#""0.1""#),
            (run, "seed", "-3"),
            (submit, "seed", "[1]"),
            (submit, "workloads", "null"),
        ] {
            let line = match field {
                "every_candidates" | "every_ms" => {
                    format!(r#"{{{base},"progress":{{"{field}":{value}}}}}"#)
                }
                _ => format!(r#"{{{base},"{field}":{value}}}"#),
            };
            let err = Request::from_json(&line).expect_err(&line);
            assert!(err.starts_with(&format!("field '{field}' must be")), "{line}: {err}");
        }
        // Absent still means the default, and a well-typed value is read.
        let line = format!(r#"{{{score},"top_k":10,"workers":2,"progress":{{"every_ms":20}}}}"#);
        let req = Request::from_json(&line).unwrap();
        assert_eq!(req.progress, Some(ProgressSpec { every_candidates: None, every_ms: Some(20) }));
        match req.body {
            RequestBody::Score(s) => assert_eq!((s.top_k, s.workers, s.steps), (10, 2, 6)),
            other => panic!("expected score, got {other:?}"),
        }
    }

    #[test]
    fn progress_spec_roundtrips_through_the_request() {
        let mut req = Request::from_json(
            r#"{"type":"score","id":5,"members":[{"sim_cores":16,"analyses":[8]}],"max_nodes":2,"cores_per_node":32,"progress":{"every_candidates":256}}"#,
        )
        .unwrap();
        let spec = req.progress.expect("progress spec parsed");
        assert_eq!(spec.every_candidates, Some(256));
        assert_eq!(spec.every_ms, None);
        let again = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(again.progress, req.progress);

        // An empty spec is a valid opt-in (server applies the default
        // time cadence); a non-object is refused.
        req = Request::from_json(r#"{"type":"metrics","id":1,"progress":{}}"#).unwrap();
        assert_eq!(req.progress, Some(ProgressSpec::default()));
        let err = Request::from_json(r#"{"type":"metrics","id":1,"progress":7}"#).unwrap_err();
        assert!(err.contains("progress"), "{err}");

        // Absent spec encodes to a line with no `progress` key at all —
        // the legacy wire format, byte for byte.
        req.progress = None;
        assert!(!req.to_json().contains("progress"), "{}", req.to_json());
    }

    #[test]
    fn progress_frames_roundtrip() {
        let score = Progress {
            id: 9,
            body: ProgressBody::Score {
                candidates_scanned: 4096,
                best_objective: Some(0.875),
                workers: 4,
            },
        };
        let line = score.to_json();
        assert!(line.contains("\"type\":\"progress\""), "{line}");
        match Frame::from_json(&line).unwrap() {
            Frame::Progress(p) => {
                assert_eq!(p.id, 9);
                assert_eq!(p.body, score.body);
            }
            other => panic!("expected progress frame, got {other:?}"),
        }

        // `best_objective` is omitted while no candidate has scored yet.
        let empty = Progress {
            id: 2,
            body: ProgressBody::Score { candidates_scanned: 0, best_objective: None, workers: 1 },
        };
        let line = empty.to_json();
        assert!(!line.contains("best_objective"), "{line}");
        match Frame::from_json(&line).unwrap() {
            Frame::Progress(p) => assert_eq!(p.body, empty.body),
            other => panic!("expected progress frame, got {other:?}"),
        }

        let run =
            Progress { id: 3, body: ProgressBody::Run { steps: 7, member_steps: vec![9, 7, 8] } };
        match Frame::from_json(&run.to_json()).unwrap() {
            Frame::Progress(p) => assert_eq!(p.body, run.body),
            other => panic!("expected progress frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_dispatch_between_progress_and_final() {
        // A final response parses as Frame::Final and its wrapper adds
        // nothing to the wire — the frame encodes exactly as the
        // response does, so legacy peers see identical bytes.
        let response = Response::Overloaded { id: 4, retry_after_ms: 12 };
        let frame = Frame::Final(response);
        assert_eq!(frame.to_json(), Response::Overloaded { id: 4, retry_after_ms: 12 }.to_json());
        match Frame::from_json(&frame.to_json()).unwrap() {
            Frame::Final(Response::Overloaded { id: 4, retry_after_ms: 12 }) => {}
            other => panic!("expected the overloaded final, got {other:?}"),
        }
        assert_eq!(frame.id(), 4);
        let progress =
            Progress { id: 6, body: ProgressBody::Run { steps: 1, member_steps: vec![1] } };
        assert_eq!(Frame::from_json(&progress.to_json()).unwrap().id(), 6);
    }

    #[test]
    fn request_defaults_fill_in() {
        let req = Request::from_json(
            r#"{"type":"score","members":[{"sim_cores":16,"analyses":[8]}],"max_nodes":2,"cores_per_node":32}"#,
        )
        .unwrap();
        assert_eq!(req.id, 0);
        assert_eq!(req.deadline, None);
        match req.body {
            RequestBody::Score(s) => {
                assert_eq!(s.top_k, 0);
                assert_eq!(s.steps, 6);
                assert_eq!(s.workloads, Workloads::Paper);
            }
            other => panic!("expected score, got {other:?}"),
        }
    }
}
