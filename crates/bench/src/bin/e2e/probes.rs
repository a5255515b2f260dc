//! Every call from the benchmark into the workspace lives in this file,
//! and only public items that the roadmap's refactors keep are used, so
//! a change to the program under test never has to edit the harness
//! that measures it. The rest of the benchmark sees request lines,
//! reply lines and plain numbers.
//!
//! Layers are named `crate.module`, as the per-layer metrics are.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dtl::{ChunkCodec, F64ArrayCodec, ReaderId, VariableSpec};
use ensemble_core::{ConfigId, EnsembleSpec, WarmupPolicy};
use hpc_platform::{BindPolicy, InterferenceModel, PlacedWorkload, Platform};
use kernels::md::{Frame, MdConfig, MdSimulation};
use runtime::{KernelChoice, SimExecution, SimRunConfig, ThreadRunConfig, WorkloadMap};
use scheduler::{
    Admission, CoScheduler, CoschedConfig, DeltaEvaluator, EnsembleShape, NodeBudget, PlacementIter,
};
use sim_des::{Engine, Poll, Process, SimDuration};
use svc::json::Value;
use svc::{
    CoschedSvcConfig, FairQueue, Frame as WireFrame, Journal, JournalConfig, Request, RequestBody,
    Response, RunRequest, ScoreCache, ScoreRequest, Service, SubmitRequest, SvcConfig, Workloads,
};

/// The co-scheduled platform of `svc_mix`: 6 nodes of 32 cores.
const COSCHED: NodeBudget = NodeBudget { max_nodes: 6, cores_per_node: 32 };

// ---------------------------------------------------------------------
// Shapes and configurations the workloads draw from.
// ---------------------------------------------------------------------

/// An ensemble shape with its node budget. `candidates` is the size of
/// the canonical placement space, pinned so a change in enumeration
/// shows as a failed check and not as a faster benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `uniform(4,16,1,8)` on 6 nodes.
    S,
    /// `uniform(4,8,1,4)` on 6 nodes.
    M,
    /// `uniform(5,16,1,8)` on 8 nodes.
    L,
    /// `uniform(2,16,1,8)`, submitted to the co-scheduler.
    SubmitSmall,
    /// `uniform(3,8,1,4)`, submitted to the co-scheduler.
    SubmitLarge,
}

impl Shape {
    /// `(members, sim cores, analyses per member, analysis cores, nodes)`.
    fn dims(self) -> (usize, u32, usize, u32, usize) {
        match self {
            Shape::S => (4, 16, 1, 8, 6),
            Shape::M => (4, 8, 1, 4, 6),
            Shape::L => (5, 16, 1, 8, 8),
            Shape::SubmitSmall => (2, 16, 1, 8, COSCHED.max_nodes),
            Shape::SubmitLarge => (3, 8, 1, 4, COSCHED.max_nodes),
        }
    }

    pub fn candidates(self) -> u64 {
        match self {
            Shape::S => 1_545,
            Shape::M => 4_038,
            Shape::L => 27_250,
            Shape::SubmitSmall => 12,
            Shape::SubmitLarge => 202,
        }
    }

    pub fn members(self) -> usize {
        self.dims().0
    }

    pub fn components(self) -> usize {
        let (n, _, k, _, _) = self.dims();
        n * (1 + k)
    }

    fn ensemble(self) -> EnsembleShape {
        let (n, sim, k, ana, _) = self.dims();
        EnsembleShape::uniform(n, sim, k, ana)
    }

    fn budget(self) -> NodeBudget {
        NodeBudget { max_nodes: self.dims().4, cores_per_node: COSCHED.cores_per_node }
    }

    fn iter(self) -> PlacementIter {
        let budget = self.budget();
        PlacementIter::new(&self.ensemble(), budget.max_nodes, budget.cores_per_node)
    }
}

/// The 13 two-member configurations of the paper's Tables 2 and 4.
const RUN_CONFIGS: [ConfigId; 13] = [
    ConfigId::C1_1,
    ConfigId::C1_2,
    ConfigId::C1_3,
    ConfigId::C1_4,
    ConfigId::C1_5,
    ConfigId::C2_1,
    ConfigId::C2_2,
    ConfigId::C2_3,
    ConfigId::C2_4,
    ConfigId::C2_5,
    ConfigId::C2_6,
    ConfigId::C2_7,
    ConfigId::C2_8,
];

pub const RUN_CONFIG_COUNT: usize = RUN_CONFIGS.len();
/// Index of `C1.5` in the configuration table (the `svc_mix` run).
pub const RUN_CONFIG_C1_5: usize = 4;
/// Every configuration above has two members.
pub const RUN_MEMBERS: usize = 2;

/// What the service builds for a request's platform and workloads
/// (`svc::service::base_config`), so reference results match the wire.
fn service_config(spec: EnsembleSpec, small: bool, steps: u64) -> SimRunConfig {
    let mut cfg = SimRunConfig::paper(spec);
    if small {
        cfg.workloads = WorkloadMap::small_defaults();
    }
    cfg.n_steps = steps;
    cfg
}

// ---------------------------------------------------------------------
// Request lines.
// ---------------------------------------------------------------------

fn request(id: u64, body: RequestBody) -> String {
    Request { id, deadline: None, progress: None, tenant: None, body }.to_json()
}

fn workloads(small: bool) -> Workloads {
    if small {
        Workloads::Small
    } else {
        Workloads::Paper
    }
}

pub fn score_line(id: u64, shape: Shape, top_k: usize, steps: u64) -> String {
    request(
        id,
        RequestBody::Score(ScoreRequest {
            shape: shape.ensemble(),
            budget: shape.budget(),
            top_k,
            steps,
            workloads: Workloads::Small,
            workers: 0,
        }),
    )
}

pub fn run_line(id: u64, config: usize, steps: u64, jitter: f64, seed: u64, small: bool) -> String {
    request(
        id,
        RequestBody::Run(RunRequest {
            spec: RUN_CONFIGS[config].build(),
            steps,
            jitter,
            seed,
            workloads: workloads(small),
        }),
    )
}

pub fn submit_line(id: u64, shape: Shape, steps: u64, seed: u64) -> String {
    request(
        id,
        RequestBody::Submit(SubmitRequest {
            shape: shape.ensemble(),
            steps,
            jitter: 0.0,
            seed,
            workloads: Workloads::Small,
        }),
    )
}

pub fn attach_line(id: u64, job: u64) -> String {
    request(id, RequestBody::Attach { job })
}

pub fn metrics_line(id: u64) -> String {
    request(id, RequestBody::Metrics)
}

// ---------------------------------------------------------------------
// Replies.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    Score,
    Run,
    Submit,
    Metrics,
    Overloaded,
    Error,
}

/// The fields of a final reply frame that the checks read.
#[derive(Debug, Clone)]
pub struct Reply {
    pub kind: ReplyKind,
    pub id: u64,
    pub elapsed_ms: f64,
    pub cached: bool,
    pub scan_workers: u64,
    pub candidates_scanned: u64,
    /// Objectives of the ranked placements, in reply order.
    pub objectives: Vec<f64>,
    pub members: usize,
    pub makespan: f64,
    pub assignment: Vec<usize>,
    pub residual_len: usize,
    pub rows: Vec<(String, f64)>,
    pub error: String,
    response: Response,
}

impl Reply {
    pub fn row(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// `svc.protocol` (client side): one reply line into its fields.
pub fn decode_reply(line: &str) -> Result<Reply, String> {
    let response = match WireFrame::from_json(line)? {
        WireFrame::Final(response) => response,
        WireFrame::Progress(_) => return Err("progress frame without opting in".into()),
    };
    let mut reply = Reply {
        kind: ReplyKind::Error,
        id: response.id(),
        elapsed_ms: 0.0,
        cached: false,
        scan_workers: 0,
        candidates_scanned: 0,
        objectives: Vec::new(),
        members: 0,
        makespan: 0.0,
        assignment: Vec::new(),
        residual_len: 0,
        rows: Vec::new(),
        error: String::new(),
        response: response.clone(),
    };
    match response {
        Response::ScoreResult {
            placements,
            cached,
            elapsed_ms,
            scan_workers,
            candidates_scanned,
            ..
        } => {
            reply.kind = ReplyKind::Score;
            reply.cached = cached;
            reply.elapsed_ms = elapsed_ms;
            reply.scan_workers = scan_workers;
            reply.candidates_scanned = candidates_scanned;
            reply.objectives = placements.iter().map(|p| p.objective).collect();
        }
        Response::RunResult { ensemble_makespan, members, elapsed_ms, .. } => {
            reply.kind = ReplyKind::Run;
            reply.elapsed_ms = elapsed_ms;
            reply.makespan = ensemble_makespan;
            reply.members = members.len();
        }
        Response::SubmitResult {
            assignment,
            residual,
            ensemble_makespan,
            members,
            elapsed_ms,
            ..
        } => {
            reply.kind = ReplyKind::Submit;
            reply.elapsed_ms = elapsed_ms;
            reply.makespan = ensemble_makespan;
            reply.members = members.len();
            reply.assignment = assignment;
            reply.residual_len = residual.len();
        }
        Response::Metrics { rows, .. } => {
            reply.kind = ReplyKind::Metrics;
            reply.rows = rows;
        }
        Response::Overloaded { retry_after_ms, .. } => {
            reply.kind = ReplyKind::Overloaded;
            reply.error = format!("overloaded, retry after {retry_after_ms} ms");
        }
        Response::Error { kind, message, .. } => {
            reply.error = format!("{}: {message}", kind.tag());
        }
    }
    Ok(reply)
}

/// `svc.protocol.encode`: the reply back into its wire line, as the
/// connection thread does before writing it. Returns the byte count.
pub fn encode_reply(reply: &Reply) -> usize {
    reply.response.to_json().len()
}

/// A request line parsed by `svc.json`.
pub struct ParsedLine(Value);

/// `svc.json.parse`.
pub fn json_parse(line: &str) -> Result<ParsedLine, String> {
    Value::parse(line).map(ParsedLine).map_err(|e| e.to_string())
}

/// A request decoded by `svc.protocol`.
pub struct DecodedRequest(Request);

/// `svc.protocol.decode`.
pub fn decode_request(parsed: &ParsedLine) -> Result<DecodedRequest, String> {
    Request::from_value(&parsed.0).map(DecodedRequest)
}

/// Parses a result file written by this benchmark (for `compare`).
pub fn parse_result_file(text: &str) -> Result<ResultFile, String> {
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    let text_of = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
    let workload = text_of("workload").ok_or("result file has no workload")?;
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        return Err("result file has no metrics object".into());
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ResultFile {
        workload,
        traced: v.get("trace").and_then(Value::as_bool) == Some(true),
        metrics,
    })
}

/// The part of a result file `compare` reads.
pub struct ResultFile {
    pub workload: String,
    pub traced: bool,
    pub metrics: Vec<(String, f64)>,
}

/// What the benchmark reads back from `BENCHMARK.json`.
pub struct Declared {
    /// End-to-end metrics: `(name, lower is better, bound)`.
    pub end_to_end: Vec<(String, bool, f64)>,
    /// Per-layer metric names; read by the test that holds the file and
    /// the code to the same list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub per_layer: Vec<String>,
}

pub fn parse_benchmark(text: &str) -> Result<Declared, String> {
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| v.get(key).and_then(Value::as_arr).ok_or(format!("no {key} list"));
    let name = |m: &Value| {
        m.get("name").and_then(Value::as_str).map(str::to_string).ok_or("metric without a name")
    };
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            let better = m.get("better").and_then(Value::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without bound")?;
            Ok((name(m)?, better == "lower", bound))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let per_layer =
        list("per_layer")?.iter().map(|m| Ok(name(m)?)).collect::<Result<Vec<_>, String>>()?;
    Ok(Declared { end_to_end, per_layer })
}

// ---------------------------------------------------------------------
// The service: over TCP, and in process.
// ---------------------------------------------------------------------

/// Which service a workload talks to. Pool size, scan threads, queue and
/// cache capacities are the service's defaults in both: the auto-sizing
/// is part of what a user gets, so it is part of what is measured.
#[derive(Debug, Clone)]
pub enum ServiceKind {
    /// No journal, no co-scheduler (`score_cold`, `run_des`).
    Plain,
    /// Co-scheduler over 6 x 32 cores with backfill, and a journal with
    /// the default batched fsync at this path (`svc_mix`).
    Mix { journal: PathBuf },
}

fn svc_config(kind: &ServiceKind) -> SvcConfig {
    match kind {
        ServiceKind::Plain => SvcConfig::default(),
        ServiceKind::Mix { journal } => SvcConfig {
            journal: Some(JournalConfig::new(journal)),
            cosched: Some(CoschedSvcConfig::new(COSCHED)),
            ..SvcConfig::default()
        },
    }
}

/// `svc.server`: the service behind a TCP listener on an ephemeral port.
pub struct Server(svc::ServerHandle);

pub fn serve(kind: &ServiceKind) -> std::io::Result<Server> {
    svc::serve("127.0.0.1:0", svc_config(kind)).map(Server)
}

impl Server {
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Drains admitted work and joins every service thread.
    pub fn shutdown(self) {
        self.0.shutdown()
    }
}

/// `svc.service`: the same service without the listener, for the cost of
/// a request with the wire and the codec taken away.
pub struct Inproc(Service);

impl Inproc {
    pub fn start(kind: &ServiceKind) -> std::io::Result<Inproc> {
        Service::try_start(svc_config(kind)).map(Inproc)
    }

    /// Answers one request line the way the connection thread routes it,
    /// timing only the service call, not the decode or the encode around
    /// it. Returns the reply line and the nanoseconds spent.
    pub fn call(&self, line: &str) -> Result<(String, u64), String> {
        let request = Request::from_json(line)?;
        let id = request.id;
        let start = Instant::now();
        let response = match request.body {
            RequestBody::Metrics => Response::Metrics { id, rows: self.0.metrics().all_rows() },
            RequestBody::Attach { job } => self.0.attach(id, job),
            _ => match self.0.submit(request) {
                Ok(pending) => pending.wait(),
                Err(rejected) => rejected.to_response(id),
            },
        };
        let ns = start.elapsed().as_nanos() as u64;
        Ok((response.to_json(), ns))
    }

    /// `svc.stats.snapshot`: the metrics rows a `metrics` request returns.
    pub fn stats_snapshot(&self) -> usize {
        self.0.metrics().all_rows().len()
    }

    pub fn shutdown(self) {
        self.0.shutdown()
    }
}

// ---------------------------------------------------------------------
// Reference results for the oracle.
// ---------------------------------------------------------------------

/// The `run_result` line the service must print for a jitter-free run of
/// `config`: the same configuration through `runtime::run_simulated` and
/// `runtime::build_report` in this process, encoded by the wire codec.
pub fn reference_run_line(
    id: u64,
    config: usize,
    steps: u64,
    small: bool,
) -> Result<String, String> {
    let mut cfg = service_config(RUN_CONFIGS[config].build(), small, steps);
    cfg.jitter = 0.0;
    let run = SimRun::execute(cfg)?;
    let (ensemble_makespan, members) = run.summarize()?;
    Ok(Response::RunResult { id, ensemble_makespan, members, elapsed_ms: 0.0 }.to_json())
}

// ---------------------------------------------------------------------
// Layer probes: `scheduler`.
// ---------------------------------------------------------------------

/// `scheduler.enumerate`: walks the whole canonical placement space.
pub fn enumerate_walk(shape: Shape) -> u64 {
    let mut iter = shape.iter();
    let mut count = 0u64;
    while let Some(assignment) = iter.advance() {
        std::hint::black_box(assignment);
        count += 1;
    }
    count
}

/// What one delta-scored walk of a placement space counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaWalk {
    pub candidates: u64,
    pub solve_hits: u64,
    pub solve_misses: u64,
    pub members_recomputed: u64,
    pub best_objective: f64,
}

/// `scheduler.delta` (with `scheduler.enumerate` inside it): one
/// evaluator scoring every candidate of the walk in enumeration order
/// with the first-changed hint: the serial form of a cold `score`.
pub fn delta_walk(shape: Shape, steps: u64) -> Result<DeltaWalk, String> {
    let ensemble = shape.ensemble();
    let placeholder = ensemble.materialize(&vec![0; ensemble.num_components()]);
    let cfg = service_config(placeholder, true, steps);
    let mut evaluator = DeltaEvaluator::new(&cfg, &ensemble);
    let mut iter = shape.iter();
    let mut walk = DeltaWalk { best_objective: f64::NEG_INFINITY, ..DeltaWalk::default() };
    while let Some((assignment, first_changed)) = iter.advance_delta() {
        let hint = (walk.candidates > 0).then_some(first_changed);
        let score = evaluator.score_delta(assignment, hint).map_err(|e| e.to_string())?;
        walk.best_objective = walk.best_objective.max(score.objective);
        walk.candidates += 1;
    }
    let counters = evaluator.take_counters();
    walk.solve_hits = counters.solve_hits;
    walk.solve_misses = counters.solve_misses;
    walk.members_recomputed = counters.members_recomputed;
    Ok(walk)
}

/// `scheduler.cosched`: a co-scheduler configured as the service
/// configures its own (one scan thread for placement, small workloads).
pub struct CoschedProbe(CoScheduler);

impl CoschedProbe {
    pub fn new() -> CoschedProbe {
        let mut cfg = CoschedConfig::new(COSCHED);
        cfg.scan.workers = 1;
        let placeholder = EnsembleShape::uniform(1, 16, 1, 8).materialize(&[0; 2]);
        CoschedProbe(CoScheduler::new(cfg, service_config(placeholder, true, 6)))
    }

    /// `CoScheduler::submit`: returns the candidates scanned and the
    /// node assignment decided.
    pub fn place(&mut self, job: u64, shape: Shape) -> Result<(u64, Vec<usize>), String> {
        match self.0.submit(job, shape.ensemble()).map_err(|e| e.to_string())? {
            Admission::Placed(decision) => Ok((decision.scanned as u64, decision.assignment)),
            other => Err(format!("job {job} was not placed: {other:?}")),
        }
    }

    /// `CoScheduler::release`.
    pub fn release(&mut self, job: u64) -> Result<(), String> {
        self.0.release(job).map(|_| ()).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Layer probes: `svc.cache`, `svc.fair`, `svc.journal`.
// ---------------------------------------------------------------------

/// The service's memo table, its completed-run index, its admission
/// queue and (when the workload journals) a journal, each a private
/// instance fed with the traced ops' own data.
pub struct SvcLayers {
    scores: ScoreCache<Response>,
    runs: ScoreCache<Response>,
    queue: FairQueue<u64>,
    journal: Option<Journal>,
}

impl SvcLayers {
    pub fn new(journal: Option<&Path>) -> std::io::Result<SvcLayers> {
        let defaults = SvcConfig::default();
        let journal = match journal {
            Some(path) => Some(Journal::open(JournalConfig::new(path))?.0),
            None => None,
        };
        Ok(SvcLayers {
            scores: ScoreCache::new(defaults.cache_capacity),
            runs: ScoreCache::new(defaults.cache_capacity),
            queue: FairQueue::new(defaults.queue_capacity, BTreeMap::new()),
            journal,
        })
    }

    /// `svc.cache` insert: what a cold score or a finished run stores.
    pub fn cache_insert(&self, key: &str, reply: &Reply) {
        let table = if reply.kind == ReplyKind::Run { &self.runs } else { &self.scores };
        table.insert(key.to_string(), reply.response.clone());
    }

    /// `svc.cache.get`: lookup plus the copy of the stored rows that a
    /// hit hands to the encoder. Returns false on a miss.
    pub fn cache_get(&self, key: &str, run: bool) -> bool {
        let table = if run { &self.runs } else { &self.scores };
        match table.get(key) {
            Some(stored) => {
                std::hint::black_box((*stored).clone());
                true
            }
            None => false,
        }
    }

    /// `svc.fair`: one admission push and the worker's pop.
    pub fn fair_push_pop(&self, id: u64) -> bool {
        self.queue.try_push(None, id).is_ok() && self.queue.pop() == Some(id)
    }

    fn journal(&self) -> &Journal {
        self.journal.as_ref().expect("journal probes run only on journaled workloads")
    }

    pub fn journals(&self) -> bool {
        self.journal.is_some()
    }

    /// `svc.journal` admit record of a queued request.
    pub fn journal_admit(&self, request: &DecodedRequest) {
        self.journal().append_admit(&request.0);
    }

    /// `svc.journal` score record: a ranking under its cache key.
    pub fn journal_score(&self, key: &str, reply: &Reply) {
        if let Response::ScoreResult { placements, .. } = &reply.response {
            self.journal().append_score(key, placements);
        }
    }

    /// `svc.journal` run record of a completed run.
    pub fn journal_run(&self, reply: &Reply) {
        self.journal().append_run(reply.id, &reply.response);
    }

    /// `svc.journal` release record of a finished co-scheduled job.
    pub fn journal_release(&self, job: u64) {
        self.journal().append_release(job);
    }
}

// ---------------------------------------------------------------------
// Layer probes: `runtime`, `sim-des`, `hpc-platform`, `ensemble-core`.
// ---------------------------------------------------------------------

/// A finished DES run with what the report builder needs.
pub struct SimRun {
    cfg: SimRunConfig,
    exec: SimExecution,
}

impl SimRun {
    fn execute(cfg: SimRunConfig) -> Result<SimRun, String> {
        let exec = runtime::run_simulated(&cfg).map_err(|e| e.to_string())?;
        Ok(SimRun { cfg, exec })
    }

    /// `runtime.sim_exec` (and `sim-des` under it) for a `run` request.
    pub fn of_config(
        config: usize,
        steps: u64,
        jitter: f64,
        seed: u64,
        small: bool,
    ) -> Result<SimRun, String> {
        let mut cfg = service_config(RUN_CONFIGS[config].build(), small, steps);
        cfg.jitter = jitter;
        cfg.seed = seed;
        SimRun::execute(cfg)
    }

    /// `runtime.sim_exec` for a `submit` placed at `assignment`.
    pub fn of_placement(
        shape: Shape,
        assignment: &[usize],
        steps: u64,
        seed: u64,
    ) -> Result<SimRun, String> {
        let mut cfg = service_config(shape.ensemble().materialize(assignment), true, steps);
        cfg.jitter = 0.0;
        cfg.seed = seed;
        SimRun::execute(cfg)
    }

    /// `metrics.trace`: stage intervals the run recorded.
    pub fn trace_records(&self) -> usize {
        self.exec.trace.len()
    }

    fn summarize(&self) -> Result<(f64, Vec<svc::MemberSummary>), String> {
        let report = runtime::build_report(
            "svc-run",
            &self.cfg.spec,
            &self.exec,
            self.cfg.n_steps,
            WarmupPolicy::default(),
        )
        .map_err(|e| e.to_string())?;
        let members = report
            .members
            .iter()
            .map(|m| svc::MemberSummary {
                sigma_star: m.sigma_star,
                efficiency: m.efficiency,
                cp: m.cp,
                makespan: m.makespan,
            })
            .collect();
        Ok((report.ensemble_makespan, members))
    }

    /// `runtime.report.build`: the report and the member summaries the
    /// service replies with. Returns the ensemble makespan.
    pub fn build_report(&self) -> Result<f64, String> {
        self.summarize().map(|(makespan, _)| makespan)
    }
}

/// `runtime.predictor`: closed-form scores of one materialised spec.
pub fn predictor_score(config: usize) -> Result<f64, String> {
    let cfg = service_config(RUN_CONFIGS[config].build(), true, 6);
    runtime::predict_scores(&cfg).map(|p| p.ensemble_makespan).map_err(|e| e.to_string())
}

struct Ticker {
    remaining: u64,
}

impl Process<u64> for Ticker {
    fn poll(&mut self, fired: &mut u64, _ctx: &mut sim_des::Context) -> Poll {
        *fired += 1;
        if self.remaining == 0 {
            return Poll::Done;
        }
        self.remaining -= 1;
        Poll::Sleep(SimDuration::from_micros(10))
    }
}

/// `sim-des.engine`: ten sleeping processes sharing the clock, `events`
/// wake-ups in all (the shape of `engine_micro`). Returns events fired.
pub fn engine_events(events: u64) -> u64 {
    let mut engine = Engine::new(0u64);
    for _ in 0..10 {
        engine.spawn(Box::new(Ticker { remaining: events / 10 }));
    }
    engine.run();
    engine.events_fired()
}

/// `hpc-platform.interference`: `tenants` workloads sharing one Cori
/// node, alternating simulation and analysis profiles.
pub struct InterferenceProbe {
    model: InterferenceModel,
    spec: hpc_platform::NodeSpec,
    placed: Vec<PlacedWorkload>,
}

impl InterferenceProbe {
    pub fn new(tenants: u32) -> Result<InterferenceProbe, String> {
        let spec = hpc_platform::cori::cori_node();
        let mut platform = Platform::new(1, spec.clone(), hpc_platform::cori::aries_network());
        let placed = (0..tenants)
            .map(|i| {
                Ok(PlacedWorkload {
                    alloc: platform
                        .allocate(0, COSCHED.cores_per_node / tenants, BindPolicy::Spread)
                        .map_err(|e| e.to_string())?,
                    workload: if i % 2 == 0 {
                        kernels::profile::simulation_workload(kernels::profile::PAPER_STRIDE)
                    } else {
                        kernels::profile::analysis_workload()
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(InterferenceProbe { model: InterferenceModel::default(), spec, placed })
    }

    /// `InterferenceModel::solve_node`.
    pub fn solve(&self) -> usize {
        self.model.solve_node(&self.spec, std::hint::black_box(&self.placed), &[]).len()
    }
}

/// `ensemble-core.objective`: `Pᵁ·ᴬ·ᴾ` per member, then Eq. 9.
pub fn objective_of(members: usize) -> f64 {
    let path = ensemble_core::IndicatorPath::uap();
    let values: Vec<f64> = (0..members)
        .map(|i| {
            let inputs = ensemble_core::MemberInputs {
                efficiency: 0.5 + 0.4 * (i as f64 / members as f64),
                cores: 24,
                cp: 1.0 / (1 + i % 3) as f64,
                ensemble_nodes: 6,
            };
            ensemble_core::indicator(std::hint::black_box(&inputs), &path)
        })
        .collect();
    ensemble_core::objective::objective(&values)
}

// ---------------------------------------------------------------------
// Layer probes: `runtime.thread_exec`, `dtl`, `kernels`.
// ---------------------------------------------------------------------

/// The molecular system of `staging_threaded`: 4³ atoms, a frame staged
/// after every MD step, so the coupling is as fine-grained as it gets.
fn staged_md() -> MdConfig {
    MdConfig { atoms_per_side: 3, stride: 1, ..MdConfig::default() }
}

/// What one threaded run reported.
#[derive(Debug, Clone, Copy)]
pub struct StagedRun {
    pub puts: u64,
    pub gets: u64,
    pub retries: u64,
    pub failed_members: usize,
    /// Every analysis produced one value per step.
    pub series_complete: bool,
    pub trace_records: usize,
}

/// `runtime.thread_exec`: configuration `C_c` (one simulation and one
/// analysis on two OS threads) coupled synchronously through an
/// in-memory staging area holding one frame.
pub fn staged_run(steps: u64) -> Result<StagedRun, String> {
    let cfg = ThreadRunConfig {
        spec: ConfigId::Cc.build(),
        md: staged_md(),
        n_steps: steps,
        staging_capacity: 1,
        kernel: Some(KernelChoice::RadiusOfGyration),
        ..ThreadRunConfig::default()
    };
    let exec = runtime::run_threaded(&cfg).map_err(|e| e.to_string())?;
    Ok(StagedRun {
        puts: exec.staging_stats.puts,
        gets: exec.staging_stats.gets,
        retries: exec.staging_stats.retries,
        failed_members: exec.failed_members().len(),
        series_complete: exec.cv_series.len() == 1
            && exec.cv_series.values().all(|cv| cv.len() as u64 == steps),
        trace_records: exec.trace.len(),
    })
}

/// `kernels.md`: builds the system and advances it `steps` strides.
pub fn md_strides(steps: u64) -> Vec<Frame> {
    let mut sim = MdSimulation::new(&staged_md());
    (0..steps).map(|_| sim.advance_stride()).collect()
}

/// `kernels.analysis`: the radius-of-gyration kernel over each frame.
pub fn analyse_frames(frames: &[Frame]) -> f64 {
    let Some(first) = frames.first() else { return 0.0 };
    let mut kernel = KernelChoice::RadiusOfGyration.build(first.num_atoms());
    frames.iter().map(|f| kernel.compute(f)).sum()
}

fn staged_variable() -> VariableSpec {
    VariableSpec { name: "probe/trajectory".into(), expected_readers: 1, home_node: 0 }
}

/// `dtl.staging` on one thread: `steps` put+get pairs of one encoded
/// frame, so no thread ever waits.
pub fn staging_pairs(frame: &Frame, steps: u64) -> Result<u64, String> {
    let staging = dtl::staging::dimes();
    let var = staging.register(staged_variable()).map_err(|e| e.to_string())?;
    let payload = frame.to_bytes();
    let mut bytes = 0u64;
    for step in 0..steps {
        let chunk = dtl::Chunk::new(var, step, 0, "frame", payload.clone());
        staging.put(chunk).map_err(|e| e.to_string())?;
        bytes += staging.get(var, step, ReaderId(0)).map_err(|e| e.to_string())?.len() as u64;
    }
    Ok(bytes)
}

/// `dtl.staging` across two threads: a writer and a reader hand `steps`
/// frames through a one-slot variable, so every step pays the lock and
/// the condvar wake in both directions.
pub fn staging_handoff(frame: &Frame, steps: u64) -> Result<u64, String> {
    let staging = Arc::new(dtl::staging::dimes());
    let var = staging.register(staged_variable()).map_err(|e| e.to_string())?;
    let payload = frame.to_bytes();
    std::thread::scope(|scope| {
        let writer = {
            let staging = Arc::clone(&staging);
            scope.spawn(move || -> Result<(), String> {
                for step in 0..steps {
                    let chunk = dtl::Chunk::new(var, step, 0, "frame", payload.clone());
                    staging.put(chunk).map_err(|e| e.to_string())?;
                }
                Ok(())
            })
        };
        let mut bytes = 0u64;
        for step in 0..steps {
            bytes += staging.get(var, step, ReaderId(0)).map_err(|e| e.to_string())?.len() as u64;
        }
        writer.join().map_err(|_| "staging writer panicked".to_string())??;
        Ok(bytes)
    })
}

/// `dtl.marshal`: a frame's coordinates through `F64ArrayCodec` and back.
pub fn marshal_roundtrip(frame: &Frame) -> Result<usize, String> {
    let values: Vec<f64> = frame.positions.iter().flatten().map(|&x| f64::from(x)).collect();
    let encoded = F64ArrayCodec.encode(&values);
    F64ArrayCodec.decode(encoded).map(|v| v.len()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_spaces_have_their_pinned_sizes() {
        for shape in [Shape::S, Shape::M, Shape::L, Shape::SubmitSmall, Shape::SubmitLarge] {
            assert_eq!(enumerate_walk(shape), shape.candidates(), "{shape:?}");
        }
    }

    #[test]
    fn request_lines_decode_to_what_was_asked() {
        let line = score_line(9, Shape::S, 10, 17);
        let decoded = decode_request(&json_parse(&line).unwrap()).unwrap();
        assert_eq!(decoded.0.id, 9);
        let RequestBody::Score(score) = decoded.0.body else { panic!("not a score: {line}") };
        assert_eq!((score.top_k, score.steps, score.budget.max_nodes), (10, 17, 6));
        assert!(matches!(
            Request::from_json(&attach_line(3, 77)).unwrap().body,
            RequestBody::Attach { job: 77 }
        ));
    }
}
