//! Warm standby: follow a primary's journal, keep a hot image, take
//! over deterministically when the primary dies.
//!
//! A [`Standby`] consumes the primary's record stream from one of two
//! sources:
//!
//! - **File follow** ([`StandbySource::File`]) — tail the primary's
//!   journal directly over a shared filesystem with a
//!   [`JournalFollower`]. Liveness comes from the primary's
//!   `<journal>.hb` heartbeat file (see
//!   [`crate::server::heartbeat_path`]): when its
//!   mtime stops advancing, the primary is presumed dead. Promotion
//!   reopens the *same* journal with `promote = true`, which bumps the
//!   fencing epoch so the deposed primary's late appends are rejected.
//! - **Network replication** ([`StandbySource::Primary`]) — open a
//!   `replicate` request against the primary's TCP front end and apply
//!   the `repl-*` frames it streams, persisting every record verbatim
//!   into a local journal copy. Liveness comes from `repl-hb` frames;
//!   a heartbeat carrying `degraded:1` (the primary's journal crashed
//!   or was fenced) counts as death immediately. Promotion replays the
//!   local copy.
//!
//! While following, the standby serves **read-only** `metrics` and
//! `attach` on its own listener — the server's listener, serving this
//! image instead of a [`Service`]; the router refuses anything that
//! would mutate state with [`ErrorKind::Standby`](crate::ErrorKind) so
//! clients can fail over knowingly rather than silently double-running
//! work.
//!
//! Promotion is supervised, not automatic: the caller decides (e.g.
//! after [`Standby::primary_dead`] turns true) and calls
//! [`Standby::promote`], which stops the follower, seals any torn tail
//! via normal journal replay, bumps the fencing epoch, and starts a
//! full read-write [`Service`] warm from the followed records.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use crate::journal::{decode_line, FollowEvent, JournalConfig, JournalFollower, JournalRecord};
use crate::json::Value;
use crate::protocol::Response;
use crate::server::{heartbeat_path, LineReader, Listener, REPL_HEARTBEAT};
use crate::service::{attach_reply, FinishedRun, Service, SvcConfig};
use crate::stats::MetricsSnapshot;

/// Missed heartbeats after which the primary is presumed dead.
pub const DEAD_AFTER_BEATS: u32 = 4;
/// Poll cadence of the follower.
const POLL: Duration = Duration::from_millis(20);
/// Cap on the reconnect backoff of a network follower.
const MAX_RECONNECT_BACKOFF: Duration = Duration::from_secs(1);

/// Where a standby's record stream comes from.
#[derive(Debug, Clone)]
pub enum StandbySource {
    /// Tail the primary's journal file over a shared filesystem.
    File(PathBuf),
    /// Stream records from a primary's TCP front end, persisting them
    /// into a local journal copy.
    Primary {
        /// Primary address (`host:port`).
        addr: String,
        /// Local journal copy a promotion will replay.
        local: PathBuf,
    },
}

/// How a standby follows and when it gives up on the primary.
#[derive(Debug, Clone)]
pub struct StandbyConfig {
    /// Record-stream source.
    pub source: StandbySource,
    /// Bind address for the read-only front end; `None` serves nothing
    /// (in-process observation only).
    pub serve_addr: Option<String>,
    /// Expected primary heartbeat interval.
    pub heartbeat: Duration,
    /// Heartbeats the primary may miss before it is presumed dead.
    pub dead_after_beats: u32,
}

impl StandbyConfig {
    /// Defaults: no listener, the server's replication heartbeat
    /// cadence, dead after [`DEAD_AFTER_BEATS`] missed beats.
    pub fn new(source: StandbySource) -> StandbyConfig {
        StandbyConfig {
            source,
            serve_addr: None,
            heartbeat: REPL_HEARTBEAT,
            dead_after_beats: DEAD_AFTER_BEATS,
        }
    }
}

/// Point-in-time view of what the standby has applied and what it
/// knows about the primary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StandbyStatus {
    /// Records applied since the last reset.
    pub records_applied: u64,
    /// Admit records applied.
    pub admits: u64,
    /// Score records applied (the warm score-cache image).
    pub scores: u64,
    /// Distinct completed runs indexed (served read-only via attach).
    pub runs_indexed: u64,
    /// Reservations currently open (reserve net of release).
    pub open_reservations: u64,
    /// Stream resets observed (journal rotation, reconnects).
    pub resets: u64,
    /// Corrupt records skipped (checksum or parse failures).
    pub corrupt: u64,
    /// Highest fencing epoch seen in the stream.
    pub epoch: u64,
    /// Primary's appended count from its last heartbeat (network mode).
    pub primary_appended: u64,
    /// Heartbeats received from the primary.
    pub beats: u64,
    /// The primary reported its journal degraded (crashed or fenced).
    pub primary_degraded: bool,
}

/// The standby's warm image: counters plus the run index it serves
/// read-only.
#[derive(Default)]
struct Image {
    status: StandbyStatus,
    runs: HashMap<u64, FinishedRun>,
    reservations: HashSet<u64>,
}

impl Image {
    /// Discard everything derived from the stream (rotation or
    /// reconnect restreams from the top); cumulative counters
    /// (`resets`, `corrupt`, `beats`) survive.
    fn reset(&mut self) {
        self.runs.clear();
        self.reservations.clear();
        self.status.records_applied = 0;
        self.status.admits = 0;
        self.status.scores = 0;
        self.status.runs_indexed = 0;
        self.status.open_reservations = 0;
        self.status.resets += 1;
    }

    fn apply(&mut self, record: JournalRecord) {
        self.status.records_applied += 1;
        match record {
            JournalRecord::Admit { .. } => self.status.admits += 1,
            JournalRecord::Score { .. } => self.status.scores += 1,
            JournalRecord::Run { job, response } => {
                if let Some(run) = FinishedRun::of(&response) {
                    self.runs.insert(job, run);
                }
                self.status.runs_indexed = self.runs.len() as u64;
            }
            JournalRecord::Reserve(r) => {
                self.reservations.insert(r.job);
                self.status.open_reservations = self.reservations.len() as u64;
            }
            JournalRecord::Release { job } => {
                self.reservations.remove(&job);
                self.status.open_reservations = self.reservations.len() as u64;
            }
            JournalRecord::Epoch { epoch } => {
                self.status.epoch = self.status.epoch.max(epoch);
            }
        }
    }
}

/// What the follower keeps and the read-only listener serves.
pub(crate) struct StandbyShared {
    stopping: AtomicBool,
    image: Mutex<Image>,
    last_beat: Mutex<Instant>,
}

impl StandbyShared {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    fn beat(&self) {
        *self.last_beat.lock().expect("beat lock") = Instant::now();
        self.image.lock().expect("image lock").status.beats += 1;
    }

    /// Read-only attach from the warm run index.
    pub(crate) fn attach(&self, id: u64, job: u64) -> Response {
        attach_reply(id, job, self.image.lock().expect("image lock").runs.get(&job))
    }

    /// The standby's metrics rows: `standby_*` names, disjoint from a
    /// primary's rows so dashboards can tell which side answered. Each
    /// row's meaning is the [`StandbyStatus`] field it reads.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let s = self.image.lock().expect("image lock").status;
        let mut m = MetricsSnapshot::default();
        m.push("standby_records_applied", s.records_applied);
        m.push("standby_admits", s.admits);
        m.push("standby_scores", s.scores);
        m.push("standby_runs_indexed", s.runs_indexed);
        m.push("standby_open_reservations", s.open_reservations);
        m.push("standby_resets", s.resets);
        m.push("standby_corrupt", s.corrupt);
        m.push("standby_epoch", s.epoch);
        m.push("standby_primary_appended", s.primary_appended);
        m.push("standby_beats", s.beats);
        m.push("standby_primary_degraded", s.primary_degraded);
        m
    }
}

/// A running warm standby. Drop stops the follower and listener
/// without promoting.
pub struct Standby {
    shared: Arc<StandbyShared>,
    local: PathBuf,
    heartbeat: Duration,
    dead_after_beats: u32,
    follow_thread: Option<std::thread::JoinHandle<()>>,
    listener: Option<Listener<StandbyShared>>,
}

impl Standby {
    /// Starts following per `config`. Returns once the follower (and
    /// listener, if configured) threads are running; catching up with
    /// the primary happens in the background.
    pub fn start(config: StandbyConfig) -> std::io::Result<Standby> {
        let shared = Arc::new(StandbyShared {
            stopping: AtomicBool::new(false),
            image: Mutex::new(Image::default()),
            last_beat: Mutex::new(Instant::now()),
        });
        let local = match &config.source {
            StandbySource::File(path) => path.clone(),
            StandbySource::Primary { local, .. } => local.clone(),
        };
        // Seed the epoch from the sidecar so a standby of an already
        // promoted lineage never accepts a lower-epoch image.
        shared.image.lock().expect("image lock").status.epoch = crate::journal::read_epoch(&local);
        let follow_shared = Arc::clone(&shared);
        let source = config.source.clone();
        let heartbeat = config.heartbeat;
        let follow_thread =
            std::thread::Builder::new().name("svc-standby-follow".into()).spawn(move || {
                match source {
                    StandbySource::File(path) => follow_file(&path, &follow_shared),
                    StandbySource::Primary { addr, local } => {
                        follow_primary(&addr, &local, &follow_shared, heartbeat);
                    }
                }
            })?;
        let listener = match &config.serve_addr {
            Some(bind) => {
                Some(Listener::spawn(TcpListener::bind(bind)?, Arc::clone(&shared), None)?)
            }
            None => None,
        };
        Ok(Standby {
            shared,
            local,
            heartbeat: config.heartbeat,
            dead_after_beats: config.dead_after_beats,
            follow_thread: Some(follow_thread),
            listener,
        })
    }

    /// Bound address of the read-only front end, when one was
    /// configured.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().map(|listener| listener.addr)
    }

    /// Point-in-time follower status.
    pub fn status(&self) -> StandbyStatus {
        self.shared.image.lock().expect("image lock").status
    }

    /// Read-only attach from the warm run index — same answer the
    /// primary would give, echoing `id`.
    pub fn attach(&self, id: u64, job: u64) -> Response {
        self.shared.attach(id, job)
    }

    /// True once the primary has missed `dead_after_beats` heartbeats
    /// (or reported its journal degraded). The supervisor polls this
    /// and decides whether to [`promote`](Standby::promote).
    pub fn primary_dead(&self) -> bool {
        let status = self.status();
        if status.primary_degraded {
            return true;
        }
        let last = *self.shared.last_beat.lock().expect("beat lock");
        last.elapsed() > self.heartbeat * self.dead_after_beats
    }

    /// Stops following and serving; returns the journal path a
    /// promotion would replay. Use when supervision happens out of
    /// process (e.g. the CLI re-execs a full server).
    pub fn stop(mut self) -> PathBuf {
        self.halt();
        std::mem::take(&mut self.local)
    }

    /// Promotes this standby into a full read-write [`Service`]:
    /// stops following, replays the followed journal (sealing any torn
    /// tail), bumps the fencing epoch so the deposed primary's late
    /// appends are rejected, and starts admitting.
    ///
    /// `config` supplies everything but the journal; its `journal`
    /// field (if any) donates fsync/rotation/retention settings while
    /// the path and `promote` flag are forced to the standby's.
    pub fn promote(self, mut config: SvcConfig) -> std::io::Result<Service> {
        let path = self.stop();
        let mut journal = config.journal.take().unwrap_or_else(|| JournalConfig::new(path.clone()));
        journal.path = path;
        journal.promote = true;
        config.journal = Some(journal);
        Service::try_start(config)
    }

    fn halt(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        if let Some(t) = self.follow_thread.take() {
            let _ = t.join();
        }
        if let Some(listener) = &mut self.listener {
            listener.stop_accepting();
            listener.join_connections();
        }
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.halt();
    }
}

fn apply_event(shared: &StandbyShared, event: FollowEvent) {
    let mut image = shared.image.lock().expect("image lock");
    match event {
        FollowEvent::Record { record, .. } => image.apply(record),
        FollowEvent::Reset => image.reset(),
        FollowEvent::Corrupt { .. } => image.status.corrupt += 1,
    }
}

/// Shared-filesystem follower: tail the journal, watch the heartbeat
/// file's mtime for liveness.
fn follow_file(path: &Path, shared: &StandbyShared) {
    let hb_path = heartbeat_path(path);
    let mut follower = JournalFollower::new(path);
    let mut last_mtime: Option<SystemTime> = None;
    while !shared.stopping() {
        for event in follower.poll().unwrap_or_default() {
            apply_event(shared, event);
        }
        if let Ok(mtime) = std::fs::metadata(&hb_path).and_then(|m| m.modified()) {
            if last_mtime != Some(mtime) {
                last_mtime = Some(mtime);
                shared.beat();
            }
        }
        std::thread::sleep(POLL);
    }
}

/// Network follower: keep a `replicate` stream open against the
/// primary, persist records into the local copy, reconnect with capped
/// backoff. Returns (ending the thread) once the primary reports
/// itself degraded — from then on only promotion makes progress.
fn follow_primary(addr: &str, local: &Path, shared: &StandbyShared, heartbeat: Duration) {
    let mut backoff = Duration::from_millis(50);
    while !shared.stopping() {
        if let Ok(stream) = TcpStream::connect(addr) {
            backoff = Duration::from_millis(50);
            if stream_session(stream, local, shared, heartbeat) {
                return; // primary reported degraded: stop following
            }
        }
        sleep_observing_stop(shared, backoff);
        backoff = (backoff * 2).min(MAX_RECONNECT_BACKOFF);
    }
}

fn sleep_observing_stop(shared: &StandbyShared, total: Duration) {
    let deadline = Instant::now() + total;
    while !shared.stopping() && Instant::now() < deadline {
        std::thread::sleep(POLL.min(total));
    }
}

/// One replication session. Every (re)connect restreams the journal
/// from the top, so the local copy is truncated and the image reset
/// before applying. Returns true iff the primary declared itself
/// degraded (the caller stops following instead of reconnecting).
fn stream_session(
    mut stream: TcpStream,
    local: &Path,
    shared: &StandbyShared,
    heartbeat: Duration,
) -> bool {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    if stream.write_all(b"{\"type\":\"replicate\",\"id\":1}\n").is_err() {
        return false;
    }
    let Ok(mut file) = std::fs::File::create(local) else {
        return false;
    };
    {
        let mut image = shared.image.lock().expect("image lock");
        if image.status.records_applied > 0 {
            image.reset();
        }
    }
    // Uncapped: one record line can approach a full ranking's size.
    let mut lines = LineReader::new(None);
    let mut last_frame = Instant::now();
    while !shared.stopping() {
        while let Some(line) = lines.next_line() {
            last_frame = Instant::now();
            let Ok(frame) = Value::parse(&line) else {
                shared.image.lock().expect("image lock").status.corrupt += 1;
                continue;
            };
            match frame.get("type").and_then(Value::as_str) {
                Some("repl-record") => {
                    let Some(record_line) = frame.get("line").and_then(Value::as_str) else {
                        shared.image.lock().expect("image lock").status.corrupt += 1;
                        continue;
                    };
                    let _ = writeln!(file, "{record_line}");
                    match decode_line(record_line.as_bytes()) {
                        Some(record) => apply_event(
                            shared,
                            FollowEvent::Record { line: record_line.to_string(), record },
                        ),
                        None => shared.image.lock().expect("image lock").status.corrupt += 1,
                    }
                }
                Some("repl-reset") => {
                    if file.set_len(0).is_ok() {
                        let _ = std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(0));
                    }
                    apply_event(shared, FollowEvent::Reset);
                }
                Some("repl-corrupt") => {
                    shared.image.lock().expect("image lock").status.corrupt += 1;
                }
                Some("repl-hb") => {
                    let epoch = frame.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                    let appended = frame.get("appended").and_then(Value::as_u64).unwrap_or(0);
                    let degraded = frame.get("degraded").and_then(Value::as_u64).unwrap_or(0) != 0;
                    {
                        let mut image = shared.image.lock().expect("image lock");
                        image.status.epoch = image.status.epoch.max(epoch);
                        image.status.primary_appended = appended;
                        image.status.primary_degraded = degraded;
                    }
                    if degraded {
                        let _ = file.sync_data();
                        return true;
                    }
                    shared.beat();
                }
                _ => shared.image.lock().expect("image lock").status.corrupt += 1,
            }
        }
        // The session ends when the primary closes the stream (or an
        // injected drop does) — and when it stalls: a stalled stream
        // (fault injection or a wedged primary) keeps the connection
        // open but silent, so a long frame gap counts as a disconnect
        // and the supervisor sees missed heartbeats, not a healthy follow.
        let stalled = || last_frame.elapsed() > heartbeat * DEAD_AFTER_BEATS;
        if !lines.fill(&mut stream, stalled) {
            break;
        }
    }
    let _ = file.sync_data();
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ErrorKind, MemberSummary, Request};
    use crate::server::{route, Mount, Routed};

    fn image_of(records: impl IntoIterator<Item = JournalRecord>) -> StandbyShared {
        let mut image = Image::default();
        records.into_iter().for_each(|record| image.apply(record));
        StandbyShared {
            stopping: AtomicBool::new(false),
            image: Mutex::new(image),
            last_beat: Mutex::new(Instant::now()),
        }
    }

    /// What the standby's listener answers `line` with.
    fn answer(shared: &StandbyShared, line: &str) -> Response {
        match route(Mount::Standby(shared), Request::from_json(line).expect("a valid request")) {
            Routed::Answered(reply) => reply,
            _ => panic!("a standby answers every request itself"),
        }
    }

    fn run_response(id: u64, makespan: f64) -> Response {
        Response::RunResult {
            id,
            ensemble_makespan: makespan,
            members: vec![MemberSummary { sigma_star: 1.0, efficiency: 0.9, cp: 1.0, makespan }],
            elapsed_ms: 2.0,
        }
    }

    #[test]
    fn image_applies_and_resets() {
        let mut image = Image::default();
        image.apply(JournalRecord::Admit { job: 1, tenant: None });
        image.apply(JournalRecord::Score { key: "k".into(), placements: vec![].into() });
        image.apply(JournalRecord::Run { job: 7, response: run_response(7, 42.0) });
        image.apply(JournalRecord::Release { job: 99 });
        image.apply(JournalRecord::Epoch { epoch: 3 });
        assert_eq!(image.status.records_applied, 5);
        assert_eq!(image.status.admits, 1);
        assert_eq!(image.status.scores, 1);
        assert_eq!(image.status.runs_indexed, 1);
        assert_eq!(image.status.epoch, 3);
        image.reset();
        assert_eq!(image.status.records_applied, 0);
        assert_eq!(image.status.runs_indexed, 0);
        assert_eq!(image.status.resets, 1);
        assert_eq!(image.status.epoch, 3, "epoch is monotone across resets");
        assert!(image.runs.is_empty());
    }

    #[test]
    fn attach_serves_the_warm_run_index_read_only() {
        let shared = image_of([JournalRecord::Run { job: 7, response: run_response(7, 42.0) }]);
        match answer(&shared, "{\"type\":\"attach\",\"id\":55,\"job\":7}") {
            Response::RunResult { id, ensemble_makespan, .. } => {
                assert_eq!(id, 55, "attach echoes the caller's id");
                assert_eq!(ensemble_makespan.to_bits(), 42.0f64.to_bits());
            }
            other => panic!("expected a run result, got {other:?}"),
        }
        assert!(matches!(
            answer(&shared, "{\"type\":\"attach\",\"id\":56,\"job\":8}"),
            Response::Error { kind: ErrorKind::NotFound, .. }
        ));
    }

    #[test]
    fn writes_are_refused_with_the_standby_error_kind() {
        let shared = image_of([]);
        let score = "{\"type\":\"score\",\"id\":3,\"max_nodes\":2,\"cores_per_node\":4,\"members\":[{\"sim_cores\":2,\"analyses\":[1]}]}";
        for line in [score, "{\"type\":\"replicate\",\"id\":3}"] {
            match answer(&shared, line) {
                Response::Error { id, kind, .. } => {
                    assert_eq!(id, 3);
                    assert_eq!(kind, ErrorKind::Standby);
                }
                other => panic!("expected a standby refusal, got {other:?}"),
            }
        }
        match answer(&shared, "{\"type\":\"metrics\",\"id\":4}") {
            Response::Metrics { id: 4, rows } => assert_eq!(rows.len(), 11),
            other => panic!("expected the standby rows, got {other:?}"),
        }
    }
}
