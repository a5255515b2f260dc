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
//!   into a local journal copy before applying it. Liveness comes from
//!   `repl-hb` frames; a heartbeat carrying `degraded:1` (the primary's
//!   journal crashed or was fenced) counts as death immediately.
//!   Promotion replays the local copy.
//!
//! Both sources feed one apply into the [`Image`] a restart folds, so
//! a promotion's replay lands on the state the standby served.
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

use std::io::{Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use crate::image::Image;
use crate::journal::{FollowEvent, JournalConfig, JournalFollower};
use crate::protocol::Response;
use crate::server::{decode_repl_frame, heartbeat_path, Heartbeat, LineReader, Listener};
use crate::server::{ReplFrame, REPL_HEARTBEAT};
use crate::service::{attach_reply, Service, SvcConfig};
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
    /// Score records applied (counted; the standby holds no ranking).
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

/// What the follower keeps: the image it folds the stream into — no
/// ranking, every run and open reservation — the stream's own counters
/// (the `resets`, `corrupt`, `primary_*` and `beats` of `counted`), and
/// when the primary last beat. [`apply_event`] is its only writer.
struct Follow {
    image: Image,
    counted: StandbyStatus,
    last_beat: Instant,
}

impl Follow {
    /// An empty follow of a lineage whose sidecar holds `epoch`: a
    /// standby of an already promoted lineage never accepts a
    /// lower-epoch image.
    fn new(epoch: u64) -> Follow {
        let image = Image { epoch, ..Image::new(0, usize::MAX) };
        Follow { image, counted: StandbyStatus::default(), last_beat: Instant::now() }
    }

    fn status(&self) -> StandbyStatus {
        let image = &self.image;
        StandbyStatus {
            records_applied: image.records,
            admits: image.admits,
            scores: image.score_records,
            runs_indexed: image.runs.len() as u64,
            open_reservations: image.reservations.len() as u64,
            epoch: image.epoch,
            ..self.counted
        }
    }
}

/// What the follower keeps and the read-only listener serves.
pub(crate) struct StandbyShared {
    stopping: AtomicBool,
    follow: Mutex<Follow>,
}

impl StandbyShared {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    fn follow(&self) -> std::sync::MutexGuard<'_, Follow> {
        self.follow.lock().expect("follow lock")
    }

    /// Read-only attach from the warm run index.
    pub(crate) fn attach(&self, id: u64, job: u64) -> Response {
        attach_reply(id, job, self.follow().image.runs.get(&job))
    }

    /// The standby's metrics rows: `standby_*` names, disjoint from a
    /// primary's rows so dashboards can tell which side answered. Each
    /// row's meaning is the [`StandbyStatus`] field it reads.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let s = self.follow().status();
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
        let local = match &config.source {
            StandbySource::File(path) => path.clone(),
            StandbySource::Primary { local, .. } => local.clone(),
        };
        let shared = Arc::new(StandbyShared {
            stopping: AtomicBool::new(false),
            follow: Mutex::new(Follow::new(crate::journal::read_epoch(&local))),
        });
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
            Some(bind) => Some(Listener::spawn(TcpListener::bind(bind)?, Arc::clone(&shared))?),
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
        self.shared.follow().status()
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
        let follow = self.shared.follow();
        follow.counted.primary_degraded
            || follow.last_beat.elapsed() > self.heartbeat * self.dead_after_beats
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
    /// field (if any) donates fsync/rotation settings while
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

/// Applies one event of either source: the only writer of the
/// standby's image and counters.
fn apply_event(shared: &StandbyShared, frame: ReplFrame) {
    let follow = &mut *shared.follow();
    let counted = &mut follow.counted;
    match frame {
        ReplFrame::Follow(FollowEvent::Record { record, .. }) => follow.image.apply(record),
        ReplFrame::Follow(FollowEvent::Reset) => {
            follow.image.reset();
            counted.resets += 1;
        }
        ReplFrame::Follow(FollowEvent::Corrupt { .. }) => counted.corrupt += 1,
        ReplFrame::Beat(hb) => {
            follow.image.epoch = follow.image.epoch.max(hb.epoch);
            counted.primary_appended = hb.appended;
            counted.primary_degraded = hb.degraded;
            if hb.degraded {
                return; // a death notice, not a sign of life
            }
            counted.beats += 1;
            follow.last_beat = Instant::now();
        }
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
            apply_event(shared, ReplFrame::Follow(event));
        }
        if let Ok(mtime) = std::fs::metadata(&hb_path).and_then(|m| m.modified()) {
            if last_mtime != Some(mtime) {
                last_mtime = Some(mtime);
                apply_event(shared, ReplFrame::Beat(Heartbeat::default()));
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
/// before applying. A record reaches the image only after it reached
/// the local copy, which promotion replays: a failed local write ends
/// the session, and the reconnect restreams into a truncated copy.
/// Returns true iff the primary declared itself degraded (the caller
/// stops following instead of reconnecting).
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
    if shared.follow().image.records > 0 {
        apply_event(shared, ReplFrame::Follow(FollowEvent::Reset));
    }
    // Uncapped: one record line can approach a full ranking's size.
    let mut lines = LineReader::new(None);
    let mut last_frame = Instant::now();
    while !shared.stopping() {
        while let Some(line) = lines.next_line() {
            last_frame = Instant::now();
            let frame = decode_repl_frame(&line);
            let persisted = match &frame {
                ReplFrame::Follow(FollowEvent::Record { line, .. }) => writeln!(file, "{line}"),
                ReplFrame::Follow(FollowEvent::Reset) => {
                    file.set_len(0).and_then(|()| file.seek(SeekFrom::Start(0))).map(drop)
                }
                _ => Ok(()),
            };
            if persisted.is_err() {
                return false;
            }
            let degraded = matches!(frame, ReplFrame::Beat(Heartbeat { degraded: true, .. }));
            apply_event(shared, frame);
            if degraded {
                let _ = file.sync_data();
                return true;
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
    use crate::journal::{Journal, JournalRecord, ReplayedReservation};
    use crate::json::encoded;
    use crate::protocol::{ErrorKind, MemberSummary, Request};
    use crate::server::{route, serve, write_repl_frame, Mount, Routed};
    use crate::service::small_score_request;

    fn standby() -> StandbyShared {
        StandbyShared { stopping: AtomicBool::new(false), follow: Mutex::new(Follow::new(0)) }
    }

    fn image_of(records: impl IntoIterator<Item = JournalRecord>) -> StandbyShared {
        let shared = standby();
        for record in records {
            let line = String::new();
            apply_event(&shared, ReplFrame::Follow(FollowEvent::Record { line, record }));
        }
        shared
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

    fn temp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("svc-standby-unit-{}-{name}.jsonl", std::process::id()));
        cleanup(&path);
        path
    }

    fn cleanup(path: &Path) {
        for suffix in ["", ".epoch", ".quarantine", ".hb"] {
            let mut name = path.as_os_str().to_os_string();
            name.push(suffix);
            let _ = std::fs::remove_file(PathBuf::from(name));
        }
    }

    fn fixture_lines(name: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
        std::fs::read_to_string(path).expect("fixture").lines().map(str::to_string).collect()
    }

    /// What a restart and a standby must agree on: the runs (every bit),
    /// the open reservations, the epoch and the admit count.
    #[derive(Debug, PartialEq)]
    struct Held {
        runs: Vec<(u64, String)>,
        reservations: Vec<ReplayedReservation>,
        epoch: u64,
        admits: u64,
    }

    fn held(image: &Image) -> Held {
        Held {
            runs: image
                .runs
                .iter()
                .map(|(&job, run)| (job, run.recorded_reply().to_json()))
                .collect(),
            reservations: image.reservations.iter().map(|(_, r)| r.clone()).collect(),
            epoch: image.epoch,
            admits: image.admits,
        }
    }

    #[test]
    fn the_standby_image_equals_replay_for_every_prefix_of_every_fixture() {
        let path = temp_path("image-equals-replay");
        for fixture in ["journal_golden.jsonl", "parent_journal.jsonl"] {
            let lines = fixture_lines(fixture);
            for n in 0..=lines.len() {
                let intact: String = lines[..n].iter().map(|line| format!("{line}\n")).collect();
                // The same prefix with a corrupt interior line and a
                // torn tail added.
                let (head, tail) =
                    intact.split_at(lines[..n / 2].iter().map(|l| l.len() + 1).sum());
                let flipped = "{\"rec\":\"score\",\"key\":\"flipped\",\"crc\":\"00000000\"}\n";
                let damaged = format!("{head}{flipped}{tail}{{\"rec\":\"run\",\"job\":99,\"resp");
                for bytes in [intact.clone(), damaged] {
                    std::fs::write(&path, &bytes).unwrap();
                    let events = JournalFollower::new(&path).poll().unwrap();
                    let (by_file, by_stream) = (standby(), standby());
                    for frame in events.into_iter().map(ReplFrame::Follow) {
                        let text = encoded(|out| write_repl_frame(out, &frame));
                        apply_event(&by_file, frame);
                        apply_event(&by_stream, decode_repl_frame(&text));
                    }
                    let (journal, replayed) = Journal::open(JournalConfig::new(&path)).unwrap();
                    let (want, quarantined) = (held(&replayed), journal.stats().quarantined);
                    drop(journal);
                    for follow in [by_file.follow(), by_stream.follow()] {
                        assert_eq!(held(&follow.image), want, "{fixture}, {n} lines:\n{bytes}");
                        assert_eq!(follow.counted.corrupt, quarantined, "{fixture}, {n} lines");
                    }
                    cleanup(&path);
                }
            }
        }
    }

    #[test]
    fn promotion_lands_on_the_state_the_standby_served() {
        let path = temp_path("promote-served");
        let lines = fixture_lines("parent_journal.jsonl");
        std::fs::write(&path, lines.iter().map(|line| format!("{line}\n")).collect::<String>())
            .unwrap();
        let standby =
            Standby::start(StandbyConfig::new(StandbySource::File(path.clone()))).unwrap();
        let start = Instant::now();
        while standby.status().records_applied < lines.len() as u64 {
            assert!(start.elapsed() < Duration::from_secs(10), "the standby never caught up");
            std::thread::sleep(POLL);
        }
        let status = standby.status();
        let jobs: Vec<u64> =
            standby.shared.follow().image.runs.iter().map(|(&job, _)| job).collect();
        assert!(!jobs.is_empty(), "the fixture holds a run");
        let served: Vec<String> =
            jobs.iter().map(|&job| standby.attach(5, job).to_json()).collect();
        let svc = standby.promote(SvcConfig { workers: 1, ..SvcConfig::default() }).unwrap();
        let promoted: Vec<String> = jobs.iter().map(|&job| svc.attach(5, job).to_json()).collect();
        assert_eq!(promoted, served, "attach answers the bits the standby served");
        let m = svc.metrics();
        assert_eq!(m.get("run_index_entries"), status.runs_indexed as f64);
        assert_eq!(m.get("journal_epoch"), (status.epoch + 1) as f64, "promotion bumps the epoch");
        svc.shutdown();
        cleanup(&path);
    }

    /// A local copy that refuses every write: the standby must never
    /// apply a record promotion would not replay.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_record_the_local_copy_never_got_is_never_applied() {
        let path = temp_path("dev-full-primary");
        let copy = temp_path("dev-full-control");
        let config = SvcConfig {
            workers: 1,
            journal: Some(JournalConfig::new(&path)),
            ..SvcConfig::default()
        };
        let primary = serve("127.0.0.1:0", config).unwrap();
        primary.service().submit(small_score_request(1, 2, 16, 1, 8, 3)).unwrap().wait();
        let addr = primary.addr().to_string();
        let follow = |local: PathBuf| {
            let source = StandbySource::Primary { addr: addr.clone(), local };
            Standby::start(StandbyConfig::new(source)).unwrap()
        };
        // The control: a copy that takes writes applies the admit and
        // the score within a few frames.
        let control = follow(copy.clone());
        let start = Instant::now();
        while control.status().records_applied < 2 {
            assert!(start.elapsed() < Duration::from_secs(10), "the control never caught up");
            std::thread::sleep(POLL);
        }
        let full = follow(PathBuf::from("/dev/full"));
        // Several sessions' worth of reconnects.
        std::thread::sleep(Duration::from_millis(600));
        let status = full.status();
        assert_eq!((status.records_applied, status.runs_indexed, status.admits), (0, 0, 0));
        drop((control, full));
        primary.shutdown();
        cleanup(&path);
        cleanup(&copy);
    }
}
