//! The front end: one router and one JSON-lines-over-TCP listener.
//!
//! `route` decides, per request kind, how every request is answered —
//! inline, through admission, or by taking over the connection — for
//! both mounts (the primary's [`Service`] and a standby's read-only
//! image) and for every caller: a connection thread here, or an
//! in-process [`Service::submit`].
//!
//! One request per line, one *final* response line per request, answered
//! in order per connection; concurrency comes from concurrent
//! connections feeding the shared worker pool. Requests that opt in via
//! a `progress` spec additionally get zero or more `{"type":"progress"}`
//! lines before their final line — same connection, same order, never
//! interleaved with another request's frames (one connection serves one
//! request at a time). Malformed lines get a structured `error` response
//! instead of killing the connection (or a worker). A client that
//! disconnects before its response is delivered — or mid-stream between
//! progress frames — cancels its in-flight work cooperatively; the write
//! failure is absorbed.
//!
//! Shutdown: stop accepting, wake connection readers via their read
//! timeout, drain the service (everything admitted is still answered),
//! then join every thread.

use std::borrow::Cow;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::journal::{decode_line, FollowEvent, JournalFollower};
use crate::json::{write_str, write_u64, Value};
use crate::protocol::{ErrorKind, Frame, Request, RequestBody, Response};
use crate::service::{Pending, Service, SvcConfig};
use crate::standby::StandbyShared;

/// Poll interval connection readers use to observe shutdown.
const READ_POLL: Duration = Duration::from_millis(50);
/// A request line longer than this is refused as malformed.
const MAX_LINE_BYTES: usize = 1 << 20;
/// Capacity a connection's output buffer may keep between frames.
const OUT_KEEP_BYTES: usize = 64 << 10;
/// Cadence of replication heartbeat frames and of the primary's
/// journal-sibling heartbeat file. Standbys declare the primary dead
/// after missing a few of these (see `standby::DEAD_AFTER_BEATS`).
pub const REPL_HEARTBEAT: Duration = Duration::from_millis(150);
/// How often a replication stream polls the journal for new records.
const REPL_POLL: Duration = Duration::from_millis(20);

/// Path of the primary-liveness heartbeat file, a sibling of the
/// journal (`<journal>.hb`). File-follow standbys watch its mtime.
pub fn heartbeat_path(journal: &std::path::Path) -> PathBuf {
    let mut name = journal.file_name().unwrap_or_default().to_os_string();
    name.push(".hb");
    journal.with_file_name(name)
}

/// What requests are routed to: the primary's read-write service, or a
/// standby's read-only image. Neither knows which listener, if any, it
/// is mounted on.
pub(crate) enum Mount<'a> {
    Primary(&'a Service),
    Standby(&'a StandbyShared),
}

/// How the router answers a request.
pub(crate) enum Routed<'a> {
    /// Answered without a worker: an inline kind, or a refusal at the
    /// door.
    Answered(Response),
    /// Admitted: zero or more progress frames, then the final, arrive on
    /// the handle.
    Admitted(Pending),
    /// A replication stream of this journalled service, which takes over
    /// the connection; the id is echoed in its heartbeat frames.
    Replicate(&'a Service, u64),
}

/// The one router. `metrics` and `attach` are answered inline — no queue
/// slot, no worker, no ledger step — so they work under overload;
/// `replicate` takes over the connection; every other kind goes through
/// admission. A standby answers from its image and refuses the rest.
pub(crate) fn route(mount: Mount<'_>, request: Request) -> Routed<'_> {
    let id = request.id;
    let refuse = |kind, message: &str| Response::Error { id, kind, message: message.into() };
    Routed::Answered(match (&request.body, mount) {
        (RequestBody::Metrics, Mount::Primary(service)) => {
            Response::Metrics { id, rows: service.metrics().all_rows() }
        }
        (RequestBody::Metrics, Mount::Standby(image)) => {
            Response::Metrics { id, rows: image.metrics().all_rows() }
        }
        (RequestBody::Attach { job }, Mount::Primary(service)) => service.attach(id, *job),
        (RequestBody::Attach { job }, Mount::Standby(image)) => image.attach(id, *job),
        (RequestBody::Replicate, Mount::Primary(service)) if service.config().journal.is_some() => {
            return Routed::Replicate(service, id);
        }
        (RequestBody::Replicate, Mount::Primary(_)) => {
            refuse(ErrorKind::Invalid, "replication requires a journalled primary (--journal)")
        }
        (_, Mount::Standby(_)) => refuse(
            ErrorKind::Standby,
            "standby: read-only until promoted (metrics and attach only)",
        ),
        (_, Mount::Primary(service)) => match service.offer(request) {
            Ok(pending) => return Routed::Admitted(pending),
            Err(refused) => refused,
        },
    })
}

/// A listener's value: what its connections route requests to.
pub(crate) trait Serve: Send + Sync + 'static {
    fn mount(&self) -> Mount<'_>;
}

impl Serve for Service {
    fn mount(&self) -> Mount<'_> {
        Mount::Primary(self)
    }
}

impl Serve for StandbyShared {
    fn mount(&self) -> Mount<'_> {
        Mount::Standby(self)
    }
}

struct ListenerShared<S> {
    served: Arc<S>,
    stopping: AtomicBool,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Replication sessions ever opened; stream faults from the fault
    /// plan hit only session 0, so a reconnecting standby recovers (the
    /// injected drop/stall models a transient network failure, not a
    /// permanently broken path).
    repl_sessions: AtomicU64,
}

/// A TCP listener serving `S`: the one accept loop and its connections.
pub(crate) struct Listener<S> {
    shared: Arc<ListenerShared<S>>,
    pub(crate) addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl<S: Serve> Listener<S> {
    /// Serves `served` on the bound `tcp` listener.
    pub(crate) fn spawn(tcp: TcpListener, served: Arc<S>) -> std::io::Result<Listener<S>> {
        tcp.set_nonblocking(true)?;
        let addr = tcp.local_addr()?;
        let shared = Arc::new(ListenerShared {
            served,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            repl_sessions: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("svc-accept".into())
            .spawn(move || accept_loop(&tcp, &accept_shared))?;
        Ok(Listener { shared, addr, accept_thread: Some(accept_thread) })
    }

    /// Refuses new connections and tells the open ones to finish at
    /// their next read timeout.
    pub(crate) fn stop_accepting(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    pub(crate) fn join_connections(&self) {
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for c in conns {
            let _ = c.join();
        }
    }
}

/// A running TCP server; dropping it (or calling
/// [`shutdown`](ServerHandle::shutdown)) drains and stops everything.
pub struct ServerHandle {
    listener: Listener<Service>,
    heartbeat_thread: Option<std::thread::JoinHandle<()>>,
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// requests on top of a freshly started [`Service`].
pub fn serve(addr: &str, config: SvcConfig) -> std::io::Result<ServerHandle> {
    let tcp = TcpListener::bind(addr)?;
    let journal_path = config.journal.as_ref().map(|j| j.path.clone());
    let listener = Listener::spawn(tcp, Arc::new(Service::try_start(config)?))?;
    // Journalled primaries advertise liveness by touching `<journal>.hb`
    // every heartbeat; a fault-plan "crash" (degraded journal) stops the
    // beat so file-follow standbys see the primary as dead even though
    // the test process is still alive.
    let heartbeat_thread = journal_path.map(|path| {
        let hb_shared = Arc::clone(&listener.shared);
        std::thread::Builder::new()
            .name("svc-heartbeat".into())
            .spawn(move || heartbeat_loop(&path, &hb_shared))
            .expect("spawn heartbeat")
    });
    Ok(ServerHandle { listener, heartbeat_thread })
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr
    }

    /// Live metrics of the underlying service.
    pub fn metrics(&self) -> crate::stats::MetricsSnapshot {
        self.service().metrics()
    }

    /// Direct access to the underlying service (in-process submissions
    /// share the pool and cache with TCP clients).
    pub fn service(&self) -> &Service {
        &self.listener.shared.served
    }

    /// Connection-thread handles currently tracked by the acceptor.
    /// Finished handles are reaped on each accept, so under steady churn
    /// this stays bounded by the number of *live* connections (plus any
    /// that finished since the last accept) instead of growing by one
    /// per connection ever served.
    pub fn tracked_connections(&self) -> usize {
        self.listener.shared.conns.lock().expect("conns lock").len()
    }

    /// Graceful shutdown: refuse new connections and requests, drain
    /// admitted work, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.listener.stop_accepting();
        if let Some(t) = self.heartbeat_thread.take() {
            let _ = t.join();
        }
        // Drain admitted work; pending replies unblock connection
        // threads waiting on them.
        self.service().shutdown();
        self.listener.join_connections();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<S: Serve>(tcp: &TcpListener, shared: &Arc<ListenerShared<S>>) {
    while !shared.stopping.load(Ordering::Acquire) {
        match tcp.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("svc-conn".into())
                    .spawn(move || connection_loop(stream, &conn_shared))
                    .expect("spawn connection");
                // Reap finished connection threads before tracking the
                // new one: joining a finished handle is instant, and
                // without the sweep a long-lived server leaked one
                // JoinHandle (thread stack bookkeeping included) per
                // connection it ever served until shutdown.
                let mut conns = shared.conns.lock().expect("conns lock");
                let mut live = Vec::with_capacity(conns.len() + 1);
                for h in conns.drain(..) {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        live.push(h);
                    }
                }
                live.push(handle);
                *conns = live;
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                std::thread::sleep(READ_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Touches the primary heartbeat file every [`REPL_HEARTBEAT`] until
/// shutdown, and stops beating for good once the journal degrades
/// (fencing, fault-plan crash, or repeated fsync failure).
fn heartbeat_loop(journal: &std::path::Path, shared: &ListenerShared<Service>) {
    let path = heartbeat_path(journal);
    let mut tick: u64 = 0;
    while !shared.stopping.load(Ordering::Acquire) {
        let degraded = shared.served.journal_stats().is_some_and(|s| s.degraded);
        if degraded {
            break;
        }
        tick += 1;
        let epoch = shared.served.journal_stats().map_or(0, |s| s.epoch);
        let _ = std::fs::write(&path, format!("{{\"tick\":{tick},\"epoch\":{epoch}}}\n"));
        std::thread::sleep(REPL_HEARTBEAT);
    }
}

/// Serves one replication stream of `service` on the connection's own
/// thread: the journal's [`ReplFrame`]s, and a beat every
/// [`REPL_HEARTBEAT`] even when idle.
///
/// Fault hooks from the journal's [`SvcFaultPlan`](crate::fault::SvcFaultPlan):
/// `drop_stream_after` closes the connection after N record frames;
/// `stall_stream_after` keeps it open but silent (no heartbeats), so
/// the standby must detect death by timeout rather than EOF.
fn replication_loop<S>(
    stream: &mut TcpStream,
    out: &mut String,
    shared: &ListenerShared<S>,
    service: &Service,
    id: u64,
) {
    let Some(journal_cfg) = service.config().journal.clone() else {
        return;
    };
    // Stream faults are one-shot: only the first replication session
    // ever opened sees them, so a standby's reconnect makes progress.
    let session = shared.repl_sessions.fetch_add(1, Ordering::SeqCst);
    let fault = if session == 0 {
        journal_cfg.fault.unwrap_or_default()
    } else {
        crate::fault::SvcFaultPlan::default()
    };
    let mut follower = JournalFollower::new(&journal_cfg.path);
    let mut sent_records: u64 = 0;
    let mut last_hb: Option<Instant> = None;
    loop {
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        for frame in follower.poll().unwrap_or_default().into_iter().map(ReplFrame::Follow) {
            if write_frame(stream, out, |out| write_repl_frame(out, &frame)).is_err() {
                return; // standby gone
            }
            if matches!(frame, ReplFrame::Follow(FollowEvent::Record { .. })) {
                sent_records += 1;
                if fault.drop_stream_after.is_some_and(|n| sent_records >= n) {
                    return; // injected drop: close the connection
                }
                if fault.stall_stream_after.is_some_and(|n| sent_records >= n) {
                    // Injected stall: hold the connection open, send
                    // nothing more (not even heartbeats).
                    while !shared.stopping.load(Ordering::Acquire) {
                        std::thread::sleep(READ_POLL);
                    }
                    return;
                }
            }
        }
        if last_hb.is_none_or(|t| t.elapsed() >= REPL_HEARTBEAT) {
            let stats = service.journal_stats().unwrap_or_default();
            let (epoch, appended, degraded) = (stats.epoch, stats.appended, stats.degraded);
            let beat = ReplFrame::Beat(Heartbeat { id, epoch, appended, degraded });
            let sent = write_frame(stream, out, |out| write_repl_frame(out, &beat));
            if sent.is_err() {
                return;
            }
            last_hb = Some(Instant::now());
        }
        std::thread::sleep(REPL_POLL);
    }
}

/// One frame of a replication stream, one JSON object per line:
/// - `{"type":"repl-record","line":"<raw journal line>"}` — a journal
///   record exactly as written (checksum seal included);
/// - `{"type":"repl-reset"}` — the journal rotated or truncated; the
///   standby must discard its image and rebuild from the records that
///   follow;
/// - `{"type":"repl-corrupt"}` — a complete-but-corrupt line was
///   skipped (the standby counts it, mirroring replay quarantine);
/// - `{"type":"repl-hb","id":I,"epoch":E,"appended":N,"degraded":0|1}`
///   — a beat; `degraded:1` tells the standby the primary's journal is
///   dead (crashed or fenced).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReplFrame {
    /// The first three, as the primary's [`JournalFollower`] saw them —
    /// or a frame that did not decode, which counts as corrupt.
    Follow(FollowEvent),
    /// A beat.
    Beat(Heartbeat),
}

/// What a `repl-hb` frame reports: the replicate request's id and the
/// primary's journal state. A touch of the heartbeat file reports
/// nothing, which is the default beat.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Heartbeat {
    pub(crate) id: u64,
    pub(crate) epoch: u64,
    pub(crate) appended: u64,
    pub(crate) degraded: bool,
}

/// Encodes `frame`. A corrupt line is only counted downstream, so its
/// frame carries no line.
pub(crate) fn write_repl_frame(out: &mut String, frame: &ReplFrame) {
    match frame {
        ReplFrame::Follow(FollowEvent::Record { line, .. }) => {
            out.push_str("{\"type\":\"repl-record\",\"line\":");
            write_str(out, line);
            out.push('}');
        }
        ReplFrame::Follow(FollowEvent::Reset) => out.push_str("{\"type\":\"repl-reset\"}"),
        ReplFrame::Follow(FollowEvent::Corrupt { .. }) => {
            out.push_str("{\"type\":\"repl-corrupt\"}")
        }
        ReplFrame::Beat(Heartbeat { id, epoch, appended, degraded }) => {
            out.push_str("{\"type\":\"repl-hb\",\"id\":");
            write_u64(out, *id);
            out.push_str(",\"epoch\":");
            write_u64(out, *epoch);
            out.push_str(",\"appended\":");
            write_u64(out, *appended);
            out.push_str(",\"degraded\":");
            write_u64(out, u64::from(*degraded));
            out.push('}');
        }
    }
}

/// Decodes one frame of a replication stream. Whatever is not a
/// well-formed frame — not JSON, an unknown type, a record line that
/// fails its checksum, a beat with a field missing or mistyped — is a
/// `Corrupt` event carrying the frame, never a default.
pub(crate) fn decode_repl_frame(text: &str) -> ReplFrame {
    let decoded = Value::parse(text).ok().and_then(|frame| {
        let field = |name| frame.get(name).and_then(Value::as_u64);
        match frame.get("type")?.as_str()? {
            "repl-record" => {
                let line = frame.get("line")?.as_str()?;
                let record = decode_line(line.as_bytes())?;
                Some(ReplFrame::Follow(FollowEvent::Record { line: line.to_string(), record }))
            }
            "repl-reset" => Some(ReplFrame::Follow(FollowEvent::Reset)),
            "repl-hb" => Some(ReplFrame::Beat(Heartbeat {
                id: field("id")?,
                epoch: field("epoch")?,
                appended: field("appended")?,
                degraded: field("degraded").filter(|&d| d <= 1)? == 1,
            })),
            // `repl-corrupt`, and every type this decoder does not know.
            _ => None,
        }
    });
    decoded.unwrap_or_else(|| ReplFrame::Follow(FollowEvent::Corrupt { line: text.to_string() }))
}

fn connection_loop<S: Serve>(mut stream: TcpStream, shared: &ListenerShared<S>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut lines = LineReader::new(Some(MAX_LINE_BYTES));
    // Every frame of this connection is encoded into this one buffer.
    let mut out = String::new();
    'conn: loop {
        // Serve every complete line already buffered, in place.
        while let Some(line) = lines.next_line() {
            // A panic while handling one request must cost exactly that
            // request, not the connection (and certainly not the
            // server): contain it and answer with a structured error.
            let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_line(shared, &line)
            }))
            .unwrap_or_else(|_| {
                Routed::Answered(Response::Error {
                    id: line_request_id(&line),
                    kind: ErrorKind::Internal,
                    message: "request handler panicked".into(),
                })
            });
            match handled {
                Routed::Answered(response) => {
                    if write_frame(&mut stream, &mut out, |o| response.write_json(o)).is_err() {
                        // Client gone mid-response; nothing to deliver.
                        break 'conn;
                    }
                }
                Routed::Replicate(service, id) => {
                    // The connection is now a one-way record stream; it
                    // ends when the standby disconnects, the server
                    // stops, or a fault plan drops it.
                    replication_loop(&mut stream, &mut out, shared, service, id);
                    break 'conn;
                }
                Routed::Admitted(pending) => {
                    // Drain the reply frame-by-frame: zero or more
                    // progress lines, then exactly one final line. A
                    // write failure means the watcher is gone — cancel
                    // the in-flight work so a dropped `--progress`
                    // session does not keep burning the pool, and let
                    // the worker's remaining sends fail harmlessly into
                    // the dropped receiver.
                    loop {
                        let frame = pending.recv_frame();
                        let last = matches!(frame, Frame::Final(_));
                        if write_frame(&mut stream, &mut out, |o| frame.write_json(o)).is_err() {
                            if !last {
                                pending.cancel();
                            }
                            break 'conn;
                        }
                        if last {
                            break;
                        }
                    }
                }
            }
        }
        if !lines.fill(&mut stream, || shared.stopping.load(Ordering::Acquire)) {
            break 'conn;
        }
    }
}

/// Lines read incrementally off a stream: a line that arrives in many
/// reads is searched for its newline once. With a cap, a line that grows
/// past it without ending is refused instead of buffered. Request lines
/// on every listener are capped at [`MAX_LINE_BYTES`]; a standby's
/// replication stream is not (one record can approach a full ranking's
/// size).
pub(crate) struct LineReader {
    buf: Vec<u8>,
    /// Start of the first line not yet handed out.
    served: usize,
    /// Bytes of `buf` already searched for a newline.
    searched: usize,
    cap: Option<usize>,
}

impl LineReader {
    pub(crate) fn new(cap: Option<usize>) -> LineReader {
        LineReader { buf: Vec::new(), served: 0, searched: 0, cap }
    }

    /// The next complete, nonblank buffered line, without its newline.
    pub(crate) fn next_line(&mut self) -> Option<Cow<'_, str>> {
        loop {
            let at = self.buf[self.searched..].iter().position(|&b| b == b'\n')?;
            let line = self.served..self.searched + at;
            self.searched += at + 1;
            self.served = self.searched;
            let line = String::from_utf8_lossy(&self.buf[line]);
            if !line.trim().is_empty() {
                return Some(line);
            }
        }
    }

    /// Drops the lines already handed out and reads more of `stream`.
    /// False when the stream is done: the peer closed it, the read
    /// failed, the read timed out with `stop()` true, or the pending line
    /// outgrew the cap — answered `malformed` first.
    pub(crate) fn fill(&mut self, stream: &mut TcpStream, stop: impl FnOnce() -> bool) -> bool {
        self.buf.drain(..self.served);
        self.served = 0;
        self.searched = self.buf.len();
        if let Some(cap) = self.cap.filter(|&cap| self.buf.len() > cap) {
            let refuse = Response::Error {
                id: 0,
                kind: ErrorKind::Malformed,
                message: format!("request line exceeds {cap} bytes"),
            };
            let _ = write_frame(stream, &mut String::new(), |o| refuse.write_json(o));
            return false;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => false, // EOF
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                true
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut => {
                !stop()
            }
            Err(_) => false,
        }
    }
}

/// One newline-terminated protocol frame, encoded by `write` into the
/// connection's reusable buffer, written and flushed (the stream has
/// `TCP_NODELAY` set, so a progress line reaches the watcher immediately
/// instead of sitting in a send buffer behind the final).
fn write_frame(
    stream: &mut TcpStream,
    out: &mut String,
    write: impl FnOnce(&mut String),
) -> std::io::Result<()> {
    out.clear();
    write(out);
    out.push('\n');
    let sent = stream.write_all(out.as_bytes()).and_then(|()| stream.flush());
    // A full ranking is ~0.6 MB; an idle connection must not keep that.
    if out.capacity() > OUT_KEEP_BYTES {
        *out = String::new();
    }
    sent
}

/// Best effort at extracting an id even from a broken request line.
fn line_request_id(line: &str) -> u64 {
    Value::parse(line).ok().and_then(|v| v.get("id").and_then(Value::as_u64)).unwrap_or(0)
}

/// Decodes a line and routes it. A line that does not decode is
/// answered with the error that refuses it: a syntactically fine request
/// carrying an unusable tenant tag is the caller's bug, not a framing
/// problem — `invalid`, so clients don't retry it as a transport error;
/// anything else is `malformed`.
fn handle_line<'a, S: Serve>(shared: &'a ListenerShared<S>, line: &str) -> Routed<'a> {
    let request = match Request::from_json(line) {
        Ok(r) => r,
        Err(message) => {
            let kind = if message.starts_with("invalid tenant") {
                ErrorKind::Invalid
            } else {
                ErrorKind::Malformed
            };
            return Routed::Answered(Response::Error { id: line_request_id(line), kind, message });
        }
    };
    route(shared.served.mount(), request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SvcClient;
    use crate::json::encoded;
    use crate::service::small_score_request;

    /// The primary, except that its first `mount()` panics: the request
    /// being routed dies mid-handling, in the connection's thread.
    struct PanicsOnce {
        service: Service,
        panicked: AtomicBool,
    }

    impl Serve for PanicsOnce {
        fn mount(&self) -> Mount<'_> {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("injected front-end panic");
            }
            Mount::Primary(&self.service)
        }
    }

    #[test]
    fn handler_panic_is_a_structured_internal_error_not_a_dead_connection() {
        // The first request routed panics the front end; the listener
        // must contain it to that one request.
        let config =
            SvcConfig { workers: 1, queue_capacity: 8, cache_capacity: 64, ..SvcConfig::default() };
        let served = Arc::new(PanicsOnce {
            service: Service::start(config),
            panicked: AtomicBool::new(false),
        });
        let tcp = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let mut listener = Listener::spawn(tcp, Arc::clone(&served)).expect("listen");
        let mut client = SvcClient::connect(listener.addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();

        match client.request(&small_score_request(66, 2, 16, 1, 8, 3)).expect("contained panic") {
            Response::Error { id, kind: ErrorKind::Internal, message } => {
                assert_eq!(id, 66, "the poisoned request's id is echoed");
                assert!(message.contains("panicked"), "{message}");
            }
            other => panic!("expected internal error, got {other:?}"),
        }

        // The same connection — and fresh ones — still serve valid work.
        match client.request(&small_score_request(67, 2, 16, 1, 8, 3)).expect("same connection") {
            Response::ScoreResult { id, .. } => assert_eq!(id, 67),
            other => panic!("expected score result, got {other:?}"),
        }
        let mut fresh = SvcClient::connect(listener.addr).expect("connect after panic");
        fresh.set_timeout(Some(Duration::from_secs(60))).unwrap();
        match fresh.request(&small_score_request(68, 2, 16, 1, 8, 3)).expect("fresh connection") {
            Response::ScoreResult { id, .. } => assert_eq!(id, 68),
            other => panic!("expected score result, got {other:?}"),
        }
        listener.stop_accepting();
        served.service.shutdown();
        listener.join_connections();
    }

    #[test]
    fn every_repl_frame_survives_encode_then_decode() {
        let journal = include_str!("../tests/fixtures/journal_golden.jsonl");
        // Every record kind (the one score line with a NaN objective
        // does not decode, and is left out).
        let mut events: Vec<FollowEvent> = journal
            .lines()
            .filter_map(|line| {
                let record = decode_line(line.as_bytes())?;
                Some(FollowEvent::Record { line: line.to_string(), record })
            })
            .collect();
        assert_eq!(events.len(), journal.lines().count() - 1);
        events.push(FollowEvent::Reset);
        let beats =
            [false, true].map(|degraded| Heartbeat { id: 7, epoch: 3, appended: 12_345, degraded });
        let frames = events.into_iter().map(ReplFrame::Follow).chain(beats.map(ReplFrame::Beat));
        for frame in frames {
            let text = encoded(|out| write_repl_frame(out, &frame));
            assert_eq!(decode_repl_frame(&text), frame, "{text}");
        }
        // A corrupt line is counted, not carried: its frame decodes to
        // a corrupt event all the same.
        let corrupt = ReplFrame::Follow(FollowEvent::Corrupt { line: "x".into() });
        let text = encoded(|out| write_repl_frame(out, &corrupt));
        assert!(matches!(decode_repl_frame(&text), ReplFrame::Follow(FollowEvent::Corrupt { .. })));
    }

    #[test]
    fn a_malformed_frame_decodes_to_corrupt_never_to_a_default() {
        let beat = |fields: &str| format!("{{\"type\":\"repl-hb\",\"id\":1{fields}}}");
        let frames = [
            "not json".to_string(),
            "{\"type\":\"repl-what\"}".to_string(),
            "{\"type\":\"repl-corrupt\"}".to_string(),
            "{\"type\":\"repl-record\"}".to_string(),
            "{\"type\":\"repl-record\",\"line\":7}".to_string(),
            "{\"type\":\"repl-record\",\"line\":\"{\\\"rec\\\":\\\"mystery\\\"}\"}".to_string(),
            beat(",\"appended\":3,\"degraded\":0"),
            beat(",\"epoch\":2,\"degraded\":0"),
            beat(",\"epoch\":2,\"appended\":3"),
            beat(",\"epoch\":\"2\",\"appended\":3,\"degraded\":0"),
            beat(",\"epoch\":2,\"appended\":-3,\"degraded\":0"),
            beat(",\"epoch\":2,\"appended\":3,\"degraded\":2"),
            beat(",\"epoch\":2,\"appended\":3,\"degraded\":true"),
        ];
        for frame in frames {
            match decode_repl_frame(&frame) {
                ReplFrame::Follow(FollowEvent::Corrupt { line }) => assert_eq!(line, frame),
                other => panic!("{frame} decoded to {other:?}"),
            }
        }
        assert!(matches!(
            decode_repl_frame(&beat(",\"epoch\":2,\"appended\":3,\"degraded\":0")),
            ReplFrame::Beat(Heartbeat { epoch: 2, appended: 3, degraded: false, .. })
        ));
    }
}
