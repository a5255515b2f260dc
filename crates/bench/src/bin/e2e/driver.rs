//! The closed loop: clients that each hold one connection, send their
//! next request only after the previous reply, and check every reply.
//!
//! A session is one set-up of a workload: start the service, connect,
//! prime what the workload reads, warm up. The time from its first call
//! to its last is one `setup_s` sample. Everything after it (the timed
//! window, or the passes of a traced run) happens on that session.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::oracle::{self, Checker, Outcome};
use crate::probes::{self, Inproc, Server, ServiceKind};
use crate::workload::{self, Kind, Op, Stream, Workload};

/// One client connection speaking JSON lines.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A reply is due within milliseconds; a silent service must fail
        // the op, not hang the benchmark.
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { writer, reader, out: Vec::new() })
    }

    /// Sends one request line and reads the final frame. The time is
    /// from the first byte written to the last byte read.
    fn call(&mut self, line: &str) -> std::io::Result<(String, u64)> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let mut reply = String::new();
        let start = Instant::now();
        self.writer.write_all(&self.out)?;
        let read = self.reader.read_line(&mut reply)?;
        let ns = start.elapsed().as_nanos() as u64;
        if read == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok((reply, ns))
    }
}

/// Where a client's ops go.
pub enum Endpoint<'a> {
    /// Over TCP to the service.
    Tcp(Conn),
    /// Straight into a service in this process (no wire, no codec).
    Inproc(&'a Inproc),
    /// No service: the op is a call of the threaded runtime.
    Threads,
}

impl Endpoint<'_> {
    /// Performs `op`; returns what came back and the nanoseconds it took.
    pub fn call(&mut self, op: &Op) -> Result<(Outcome, u64), String> {
        match self {
            Endpoint::Tcp(conn) => {
                let (line, ns) = conn.call(&op.line).map_err(|e| format!("transport: {e}"))?;
                Ok((Outcome::Line(line), ns))
            }
            Endpoint::Inproc(service) => {
                let (line, ns) = service.call(&op.line)?;
                Ok((Outcome::Line(line), ns))
            }
            Endpoint::Threads => {
                let Kind::Staged { steps } = op.kind else {
                    return Err("a request with no service to send it to".into());
                };
                let start = Instant::now();
                let run = probes::staged_run(steps)?;
                Ok((Outcome::Staged(run), start.elapsed().as_nanos() as u64))
            }
        }
    }
}

/// Ops attempted and failed, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Requests that went through the admission queue; the service's own
    /// counters must account for exactly these.
    pub queued: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queued += other.queued;
        self.errors.extend(other.errors.iter().take(5 - self.errors.len().min(5)).cloned());
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// The correct ops of one client in one timed stretch.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// `(op kind, latency in ms)` per correct op, in issue order.
    pub ops: Vec<(&'static str, f64)>,
    pub work_units: u64,
    pub elapsed_s: f64,
}

pub struct Client<'a> {
    pub endpoint: Endpoint<'a>,
    pub stream: Stream,
    pub checker: Checker,
    pub tally: Tally,
}

impl Client<'_> {
    /// Issues `op` and checks the reply. Returns the reply and its
    /// latency when the op was correct.
    pub fn issue(&mut self, op: &Op) -> Option<(Outcome, u64)> {
        self.tally.attempted += 1;
        if op.kind.queued() {
            self.tally.queued += 1;
        }
        let result = self.endpoint.call(op).and_then(|(outcome, ns)| {
            self.checker.check(op, &outcome)?;
            Ok((outcome, ns))
        });
        match result {
            Ok(done) => Some(done),
            Err(what) => {
                self.tally.fail(format!("{} #{}: {what}", op.kind.label(), op.id));
                None
            }
        }
    }

    fn issue_next(&mut self, timed: &mut Timed) {
        let op = self.stream.next_op();
        if let Some((_, ns)) = self.issue(&op) {
            timed.ops.push((op.kind.label(), ns as f64 / 1e6));
            timed.work_units += op.kind.work_units();
        }
    }
}

/// When a stretch of the closed loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many ops per client.
    Ops(usize),
    /// When this much time has passed; the op in flight completes.
    After(Duration),
}

/// Runs every client's loop on its own thread, all released together.
pub fn drive(clients: &mut [Client<'_>], stop: Stop) -> Vec<Timed> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let loops: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut timed = Timed::default();
                    barrier.wait();
                    let start = Instant::now();
                    match stop {
                        Stop::Ops(n) => (0..n).for_each(|_| client.issue_next(&mut timed)),
                        Stop::After(window) => {
                            while start.elapsed() < window {
                                client.issue_next(&mut timed);
                            }
                        }
                    }
                    timed.elapsed_s = start.elapsed().as_secs_f64();
                    timed
                })
            })
            .collect();
        loops.into_iter().map(|h| h.join().expect("client loops do not panic")).collect()
    })
}

/// Directory for what a run must write: the journal of `svc_mix` and
/// the trace. Inside the working directory, because a benchmark run may
/// touch nothing outside its checkout.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".e2e_scratch")
}

/// File system type of `path`'s mount (from `/proc/mounts`), so a result
/// says whether its journal sat on tmpfs or on a disk.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut fields = l.split(' ').skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

fn service_kind(workload: Workload, journal: &Path) -> Option<ServiceKind> {
    match workload {
        Workload::ScoreCold | Workload::RunDes => Some(ServiceKind::Plain),
        Workload::SvcMix => Some(ServiceKind::Mix { journal: journal.to_path_buf() }),
        Workload::StagingThreaded => None,
    }
}

/// One set-up of a workload, ready for its timed ops.
pub struct Session<'a> {
    pub clients: Vec<Client<'a>>,
    server: Option<Server>,
    journal: PathBuf,
    /// Ops of priming, warm-up and the second-request checks.
    tally: Tally,
    pub setup_s: f64,
    next_check_id: u64,
}

/// A journal path no service of this process has used: a fresh service
/// must not replay its predecessor's records.
pub fn fresh_journal() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let serial = NEXT.fetch_add(1, Ordering::Relaxed);
    scratch_dir().join(format!("journal-{}-{serial}.jsonl", std::process::id()))
}

/// Removes a journal, its heartbeat file and anything it rotated to.
pub fn remove_journal(journal: &Path) {
    let (Some(dir), Some(name)) = (journal.parent(), journal.file_name()) else { return };
    let prefix = name.to_string_lossy().into_owned();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl<'a> Session<'a> {
    /// Starts the service (when the workload has one), connects
    /// `clients` clients, primes through client 0 and warms up.
    pub fn start(
        workload: Workload,
        seed: u64,
        clients: usize,
        quick: bool,
    ) -> Result<Session<'a>, String> {
        let started = Instant::now();
        let journal = fresh_journal();
        let server = match service_kind(workload, &journal) {
            Some(kind) => Some(probes::serve(&kind).map_err(|e| format!("serve: {e}"))?),
            None => None,
        };
        let endpoints = (0..clients)
            .map(|_| match &server {
                Some(server) => Conn::connect(server.addr())
                    .map(Endpoint::Tcp)
                    .map_err(|e| format!("connect: {e}")),
                None => Ok(Endpoint::Threads),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Session::over(workload, seed, endpoints, server, journal, started, quick)
    }

    /// A session whose single client calls `service` in this process.
    pub fn inproc(
        workload: Workload,
        seed: u64,
        service: &'a Inproc,
        quick: bool,
    ) -> Result<Session<'a>, String> {
        let endpoints = vec![Endpoint::Inproc(service)];
        Session::over(workload, seed, endpoints, None, PathBuf::new(), Instant::now(), quick)
    }

    fn over(
        workload: Workload,
        seed: u64,
        endpoints: Vec<Endpoint<'a>>,
        server: Option<Server>,
        journal: PathBuf,
        started: Instant,
        quick: bool,
    ) -> Result<Session<'a>, String> {
        let mut clients: Vec<Client<'a>> = endpoints
            .into_iter()
            .enumerate()
            .map(|(i, endpoint)| Client {
                endpoint,
                stream: Stream::new(workload, seed, i),
                checker: Checker::default(),
                tally: Tally::default(),
            })
            .collect();
        let mut tally = Tally::default();
        for op in workload::priming(workload, seed) {
            let Some((Outcome::Line(line), _)) = clients[0].issue(&op) else {
                return Err(format!("priming failed: {:?}", clients[0].tally.errors));
            };
            for client in &mut clients {
                client.checker.remember_priming(&op, &line)?;
            }
        }
        drive(&mut clients, Stop::Ops(workload.warmup_ops(quick)));
        for client in &mut clients {
            tally.absorb(&std::mem::take(&mut client.tally));
        }
        Ok(Session {
            clients,
            server,
            journal,
            tally,
            setup_s: started.elapsed().as_secs_f64(),
            next_check_id: 900_000_000,
        })
    }

    /// The checks that need a second request, on the sampled ops of every
    /// client, sent over client 0's connection after the timed ops.
    fn deep_checks(&mut self) {
        let samples: Vec<(Op, String)> =
            self.clients.iter().flat_map(|c| c.checker.samples().cloned()).collect();
        let endpoint = &mut self.clients[0].endpoint;
        let mut checked = Tally::default();
        let mut queued = 0;
        let mut call = |op: &Op| -> Result<String, String> {
            queued += u64::from(op.kind.queued());
            match endpoint.call(op)? {
                (Outcome::Line(reply), _) => Ok(reply),
                (Outcome::Staged(_), _) => Err("no request line to repeat".into()),
            }
        };
        for (op, reply) in &samples {
            checked.attempted += 1;
            match oracle::deep_check(op, reply, &mut self.next_check_id, &mut call) {
                Ok(requests) => checked.attempted += requests,
                Err(what) => {
                    checked.fail(format!("{} #{} (repeat): {what}", op.kind.label(), op.id))
                }
            }
        }
        checked.queued = queued;
        self.tally.absorb(&checked);
    }

    /// The service's own counters after everything drained: no request
    /// unaccounted for, no reservation left open. Returns the rows.
    fn final_metrics(&mut self) -> Vec<(String, f64)> {
        if self.server.is_none() {
            return Vec::new();
        }
        let sent_queued = self.total().queued;
        self.next_check_id += 1;
        let op = Op::new(self.next_check_id, Kind::Metrics);
        self.tally.attempted += 1;
        let rows = match self.clients[0].endpoint.call(&op) {
            Ok((Outcome::Line(line), _)) => probes::decode_reply(&line).map(|reply| reply.rows),
            Ok((Outcome::Staged(_), _)) => Err("no reply line".to_string()),
            Err(what) => Err(what),
        };
        let rows = match rows {
            Ok(rows) => rows,
            Err(what) => {
                self.tally.fail(format!("final metrics: {what}"));
                return Vec::new();
            }
        };
        let row = |name: &str| rows.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v);
        let answered = row("requests_completed")
            + row("requests_errored")
            + row("requests_rejected_overload")
            + row("requests_cancelled")
            + row("requests_deadline_expired");
        if answered != sent_queued as f64 {
            self.tally
                .fail(format!("service answered {answered} queued requests, {sent_queued} sent"));
        }
        let open = row("cosched_open_reservations");
        if open != 0.0 {
            self.tally.fail(format!("{open} reservations still open after drain"));
        }
        rows
    }

    /// Every op of the session so far: priming, warm-up, the clients'
    /// timed ops, the checks.
    pub fn total(&self) -> Tally {
        let mut total = self.tally.clone();
        for client in &self.clients {
            total.absorb(&client.tally);
        }
        total
    }

    /// Ends a session that carried timed ops: the second-request checks,
    /// the service's final accounting, shutdown. Returns every op of the
    /// session and the service's last `metrics` rows.
    pub fn finish(mut self) -> (Tally, Vec<(String, f64)>) {
        self.deep_checks();
        let rows = self.final_metrics();
        let total = self.total();
        self.close();
        (total, rows)
    }

    /// Stops the service and removes what it wrote.
    pub fn close(self) {
        drop(self.clients);
        if let Some(server) = self.server {
            server.shutdown();
        }
        remove_journal(&self.journal);
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
