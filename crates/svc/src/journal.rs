//! Append-only on-disk journal: the service's restart persistence and
//! the replication source for warm standbys.
//!
//! Every admitted request and every completed result is appended as one
//! JSON line (the crate-local [`crate::json`] codec). Replay, compaction
//! and a standby fold the records into an [`Image`]: a restarted
//! service warms its score cache, the run index behind `attach`, and
//! the co-scheduler's residency map (reserve net of release) from it.
//! Record kinds:
//!
//! ```text
//! {"rec":"admit","v":2,"job":3,"tenant":"t",        // request admitted (v2; "tenant"
//!  "request":{...},"crc":"9f2a01c4"}                //  only when tagged)
//! {"rec":"score","key":"...","placements":[...],...}// score evaluated (full ranking)
//! {"rec":"run","job":7,"response":{...},...}        // run completed
//! {"rec":"reserve","job":9,"members":[...],         // cosched reservation opened
//!  "assignment":[...],"predicted_end":12.5,"seq":4,
//!  "tenant":"t",...}                                //  ("tenant" only when tagged)
//! {"rec":"release","job":9,...}                     // cosched reservation closed
//! {"rec":"epoch","epoch":2,...}                     // fencing epoch advanced
//! ```
//!
//! Every appended line is sealed with a CRC32 (IEEE) checksum carried
//! as the record's final `"crc"` field, computed over the record bytes
//! *without* that field. Verification is byte-exact: strip the trailing
//! `,"crc":"xxxxxxxx"` suffix, restore the closing brace, and compare.
//! Lines without a checksum (pre-HA journals) still replay; lines whose
//! checksum mismatches — a bit flip, a partial overwrite — are
//! **quarantined**: skipped with a counter and copied to
//! `<journal>.quarantine` for forensics, never fatal and never allowed
//! to truncate the records that follow them.
//!
//! Admit records are versioned: v2 carries explicit `job`/`tenant`
//! fields so replay rebuilds per-tenant quota occupancy without
//! re-parsing the embedded request. Unversioned (v1, pre-quota) admit
//! records still replay — job and tenant are recovered from the
//! embedded request, which always carried both. Reserve records carry
//! the tenant too because compaction drops admits but keeps open
//! reservations, and those are exactly the records quota occupancy is
//! rebuilt from.
//!
//! Durability is configurable ([`FsyncPolicy`]): fsync after every
//! record, or batched every N records (flushed again on rotation and
//! drop). Fsync failures are **counted, not swallowed**
//! ([`JournalStats::fsync_errors`]); after
//! [`FSYNC_FAILURE_LIMIT`] consecutive failures the journal degrades
//! to a loud read-only state ([`JournalStats::degraded`]) instead of
//! pretending writes are durable. Replay tolerates a torn tail — a
//! final line truncated by a crash mid-append parses as garbage and is
//! dropped, never fatal, and [`Journal::open`] seals the tear by
//! truncating the file back to the last newline so later appends start
//! a fresh line.
//!
//! **Fencing epochs** make failover split-brain safe. The current
//! epoch lives in a `<journal>.epoch` sidecar (written atomically via
//! temp + rename) and is also journaled as an `epoch` record. Opening
//! the journal with [`JournalConfig::promote`] set — what a standby
//! does when it takes over — bumps the epoch; every append first
//! checks the sidecar and refuses to write once a higher epoch exists
//! ([`JournalStats::fenced_appends`]), so a deposed primary's late
//! appends can never diverge the journal two services share.
//!
//! [`JournalFollower`] is the live tail: it streams records as they
//! are appended (for a warm standby or a replication stream), detects
//! rotation/compaction/truncation underneath it and signals a
//! [`FollowEvent::Reset`] so the consumer re-derives its state, and
//! surfaces checksum failures as [`FollowEvent::Corrupt`].
//!
//! Size-based rotation keeps the file bounded: once an append pushes
//! the journal past `max_bytes`, it is compacted in place to the
//! newest rankings and runs the service holds (`cache_capacity` of
//! each; 256 for a journal opened alone), every open
//! reservation, and the current fencing epoch (re-journaled first, so
//! the compacted file stays self-describing). The rewrite goes through
//! a temp file + rename so a crash during compaction leaves either the
//! old or the new journal, never a half-written one.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use dtl::FaultPlan;

use crate::image::Image;
use crate::json::{write_f64, write_seq, write_str, write_u64, Value};
use crate::protocol::{
    placement_from_value, shape_from_value, validate_tenant, write_shape_members,
};
use crate::protocol::{Ranking, Request, Response};

/// Consecutive fsync failures tolerated before the journal degrades to
/// read-only (each one is still counted and logged).
pub const FSYNC_FAILURE_LIMIT: u32 = 3;

/// When appended records are fsynced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: maximum durability, one disk
    /// round-trip per request.
    PerRecord,
    /// `fdatasync` every `n` records (and on rotation and drop): bounded
    /// data loss of at most `n` records on an OS crash, near-zero
    /// steady-state cost. A process crash alone loses nothing — writes
    /// reach the page cache immediately.
    Batched(u32),
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Batched(64)
    }
}

/// Where and how the journal persists.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal file path (created if absent; replayed if present).
    pub path: PathBuf,
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
    /// Size threshold that triggers rotation + compaction.
    pub max_bytes: u64,
    /// Score and run records surviving compaction: what the service
    /// holds (its score cache and run index, both `cache_capacity`
    /// deep), 256 for a journal opened alone.
    pub(crate) retain_scores: usize,
    pub(crate) retain_runs: usize,
    /// Bump the fencing epoch at open: what a promoting standby sets so
    /// the deposed primary's later appends are rejected.
    pub promote: bool,
    /// Deterministic fault injection (crash kill points, torn tails,
    /// simulated fsync failures) for failover tests and rehearsals.
    pub fault: Option<FaultPlan>,
}

impl JournalConfig {
    /// Defaults: batched fsync, 8 MiB rotation threshold, 256 retained
    /// records of each kind, no promotion, no fault injection.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            path: path.into(),
            fsync: FsyncPolicy::default(),
            max_bytes: 8 << 20,
            retain_scores: 256,
            retain_runs: 256,
            promote: false,
            fault: None,
        }
    }
}

/// One open co-scheduler reservation recovered by replay — the durable
/// fields of a `scheduler::cosched::Reservation` (the per-node load
/// vectors are recomputed from shape + assignment on restore).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedReservation {
    /// Job id holding the reservation.
    pub job: u64,
    /// Ensemble shape: per member, (simulation cores, analysis cores).
    pub members: Vec<(u32, Vec<u32>)>,
    /// Member → node assignment.
    pub assignment: Vec<usize>,
    /// Predicted completion in scheduler virtual time.
    pub predicted_end: f64,
    /// Admission sequence number (restores deterministic tie-breaking).
    pub seq: u64,
    /// Tenant holding the reservation, when the request was tagged
    /// (absent from the record when untagged, and from pre-quota
    /// journals).
    pub tenant: Option<String>,
}

/// Point-in-time journal counters for the metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JournalStats {
    /// Records appended since open.
    pub appended: u64,
    /// Appends that failed at the I/O layer or were rejected because
    /// the journal degraded (service kept running).
    pub append_errors: u64,
    /// Current journal file size, bytes.
    pub bytes: u64,
    /// Rotation + compaction passes since open.
    pub rotations: u64,
    /// Score records recovered by the open-time replay.
    pub replayed_scores: u64,
    /// Run records recovered by the open-time replay.
    pub replayed_runs: u64,
    /// Torn/corrupt lines the replay dropped.
    pub replay_dropped: u64,
    /// Fsync calls that reported failure (counted, never swallowed).
    pub fsync_errors: u64,
    /// Corrupt interior lines copied to `<journal>.quarantine` at open.
    pub quarantined: u64,
    /// Current fencing epoch.
    pub epoch: u64,
    /// Appends rejected because a higher fencing epoch exists: this
    /// handle belongs to a deposed primary.
    pub fenced_appends: u64,
    /// True once the journal stopped accepting appends — fenced by a
    /// newer epoch, killed by a fault plan, or past
    /// [`FSYNC_FAILURE_LIMIT`] consecutive fsync failures.
    pub degraded: bool,
}

/// One decoded journal record, as replayed at open and streamed to
/// followers ([`JournalFollower`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A request was admitted.
    Admit {
        /// Job id (the request id at admission).
        job: u64,
        /// Tenant tag, when the request carried one.
        tenant: Option<String>,
    },
    /// A score ranking was evaluated and cached.
    Score {
        /// Score-cache key.
        key: String,
        /// The full ranking stored under the key.
        placements: Ranking,
    },
    /// A run completed.
    Run {
        /// Job id.
        job: u64,
        /// The stored `RunResult` response.
        response: Response,
    },
    /// A co-scheduler reservation opened.
    Reserve(ReplayedReservation),
    /// A co-scheduler reservation closed.
    Release {
        /// Job id whose reservation closed.
        job: u64,
    },
    /// The fencing epoch advanced (a standby promoted itself).
    Epoch {
        /// The new epoch value.
        epoch: u64,
    },
}

struct Inner {
    file: File,
    bytes: u64,
    since_sync: u32,
    fsync_attempts: u64,
    fsync_fail_streak: u32,
}

/// The append side of the journal (replay happens once, at
/// [`Journal::open`]).
pub struct Journal {
    inner: Mutex<Inner>,
    config: JournalConfig,
    appended: AtomicU64,
    append_errors: AtomicU64,
    rotations: AtomicU64,
    fsync_errors: AtomicU64,
    fenced_appends: AtomicU64,
    dead: AtomicBool,
    /// What the open recovered, and its epoch; the counters are zero.
    opened: JournalStats,
}

impl Journal {
    /// Opens (creating if absent) the journal at `config.path`, replays
    /// any existing records, and returns the append handle plus the
    /// [`Image`] the replay folded, every window unbounded. A torn final
    /// line is dropped, not fatal; corrupt interior lines are
    /// quarantined and skipped. The image's epoch is the one in effect
    /// after open: the maximum of the sidecar file and any journaled
    /// epoch record, plus one if the open promoted — with
    /// [`JournalConfig::promote`] set, the bumped epoch is also journaled
    /// before the handle is returned.
    pub fn open(config: JournalConfig) -> std::io::Result<(Journal, Image)> {
        let mut image = Image::new(usize::MAX, usize::MAX);
        // Complete lines that failed their checksum or did not parse —
        // quarantined below (the torn tail is sealed instead).
        let mut corrupt: Vec<String> = Vec::new();
        let lines = match File::open(&config.path) {
            Ok(file) => read_lines(BufReader::new(file), |line| match decode_line(line) {
                Some(record) => image.apply(record),
                None => corrupt.push(String::from_utf8_lossy(line).into_owned()),
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => LineScan::default(),
            Err(e) => return Err(e),
        };
        let quarantined = corrupt.len() as u64;
        if !corrupt.is_empty() {
            match OpenOptions::new().create(true).append(true).open(quarantine_path(&config.path)) {
                Ok(mut q) => {
                    for line in &corrupt {
                        let _ = writeln!(q, "{line}");
                    }
                    eprintln!(
                        "svc journal: quarantined {} corrupt line(s) to {}",
                        corrupt.len(),
                        quarantine_path(&config.path).display()
                    );
                }
                Err(e) => eprintln!("svc journal: cannot write quarantine file: {e}"),
            }
        }
        let mut epoch = read_epoch(&config.path).max(image.epoch);
        if config.promote {
            epoch += 1;
            write_epoch(&config.path, epoch)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&config.path)?;
        let mut bytes = file.metadata()?.len();
        // Seal a torn tail: everything past the last newline is a
        // half-written record from a crash mid-append. It is already
        // dropped from the replay; physically truncating it keeps the
        // next append from merging into the fragment and corrupting a
        // good record.
        if lines.sealed < bytes {
            file.set_len(lines.sealed)?;
            bytes = lines.sealed;
        }
        let journal = Journal {
            inner: Mutex::new(Inner {
                file,
                bytes,
                since_sync: 0,
                fsync_attempts: 0,
                fsync_fail_streak: 0,
            }),
            appended: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            fsync_errors: AtomicU64::new(0),
            fenced_appends: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            opened: JournalStats {
                replayed_scores: image.scores.len() as u64,
                replayed_runs: image.runs.len() as u64,
                replay_dropped: quarantined + u64::from(lines.torn),
                quarantined,
                epoch,
                ..JournalStats::default()
            },
            config,
        };
        if journal.config.promote {
            // Journal the new epoch so followers (and the next replay)
            // learn it from the record stream, not just the sidecar.
            journal.append_line(|out| write_epoch_record(out, epoch));
        }
        image.epoch = epoch;
        Ok((journal, image))
    }

    /// Journals an admitted request (v2 record: explicit job and tenant
    /// attribution alongside the full request).
    pub fn append_admit(&self, request: &Request) {
        self.append_line(|out| {
            out.push_str("{\"rec\":\"admit\",\"v\":2,\"job\":");
            write_u64(out, request.id);
            if let Some(t) = &request.tenant {
                out.push_str(",\"tenant\":");
                write_str(out, t);
            }
            out.push_str(",\"request\":");
            request.write_json(out);
            out.push('}');
        });
    }

    /// Journals a freshly evaluated score ranking under its cache key
    /// (the full, untruncated ranking — what the cache holds).
    pub fn append_score(&self, key: &str, placements: &Ranking) {
        self.append_line(|out| write_score_record(out, key, placements));
    }

    /// Journals a completed run result under its job id.
    pub fn append_run(&self, job: u64, response: &Response) {
        self.append_line(|out| write_run_record(out, job, response));
    }

    /// Journals an opened co-scheduler reservation.
    pub fn append_reserve(&self, reservation: &ReplayedReservation) {
        self.append_line(|out| write_reserve_record(out, reservation));
    }

    /// Journals a closed co-scheduler reservation (completion, failure,
    /// cancellation, or admission rollback).
    pub fn append_release(&self, job: u64) {
        self.append_line(|out| write_release_record(out, job));
    }

    /// The fencing epoch this handle was opened under.
    pub fn epoch(&self) -> u64 {
        self.opened.epoch
    }

    /// Current counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.appended.load(Ordering::Relaxed),
            append_errors: self.append_errors.load(Ordering::Relaxed),
            bytes: self.inner.lock().expect("journal lock").bytes,
            rotations: self.rotations.load(Ordering::Relaxed),
            fsync_errors: self.fsync_errors.load(Ordering::Relaxed),
            fenced_appends: self.fenced_appends.load(Ordering::Relaxed),
            degraded: self.dead.load(Ordering::Relaxed),
            ..self.opened
        }
    }

    /// Marks the journal read-only, loudly, exactly once.
    fn degrade(&self, reason: &str) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            eprintln!("svc journal: degraded to read-only: {reason}");
        }
    }

    /// Runs one fsync, counting failures (real or fault-injected) and
    /// degrading the journal after [`FSYNC_FAILURE_LIMIT`] consecutive
    /// ones.
    fn sync_data_locked(&self, inner: &mut Inner) {
        inner.fsync_attempts += 1;
        let injected =
            self.config.fault.as_ref().is_some_and(|f| f.fsync_fails(inner.fsync_attempts));
        let result = if injected {
            Err(std::io::Error::other("injected fsync failure (fault plan)"))
        } else {
            inner.file.sync_data()
        };
        match result {
            Ok(()) => inner.fsync_fail_streak = 0,
            Err(e) => {
                self.fsync_errors.fetch_add(1, Ordering::Relaxed);
                inner.fsync_fail_streak += 1;
                eprintln!("svc journal: fsync failed ({}x): {e}", inner.fsync_fail_streak);
                if inner.fsync_fail_streak >= FSYNC_FAILURE_LIMIT {
                    self.degrade(&format!(
                        "{} consecutive fsync failures — appended records are no longer durable",
                        inner.fsync_fail_streak
                    ));
                }
            }
        }
    }

    /// Appends the record `write` renders (one JSON object), sealed
    /// with its checksum.
    fn append_line(&self, write: impl FnOnce(&mut String)) {
        if self.dead.load(Ordering::Relaxed) {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Fencing: a higher epoch in the sidecar means a standby
        // promoted over us. Refuse the write — a deposed primary must
        // never extend a journal the new primary now owns.
        let disk_epoch = read_epoch(&self.config.path);
        if disk_epoch > self.opened.epoch {
            self.fenced_appends.fetch_add(1, Ordering::Relaxed);
            self.degrade(&format!(
                "fenced: epoch {} on disk exceeds this handle's epoch {}",
                disk_epoch, self.opened.epoch
            ));
            return;
        }
        let mut line = String::new();
        write(&mut line);
        seal_line(&mut line);
        let mut inner = self.inner.lock().expect("journal lock");
        // Re-check under the lock: a concurrent append may have tripped
        // the crash fault (leaving an unterminated torn fragment) while
        // we waited — writing now would merge into that fragment.
        if self.dead.load(Ordering::Relaxed) {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Err(e) = inner.file.write_all(line.as_bytes()) {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("svc journal: append failed: {e}");
            return;
        }
        inner.bytes += line.len() as u64;
        let appended = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(fault) = &self.config.fault {
            if fault.crash_after_append.is_some_and(|n| appended >= n) {
                if fault.torn_tail {
                    let fragment = fault.torn_fragment();
                    let _ = inner.file.write_all(fragment.as_bytes());
                    inner.bytes += fragment.len() as u64;
                }
                // Flush the crash image so a follower sees exactly what
                // a real kill -9 would have left on disk.
                let _ = inner.file.sync_data();
                self.degrade(&format!("fault-plan crash after record {appended}"));
                return;
            }
        }
        match self.config.fsync {
            FsyncPolicy::PerRecord => self.sync_data_locked(&mut inner),
            FsyncPolicy::Batched(n) => {
                inner.since_sync += 1;
                if inner.since_sync >= n.max(1) {
                    self.sync_data_locked(&mut inner);
                    inner.since_sync = 0;
                }
            }
        }
        if inner.bytes > self.config.max_bytes {
            if let Err(e) = self.rotate_locked(&mut inner) {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("svc journal: rotation failed: {e}");
            }
        }
    }

    /// Compacts the journal in place: keep the newest `retain_scores` /
    /// `retain_runs` records of each kind (deduplicated, last write
    /// wins), drop admit records, rewrite through a temp file + rename.
    /// The file streams through the replay's [`Image`], capped, one line
    /// at a time, so the pass — which runs under the append lock — holds
    /// the retained records plus one line, never the whole journal.
    /// Admits served their forensic purpose for the previous epoch, and
    /// corrupt lines were never replayable: neither is written back.
    fn rotate_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        self.sync_data_locked(inner);
        let mut image = Image::new(self.config.retain_scores, self.config.retain_runs);
        read_lines(BufReader::new(File::open(&self.config.path)?), |line| {
            if let Some(record) = decode_line(line) {
                image.apply(record);
            }
        })?;
        let tmp = self.config.path.with_extension("journal-compact");
        let mut out = BufWriter::new(File::create(&tmp)?);
        let mut bytes = 0u64;
        let mut line = String::new();
        let mut emit = |write: &dyn Fn(&mut String)| -> std::io::Result<()> {
            line.clear();
            write(&mut line);
            seal_line(&mut line);
            bytes += line.len() as u64;
            out.write_all(line.as_bytes())
        };
        // Re-journal the fencing epoch first so the compacted file is
        // self-describing without the sidecar.
        if self.opened.epoch > 0 {
            emit(&|out| write_epoch_record(out, self.opened.epoch))?;
        }
        for (key, placements) in image.scores.iter() {
            emit(&|out| write_score_record(out, key, placements))?;
        }
        for (&job, run) in image.runs.iter() {
            emit(&|out| write_run_record(out, job, run.recorded_reply()))?;
        }
        // Open reservations are live capacity commitments — every one
        // survives compaction, uncapped (bounded in practice by the
        // co-scheduler's own admission queue).
        for (_, reservation) in image.reservations.iter() {
            emit(&|out| write_reserve_record(out, reservation))?;
        }
        out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
        std::fs::rename(&tmp, &self.config.path)?;
        inner.file = OpenOptions::new().append(true).open(&self.config.path)?;
        inner.bytes = bytes;
        inner.since_sync = 0;
        self.rotations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(mut inner) = self.inner.lock() {
            self.sync_data_locked(&mut inner);
        }
    }
}

/// Follows a journal file as it grows: the live tail that feeds a warm
/// standby or a replication stream. Poll-driven and read-only — the
/// follower never takes the journal lock, so it can run in another
/// thread or another process (shared-filesystem deployments).
pub struct JournalFollower {
    path: PathBuf,
    file: Option<File>,
    file_id: u64,
    offset: u64,
    partial: Vec<u8>,
}

/// What [`JournalFollower::poll`] observed since the previous poll.
#[derive(Debug, Clone, PartialEq)]
pub enum FollowEvent {
    /// One intact record appended: the raw line exactly as on disk
    /// (checksum included, newline stripped) and its decoded form.
    Record {
        /// The raw journal line.
        line: String,
        /// The decoded record.
        record: JournalRecord,
    },
    /// The journal rotated, compacted, or truncated underneath the
    /// follower. All state derived from earlier `Record` events must be
    /// discarded: subsequent events re-stream the file from the top.
    Reset,
    /// A complete line failed its checksum or did not parse.
    Corrupt {
        /// The corrupt raw line.
        line: String,
    },
}

impl JournalFollower {
    /// Starts following the journal at `path` from the beginning. The
    /// file does not need to exist yet.
    pub fn new(path: impl Into<PathBuf>) -> JournalFollower {
        JournalFollower {
            path: path.into(),
            file: None,
            file_id: 0,
            offset: 0,
            partial: Vec::new(),
        }
    }

    /// Reads everything appended since the last poll. An unterminated
    /// final line (a record the primary is mid-append on, or a torn
    /// crash tail) is buffered, not emitted — it completes on a later
    /// poll or disappears with a [`FollowEvent::Reset`].
    pub fn poll(&mut self) -> std::io::Result<Vec<FollowEvent>> {
        let mut events = Vec::new();
        let meta = match std::fs::metadata(&self.path) {
            Ok(m) => m,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if self.file.take().is_some() {
                    self.reset_state();
                    events.push(FollowEvent::Reset);
                }
                return Ok(events);
            }
            Err(e) => return Err(e),
        };
        if self.file.is_some() && (file_id(&meta) != self.file_id || meta.len() < self.offset) {
            // Rotation (rename swapped a compacted file in, changing
            // the inode) or truncation (a promote sealed a torn tail):
            // either way our offset is meaningless now.
            self.file = None;
            self.reset_state();
            events.push(FollowEvent::Reset);
        }
        if self.file.is_none() {
            let file = match File::open(&self.path) {
                Ok(f) => f,
                // Raced a rename; pick the new file up next poll.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(events),
                Err(e) => return Err(e),
            };
            self.file_id = file_id(&file.metadata()?);
            self.file = Some(file);
        }
        let file = self.file.as_mut().expect("follower file open");
        file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        self.offset += buf.len() as u64;
        self.partial.extend_from_slice(&buf);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            let line = &line[..line.len() - 1];
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let text = String::from_utf8_lossy(line).into_owned();
            match decode_line(line) {
                Some(record) => events.push(FollowEvent::Record { line: text, record }),
                None => events.push(FollowEvent::Corrupt { line: text }),
            }
        }
        Ok(events)
    }

    fn reset_state(&mut self) {
        self.file_id = 0;
        self.offset = 0;
        self.partial.clear();
    }
}

#[cfg(unix)]
fn file_id(meta: &std::fs::Metadata) -> u64 {
    use std::os::unix::fs::MetadataExt;
    meta.ino()
}

#[cfg(not(unix))]
fn file_id(_meta: &std::fs::Metadata) -> u64 {
    // Without inodes, rotation is detected by length shrink alone.
    0
}

/// The fencing-epoch sidecar path for a journal (`<journal>.epoch`).
fn epoch_path(journal_path: &Path) -> PathBuf {
    sibling(journal_path, ".epoch")
}

/// The quarantine file path for a journal (`<journal>.quarantine`).
fn quarantine_path(journal_path: &Path) -> PathBuf {
    sibling(journal_path, ".quarantine")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Reads the fencing epoch recorded beside the journal at
/// `journal_path` (0 when no epoch was ever written).
pub fn read_epoch(journal_path: &Path) -> u64 {
    std::fs::read_to_string(epoch_path(journal_path))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn write_epoch(journal_path: &Path, epoch: u64) -> std::io::Result<()> {
    let target = epoch_path(journal_path);
    let tmp = sibling(journal_path, ".epoch-next");
    {
        let mut out = File::create(&tmp)?;
        writeln!(out, "{epoch}")?;
        out.sync_data()?;
    }
    std::fs::rename(&tmp, &target)
}

fn write_score_record(out: &mut String, key: &str, placements: &Ranking) {
    out.push_str("{\"rec\":\"score\",\"key\":");
    write_str(out, key);
    out.push_str(",\"placements\":");
    placements.write_json(out);
    out.push('}');
}

fn write_run_record(out: &mut String, job: u64, response: &Response) {
    out.push_str("{\"rec\":\"run\",\"job\":");
    write_u64(out, job);
    out.push_str(",\"response\":");
    response.write_json(out);
    out.push('}');
}

fn write_epoch_record(out: &mut String, epoch: u64) {
    out.push_str("{\"rec\":\"epoch\",\"epoch\":");
    write_u64(out, epoch);
    out.push('}');
}

fn write_release_record(out: &mut String, job: u64) {
    out.push_str("{\"rec\":\"release\",\"job\":");
    write_u64(out, job);
    out.push('}');
}

fn write_reserve_record(out: &mut String, r: &ReplayedReservation) {
    out.push_str("{\"rec\":\"reserve\",\"job\":");
    write_u64(out, r.job);
    out.push_str(",\"members\":");
    write_shape_members(out, &r.members);
    out.push_str(",\"assignment\":");
    write_seq(out, &r.assignment, |out, &n| write_u64(out, n as u64));
    out.push_str(",\"predicted_end\":");
    write_f64(out, r.predicted_end);
    out.push_str(",\"seq\":");
    write_u64(out, r.seq);
    if let Some(t) = &r.tenant {
        out.push_str(",\"tenant\":");
        write_str(out, t);
    }
    out.push('}');
}

// ---- checksum sealing ------------------------------------------------

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) over the concatenation of `parts`.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = u32::MAX;
    for part in parts {
        for &b in *part {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Seals the record in `line` in place and ends the line: the CRC32
/// goes in as the record's final `"crc"` field,
/// `{...,"crc":"xxxxxxxx"}`, then the newline. The checksum covers the
/// record bytes *without* the seal, so verification is a byte-exact
/// strip, restore-the-brace, recompute.
fn seal_line(line: &mut String) {
    let crc = crc32_parts(&[line.as_bytes()]);
    assert_eq!(line.pop(), Some('}'), "journal records are JSON objects");
    writeln!(line, ",\"crc\":\"{crc:08x}\"}}").expect("writing to a String cannot fail");
}

const CRC_TAG: &str = ",\"crc\":\"";

/// Verifies a line's trailing checksum. Lines without one (pre-HA
/// journals) pass; parsing decides their fate.
fn crc_valid(text: &str) -> bool {
    match text.rfind(CRC_TAG) {
        // 10 = 8 hex digits + closing `"}`.
        Some(p) if text.len() == p + CRC_TAG.len() + 10 && text.ends_with("\"}") => {
            let hex = &text[p + CRC_TAG.len()..text.len() - 2];
            match u32::from_str_radix(hex, 16) {
                Ok(want) => crc32_parts(&[&text.as_bytes()[..p], b"}"]) == want,
                Err(_) => false,
            }
        }
        _ => true,
    }
}

/// Decodes one complete journal line (checksum verified, then parsed).
/// `None` means the line is corrupt or not a known record kind —
/// exactly the lines replay quarantines. Standbys use this to apply
/// lines streamed over a replication connection.
pub fn decode_line(line: &[u8]) -> Option<JournalRecord> {
    let text = std::str::from_utf8(line).ok()?;
    if !crc_valid(text) {
        return None;
    }
    parse_record(line)
}

/// What [`read_lines`] saw besides the lines it handed out.
#[derive(Default)]
struct LineScan {
    /// Offset just past the last newline: where a torn tail starts.
    sealed: u64,
    /// A non-blank unterminated fragment follows `sealed` — the final
    /// append was interrupted.
    torn: bool,
}

/// Hands every newline-terminated, non-blank line of `reader` (newline
/// stripped) to `on_line` through one reusable buffer.
fn read_lines(
    mut reader: impl BufRead,
    mut on_line: impl FnMut(&[u8]),
) -> std::io::Result<LineScan> {
    let mut scan = LineScan::default();
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line)?;
        if line.last() != Some(&b'\n') {
            scan.torn = !line.iter().all(u8::is_ascii_whitespace);
            return Ok(scan);
        }
        scan.sealed += n as u64;
        let body = &line[..n - 1];
        if !body.iter().all(u8::is_ascii_whitespace) {
            on_line(body);
        }
    }
}

fn parse_record(line: &[u8]) -> Option<JournalRecord> {
    let text = std::str::from_utf8(line).ok()?;
    let v = Value::parse(text).ok()?;
    match v.get("rec")?.as_str()? {
        "admit" => {
            // v2 carries job/tenant explicitly; v1 (unversioned) only
            // embeds the request — which always carried both, so old
            // journals replay with full attribution. Nothing else of the
            // request is read: an in-process request may hold values the
            // wire decoder refuses (a seed from 2⁵³ on, a NaN jitter),
            // and the record the service wrote for it must still replay.
            let request = v.get("request")?;
            let id = request.get("id").map_or(Some(0), Value::as_u64)?;
            let job = v.get("job").and_then(Value::as_u64).unwrap_or(id);
            let tenant = match v.get("tenant").or_else(|| request.get("tenant")) {
                Some(t) => Some(t.as_str().filter(|tag| validate_tenant(tag).is_ok())?.to_string()),
                None => None,
            };
            Some(JournalRecord::Admit { job, tenant })
        }
        "score" => {
            let key = v.get("key")?.as_str()?.to_string();
            let placements = v
                .get("placements")?
                .as_arr()?
                .iter()
                .map(placement_from_value)
                .collect::<Result<Vec<_>, _>>()
                .ok()?;
            Some(JournalRecord::Score { key, placements: placements.into() })
        }
        "run" => {
            let job = v.get("job")?.as_u64()?;
            let response = Response::from_value(v.get("response")?).ok()?;
            // Only completed run results are attachable; anything else
            // in a run record is corruption.
            matches!(response, Response::RunResult { .. }).then_some(())?;
            Some(JournalRecord::Run { job, response })
        }
        "reserve" => {
            let job = v.get("job")?.as_u64()?;
            let members = shape_from_value(&v, "reserve").ok()?.members;
            let assignment = v
                .get("assignment")?
                .as_arr()?
                .iter()
                .map(|a| a.as_u64().map(|a| a as usize))
                .collect::<Option<Vec<_>>>()?;
            let predicted_end = v.get("predicted_end")?.as_f64()?;
            let seq = v.get("seq")?.as_u64()?;
            let tenant = match v.get("tenant") {
                Some(t) => Some(t.as_str()?.to_string()),
                None => None,
            };
            // A reservation whose assignment does not cover every
            // component (one slot per sim plus one per analysis) cannot
            // rebuild a residency entry: corruption.
            let slots: usize = members.iter().map(|(_, anas)| 1 + anas.len()).sum();
            (slots == assignment.len()).then_some(())?;
            Some(JournalRecord::Reserve(ReplayedReservation {
                job,
                members,
                assignment,
                predicted_end,
                seq,
                tenant,
            }))
        }
        "release" => Some(JournalRecord::Release { job: v.get("job")?.as_u64()? }),
        "epoch" => Some(JournalRecord::Epoch { epoch: v.get("epoch")?.as_u64()? }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{MemberSummary, RankedPlacement};
    use std::collections::HashMap;

    /// What an open recovered, its windows as vectors in order of last
    /// write.
    struct Replayed {
        scores: Vec<(String, Ranking)>,
        runs: Vec<(u64, Response)>,
        reservations: Vec<ReplayedReservation>,
        admits: u64,
        admit_tenants: HashMap<u64, String>,
        dropped: u64,
        epoch: u64,
    }

    fn open(config: JournalConfig) -> (Journal, Replayed) {
        let (journal, image) = Journal::open(config).unwrap();
        let replayed = Replayed {
            scores: image.scores.iter().map(|(k, p)| (k.clone(), p.clone())).collect(),
            runs: image
                .runs
                .iter()
                .map(|(&job, run)| (job, run.recorded_reply().clone()))
                .collect(),
            reservations: image.reservations.iter().map(|(_, r)| r.clone()).collect(),
            admits: image.admits,
            admit_tenants: image.admit_tenants,
            dropped: journal.stats().replay_dropped,
            epoch: image.epoch,
        };
        (journal, replayed)
    }

    fn temp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("svc-journal-unit-{}-{name}.jsonl", std::process::id()));
        cleanup(&path);
        path
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(epoch_path(path));
        let _ = std::fs::remove_file(quarantine_path(path));
    }

    fn ranking(objective: f64) -> Ranking {
        vec![RankedPlacement {
            assignment: vec![0, 1],
            objective,
            nodes_used: 2,
            ensemble_makespan: 100.0,
            eq4_satisfied: true,
        }]
        .into()
    }

    /// One sealed journal line, newline included.
    fn line(write: impl FnOnce(&mut String)) -> String {
        let mut line = String::new();
        write(&mut line);
        seal_line(&mut line);
        line
    }

    fn run_result(id: u64) -> Response {
        Response::RunResult {
            id,
            ensemble_makespan: 42.0,
            members: vec![MemberSummary {
                sigma_star: 1.0,
                efficiency: 0.9,
                cp: 1.0,
                makespan: 41.0,
            }],
            elapsed_ms: 5.0,
        }
    }

    #[test]
    fn roundtrips_scores_and_runs_across_reopen() {
        let path = temp_path("roundtrip");
        {
            let (journal, replay) = open(JournalConfig::new(&path));
            assert!(replay.scores.is_empty() && replay.runs.is_empty());
            journal.append_score("k1", &ranking(0.5));
            journal.append_score("k2", &ranking(0.7));
            journal.append_run(7, &run_result(7));
            assert_eq!(journal.stats().appended, 3);
        }
        let (journal, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.scores.len(), 2);
        assert_eq!(replay.scores[0].0, "k1");
        assert_eq!(replay.scores[1].1[0].objective.to_bits(), 0.7f64.to_bits());
        assert_eq!(replay.runs.len(), 1);
        assert_eq!(replay.runs[0].0, 7);
        assert_eq!(replay.runs[0].1, run_result(7));
        assert_eq!(journal.stats().replayed_scores, 2);
        assert_eq!(journal.stats().replayed_runs, 1);
        cleanup(&path);
    }

    #[test]
    fn duplicate_keys_replay_newest_only() {
        let path = temp_path("dedup");
        {
            let (journal, _) = open(JournalConfig::new(&path));
            journal.append_score("k", &ranking(0.1));
            journal.append_score("k", &ranking(0.9));
            journal.append_run(3, &run_result(3));
            journal.append_run(3, &run_result(3));
        }
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.scores.len(), 1);
        assert_eq!(replay.scores[0].1[0].objective.to_bits(), 0.9f64.to_bits());
        assert_eq!(replay.runs.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        {
            let (journal, _) = open(JournalConfig::new(&path));
            journal.append_score("whole", &ranking(0.5));
        }
        // Simulate a crash mid-append: a final line with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rec\":\"score\",\"key\":\"torn").unwrap();
        drop(f);
        let (journal, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.scores.len(), 1, "intact record survives");
        assert_eq!(replay.scores[0].0, "whole");
        assert_eq!(replay.dropped, 1, "torn tail dropped, not fatal");
        assert_eq!(journal.stats().replay_dropped, 1);
        assert_eq!(journal.stats().quarantined, 0, "a torn tail is sealed, not quarantined");
        // Open sealed the tear (truncated to the last newline), so the
        // next append starts a fresh line instead of merging into the
        // fragment and corrupting itself.
        journal.append_score("after-tear", &ranking(0.6));
        drop(journal);
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.dropped, 0, "the fragment was physically removed at the previous open");
        assert!(replay.scores.iter().any(|(k, _)| k == "whole"));
        assert!(replay.scores.iter().any(|(k, _)| k == "after-tear"));
        cleanup(&path);
    }

    #[test]
    fn corrupt_interior_lines_are_skipped() {
        let path = temp_path("corrupt");
        {
            let (journal, _) = open(JournalConfig::new(&path));
            journal.append_score("a", &ranking(0.5));
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"not json at all\n{\"rec\":\"mystery\"}\n").unwrap();
        drop(f);
        {
            let (journal, _) = open(JournalConfig::new(&path));
            journal.append_score("b", &ranking(0.6));
        }
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.scores.len(), 2);
        assert_eq!(replay.dropped, 2);
        cleanup(&path);
    }

    #[test]
    fn bit_flipped_record_is_quarantined_not_fatal() {
        let path = temp_path("bitflip");
        {
            let (journal, _) = open(JournalConfig::new(&path));
            journal.append_score("victim", &ranking(0.5));
            journal.append_score("innocent", &ranking(0.7));
            journal.append_run(9, &run_result(9));
        }
        // Flip one bit inside the first record's key. The line is
        // still perfectly valid JSON — only the checksum can tell.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.windows(6).position(|w| w == b"victim").unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (journal, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.dropped, 1, "the flipped record is dropped");
        assert_eq!(journal.stats().quarantined, 1, "…and quarantined");
        assert_eq!(replay.scores.len(), 1, "records after the bad line survive");
        assert_eq!(replay.scores[0].0, "innocent");
        assert_eq!(replay.runs.len(), 1, "replay was not truncated at the corruption");
        let quarantine = std::fs::read_to_string(quarantine_path(&path)).unwrap();
        assert!(
            quarantine.contains("wictim") || quarantine.contains("uictim"),
            "the corrupt line landed in the quarantine file: {quarantine}"
        );
        cleanup(&path);
    }

    #[test]
    fn legacy_lines_without_checksum_still_replay() {
        let path = temp_path("legacy");
        let mut f = OpenOptions::new().create(true).append(true).open(&path).unwrap();
        // A pre-HA journal line: no "crc" field at all.
        let old = crate::json::encoded(|o| write_score_record(o, "old", &ranking(0.3)));
        writeln!(f, "{old}").unwrap();
        drop(f);
        let (journal, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.dropped, 0);
        assert_eq!(replay.scores.len(), 1);
        assert_eq!(replay.scores[0].0, "old");
        assert_eq!(journal.stats().quarantined, 0);
        cleanup(&path);
    }

    #[test]
    fn rotation_compacts_to_newest_entries_under_the_cap() {
        let path = temp_path("rotate");
        let mut config = JournalConfig::new(&path);
        config.max_bytes = 4096;
        config.retain_scores = 4;
        config.retain_runs = 2;
        let (journal, _) = open(config);
        for i in 0..200 {
            journal.append_score(&format!("key-{i}"), &ranking(i as f64));
            journal.append_run(i, &run_result(i));
        }
        let stats = journal.stats();
        assert!(stats.rotations >= 1, "rotation must have triggered");
        assert!(
            stats.bytes <= 4096 + 1024,
            "file stays near the cap after compaction, got {} bytes",
            stats.bytes
        );
        drop(journal);
        let (_, replay) = open(JournalConfig::new(&path));
        // The resident set is the retained records of the last compaction
        // plus whatever was appended since — bounded by the byte cap,
        // nowhere near the 200 written.
        assert!(replay.scores.len() < 40, "bounded by rotation, got {}", replay.scores.len());
        assert!(!replay.scores.iter().any(|(k, _)| k == "key-0"), "oldest score compacted away");
        assert!(replay.scores.iter().any(|(k, _)| k == "key-199"), "newest score survives");
        assert!(replay.runs.iter().any(|(j, _)| *j == 199), "newest run survives");
        cleanup(&path);
    }

    fn reservation(job: u64, seq: u64) -> ReplayedReservation {
        ReplayedReservation {
            job,
            members: vec![(16, vec![8]), (8, vec![4, 4])],
            // One slot per component: member 1 (sim + analysis) on node
            // 0, member 2 (sim + two analyses) on node 1.
            assignment: vec![0, 0, 1, 1, 1],
            predicted_end: 12.5 + job as f64,
            seq,
            tenant: None,
        }
    }

    /// The compaction the streaming fold replaced, kept as its oracle:
    /// slurp the file, decode every line into one `Vec`, collapse to the
    /// newest occurrence per key/job in order of last write, skip down
    /// to the retained counts, render.
    fn reference_compaction(bytes: &[u8], epoch: u64, config: &JournalConfig) -> String {
        fn newest_last<K: PartialEq, V>(all: &mut Vec<(K, V)>, key: K, value: V) {
            all.retain(|(k, _)| *k != key);
            all.push((key, value));
        }
        let (mut scores, mut runs, mut reservations) = (Vec::new(), Vec::new(), Vec::new());
        let terminated = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        for line in bytes[..terminated].split(|&b| b == b'\n') {
            match decode_line(line) {
                Some(JournalRecord::Score { key, placements }) => {
                    newest_last(&mut scores, key, placements)
                }
                Some(JournalRecord::Run { job, response }) => newest_last(&mut runs, job, response),
                Some(JournalRecord::Reserve(r)) => newest_last(&mut reservations, r.job, r),
                Some(JournalRecord::Release { job }) => reservations.retain(|(j, _)| *j != job),
                Some(JournalRecord::Admit { .. } | JournalRecord::Epoch { .. }) | None => {}
            }
        }
        let mut out = line(|o| write_epoch_record(o, epoch));
        let skip = scores.len().saturating_sub(config.retain_scores);
        out.extend(scores.iter().skip(skip).map(|(k, p)| line(|o| write_score_record(o, k, p))));
        let skip = runs.len().saturating_sub(config.retain_runs);
        out.extend(runs.iter().skip(skip).map(|(j, r)| line(|o| write_run_record(o, *j, r))));
        out.extend(reservations.iter().map(|(_, r)| line(|o| write_reserve_record(o, r))));
        out
    }

    #[test]
    fn streaming_compaction_is_byte_identical_to_the_slurping_reference() {
        let path = temp_path("compact-oracle");
        let mut config = JournalConfig::new(&path);
        config.retain_scores = 5;
        config.retain_runs = 3;
        config.promote = true; // epoch 1: the compacted file leads with it
        let (journal, _) = open(config.clone());
        // Far more records than the retained windows, written under the
        // journal (the default 8 MiB threshold keeps rotation out of the
        // way until the explicit call below).
        let mut raw = String::new();
        for i in 0..40u64 {
            raw += &line(|o| write_score_record(o, &format!("key-{i}"), &ranking(i as f64)));
            raw += &line(|o| write_run_record(o, i % 17, &run_result(i)));
            if i == 20 {
                // A corrupt interior line and a blank one.
                raw += "{\"rec\":\"score\",\"key\":\"flipped\",\"crc\":\"00000000\"}\n\n";
            }
        }
        raw += &line(|o| write_reserve_record(o, &reservation(1, 1)));
        raw += &line(|o| write_reserve_record(o, &reservation(2, 2)));
        raw += &line(|o| write_release_record(o, 1));
        // `key-3` fell out of the 5-key window 36 keys ago; rewriting it
        // must bring it back as the newest.
        raw += &line(|o| write_score_record(o, "key-3", &ranking(3.5)));
        raw += "{\"rec\":\"run\",\"job\":99,\"resp"; // torn tail
        OpenOptions::new().append(true).open(&path).unwrap().write_all(raw.as_bytes()).unwrap();

        let before = std::fs::read(&path).unwrap();
        let want = reference_compaction(&before, journal.epoch(), &config);
        journal.rotate_locked(&mut journal.inner.lock().unwrap()).unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, want, "compacted file must equal the reference byte for byte");
        assert_eq!(journal.stats().bytes, got.len() as u64);
        drop(journal);

        let (_, replay) = open(JournalConfig::new(&path));
        let keys: Vec<&str> = replay.scores.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["key-36", "key-37", "key-38", "key-39", "key-3"]);
        assert_eq!(replay.scores[4].1[0].objective, 3.5, "last write wins");
        let jobs: Vec<u64> = replay.runs.iter().map(|(j, _)| *j).collect();
        assert_eq!(jobs, [3, 4, 5], "runs 37..39 under their job ids");
        assert_eq!(replay.runs[2].1, run_result(39));
        assert_eq!(replay.reservations, vec![reservation(2, 2)], "released reservation dropped");
        assert_eq!((replay.epoch, replay.dropped, replay.admits), (1, 0, 0));
        cleanup(&path);
    }

    /// Every window of `image` as the record lines compaction writes.
    fn windows(image: &Image) -> Vec<String> {
        let scores = image.scores.iter().map(|(k, p)| line(|o| write_score_record(o, k, p)));
        let runs =
            image.runs.iter().map(|(&j, r)| line(|o| write_run_record(o, j, r.recorded_reply())));
        let open = image.reservations.iter().map(|(_, r)| line(|o| write_reserve_record(o, r)));
        scores.chain(runs).chain(open).collect()
    }

    #[test]
    fn compaction_then_reopen_equals_the_capped_windows_for_every_fixture_prefix() {
        let path = temp_path("compact-prefix");
        for fixture in ["journal_golden.jsonl", "parent_journal.jsonl"] {
            let text = std::fs::read_to_string(
                Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture),
            )
            .unwrap();
            let lines: Vec<&str> = text.lines().collect();
            for n in 0..=lines.len() {
                let mut config = JournalConfig::new(&path);
                (config.retain_scores, config.retain_runs) = (1, 1);
                let mut capped = Image::new(1, 1);
                lines[..n]
                    .iter()
                    .filter_map(|l| decode_line(l.as_bytes()))
                    .for_each(|r| capped.apply(r));
                std::fs::write(
                    &path,
                    lines[..n].iter().map(|l| format!("{l}\n")).collect::<String>(),
                )
                .unwrap();
                let (journal, _) = Journal::open(config).unwrap();
                journal.rotate_locked(&mut journal.inner.lock().unwrap()).unwrap();
                drop(journal);
                let (_, reopened) = Journal::open(JournalConfig::new(&path)).unwrap();
                assert_eq!(windows(&reopened), windows(&capped), "{fixture}, {n} lines");
                assert_eq!(reopened.epoch, capped.epoch, "{fixture}, {n} lines");
                cleanup(&path);
            }
        }
    }

    #[test]
    fn reservations_net_out_releases_across_reopen() {
        let path = temp_path("reserve");
        {
            let (journal, _) = open(JournalConfig::new(&path));
            journal.append_reserve(&reservation(1, 1));
            journal.append_reserve(&reservation(2, 2));
            journal.append_release(1);
            journal.append_reserve(&reservation(3, 3));
            journal.append_release(9); // release without a reserve: harmless
        }
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.dropped, 0);
        let open: Vec<u64> = replay.reservations.iter().map(|r| r.job).collect();
        assert_eq!(open, vec![2, 3], "only unreleased reservations survive replay");
        assert_eq!(replay.reservations[0], reservation(2, 2), "fields roundtrip exactly");
        cleanup(&path);
    }

    #[test]
    fn rotation_keeps_every_open_reservation() {
        let path = temp_path("reserve-rotate");
        let mut config = JournalConfig::new(&path);
        config.max_bytes = 4096;
        config.retain_scores = 2;
        config.retain_runs = 2;
        let (journal, _) = open(config);
        journal.append_reserve(&reservation(1, 1));
        for i in 0..100 {
            journal.append_score(&format!("key-{i}"), &ranking(i as f64));
            journal.append_reserve(&reservation(100 + i, 100 + i));
            journal.append_release(100 + i);
        }
        assert!(journal.stats().rotations >= 1, "rotation must have triggered");
        drop(journal);
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(
            replay.reservations.iter().map(|r| r.job).collect::<Vec<_>>(),
            vec![1],
            "the open reservation survives compaction; the released pairs are gone"
        );
        cleanup(&path);
    }

    #[test]
    fn per_record_fsync_policy_appends_fine() {
        let path = temp_path("fsync");
        let mut config = JournalConfig::new(&path);
        config.fsync = FsyncPolicy::PerRecord;
        let (journal, _) = open(config);
        journal.append_admit(&crate::service::small_score_request(1, 2, 16, 1, 8, 3));
        journal.append_score("k", &ranking(0.5));
        assert_eq!(journal.stats().appended, 2);
        assert_eq!(journal.stats().append_errors, 0);
        assert_eq!(journal.stats().fsync_errors, 0);
        drop(journal);
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.admits, 1);
        assert_eq!(replay.scores.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn admit_records_carry_tenant_attribution_v2_and_v1() {
        let path = temp_path("admit-tenant");
        {
            let (journal, _) = open(JournalConfig::new(&path));
            let mut tagged = crate::service::small_score_request(21, 2, 16, 1, 8, 3);
            tagged.tenant = Some("team-a".into());
            journal.append_admit(&tagged);
            journal.append_admit(&crate::service::small_score_request(22, 2, 16, 1, 8, 3));
        }
        // A pre-quota (v1) admit line: no version, no top-level fields —
        // tenant lives only inside the embedded request.
        let legacy = crate::service::small_score_request(23, 2, 16, 1, 8, 3);
        let mut with_tenant = legacy.clone();
        with_tenant.tenant = Some("legacy-t".into());
        let v1_line = format!("{{\"rec\":\"admit\",\"request\":{}}}", with_tenant.to_json());
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "{v1_line}").unwrap();
        drop(f);
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.dropped, 0);
        assert_eq!(replay.admits, 3);
        assert_eq!(replay.admit_tenants.get(&21).map(String::as_str), Some("team-a"));
        assert_eq!(replay.admit_tenants.get(&22), None, "untagged admits stay unattributed");
        assert_eq!(
            replay.admit_tenants.get(&23).map(String::as_str),
            Some("legacy-t"),
            "v1 records recover tenant from the embedded request"
        );
        cleanup(&path);
    }

    #[test]
    fn reserve_records_roundtrip_tenant_and_survive_compaction() {
        let path = temp_path("reserve-tenant");
        let mut config = JournalConfig::new(&path);
        config.max_bytes = 4096;
        config.retain_scores = 2;
        config.retain_runs = 2;
        {
            let (journal, _) = open(config);
            let tagged = ReplayedReservation { tenant: Some("batch".into()), ..reservation(1, 1) };
            journal.append_reserve(&tagged);
            journal.append_reserve(&reservation(2, 2));
            // Force a few rotations: tenant attribution must survive
            // compaction because admits do not.
            for i in 0..100 {
                journal.append_score(&format!("key-{i}"), &ranking(i as f64));
            }
            assert!(journal.stats().rotations >= 1, "rotation must have triggered");
        }
        let (_, replay) = open(JournalConfig::new(&path));
        let open: Vec<(u64, Option<&str>)> =
            replay.reservations.iter().map(|r| (r.job, r.tenant.as_deref())).collect();
        assert_eq!(open, vec![(1, Some("batch")), (2, None)]);
        cleanup(&path);
    }

    #[test]
    fn promote_bumps_epoch_and_fences_the_deposed_handle() {
        let path = temp_path("fence");
        let (old_primary, _) = open(JournalConfig::new(&path));
        old_primary.append_score("before", &ranking(0.5));
        assert_eq!(old_primary.epoch(), 0);

        // A standby promotes over the same journal: epoch bumps to 1.
        let mut promote = JournalConfig::new(&path);
        promote.promote = true;
        let (new_primary, replay) = open(promote);
        assert_eq!(new_primary.epoch(), 1);
        assert_eq!(replay.epoch, 1);
        assert_eq!(read_epoch(&path), 1);

        // The deposed primary's late append is rejected, loudly.
        old_primary.append_score("split-brain", &ranking(0.9));
        let stats = old_primary.stats();
        assert_eq!(stats.fenced_appends, 1, "the late append was fenced");
        assert_eq!(stats.appended, 1, "only the pre-fence record ever landed");
        assert!(stats.degraded, "a fenced journal degrades to read-only");
        // Further appends are rejected without touching the fence.
        old_primary.append_score("again", &ranking(0.9));
        assert_eq!(old_primary.stats().append_errors, 1);

        // The new primary writes fine, and the file never saw the
        // deposed handle's records.
        new_primary.append_score("after", &ranking(0.7));
        drop(new_primary);
        drop(old_primary);
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.epoch, 1);
        assert!(replay.scores.iter().any(|(k, _)| k == "before"));
        assert!(replay.scores.iter().any(|(k, _)| k == "after"));
        assert!(
            !replay.scores.iter().any(|(k, _)| k == "split-brain"),
            "no divergence: the fenced append never reached the file"
        );
        cleanup(&path);
    }

    #[test]
    fn epoch_survives_rotation_via_rejournaled_record() {
        let path = temp_path("epoch-rotate");
        let mut config = JournalConfig::new(&path);
        config.promote = true;
        config.max_bytes = 4096;
        config.retain_scores = 2;
        let (journal, _) = open(config);
        for i in 0..100 {
            journal.append_score(&format!("key-{i}"), &ranking(i as f64));
        }
        assert!(journal.stats().rotations >= 1);
        drop(journal);
        // Even with the sidecar gone, the compacted file re-declares
        // its epoch.
        let _ = std::fs::remove_file(epoch_path(&path));
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.epoch, 1, "compaction re-journals the epoch record");
        cleanup(&path);
    }

    #[test]
    fn fault_plan_fsync_failures_degrade_the_journal_loudly() {
        let path = temp_path("fsync-fault");
        let mut config = JournalConfig::new(&path);
        config.fsync = FsyncPolicy::PerRecord;
        config.fault = Some(FaultPlan { fail_fsync_after: Some(0), ..FaultPlan::default() });
        let (journal, _) = open(config);
        for i in 0..5 {
            journal.append_score(&format!("k{i}"), &ranking(0.5));
        }
        let stats = journal.stats();
        assert_eq!(
            stats.fsync_errors,
            u64::from(FSYNC_FAILURE_LIMIT),
            "every failed fsync is counted until the journal degrades"
        );
        assert!(stats.degraded, "repeated fsync failures degrade to read-only");
        assert_eq!(stats.appended, u64::from(FSYNC_FAILURE_LIMIT), "appends stop once degraded");
        assert_eq!(stats.append_errors, 5 - u64::from(FSYNC_FAILURE_LIMIT));
        cleanup(&path);
    }

    #[test]
    fn fault_plan_crash_kills_at_a_deterministic_offset() {
        let path = temp_path("crash-fault");
        let mut config = JournalConfig::new(&path);
        config.fault = Some(FaultPlan {
            seed: 7,
            crash_after_append: Some(2),
            torn_tail: true,
            ..FaultPlan::default()
        });
        let (journal, _) = open(config);
        journal.append_score("one", &ranking(0.1));
        journal.append_score("two", &ranking(0.2));
        journal.append_score("never", &ranking(0.3));
        let stats = journal.stats();
        assert!(stats.degraded, "the fault plan killed the journal");
        assert_eq!(stats.appended, 2, "exactly the pre-crash records landed");
        drop(journal);
        // The crash image replays like a real kill -9: two records plus
        // a torn tail, sealed at the next open.
        let (_, replay) = open(JournalConfig::new(&path));
        assert_eq!(replay.scores.len(), 2);
        assert_eq!(replay.dropped, 1, "the torn fragment is dropped");
        assert!(!replay.scores.iter().any(|(k, _)| k == "never"));
        cleanup(&path);
    }

    #[test]
    fn follower_streams_appends_live() {
        let path = temp_path("follow");
        let mut follower = JournalFollower::new(&path);
        assert!(follower.poll().unwrap().is_empty(), "no file yet: no events");
        let (journal, _) = open(JournalConfig::new(&path));
        journal.append_score("k1", &ranking(0.5));
        journal.append_run(7, &run_result(7));
        let events = follower.poll().unwrap();
        assert_eq!(events.len(), 2);
        assert!(
            matches!(&events[0], FollowEvent::Record { record: JournalRecord::Score { key, .. }, .. } if key == "k1")
        );
        assert!(matches!(
            &events[1],
            FollowEvent::Record { record: JournalRecord::Run { job: 7, .. }, .. }
        ));
        assert!(follower.poll().unwrap().is_empty(), "nothing new: no events");
        journal.append_release(3);
        let events = follower.poll().unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            FollowEvent::Record { record: JournalRecord::Release { job: 3 }, .. }
        ));
        cleanup(&path);
    }

    #[test]
    fn follower_buffers_an_incomplete_final_line() {
        let path = temp_path("follow-partial");
        std::fs::write(&path, b"").unwrap();
        let mut follower = JournalFollower::new(&path);
        assert!(follower.poll().unwrap().is_empty());
        // A record arrives in two chunks, as a slow writer would
        // produce it.
        let line = line(|o| write_score_record(o, "split", &ranking(0.5)));
        let (head, tail) = line.trim_end().split_at(10);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(head.as_bytes()).unwrap();
        f.sync_data().unwrap();
        assert!(follower.poll().unwrap().is_empty(), "half a line is not an event");
        f.write_all(tail.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        let events = follower.poll().unwrap();
        assert_eq!(events.len(), 1);
        assert!(
            matches!(&events[0], FollowEvent::Record { record: JournalRecord::Score { key, .. }, .. } if key == "split")
        );
        cleanup(&path);
    }

    #[test]
    fn follower_signals_reset_on_rotation_and_restreams() {
        let path = temp_path("follow-rotate");
        let mut config = JournalConfig::new(&path);
        config.max_bytes = 4096;
        config.retain_scores = 4;
        config.retain_runs = 2;
        let (journal, _) = open(config);
        let mut follower = JournalFollower::new(&path);
        journal.append_score("early", &ranking(0.5));
        assert_eq!(follower.poll().unwrap().len(), 1);
        for i in 0..200 {
            journal.append_score(&format!("key-{i}"), &ranking(i as f64));
        }
        assert!(journal.stats().rotations >= 1, "rotation must have triggered");
        let events = follower.poll().unwrap();
        assert!(
            events.iter().any(|e| matches!(e, FollowEvent::Reset)),
            "the follower noticed the rotation"
        );
        let after_reset: Vec<&FollowEvent> =
            events.iter().skip_while(|e| !matches!(e, FollowEvent::Reset)).skip(1).collect();
        assert!(
            after_reset.iter().any(|e| matches!(
                e,
                FollowEvent::Record { record: JournalRecord::Score { key, .. }, .. } if key == "key-199"
            )),
            "after the reset the compacted file streams from the top"
        );
        cleanup(&path);
    }

    #[test]
    fn follower_flags_corrupt_lines() {
        let path = temp_path("follow-corrupt");
        let (journal, _) = open(JournalConfig::new(&path));
        journal.append_score("good", &ranking(0.5));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rec\":\"score\",\"key\":\"flipped\",\"crc\":\"00000000\"}\n").unwrap();
        drop(f);
        let mut follower = JournalFollower::new(&path);
        let events = follower.poll().unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], FollowEvent::Record { .. }));
        assert!(matches!(&events[1], FollowEvent::Corrupt { .. }));
        cleanup(&path);
    }

    #[test]
    fn checksum_seal_and_verify_are_byte_exact() {
        let line = line(|o| write_score_record(o, "k", &ranking(0.123456789)));
        let line = line.trim_end().to_string();
        assert!(crc_valid(&line));
        assert!(decode_line(line.as_bytes()).is_some());
        // Any single-byte change breaks the seal.
        let mut tampered = line.clone().into_bytes();
        let mid = tampered.len() / 2;
        tampered[mid] ^= 0x02;
        let tampered = String::from_utf8(tampered).unwrap();
        assert!(!crc_valid(&tampered) || Value::parse(&tampered).is_err());
    }
}
