//! The one fold of the journal's record stream, and the bounded window
//! it and the score cache hold entries in. A restart
//! ([`Journal::open`](crate::Journal::open)) folds the journal into an
//! [`Image`] holding everything, compaction into one holding what it
//! retains, and a warm standby into one holding no ranking (it counts
//! score records) and every run and reservation. The module does no
//! I/O: whatever drives it gets the same state from the same records.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::journal::{JournalRecord, ReplayedReservation};
use crate::protocol::{Ranking, Response};

/// The newest `cap` entries of a keyed stream: the last write wins, a
/// rewrite becomes the newest entry, and past `cap` the oldest is
/// evicted. At every point it holds exactly the last `cap` entries of
/// "dedupe the whole stream, keep each key's newest write" — without
/// holding the stream. A lookup is one hash probe.
pub(crate) struct Window<K, V> {
    cap: usize,
    next_age: u64,
    entries: HashMap<K, (u64, V)>,
    by_age: BTreeMap<u64, K>,
}

impl<K: Clone + Eq + Hash, V> Window<K, V> {
    /// An empty window holding at most `cap` entries (0 holds none).
    pub(crate) fn new(cap: usize) -> Self {
        Window { cap, next_age: 0, entries: HashMap::new(), by_age: BTreeMap::new() }
    }

    /// The entry under `key`.
    pub(crate) fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.entries.get(key).map(|(_, value)| value)
    }

    /// Writes `value` under `key` as the newest entry, evicting the
    /// oldest past the cap.
    pub(crate) fn put(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        let age = self.next_age;
        self.next_age += 1;
        if let Some((old, _)) = self.entries.insert(key.clone(), (age, value)) {
            self.by_age.remove(&old);
        }
        self.by_age.insert(age, key);
        if self.by_age.len() > self.cap {
            if let Some((_, oldest)) = self.by_age.pop_first() {
                self.entries.remove(&oldest);
            }
        }
    }

    /// Drops the entry under `key`, if any.
    pub(crate) fn remove(&mut self, key: &K) {
        if let Some((age, _)) = self.entries.remove(key) {
            self.by_age.remove(&age);
        }
    }

    /// Drops every entry; the cap stays.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.by_age.clear();
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries, oldest write first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.by_age.values().map(|key| (key, &self.entries[key].1))
    }
}

/// A completed run as a run index keeps it: the `run_result` reply as
/// recorded, served under whatever id asks for it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FinishedRun(Response);

impl FinishedRun {
    /// The run a `run_result` reply carries; `None` for any other reply.
    pub(crate) fn of(reply: &Response) -> Option<FinishedRun> {
        matches!(reply, Response::RunResult { .. }).then(|| FinishedRun(reply.clone()))
    }

    /// The `run_result` reply carrying this run under `id`.
    pub(crate) fn reply(&self, id: u64) -> Response {
        let mut reply = self.0.clone();
        if let Response::RunResult { id: reply_id, .. } = &mut reply {
            *reply_id = id;
        }
        reply
    }

    /// The reply as it was recorded: compaction writes it back byte for
    /// byte.
    pub(crate) fn recorded_reply(&self) -> &Response {
        &self.0
    }
}

/// What a record stream folds into. Windows keep each key's newest
/// record in order of last write, so a cache warmed from them in order
/// keeps the newest entries when it is smaller.
pub struct Image {
    /// Score rankings by cache key.
    pub(crate) scores: Window<String, Ranking>,
    /// Finished runs by job id.
    pub(crate) runs: Window<u64, FinishedRun>,
    /// Co-scheduler reservations still open (reserve net of release),
    /// by job id; never capped.
    pub(crate) reservations: Window<u64, ReplayedReservation>,
    /// Admit records folded.
    pub(crate) admits: u64,
    /// Job → tenant, from tagged admit records.
    pub(crate) admit_tenants: HashMap<u64, String>,
    /// The highest fencing epoch seen. A reset keeps it: epochs only
    /// grow.
    pub(crate) epoch: u64,
    /// Records folded.
    pub(crate) records: u64,
    /// Score records folded, held or not.
    pub(crate) score_records: u64,
}

impl Image {
    /// An empty image keeping the newest `retain_scores` rankings and
    /// `retain_runs` runs.
    pub fn new(retain_scores: usize, retain_runs: usize) -> Image {
        Image {
            scores: Window::new(retain_scores),
            runs: Window::new(retain_runs),
            reservations: Window::new(usize::MAX),
            admits: 0,
            admit_tenants: HashMap::new(),
            epoch: 0,
            records: 0,
            score_records: 0,
        }
    }

    /// Folds one record in.
    pub fn apply(&mut self, record: JournalRecord) {
        self.records += 1;
        match record {
            JournalRecord::Admit { job, tenant } => {
                self.admits += 1;
                if let Some(tenant) = tenant {
                    self.admit_tenants.insert(job, tenant);
                }
            }
            JournalRecord::Score { key, placements } => {
                self.score_records += 1;
                self.scores.put(key, placements);
            }
            JournalRecord::Run { job, response } => {
                if let Some(run) = FinishedRun::of(&response) {
                    self.runs.put(job, run);
                }
            }
            JournalRecord::Reserve(r) => self.reservations.put(r.job, r),
            JournalRecord::Release { job } => self.reservations.remove(&job),
            JournalRecord::Epoch { epoch } => self.epoch = self.epoch.max(epoch),
        }
    }

    /// Discards everything the stream built (it restreams from the
    /// top), keeping the window sizes and the epoch.
    pub fn reset(&mut self) {
        *self = Image { epoch: self.epoch, ..Image::new(self.scores.cap, self.runs.cap) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ErrorKind, MemberSummary};

    fn run_response(id: u64, makespan: f64) -> Response {
        Response::RunResult {
            id,
            ensemble_makespan: makespan,
            members: vec![MemberSummary { sigma_star: 1.0, efficiency: 0.9, cp: 1.0, makespan }],
            elapsed_ms: 2.0,
        }
    }

    /// Eviction and refresh are `cache.rs`'s tests; the window adds the
    /// order it hands entries back in, and removal.
    #[test]
    fn a_window_iterates_in_order_of_last_write() {
        let mut w = Window::new(3);
        for (key, value) in [("a", 1), ("b", 2), ("c", 3), ("a", 10)] {
            w.put(key, value);
        }
        assert_eq!(w.iter().collect::<Vec<_>>(), [(&"b", &2), (&"c", &3), (&"a", &10)]);
        w.remove(&"c");
        assert_eq!(w.iter().map(|(k, _)| *k).collect::<Vec<_>>(), ["b", "a"]);
    }

    #[test]
    fn the_image_folds_and_resets() {
        let mut image = Image::new(0, usize::MAX);
        image.apply(JournalRecord::Admit { job: 1, tenant: Some("t".into()) });
        image.apply(JournalRecord::Score { key: "k".into(), placements: vec![].into() });
        image.apply(JournalRecord::Run { job: 7, response: run_response(7, 42.0) });
        let error = Response::Error { id: 8, kind: ErrorKind::Internal, message: "x".into() };
        image.apply(JournalRecord::Run { job: 8, response: error });
        image.apply(JournalRecord::Release { job: 99 });
        image.apply(JournalRecord::Epoch { epoch: 3 });
        assert_eq!((image.records, image.admits, image.score_records), (6, 1, 1));
        assert_eq!(image.scores.len(), 0, "a zero score window counts rankings, holds none");
        assert_eq!(image.runs.get(&7).map(|run| run.reply(7)), Some(run_response(7, 42.0)));
        assert_eq!(image.runs.len(), 1, "only a run result is a finished run");
        assert_eq!(image.admit_tenants.get(&1).map(String::as_str), Some("t"));
        image.reset();
        assert_eq!((image.records, image.admits, image.runs.len()), (0, 0, 0));
        assert!(image.admit_tenants.is_empty());
        assert_eq!(image.epoch, 3, "the epoch is monotone across resets");
    }
}
