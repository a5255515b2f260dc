//! The four workloads as seeded request streams.
//!
//! A stream is a pure function of `(workload, seed, client)`: the same
//! three values give the same lines in the same order, and the two
//! clients of a run never share a request id or a score key. Each stream
//! is built from shuffled blocks that hold every op kind in its exact
//! share, so two seeds differ in order and in drawn parameters but not
//! in mix, and a time-boxed window sees the same mix whatever its
//! length.

use std::collections::VecDeque;

use crate::probes::{self, Shape};
use crate::rng::Rng;

/// Every workload is a closed loop of this many clients, each with one
/// connection and its own stream: the callers of this system (ensemble
/// managers, a researcher's script) each wait for their reply. The host
/// has two cores; the count is fixed here, not derived from the host.
pub const CLIENTS: usize = 2;

/// Seed used for the numbers in the README.
pub const DEFAULT_SEED: u64 = 20210809;
/// Seed never used while the benchmark was written; claims must hold on
/// it too.
pub const HELD_OUT_SEED: u64 = 7;

/// Requests of a stream are numbered from here; smaller ids are priming
/// requests.
const FIRST_ID: u64 = 1_000;
/// Completed runs primed per client for `attach`, and how many of its
/// own most recent runs a client picks its attach target from. Two
/// clients' worth stays far below the service's 256-entry run index.
pub const PRIMED_RUNS: u64 = 8;
const RECENT_RUNS: usize = 32;
/// Cached queries `score_hit` draws from.
pub const WORKING_SET: u64 = 32;
/// `steps` of the class-M query whose full ranking `score_hit_full`
/// re-reads; outside the working set's range.
pub const FULL_HIT_STEPS: u64 = 100;
/// In situ steps of a short and of a long `staging_threaded` call. One
/// call in ten is long, so that the 95th percentile of the workload's
/// latency is the median long call and not the tail of identical ones.
pub const STAGED_STEPS_SHORT: u64 = 200;
pub const STAGED_STEPS_LONG: u64 = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScoreCold,
    RunDes,
    SvcMix,
    StagingThreaded,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ScoreCold, Workload::RunDes, Workload::SvcMix, Workload::StagingThreaded];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScoreCold => "score_cold",
            Workload::RunDes => "run_des",
            Workload::SvcMix => "svc_mix",
            Workload::StagingThreaded => "staging_threaded",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Clients driving the timed window. `staging_threaded` has no
    /// service: its one caller starts a simulation and an analysis
    /// thread per call, the same two busy threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::StagingThreaded => 1,
            _ => CLIENTS,
        }
    }

    /// Untimed warm-up ops per client; part of `setup_s`.
    pub fn warmup_ops(self, quick: bool) -> usize {
        let ops = match self {
            Workload::ScoreCold => 100,
            Workload::RunDes => 520,
            Workload::SvcMix => 400,
            Workload::StagingThreaded => 10,
        };
        if quick {
            (ops / 10).max(2)
        } else {
            ops
        }
    }

    /// Ops per client in each pass of a traced run. A count, not a
    /// duration, so the program counters of a traced run repeat exactly
    /// for a seed.
    pub fn trace_ops(self, quick: bool) -> usize {
        let ops = match self {
            Workload::ScoreCold => 300,
            Workload::RunDes => 520,
            Workload::SvcMix => 2_000,
            Workload::StagingThreaded => 60,
        };
        if quick {
            (ops / 20).max(3)
        } else {
            ops
        }
    }
}

/// What an op asks for, with the parameters the oracle and the layer
/// probes need to repeat it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A `score` whose key was never seen: a full scan. `top_k` 0 asks
    /// for the whole ranking.
    ScoreCold {
        shape: Shape,
        steps: u64,
        top_k: usize,
    },
    /// A `score` of a primed key, `top_k` 10.
    ScoreHit {
        shape: Shape,
        steps: u64,
    },
    /// A `score` of the primed class-M key, `top_k` 0: a 4 038-row reply.
    ScoreHitFull,
    Run {
        config: usize,
        steps: u64,
        jitter: f64,
        seed: u64,
        small: bool,
    },
    Submit {
        shape: Shape,
        steps: u64,
        seed: u64,
    },
    Attach {
        job: u64,
    },
    Metrics,
    /// One `run_threaded` call of `steps` in situ steps; no request line.
    Staged {
        steps: u64,
    },
}

impl Kind {
    /// Name used for per-kind rows and trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            Kind::ScoreCold { shape: Shape::S, .. } => "score_cold_s",
            Kind::ScoreCold { shape: Shape::M, .. } => "score_cold_m",
            Kind::ScoreCold { .. } => "score_cold_l",
            Kind::ScoreHit { .. } => "score_hit",
            Kind::ScoreHitFull => "score_hit_full",
            Kind::Run { .. } => "run",
            Kind::Submit { .. } => "submit",
            Kind::Attach { .. } => "attach",
            Kind::Metrics => "metrics",
            Kind::Staged { .. } => "staged",
        }
    }

    /// True for requests that pass through the admission queue and a
    /// worker (`metrics` and `attach` are answered by the connection
    /// thread).
    pub fn queued(&self) -> bool {
        !matches!(self, Kind::Attach { .. } | Kind::Metrics | Kind::Staged { .. })
    }

    /// Work the op carries, in the workload's unit: placement candidates
    /// for a cold score, simulated member-steps for a run or a submit,
    /// staged member-steps for a threaded call.
    pub fn work_units(&self) -> u64 {
        match self {
            Kind::ScoreCold { shape, .. } => shape.candidates(),
            Kind::Run { steps, .. } => steps * probes::RUN_MEMBERS as u64,
            Kind::Submit { shape, steps, .. } => steps * shape.members() as u64,
            Kind::Staged { steps } => *steps,
            _ => 0,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Op {
    pub id: u64,
    pub kind: Kind,
    /// The JSON line sent; empty for [`Kind::Staged`].
    pub line: String,
}

impl Op {
    pub fn new(id: u64, kind: Kind) -> Op {
        let line = match kind {
            Kind::ScoreCold { shape, steps, top_k } => probes::score_line(id, shape, top_k, steps),
            Kind::ScoreHit { shape, steps } => probes::score_line(id, shape, 10, steps),
            Kind::ScoreHitFull => probes::score_line(id, Shape::M, 0, FULL_HIT_STEPS),
            Kind::Run { config, steps, jitter, seed, small } => {
                probes::run_line(id, config, steps, jitter, seed, small)
            }
            Kind::Submit { shape, steps, seed } => probes::submit_line(id, shape, steps, seed),
            Kind::Attach { job } => probes::attach_line(id, job),
            Kind::Metrics => probes::metrics_line(id),
            Kind::Staged { .. } => String::new(),
        };
        Op { id, kind, line }
    }
}

/// The `i`-th query of the `score_hit` working set: classes S and M
/// alternate, each with its own `steps`, so all 32 keys differ.
fn working_set_query(i: u64) -> (Shape, u64) {
    (if i.is_multiple_of(2) { Shape::S } else { Shape::M }, 6 + i / 2)
}

/// Id of the `n`-th run primed for `client`.
fn primed_run_id(client: usize, n: u64) -> u64 {
    1 + client as u64 * PRIMED_RUNS + n
}

/// Requests sent once, by client 0, before warm-up: they fill the score
/// cache and the completed-run index that `svc_mix` reads. Cold scores
/// and runs in their own right, they are checked like any other op.
pub fn priming(workload: Workload, seed: u64) -> Vec<Op> {
    if workload != Workload::SvcMix {
        return Vec::new();
    }
    let mut ops = Vec::new();
    let mut id = 100;
    for i in 0..WORKING_SET {
        let (shape, steps) = working_set_query(i);
        ops.push(Op::new(id, Kind::ScoreCold { shape, steps, top_k: 10 }));
        id += 1;
    }
    // The full ranking is primed with `top_k` 0, the form it is re-read in.
    ops.push(Op::new(id, Kind::ScoreCold { shape: Shape::M, steps: FULL_HIT_STEPS, top_k: 0 }));
    let mut rng = Rng::new(seed, 0xA77AC4);
    for client in 0..CLIENTS {
        for n in 0..PRIMED_RUNS {
            ops.push(Op::new(primed_run_id(client, n), mix_run(&mut rng)));
        }
    }
    ops
}

/// The `run` of `svc_mix`: `C1.5`, small workloads, 8 steps, jittered so
/// that every completed run has its own payload for `attach` to return.
fn mix_run(rng: &mut Rng) -> Kind {
    Kind::Run {
        config: probes::RUN_CONFIG_C1_5,
        steps: 8,
        jitter: 0.05,
        seed: rng.below(1 << 32),
        small: true,
    }
}

/// Slots of one block, before their parameters are drawn.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Cold(Shape),
    Run { config: usize, small: bool },
    Hit,
    HitFull,
    Submit(Shape),
    MixRun,
    Attach,
    Metrics,
    Staged(u64),
}

fn block_of(workload: Workload) -> Vec<Slot> {
    let repeat = |slot: Slot, n: usize| std::iter::repeat_n(slot, n);
    match workload {
        // 60 % S, 30 % M, 10 % L.
        Workload::ScoreCold => repeat(Slot::Cold(Shape::S), 6)
            .chain(repeat(Slot::Cold(Shape::M), 3))
            .chain(repeat(Slot::Cold(Shape::L), 1))
            .collect(),
        // Every configuration once with each workload map.
        Workload::RunDes => (0..probes::RUN_CONFIG_COUNT)
            .flat_map(|config| [true, false].map(|small| Slot::Run { config, small }))
            .collect(),
        // 40 % hit, 10 % full hit, 25 % submit (60 % small), 5 % run,
        // 15 % attach, 5 % metrics. Large submits are the slowest tenth
        // of the ops, so the 95th percentile is their median.
        Workload::SvcMix => repeat(Slot::Hit, 16)
            .chain(repeat(Slot::HitFull, 4))
            .chain(repeat(Slot::Submit(Shape::SubmitSmall), 6))
            .chain(repeat(Slot::Submit(Shape::SubmitLarge), 4))
            .chain(repeat(Slot::MixRun, 2))
            .chain(repeat(Slot::Attach, 6))
            .chain(repeat(Slot::Metrics, 2))
            .collect(),
        Workload::StagingThreaded => repeat(Slot::Staged(STAGED_STEPS_SHORT), 9)
            .chain(repeat(Slot::Staged(STAGED_STEPS_LONG), 1))
            .collect(),
    }
}

/// One client's endless request stream.
pub struct Stream {
    workload: Workload,
    client: usize,
    rng: Rng,
    issued: u64,
    block: Vec<Slot>,
    /// Ids of this client's most recent completed runs, oldest first. A
    /// client sends its next request only after the previous reply, so a
    /// run it issued earlier has completed by the time it attaches.
    recent_runs: VecDeque<u64>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Stream {
        Stream {
            workload,
            client,
            rng: Rng::new(seed, 1 + client as u64),
            issued: 0,
            block: Vec::new(),
            recent_runs: (0..PRIMED_RUNS).map(|n| primed_run_id(client, n)).collect(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            self.block = block_of(self.workload);
            self.rng.shuffle(&mut self.block);
        }
        let slot = self.block.pop().expect("block just refilled");
        // Interleaving the clients' sequence numbers keeps ids, and the
        // `steps` that make score keys distinct, disjoint between them.
        let sequence = self.issued * CLIENTS as u64 + self.client as u64;
        self.issued += 1;
        let id = FIRST_ID + sequence;
        let rng = &mut self.rng;
        let kind = match slot {
            Slot::Cold(shape) => Kind::ScoreCold { shape, steps: 6 + sequence, top_k: 10 },
            Slot::Run { config, small } => Kind::Run {
                config,
                steps: rng.between(50, 400),
                jitter: if rng.below(2) == 0 { 0.0 } else { 0.05 },
                seed: rng.below(1 << 32),
                small,
            },
            Slot::Hit => {
                let (shape, steps) = working_set_query(rng.below(WORKING_SET));
                Kind::ScoreHit { shape, steps }
            }
            Slot::HitFull => Kind::ScoreHitFull,
            Slot::Submit(shape) => {
                Kind::Submit { shape, steps: rng.between(4, 8), seed: rng.below(1 << 32) }
            }
            Slot::MixRun => mix_run(rng),
            Slot::Attach => {
                let pick = rng.below(self.recent_runs.len() as u64) as usize;
                Kind::Attach { job: self.recent_runs[pick] }
            }
            Slot::Metrics => Kind::Metrics,
            Slot::Staged(steps) => Kind::Staged { steps },
        };
        if let Kind::Run { .. } = kind {
            self.recent_runs.push_back(id);
            if self.recent_runs.len() > RECENT_RUNS {
                self.recent_runs.pop_front();
            }
        }
        Op::new(id, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn lines(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut stream = Stream::new(workload, seed, client);
        (0..n).map(|_| stream.next_op().line).collect()
    }

    #[test]
    fn same_seed_gives_the_same_lines() {
        for workload in Workload::ALL {
            assert_eq!(lines(workload, 11, 0, 200), lines(workload, 11, 0, 200));
            assert_eq!(lines(workload, 11, 1, 200), lines(workload, 11, 1, 200));
        }
        assert_ne!(lines(Workload::RunDes, 11, 0, 50), lines(Workload::RunDes, 12, 0, 50));
    }

    #[test]
    fn the_two_clients_share_no_id_and_no_score_key() {
        for workload in [Workload::ScoreCold, Workload::RunDes, Workload::SvcMix] {
            let mut ids = HashSet::new();
            let mut keys = HashSet::new();
            for client in 0..CLIENTS {
                let mut stream = Stream::new(workload, 5, client);
                for _ in 0..500 {
                    let op = stream.next_op();
                    assert!(ids.insert(op.id), "{workload:?}: id {} reused", op.id);
                    if let Kind::ScoreCold { shape, steps, .. } = op.kind {
                        assert!(keys.insert((shape.candidates(), steps)), "key reused");
                    }
                }
            }
        }
    }

    #[test]
    fn every_block_holds_the_stated_mix() {
        let mut stream = Stream::new(Workload::SvcMix, 3, 0);
        let mut count = std::collections::HashMap::new();
        for _ in 0..400 {
            *count.entry(stream.next_op().kind.label()).or_insert(0) += 1;
        }
        let share = |label: &str| count[label] as f64 / 400.0;
        assert_eq!(share("score_hit"), 0.40);
        assert_eq!(share("score_hit_full"), 0.10);
        assert_eq!(share("submit"), 0.25);
        assert_eq!(share("run"), 0.05);
        assert_eq!(share("attach"), 0.15);
        assert_eq!(share("metrics"), 0.05);

        let mut cold = Stream::new(Workload::ScoreCold, 3, 1);
        let large = (0..100).filter(|_| cold.next_op().kind.label() == "score_cold_l").count();
        assert_eq!(large, 10);
    }

    #[test]
    fn attach_targets_a_run_the_client_already_completed() {
        let mut stream = Stream::new(Workload::SvcMix, 9, 1);
        let mut completed: HashSet<u64> = (0..PRIMED_RUNS).map(|n| primed_run_id(1, n)).collect();
        for _ in 0..2_000 {
            let op = stream.next_op();
            match op.kind {
                Kind::Run { .. } => {
                    completed.insert(op.id);
                }
                Kind::Attach { job } => assert!(completed.contains(&job), "job {job} unknown"),
                _ => {}
            }
        }
    }

    #[test]
    fn priming_covers_the_working_set_and_both_clients_runs() {
        let ops = priming(Workload::SvcMix, 1);
        assert_eq!(ops.len() as u64, WORKING_SET + 1 + CLIENTS as u64 * PRIMED_RUNS);
        assert!(ops.iter().all(|op| op.id < FIRST_ID));
        assert!(priming(Workload::ScoreCold, 1).is_empty());
    }
}
