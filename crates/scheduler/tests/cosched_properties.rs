//! Property suite for the online co-scheduler.
//!
//! Four invariants:
//!
//! * **Conservation** — under any interleaving of admit / complete /
//!   fail / cancel events, `admitted_cores == released_cores +
//!   committed_cores` holds at every step, and a full drain leaves the
//!   residency map empty with the two counters equal.
//! * **Backfill protects the head** — on the same submission stream,
//!   with completions delivered in predicted order, the first queued
//!   job starts (and therefore completes) at the same virtual time
//!   whether backfill is on or off. This is the EASY guarantee the
//!   virtual-time rule was chosen for; a structural rule cannot give
//!   it.
//! * **`place_against` equals the from-scratch oracle** — every
//!   decision taken against a live residency view (assignment,
//!   canonical form, objective and solo-makespan bits, scanned and
//!   feasible counts) is what scoring each best-fit-mapped candidate
//!   with `fast_score` over residents + job and ranking `(objective
//!   desc, index asc)` gives, at 1, 2 and 8 scan workers.
//! * **Co-resident scoring is the DES's** — a DES run of residents and
//!   job as one machine gives every member the `σ̄*` the closed form
//!   predicts, and the decision's objective.

use std::sync::Arc;

use ensemble_core::{Aggregation, EnsembleSpec, IndicatorPath, WarmupPolicy};
use runtime::{SimRunConfig, WorkloadMap};
use scheduler::cosched::{Admission, CoScheduler, CoschedConfig};
use scheduler::search::score_report;
use scheduler::{
    enumerate_placements, fast_score, place_against, EnsembleShape, NodeBudget, ResidencyMap,
    ScanOptions, SolveCache,
};
use testkit::{check, Gen};

fn base_config() -> SimRunConfig {
    let placeholder = EnsembleShape::uniform(1, 16, 1, 8);
    let mut cfg = SimRunConfig::paper(placeholder.materialize(&[0; 2]));
    cfg.workloads = WorkloadMap::small_defaults();
    cfg.n_steps = 4;
    cfg
}

fn sched(nodes: usize, backfill: bool) -> CoScheduler {
    let mut cfg = CoschedConfig::new(NodeBudget { max_nodes: nodes, cores_per_node: 32 });
    cfg.backfill = backfill;
    cfg.scan = ScanOptions { workers: 1, ..ScanOptions::default() };
    CoScheduler::new(cfg, base_config())
}

/// A small palette of shapes that mixes jobs that share nodes, fill
/// nodes, and span nodes (5 and 6 only reach the oracle property).
fn shape_palette(i: usize) -> EnsembleShape {
    match i % 7 {
        0 => EnsembleShape::uniform(1, 4, 1, 4),  // 8 cores
        1 => EnsembleShape::uniform(1, 8, 1, 8),  // 16 cores
        2 => EnsembleShape::uniform(1, 16, 1, 8), // 24 cores
        3 => EnsembleShape::uniform(2, 8, 1, 4),  // 2 members, 24 cores
        4 => EnsembleShape::uniform(2, 16, 1, 8), // 2 members, 48 cores
        5 => EnsembleShape::uniform(3, 8, 1, 4),  // 3 members, 36 cores
        _ => EnsembleShape::uniform(1, 8, 2, 4),  // k = 2, 16 cores
    }
}

fn shape(g: &mut Gen) -> EnsembleShape {
    shape_palette(g.range(0usize..5))
}

/// One step of a random schedule-driving program.
#[derive(Debug, Clone)]
enum Event {
    Submit(EnsembleShape),
    /// Complete the k-th open reservation (mod count).
    Complete(usize),
    /// Cancel the k-th queued job (mod depth).
    CancelQueued(usize),
}

fn event(g: &mut Gen) -> Event {
    let (kind, shape, k) = (g.range(0u8..4), shape(g), g.range(0usize..8));
    match kind {
        0 | 1 => Event::Submit(shape),
        2 => Event::Complete(k),
        _ => Event::CancelQueued(k),
    }
}

/// The from-scratch reference for [`place_against`] on the live
/// residency: every canonical candidate mapped onto physical nodes by
/// best-fit-decreasing, materialized with the residents in front of it,
/// scored with `fast_score`, ranked `(objective desc, index asc)`.
/// Returns `(assignment, canonical, objective bits, solo makespan
/// bits, scanned, feasible)`.
type OracleDecision = (Vec<usize>, Vec<usize>, u64, u64, usize, usize);

fn oracle_place(
    shape: &EnsembleShape,
    residency: &ResidencyMap,
    base: &SimRunConfig,
) -> Option<OracleDecision> {
    let budget = residency.budget();
    let free = residency.residual();
    let residents: Vec<_> =
        residency.reservations().flat_map(|r| r.shape.materialize(&r.assignment).members).collect();
    let cores: Vec<u32> = shape
        .members
        .iter()
        .flat_map(|(sim, anas)| std::iter::once(*sim).chain(anas.iter().copied()))
        .collect();
    let candidates = enumerate_placements(shape, budget.max_nodes, budget.cores_per_node);
    let mut best: Option<(f64, Vec<usize>, Vec<usize>)> = None;
    let mut feasible = 0usize;
    for canonical in &candidates {
        // Best-fit-decreasing: virtual nodes by load desc (ties: lower
        // id), each onto the fitting physical node with the least free
        // capacity (ties: lower id).
        let virtual_nodes = canonical.iter().max().map_or(0, |m| m + 1);
        let mut vload = vec![0u32; virtual_nodes];
        for (&v, &c) in canonical.iter().zip(&cores) {
            vload[v] += c;
        }
        let mut order: Vec<usize> = (0..virtual_nodes).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(vload[v]), v));
        let mut taken = vec![false; free.len()];
        let mut mapping = vec![usize::MAX; virtual_nodes];
        let fits = order.iter().all(|&v| {
            let slot = (0..free.len())
                .filter(|&i| !taken[i] && free[i] >= vload[v])
                .min_by_key(|&i| (free[i], i));
            slot.is_some_and(|i| {
                taken[i] = true;
                mapping[v] = i;
                true
            })
        });
        if !fits {
            continue;
        }
        feasible += 1;
        let physical: Vec<usize> = canonical.iter().map(|&v| mapping[v]).collect();
        let mut members = residents.clone();
        members.extend(shape.materialize(&physical).members);
        let objective =
            fast_score(base, &EnsembleSpec::new(members)).expect("oracle score").objective;
        // Strictly greater keeps the earliest index among equals.
        if best.as_ref().is_none_or(|(b, _, _)| objective.total_cmp(b).is_gt()) {
            best = Some((objective, physical, canonical.clone()));
        }
    }
    best.map(|(objective, physical, canonical)| {
        let solo = fast_score(base, &shape.materialize(&physical)).expect("oracle solo score");
        (
            physical,
            canonical,
            objective.to_bits(),
            solo.ensemble_makespan.to_bits(),
            candidates.len(),
            feasible,
        )
    })
}

/// The open reservation chosen deterministically by index.
fn pick_open(s: &CoScheduler, k: usize) -> Option<u64> {
    let open: Vec<u64> = s.residency().reservations().map(|r| r.job).collect();
    if open.is_empty() {
        None
    } else {
        Some(open[k % open.len()])
    }
}

const CASES: u32 = 16;

/// Residency accounting is conserved under random admit /
/// complete / fail / cancel interleavings, and a final drain
/// leaves zero residual capacity committed.
#[test]
fn residency_accounting_is_conserved() {
    check(CASES, |g| {
        let (events, nodes) = (g.vec(1..24, event), g.range(2usize..4));
        let mut s = sched(nodes, true);
        let mut next_job = 0u64;
        let mut queued: Vec<u64> = Vec::new();
        for event in events {
            match event {
                Event::Submit(shape) => {
                    next_job += 1;
                    match s.submit(next_job, shape).unwrap() {
                        Admission::Queued { .. } => queued.push(next_job),
                        Admission::Placed(_) | Admission::Shed | Admission::Infeasible => {}
                    }
                }
                Event::Complete(k) => {
                    if let Some(job) = pick_open(&s, k) {
                        for (started, _) in s.release(job).unwrap() {
                            queued.retain(|&q| q != started);
                        }
                    }
                }
                Event::CancelQueued(k) => {
                    if !queued.is_empty() {
                        let job = queued[k % queued.len()];
                        if s.cancel_queued(job) {
                            queued.retain(|&q| q != job);
                        }
                    }
                }
            }
            let r = s.residency();
            assert_eq!(
                r.admitted_cores(),
                r.released_cores() + r.committed_cores(),
                "conservation must hold after every event"
            );
        }
        // Drain: complete everything open (which may start queued
        // jobs), until idle.
        let mut guard = 0;
        while !s.residency().is_empty() {
            let job = pick_open(&s, 0).unwrap();
            for (started, _) in s.release(job).unwrap() {
                queued.retain(|&q| q != started);
            }
            guard += 1;
            assert!(guard < 10_000, "drain must terminate");
        }
        for job in queued {
            s.cancel_queued(job);
        }
        let r = s.residency();
        assert!(r.is_empty(), "residency map must be empty after drain");
        assert_eq!(r.committed_cores(), 0u64);
        assert_eq!(r.admitted_cores(), r.released_cores());
        assert!(s.is_idle());
    });
}

/// With completions delivered in predicted order, backfill never
/// changes when the first queued job (the head) starts or
/// completes, relative to plain FIFO on the same stream.
#[test]
fn backfill_preserves_the_heads_schedule() {
    check(CASES, |g| {
        let (shapes, nodes) = (g.vec(2..10, shape), g.range(2usize..4));
        // Drive one scheduler over the batch-then-drain stream and
        // record every job's start virtual time.
        let drive = |backfill: bool| -> (Option<u64>, Vec<(u64, f64)>) {
            let mut s = sched(nodes, backfill);
            let mut first_queued: Option<u64> = None;
            let mut starts: Vec<(u64, f64)> = Vec::new();
            for (i, shape) in shapes.iter().enumerate() {
                let job = i as u64 + 1;
                match s.submit(job, shape.clone()).unwrap() {
                    Admission::Placed(_) => starts.push((job, s.virtual_now())),
                    Admission::Queued { .. } => {
                        if first_queued.is_none() {
                            first_queued = Some(job);
                        }
                    }
                    Admission::Shed | Admission::Infeasible => {}
                }
            }
            // Drain in predicted-completion order (the model world the
            // EASY rule reasons in).
            let mut guard = 0;
            while !s.residency().is_empty() {
                let next = s
                    .residency()
                    .reservations()
                    .min_by(|a, b| {
                        a.predicted_end.total_cmp(&b.predicted_end).then(a.seq.cmp(&b.seq))
                    })
                    .map(|r| r.job)
                    .unwrap();
                for (job, _) in s.release(next).unwrap() {
                    starts.push((job, s.virtual_now()));
                }
                guard += 1;
                assert!(guard < 10_000, "drain must terminate");
            }
            (first_queued, starts)
        };
        let (head_fifo, starts_fifo) = drive(false);
        let (head_bf, starts_bf) = drive(true);
        assert_eq!(head_fifo, head_bf, "same stream, same first queued job");
        if let Some(head) = head_fifo {
            let start_of =
                |log: &[(u64, f64)]| log.iter().find(|(j, _)| *j == head).map(|(_, t)| *t);
            let fifo = start_of(&starts_fifo);
            let bf = start_of(&starts_bf);
            assert_eq!(
                fifo.map(f64::to_bits),
                bf.map(f64::to_bits),
                "head start must be bit-identical with and without backfill \
             (fifo {:?} vs backfill {:?})",
                fifo,
                bf
            );
        }
    });
}
/// Before every submit of a random submit/complete stream,
/// `place_against` on the live view decides exactly what the
/// from-scratch oracle decides — at 1, 2 and 8 scan workers.
#[test]
fn place_against_matches_the_from_scratch_oracle() {
    check(CASES, |g| {
        let events = g.vec(1..16, |g| (g.range(0u8..3), g.range(0usize..7), g.range(0usize..8)));
        let nodes = g.range(2usize..4);
        let base = base_config();
        // One cache across every call of the stream, as the
        // co-scheduler holds one: warmed by other shapes and other
        // worker counts, it must never move a bit of a decision.
        let solves = Arc::new(SolveCache::new(&base));
        let mut s = sched(nodes, true);
        let mut next_job = 0u64;
        for (kind, shape, k) in events {
            if kind == 2 {
                if let Some(job) = pick_open(&s, k) {
                    s.release(job).unwrap();
                }
                continue;
            }
            let shape = shape_palette(shape);
            let want = oracle_place(&shape, s.residency(), &base);
            let view = s.residency().view();
            for workers in [1usize, 2, 8] {
                let opts = ScanOptions { workers, chunk: 3, ..ScanOptions::default() };
                let got = place_against(&shape, &view, &base, &solves, &opts).unwrap().map(|d| {
                    (
                        d.assignment,
                        d.canonical,
                        d.objective.to_bits(),
                        d.solo_makespan.to_bits(),
                        d.scanned,
                        d.feasible,
                    )
                });
                assert_eq!(&got, &want, "workers={} open={}", workers, s.residency().open());
            }
            next_job += 1;
            s.submit(next_job, shape).unwrap();
        }
    });
}

/// Every decision `place_against` takes on a random submit/complete
/// stream, checked against one zero-jitter DES run of residents and job
/// as a single ensemble: each member's `σ̄*` is the closed form's to
/// 1e-6, and the decision's objective is the DES report's score to the
/// 1e-4 the from-scratch evaluator's own DES check allows.
#[test]
fn co_resident_decisions_match_a_des_run_of_the_whole_machine() {
    check(CASES, |g| {
        let events = g.vec(1..12, |g| (g.range(0u8..3), g.range(0usize..7), g.range(0usize..8)));
        let nodes = g.range(2usize..4);
        let base = base_config();
        let solves = Arc::new(SolveCache::new(&base));
        let opts = ScanOptions { workers: 1, ..ScanOptions::default() };
        let mut s = sched(nodes, true);
        let mut next_job = 0u64;
        for (kind, shape, k) in events {
            if kind == 2 {
                if let Some(job) = pick_open(&s, k) {
                    s.release(job).unwrap();
                }
                continue;
            }
            let shape = shape_palette(shape);
            let view = s.residency().view();
            if let Some(decision) = place_against(&shape, &view, &base, &solves, &opts).unwrap() {
                let mut members: Vec<_> = s
                    .residency()
                    .reservations()
                    .flat_map(|r| r.shape.materialize(&r.assignment).members)
                    .collect();
                members.extend(shape.materialize(&decision.assignment).members);
                let mut cfg = base.clone();
                cfg.spec = EnsembleSpec::new(members);
                cfg.n_steps = 8;
                cfg.jitter = 0.0;
                let predicted = runtime::predict(&cfg).unwrap();
                let exec = runtime::run_simulated(&cfg).unwrap();
                let report = runtime::build_report(
                    "co-resident",
                    &cfg.spec,
                    &exec,
                    cfg.n_steps,
                    WarmupPolicy::default(),
                )
                .unwrap();
                for (i, (p, m)) in predicted.members.iter().zip(&report.members).enumerate() {
                    let rel = (p.sigma_star - m.sigma_star).abs() / m.sigma_star;
                    assert!(rel < 1e-6, "member {i}: σ̄* {} vs DES {}", p.sigma_star, m.sigma_star);
                }
                let des = score_report(
                    &report,
                    &cfg.spec,
                    &IndicatorPath::uap(),
                    Aggregation::MeanMinusStd,
                );
                let rel = (decision.objective - des).abs() / des.abs().max(1e-12);
                assert!(rel < 1e-4, "decision F {} vs DES {des}", decision.objective);
            }
            next_job += 1;
            s.submit(next_job, shape).unwrap();
        }
    });
}
