//! Property-based tests of the weighted fair dequeuer
//! ([`svc::FairQueue`]): the guarantees the module docs promise —
//! per-lane FIFO, work conservation, bounded waiting (no starvation
//! within one weighted round), and bit-identical determinism — hold for
//! arbitrary push sequences, not just the handpicked unit-test shapes.

use std::collections::BTreeMap;

use svc::FairQueue;
use testkit::{check, Gen};

const LANES: [&str; 4] = ["a", "b", "c", "d"];

/// A random assignment of items to lanes: index into [`LANES`], with
/// one extra slot meaning the implicit untagged lane.
fn pushes(g: &mut Gen) -> Vec<usize> {
    g.vec(1..=80, |g| g.range(0..=LANES.len()))
}

/// A weight of 1–4 for every lane.
fn lane_weights(g: &mut Gen) -> BTreeMap<String, u64> {
    LANES.iter().map(|l| (l.to_string(), g.range(1u64..=4))).collect()
}

fn lane_of(idx: usize) -> Option<&'static str> {
    LANES.get(idx).copied()
}

/// Drains the queue after pushing `seq`, returning `(lane_idx, item)`
/// in pop order. Items are numbered by push position, so order checks
/// fall out of integer comparisons.
fn drain(seq: &[usize], weights: &BTreeMap<String, u64>) -> Vec<(usize, usize)> {
    let q = FairQueue::new(seq.len().max(1), weights.clone());
    for (item, &lane) in seq.iter().enumerate() {
        q.try_push(lane_of(lane), (lane, item)).expect("capacity covers the whole sequence");
    }
    q.close();
    std::iter::from_fn(|| q.pop()).collect()
}

const CASES: u32 = 256;

#[test]
fn per_lane_order_is_fifo_and_nothing_is_lost_or_duplicated() {
    check(CASES, |g| {
        let (seq, weights) = (pushes(g), lane_weights(g));
        let drained = drain(&seq, &weights);

        // Work conservation: every pushed item comes out exactly once.
        let mut seen: Vec<usize> = drained.iter().map(|&(_, item)| item).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..seq.len()).collect::<Vec<_>>());

        // FIFO within each lane: the subsequence of any one lane is in
        // push order.
        for lane in 0..=LANES.len() {
            let order: Vec<usize> =
                drained.iter().filter(|&&(l, _)| l == lane).map(|&(_, item)| item).collect();
            assert!(
                order.windows(2).all(|p| p[0] < p[1]),
                "lane {lane} popped out of push order: {order:?}"
            );
        }
    });
}

#[test]
fn no_lane_waits_longer_than_one_weighted_round() {
    check(CASES, |g| {
        let (seq, weights) = (pushes(g), lane_weights(g));
        let drained = drain(&seq, &weights);
        let weight_of = |lane: usize| -> u64 { LANES.get(lane).map_or(1, |l| weights[*l]) };
        // Replay the drain against per-lane backlog counts: while a
        // lane has items, at most one full weighted round (the sum of
        // every *other* lane's weight) of foreign pops may pass before
        // it is served again.
        let mut backlog = vec![0u64; LANES.len() + 1];
        for &lane in &seq {
            backlog[lane] += 1;
        }
        let mut waited = vec![0u64; LANES.len() + 1];
        for &(popped, _) in &drained {
            for lane in 0..backlog.len() {
                if lane == popped || backlog[lane] == 0 {
                    continue;
                }
                waited[lane] += 1;
                let round: u64 = (0..backlog.len()).filter(|&l| l != lane).map(weight_of).sum();
                assert!(
                    waited[lane] <= round,
                    "lane {lane} starved: waited {} pops, one weighted round is {round}",
                    waited[lane]
                );
            }
            waited[popped] = 0;
            backlog[popped] -= 1;
        }
    });
}

#[test]
fn identical_push_sequences_pop_bit_identically() {
    check(CASES, |g| {
        let (seq, weights) = (pushes(g), lane_weights(g));
        // Determinism is the foundation of the reproducible-admission
        // acceptance bar: no clocks, hashes, or randomness may leak
        // into pop order.
        assert_eq!(drain(&seq, &weights), drain(&seq, &weights));
    });
}

#[test]
fn single_lane_degenerates_to_plain_fifo() {
    check(CASES, |g| {
        let seq = pushes(g);
        // The inactive-policy wire-compatibility argument: one lane in,
        // exact FIFO out, whatever the weight table says about tenants
        // that never show up.
        let weights: BTreeMap<String, u64> = LANES.iter().map(|l| (l.to_string(), 3)).collect();
        let untagged: Vec<usize> = seq.iter().map(|_| LANES.len()).collect();
        let drained = drain(&untagged, &weights);
        let items: Vec<usize> = drained.iter().map(|&(_, item)| item).collect();
        assert_eq!(items, (0..seq.len()).collect::<Vec<_>>());
    });
}
