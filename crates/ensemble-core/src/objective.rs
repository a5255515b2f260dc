//! The ensemble-level objective (paper §5.1, Eq. 9):
//!
//! ```text
//! F(P) = P̄ − √( (1/N) Σᵢ (Pᵢ − P̄)² )
//! ```
//!
//! mean minus **population** standard deviation — penalizing
//! configurations whose members perform unevenly, because the ensemble
//! makespan is the *maximum* member makespan.

/// Aggregation strategies; [`Aggregation::MeanMinusStd`] is Eq. 9, the
/// others exist for the objective ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// Eq. 9: mean − population standard deviation.
    #[default]
    MeanMinusStd,
    /// Plain mean (ignores member variability).
    Mean,
    /// Worst member (most conservative).
    Min,
}

/// Evaluates the chosen aggregation over per-member indicator values.
///
/// Every aggregation is a symmetric function of the members, so it is
/// folded in one order that does not depend on theirs: `values` are
/// sorted in place by [`f64::total_cmp`] first. `total_cmp` tells every
/// two bit patterns apart, so every permutation of one multiset of
/// values sorts to the same sequence and folds to the same bits — two
/// placements that differ only in which member is which score exactly
/// alike.
///
/// # Panics
/// Panics on an empty slice — an ensemble has at least one member.
pub fn aggregate(values: &mut [f64], how: Aggregation) -> f64 {
    assert!(!values.is_empty(), "objective needs at least one member value");
    sort(values);
    match how {
        Aggregation::MeanMinusStd => {
            let m = mean(values);
            let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
            m - var.sqrt()
        }
        Aggregation::Mean => mean(values),
        Aggregation::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
    }
}

/// Eq. 9, over a sorted copy of `values` ([`aggregate`]).
pub fn objective(values: &[f64]) -> f64 {
    aggregate(&mut values.to_vec(), Aggregation::MeanMinusStd)
}

/// Most values [`sort`] puts through its network.
const NETWORK: usize = 16;

/// Sorts `values` by [`f64::total_cmp`]. Up to [`NETWORK`] values — every
/// ensemble a scan scores — go through an odd-even transposition network
/// on `total_cmp`'s own integer keys, which branches on no value: a
/// comparison sort mispredicts on member values, and took about twice as
/// long on six of them (a scan sorts once per candidate). More go
/// through the standard sort.
fn sort(values: &mut [f64]) {
    let n = values.len();
    if n > NETWORK {
        values.sort_unstable_by(f64::total_cmp);
        return;
    }
    // `total_cmp`'s key: flip every bit but the sign of a negative
    // value, so signed-integer order is its order. The flip undoes itself.
    let key = |bits: i64| bits ^ (((bits >> 63) as u64) >> 1) as i64;
    let mut keys = [0i64; NETWORK];
    for (k, v) in keys.iter_mut().zip(values.iter()) {
        *k = key(v.to_bits() as i64);
    }
    // `n` rounds of compare-exchange on alternating neighbour pairs sort
    // `n` keys.
    for round in 0..n {
        let mut i = round % 2;
        while i + 1 < n {
            let (a, b) = (keys[i], keys[i + 1]);
            keys[i] = a.min(b);
            keys[i + 1] = a.max(b);
            i += 2;
        }
    }
    for (v, &k) in values.iter_mut().zip(keys.iter()) {
        *v = f64::from_bits(key(k) as u64);
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_member_is_its_own_objective() {
        assert!((objective(&[0.42]) - 0.42).abs() < 1e-15);
    }

    #[test]
    fn uniform_members_lose_nothing() {
        assert!((objective(&[0.3, 0.3, 0.3]) - 0.3).abs() < 1e-15);
    }

    #[test]
    fn variability_is_penalized() {
        let even = objective(&[0.5, 0.5]);
        let uneven = objective(&[0.9, 0.1]);
        assert!(even > uneven, "same mean, higher spread must score lower");
        // Hand computation: mean 0.5, std 0.4.
        assert!((uneven - 0.1).abs() < 1e-12);
    }

    #[test]
    fn population_std_is_used() {
        // Sample std of [2, 4] is √2; population std is 1. Eq. 9 uses N.
        assert!((objective(&[2.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregations_differ_where_expected() {
        let v = || [0.9, 0.1];
        assert!((aggregate(&mut v(), Aggregation::Mean) - 0.5).abs() < 1e-12);
        assert!((aggregate(&mut v(), Aggregation::Min) - 0.1).abs() < 1e-12);
        let eq9 = aggregate(&mut v(), Aggregation::MeanMinusStd);
        assert!(eq9 < aggregate(&mut v(), Aggregation::Mean));
    }

    #[test]
    fn objective_can_go_negative_on_extreme_spread() {
        // One fast, one starving member: mean 0.5 of {0, 1}, std 0.5 → 0.
        assert!(objective(&[0.0, 1.0]).abs() < 1e-12);
        assert!(objective(&[0.0, 0.0, 3.0]) < 0.0);
    }

    #[test]
    fn the_network_sorts_as_total_cmp_does() {
        let specials = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for n in 0..=2 * NETWORK + 1 {
            for _ in 0..50 {
                let mut values: Vec<f64> = (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        match state % 4 {
                            0 => specials[(state >> 8) as usize % specials.len()],
                            1 => f64::from_bits(state | 0x7ff0_0000_0000_0001),
                            _ => f64::from_bits(state),
                        }
                    })
                    .collect();
                let mut want = values.clone();
                want.sort_unstable_by(f64::total_cmp);
                sort(&mut values);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&values), bits(&want), "{n} values");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_values_panic() {
        objective(&[]);
    }
}
