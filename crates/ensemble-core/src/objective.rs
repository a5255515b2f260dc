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
/// # Panics
/// Panics on an empty slice — an ensemble has at least one member.
pub fn aggregate(values: &[f64], how: Aggregation) -> f64 {
    assert!(!values.is_empty(), "objective needs at least one member value");
    match how {
        Aggregation::MeanMinusStd => objective(values),
        Aggregation::Mean => mean(values),
        Aggregation::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
    }
}

/// Eq. 9.
pub fn objective(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "objective needs at least one member value");
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    m - var.sqrt()
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
        let v = [0.9, 0.1];
        assert!((aggregate(&v, Aggregation::Mean) - 0.5).abs() < 1e-12);
        assert!((aggregate(&v, Aggregation::Min) - 0.1).abs() < 1e-12);
        assert!(aggregate(&v, Aggregation::MeanMinusStd) < aggregate(&v, Aggregation::Mean));
    }

    #[test]
    fn objective_can_go_negative_on_extreme_spread() {
        // One fast, one starving member: mean 0.5 of {0, 1}, std 0.5 → 0.
        assert!(objective(&[0.0, 1.0]).abs() < 1e-12);
        assert!(objective(&[0.0, 0.0, 3.0]) < 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_values_panic() {
        objective(&[]);
    }
}
