//! Steady-state extraction (paper §3.1): "after a few warm-up steps,
//! executions reach a steady-state where each stage has a similar
//! execution time as measured over many steps" — so per-step samples are
//! reduced to starred stage times by dropping warm-up and averaging.

use crate::error::ModelError;
use crate::stage::{AnalysisStageTimes, MemberStageTimes};

/// Per-step stage-duration samples of one member's execution.
#[derive(Debug, Clone, Default)]
pub struct MemberStepSamples {
    /// `S` durations per in situ step.
    pub s: Vec<f64>,
    /// `W` durations per in situ step.
    pub w: Vec<f64>,
    /// `(R, A)` duration series per coupled analysis.
    pub analyses: Vec<(Vec<f64>, Vec<f64>)>,
}

/// How warm-up steps are excluded before averaging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmupPolicy {
    /// Drop a fixed number of leading steps.
    FixedSteps(usize),
    /// Drop a leading fraction (0.0–0.9) of the steps.
    Fraction(f64),
}

impl Default for WarmupPolicy {
    fn default() -> Self {
        // The paper's executions stabilize within a few steps.
        WarmupPolicy::FixedSteps(2)
    }
}

impl WarmupPolicy {
    /// Number of samples to skip for a series of length `n`. Never skips
    /// everything: at least one sample survives.
    pub fn skip_count(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let skip = match *self {
            WarmupPolicy::FixedSteps(k) => k,
            WarmupPolicy::Fraction(f) => ((n as f64) * f.clamp(0.0, 0.9)).floor() as usize,
        };
        skip.min(n - 1)
    }
}

fn steady_mean(series: &[f64], policy: WarmupPolicy) -> Result<f64, ModelError> {
    if series.is_empty() {
        return Err(ModelError::InvalidStageTimes { detail: "empty stage series".into() });
    }
    if series.iter().any(|v| !v.is_finite() || *v < 0.0) {
        return Err(ModelError::InvalidStageTimes {
            detail: "negative or non-finite stage sample".into(),
        });
    }
    let skip = policy.skip_count(series.len());
    let tail = &series[skip..];
    Ok(tail.iter().sum::<f64>() / tail.len() as f64)
}

/// Reduces per-step samples to steady-state [`MemberStageTimes`].
pub fn extract_steady_state(
    samples: &MemberStepSamples,
    policy: WarmupPolicy,
) -> Result<MemberStageTimes, ModelError> {
    let s = steady_mean(&samples.s, policy)?;
    let w = steady_mean(&samples.w, policy)?;
    let mut analyses = Vec::with_capacity(samples.analyses.len());
    for (r_series, a_series) in &samples.analyses {
        analyses.push(AnalysisStageTimes {
            r: steady_mean(r_series, policy)?,
            a: steady_mean(a_series, policy)?,
        });
    }
    MemberStageTimes::new(s, w, analyses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_excluded_from_mean() {
        // First two steps are cold (slow); steady value is 10.
        let samples = MemberStepSamples {
            s: vec![30.0, 20.0, 10.0, 10.0, 10.0],
            w: vec![1.0; 5],
            analyses: vec![(vec![0.5; 5], vec![8.0; 5])],
        };
        let t = extract_steady_state(&samples, WarmupPolicy::FixedSteps(2)).unwrap();
        assert!((t.s - 10.0).abs() < 1e-12);
        assert!((t.w - 1.0).abs() < 1e-12);
        assert!((t.analyses[0].a - 8.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_policy() {
        assert_eq!(WarmupPolicy::Fraction(0.25).skip_count(8), 2);
        assert_eq!(WarmupPolicy::Fraction(0.99).skip_count(10), 9, "clamped to 0.9");
        assert_eq!(WarmupPolicy::Fraction(0.5).skip_count(1), 0);
    }

    #[test]
    fn never_skips_everything() {
        assert_eq!(WarmupPolicy::FixedSteps(100).skip_count(3), 2);
        let samples = MemberStepSamples {
            s: vec![5.0],
            w: vec![0.1],
            analyses: vec![(vec![0.1], vec![4.0])],
        };
        let t = extract_steady_state(&samples, WarmupPolicy::FixedSteps(100)).unwrap();
        assert!((t.s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_rejected() {
        let samples = MemberStepSamples::default();
        assert!(extract_steady_state(&samples, WarmupPolicy::default()).is_err());
    }

    #[test]
    fn bad_samples_rejected() {
        let samples = MemberStepSamples {
            s: vec![1.0, f64::NAN],
            w: vec![0.1, 0.1],
            analyses: vec![(vec![0.1, 0.1], vec![1.0, 1.0])],
        };
        assert!(extract_steady_state(&samples, WarmupPolicy::FixedSteps(0)).is_err());
    }
}
