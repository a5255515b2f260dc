//! Fine-grained execution stages of the in situ model (paper §3.1).
//!
//! Every simulation step decomposes into `S → Iˢ → W`; every analysis
//! step into `R → A → Iᴬ`. Steady-state (starred) per-stage durations
//! are carried by [`MemberStageTimes`].

use crate::error::ModelError;

/// The six fine-grained stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// `S` — simulation compute.
    Simulate,
    /// `Iˢ` — simulation idle (waiting to stage).
    SimIdle,
    /// `W` — write to the DTL.
    Write,
    /// `R` — read from the DTL.
    Read,
    /// `A` — analysis compute.
    Analyze,
    /// `Iᴬ` — analysis idle (waiting for the next chunk).
    AnaIdle,
}

impl StageKind {
    /// The paper's three sub-groups: computational, I/O, and idle stages.
    pub fn group(self) -> StageGroup {
        match self {
            StageKind::Simulate | StageKind::Analyze => StageGroup::Computational,
            StageKind::Write | StageKind::Read => StageGroup::Io,
            StageKind::SimIdle | StageKind::AnaIdle => StageGroup::Idle,
        }
    }

    /// Short label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Simulate => "S",
            StageKind::SimIdle => "I^S",
            StageKind::Write => "W",
            StageKind::Read => "R",
            StageKind::Analyze => "A",
            StageKind::AnaIdle => "I^A",
        }
    }
}

/// The stage sub-groups of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageGroup {
    /// `S`, `A`.
    Computational,
    /// `W`, `R`.
    Io,
    /// `Iˢ`, `Iᴬ`.
    Idle,
}

/// Steady-state stage durations of one coupling's analysis side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisStageTimes {
    /// `R*` — read stage, seconds.
    pub r: f64,
    /// `A*` — analyze stage, seconds.
    pub a: f64,
}

impl AnalysisStageTimes {
    /// `R* + A*`: the non-idle span of the analysis step.
    pub fn busy(&self) -> f64 {
        self.r + self.a
    }
}

/// Steady-state stage durations of one ensemble member: the starred
/// quantities of §3.1 feeding Equations 1–3.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberStageTimes {
    /// `S*` — simulation compute, seconds.
    pub s: f64,
    /// `W*` — write stage, seconds.
    pub w: f64,
    /// `(R*, A*)` per coupled analysis, in coupling order.
    pub analyses: Vec<AnalysisStageTimes>,
}

impl MemberStageTimes {
    /// Builds and validates stage times.
    pub fn new(s: f64, w: f64, analyses: Vec<AnalysisStageTimes>) -> Result<Self, ModelError> {
        let t = MemberStageTimes { s, w, analyses };
        t.validate()?;
        Ok(t)
    }

    /// `S* + W*`: the non-idle span of the simulation step.
    pub fn sim_busy(&self) -> f64 {
        self.s + self.w
    }

    /// Number of couplings `K`.
    pub fn k(&self) -> usize {
        self.analyses.len()
    }

    /// Checks all durations are finite and non-negative and `K ≥ 1`.
    pub fn validate(&self) -> Result<(), ModelError> {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        if !ok(self.s) || !ok(self.w) {
            return Err(ModelError::InvalidStageTimes {
                detail: format!("S*={}, W*={}", self.s, self.w),
            });
        }
        if self.analyses.is_empty() {
            return Err(ModelError::InvalidStageTimes { detail: "no couplings".into() });
        }
        for (j, a) in self.analyses.iter().enumerate() {
            if !ok(a.r) || !ok(a.a) {
                return Err(ModelError::InvalidStageTimes {
                    detail: format!("coupling {}: R*={}, A*={}", j + 1, a.r, a.a),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_match_paper() {
        assert_eq!(StageKind::Simulate.group(), StageGroup::Computational);
        assert_eq!(StageKind::Analyze.group(), StageGroup::Computational);
        assert_eq!(StageKind::Write.group(), StageGroup::Io);
        assert_eq!(StageKind::Read.group(), StageGroup::Io);
        assert_eq!(StageKind::SimIdle.group(), StageGroup::Idle);
        assert_eq!(StageKind::AnaIdle.group(), StageGroup::Idle);
    }

    #[test]
    fn busy_spans() {
        let t =
            MemberStageTimes::new(20.0, 0.5, vec![AnalysisStageTimes { r: 0.3, a: 15.0 }]).unwrap();
        assert!((t.sim_busy() - 20.5).abs() < 1e-12);
        assert!((t.analyses[0].busy() - 15.3).abs() < 1e-12);
        assert_eq!(t.k(), 1);
    }

    #[test]
    fn invalid_times_rejected() {
        assert!(
            MemberStageTimes::new(-1.0, 0.0, vec![AnalysisStageTimes { r: 0.0, a: 1.0 }]).is_err()
        );
        assert!(MemberStageTimes::new(1.0, 0.0, vec![]).is_err());
        assert!(MemberStageTimes::new(1.0, 0.0, vec![AnalysisStageTimes { r: f64::NAN, a: 1.0 }])
            .is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(StageKind::Simulate.label(), "S");
        assert_eq!(StageKind::AnaIdle.label(), "I^A");
    }
}
