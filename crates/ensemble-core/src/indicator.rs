//! The multi-stage performance indicators of paper §4:
//!
//! * Eq. 5 — resource **U**sage: `Pᵁ = E / c`;
//! * Eq. 7 — resource **A**llocation: `Pᵁ·ᴬ = Pᵁ × CP`;
//! * Eq. 8 — resource **P**rovisioning: `Pᵁ·ᴬ·ᴾ = Pᵁ·ᴬ / M`;
//! * and the alternative order `Pᵁ → Pᵁ·ᴾ → Pᵁ·ᴾ·ᴬ` explored in §5.2
//!   (the two orders commute to the same final value).

use crate::ensemble::EnsembleSpec;
use crate::member::MemberSpec;
use crate::placement::placement_indicator;

/// A refinement stage of the indicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndicatorStage {
    /// Resource usage (always first): divide efficiency by member cores.
    Usage,
    /// Resource allocation: multiply by the placement indicator `CPᵢ`.
    Allocation,
    /// Resource provisioning: divide by the ensemble node count `M`.
    Provisioning,
}

impl IndicatorStage {
    /// The paper's letter for the stage.
    pub fn letter(self) -> &'static str {
        match self {
            IndicatorStage::Usage => "U",
            IndicatorStage::Allocation => "A",
            IndicatorStage::Provisioning => "P",
        }
    }
}

/// An ordered sequence of stages, e.g. `U → A → P`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndicatorPath(pub Vec<IndicatorStage>);

impl IndicatorPath {
    /// `U` only (Eq. 5).
    pub fn u() -> Self {
        IndicatorPath(vec![IndicatorStage::Usage])
    }

    /// `U → A` (Eq. 7).
    pub fn ua() -> Self {
        IndicatorPath(vec![IndicatorStage::Usage, IndicatorStage::Allocation])
    }

    /// `U → P` (path 1 of §5.2).
    pub fn up() -> Self {
        IndicatorPath(vec![IndicatorStage::Usage, IndicatorStage::Provisioning])
    }

    /// `U → A → P` (Eq. 8).
    pub fn uap() -> Self {
        IndicatorPath(vec![
            IndicatorStage::Usage,
            IndicatorStage::Allocation,
            IndicatorStage::Provisioning,
        ])
    }

    /// `U → P → A` (path 1's final stage; equals `U → A → P`).
    pub fn upa() -> Self {
        IndicatorPath(vec![
            IndicatorStage::Usage,
            IndicatorStage::Provisioning,
            IndicatorStage::Allocation,
        ])
    }

    /// Label like "U,A,P".
    pub fn label(&self) -> String {
        self.0.iter().map(|s| s.letter()).collect::<Vec<_>>().join(",")
    }
}

/// The per-member inputs the indicator consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberInputs {
    /// Computational efficiency `Eᵢ` (Eq. 3).
    pub efficiency: f64,
    /// Total cores `cᵢ`.
    pub cores: u32,
    /// Placement indicator `CPᵢ` (Eq. 6).
    pub cp: f64,
    /// Ensemble node count `M`.
    pub ensemble_nodes: usize,
}

impl MemberInputs {
    /// Gathers inputs from a member spec, its ensemble, and its measured
    /// efficiency.
    pub fn from_specs(member: &MemberSpec, ensemble: &EnsembleSpec, efficiency: f64) -> Self {
        MemberInputs {
            efficiency,
            cores: member.total_cores(),
            cp: placement_indicator(member),
            ensemble_nodes: ensemble.num_nodes(),
        }
    }
}

/// Evaluates the indicator after applying the stages of `path` in order.
///
/// # Panics
/// Panics if `Usage` is not the first stage or a stage repeats — the
/// paper's methodology always starts from `Pᵁ`.
pub fn indicator(inputs: &MemberInputs, path: &IndicatorPath) -> f64 {
    assert!(
        path.0.first() == Some(&IndicatorStage::Usage),
        "indicator paths start at the Usage stage"
    );
    let mut seen = [false; 3];
    let mut value = 0.0;
    for (idx, stage) in path.0.iter().enumerate() {
        let slot = *stage as usize;
        assert!(!seen[slot], "indicator stage {stage:?} applied twice");
        seen[slot] = true;
        value = match stage {
            IndicatorStage::Usage => {
                assert_eq!(idx, 0);
                assert!(inputs.cores > 0, "member must use at least one core");
                inputs.efficiency / inputs.cores as f64
            }
            IndicatorStage::Allocation => value * inputs.cp,
            IndicatorStage::Provisioning => {
                assert!(inputs.ensemble_nodes > 0, "ensemble must use at least one node");
                value / inputs.ensemble_nodes as f64
            }
        };
    }
    value
}

/// Convenience: Eq. 5.
pub fn p_u(inputs: &MemberInputs) -> f64 {
    indicator(inputs, &IndicatorPath::u())
}

/// Convenience: Eq. 7.
pub fn p_ua(inputs: &MemberInputs) -> f64 {
    indicator(inputs, &IndicatorPath::ua())
}

/// Convenience: Eq. 8 (the full indicator).
pub fn p_uap(inputs: &MemberInputs) -> f64 {
    indicator(inputs, &IndicatorPath::uap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSpec;

    fn inputs() -> MemberInputs {
        MemberInputs { efficiency: 0.8, cores: 24, cp: 0.5, ensemble_nodes: 3 }
    }

    #[test]
    fn eq5_usage() {
        assert!((p_u(&inputs()) - 0.8 / 24.0).abs() < 1e-15);
    }

    #[test]
    fn eq7_allocation() {
        assert!((p_ua(&inputs()) - 0.8 / 24.0 * 0.5).abs() < 1e-15);
    }

    #[test]
    fn eq8_full() {
        assert!((p_uap(&inputs()) - 0.8 / 24.0 * 0.5 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn stage_orders_commute() {
        let i = inputs();
        let uap = indicator(&i, &IndicatorPath::uap());
        let upa = indicator(&i, &IndicatorPath::upa());
        assert!((uap - upa).abs() < 1e-18, "P^UAP must equal P^UPA");
    }

    #[test]
    fn path_labels() {
        assert_eq!(IndicatorPath::uap().label(), "U,A,P");
        assert_eq!(IndicatorPath::up().label(), "U,P");
    }

    #[test]
    fn from_specs_gathers_cp_and_m() {
        let member = crate::member::MemberSpec::new(
            ComponentSpec::simulation(16, 0),
            vec![ComponentSpec::analysis(8, 2)],
        );
        let other = crate::member::MemberSpec::new(
            ComponentSpec::simulation(16, 1),
            vec![ComponentSpec::analysis(8, 2)],
        );
        let ensemble = crate::ensemble::EnsembleSpec::new(vec![member.clone(), other]);
        let i = MemberInputs::from_specs(&member, &ensemble, 0.9);
        assert_eq!(i.cores, 24);
        assert!((i.cp - 0.5).abs() < 1e-12);
        assert_eq!(i.ensemble_nodes, 3);
        assert_eq!(i.efficiency, 0.9);
    }

    #[test]
    fn higher_colocation_scores_higher() {
        let mut tight = inputs();
        tight.cp = 1.0;
        tight.ensemble_nodes = 2;
        assert!(p_uap(&tight) > p_uap(&inputs()));
    }

    #[test]
    #[should_panic(expected = "start at the Usage stage")]
    fn path_must_start_with_usage() {
        indicator(&inputs(), &IndicatorPath(vec![IndicatorStage::Allocation]));
    }

    #[test]
    #[should_panic(expected = "applied twice")]
    fn repeated_stage_panics() {
        indicator(&inputs(), &IndicatorPath(vec![IndicatorStage::Usage, IndicatorStage::Usage]));
    }
}
