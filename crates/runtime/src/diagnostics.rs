//! Automated performance diagnostics over ensemble reports.
//!
//! The paper's motivation (§2.3): "to identify stragglers among the
//! members one would need to diligently inspect and relate the
//! independent measurements." This module automates that inspection —
//! it relates the model quantities the report already carries and emits
//! typed findings with plain-language explanations.

use ensemble_core::CouplingScenario;
use metrics::EnsembleReport;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational observation.
    Info,
    /// Measurable inefficiency worth attention.
    Warning,
    /// Dominant cause of ensemble slowdown.
    Critical,
}

/// One diagnostic finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// How serious it is.
    pub severity: Severity,
    /// Machine-readable kind.
    pub kind: FindingKind,
    /// Member the finding concerns (None = ensemble-wide).
    pub member: Option<usize>,
    /// Human-readable explanation with numbers.
    pub detail: String,
}

/// The kinds of findings the analyzer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A member's makespan dominates the ensemble makespan.
    StragglerMember,
    /// A coupling where the simulation waits on a slow analysis.
    AnalysisBottleneck,
    /// A member burning efficiency on idle analyses.
    OverProvisionedAnalysis,
    /// Low placement indicator: components spread over many nodes.
    ScatteredPlacement,
    /// Frames were dropped (in-transit runs).
    LostFrames,
    /// Eq. 2's model disagrees with the measured makespan.
    ModelDivergence,
    /// Everything looks healthy.
    Healthy,
}

/// Thresholds of the analyzer.
#[derive(Debug, Clone)]
pub struct DiagnosticConfig {
    /// A member is a straggler when its makespan exceeds the best
    /// member's by this fraction.
    pub straggler_fraction: f64,
    /// An analysis is over-provisioned when its coupling efficiency
    /// contribution (busy/σ̄*) falls below this.
    pub idle_fraction: f64,
    /// CP below this flags a scattered placement.
    pub scattered_cp: f64,
    /// Relative Eq. 2 divergence that flags the model.
    pub model_divergence: f64,
}

impl Default for DiagnosticConfig {
    fn default() -> Self {
        DiagnosticConfig {
            straggler_fraction: 0.05,
            idle_fraction: 0.5,
            scattered_cp: 0.6,
            model_divergence: 0.10,
        }
    }
}

/// Analyzes a report and returns findings ordered most-severe first.
pub fn diagnose(report: &EnsembleReport, config: &DiagnosticConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let best_makespan = report.members.iter().map(|m| m.makespan).fold(f64::INFINITY, f64::min);

    for m in &report.members {
        let label = m.member + 1;
        // Stragglers.
        if report.members.len() > 1
            && m.makespan > best_makespan * (1.0 + config.straggler_fraction)
        {
            findings.push(Finding {
                severity: Severity::Critical,
                kind: FindingKind::StragglerMember,
                member: Some(m.member),
                detail: format!(
                    "member {label} finishes in {:.1}s, {:.1}% behind the fastest member \
                     ({best_makespan:.1}s); the ensemble makespan is pinned to it",
                    m.makespan,
                    (m.makespan / best_makespan - 1.0) * 100.0
                ),
            });
        }
        // Coupling analysis.
        let sigma = m.sigma_star;
        for (j, scenario) in m.scenarios.iter().enumerate() {
            let busy = m.stage_times.analyses[j].busy();
            match scenario {
                CouplingScenario::IdleSimulation => {
                    // Quantify the fix with Eq. 4's boundary: how much
                    // faster must this analysis get to stop dominating?
                    let needed = ensemble_core::factor_to_unblock(&m.stage_times, j)
                        .map(|f| {
                            format!(
                                "its A* must shrink to {:.0}% (≈ {:.1}x more effective cores)",
                                f * 100.0,
                                1.0 / f.max(1e-9)
                            )
                        })
                        .unwrap_or_else(|| {
                            "even a zero-cost analysis would still dominate via R*".into()
                        });
                    findings.push(Finding {
                        severity: Severity::Warning,
                        kind: FindingKind::AnalysisBottleneck,
                        member: Some(m.member),
                        detail: format!(
                            "member {label}, analysis {}: R*+A* = {busy:.2}s exceeds the \
                             simulation's S*+W* = {:.2}s — the simulation idles every step; \
                             to satisfy Eq. 4, {needed}",
                            j + 1,
                            m.stage_times.sim_busy()
                        ),
                    });
                }
                CouplingScenario::IdleAnalyzer => {
                    if busy / sigma < config.idle_fraction {
                        findings.push(Finding {
                            severity: Severity::Info,
                            kind: FindingKind::OverProvisionedAnalysis,
                            member: Some(m.member),
                            detail: format!(
                                "member {label}, analysis {}: busy only {:.0}% of the in situ \
                                 step — cores could be reclaimed without hurting the makespan",
                                j + 1,
                                busy / sigma * 100.0
                            ),
                        });
                    }
                }
                CouplingScenario::Balanced => {}
            }
        }
        // Placement.
        if m.cp < config.scattered_cp {
            findings.push(Finding {
                severity: Severity::Warning,
                kind: FindingKind::ScatteredPlacement,
                member: Some(m.member),
                detail: format!(
                    "member {label}: placement indicator CP = {:.2} — components spread over \
                     dedicated nodes; co-locating them raises P^(U,A) (paper §4.3)",
                    m.cp
                ),
            });
        }
        // Lost frames.
        if m.lost_frames > 0 {
            findings.push(Finding {
                severity: Severity::Warning,
                kind: FindingKind::LostFrames,
                member: Some(m.member),
                detail: format!(
                    "member {label} dropped {} of {} frames under in-transit backpressure",
                    m.lost_frames, report.n_steps
                ),
            });
        }
        // Model agreement.
        if m.makespan > 0.0 {
            let divergence = (m.makespan_model - m.makespan).abs() / m.makespan;
            if divergence > config.model_divergence {
                findings.push(Finding {
                    severity: Severity::Info,
                    kind: FindingKind::ModelDivergence,
                    member: Some(m.member),
                    detail: format!(
                        "member {label}: Eq. 2 predicts {:.1}s vs measured {:.1}s \
                         ({:.0}% divergence) — steady state may not have been reached",
                        m.makespan_model,
                        m.makespan,
                        divergence * 100.0
                    ),
                });
            }
        }
    }

    if findings.is_empty() {
        findings.push(Finding {
            severity: Severity::Info,
            kind: FindingKind::Healthy,
            member: None,
            detail: "all members balanced, co-located, and steady".into(),
        });
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

/// Renders findings as a bullet list.
pub fn render_findings(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let tag = match f.severity {
            Severity::Critical => "CRITICAL",
            Severity::Warning => "warning ",
            Severity::Info => "info    ",
        };
        out.push_str(&format!("[{tag}] {}\n", f.detail));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EnsembleRunner;
    use ensemble_core::{ComponentRef, ConfigId};

    fn quick(id: ConfigId) -> EnsembleRunner {
        EnsembleRunner::paper_config(id).small_scale().steps(8).jitter(0.0)
    }

    #[test]
    fn healthy_run_reports_healthy() {
        let report = quick(ConfigId::C1_5).run().unwrap();
        let findings = diagnose(&report, &DiagnosticConfig::default());
        assert!(
            findings.iter().any(|f| f.kind == FindingKind::Healthy)
                || findings.iter().all(|f| f.severity == Severity::Info),
            "{findings:#?}"
        );
    }

    #[test]
    fn straggler_is_detected() {
        let mut runner = quick(ConfigId::C1_5);
        let mut slow =
            runner.config_mut().workloads.workload_for(ComponentRef::simulation(1)).clone();
        slow.instructions_per_step *= 2.0;
        runner.config_mut().workloads.set_override(ComponentRef::simulation(1), slow);
        let report = runner.run().unwrap();
        let findings = diagnose(&report, &DiagnosticConfig::default());
        let straggler = findings
            .iter()
            .find(|f| f.kind == FindingKind::StragglerMember)
            .expect("straggler finding");
        assert_eq!(straggler.member, Some(1));
        assert_eq!(straggler.severity, Severity::Critical);
        assert_eq!(findings[0].severity, Severity::Critical, "sorted most-severe first");
    }

    #[test]
    fn analysis_bottleneck_is_detected() {
        let mut runner = quick(ConfigId::Cf);
        let mut heavy =
            runner.config_mut().workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
        heavy.instructions_per_step *= 3.0;
        runner.config_mut().workloads.set_override(ComponentRef::analysis(0, 1), heavy);
        let report = runner.run().unwrap();
        let findings = diagnose(&report, &DiagnosticConfig::default());
        assert!(findings.iter().any(|f| f.kind == FindingKind::AnalysisBottleneck));
    }

    #[test]
    fn over_provisioned_analysis_is_detected() {
        let mut runner = quick(ConfigId::Cf);
        let mut light =
            runner.config_mut().workloads.workload_for(ComponentRef::analysis(0, 1)).clone();
        light.instructions_per_step *= 0.1;
        runner.config_mut().workloads.set_override(ComponentRef::analysis(0, 1), light);
        let report = runner.run().unwrap();
        let findings = diagnose(&report, &DiagnosticConfig::default());
        assert!(findings.iter().any(|f| f.kind == FindingKind::OverProvisionedAnalysis));
    }

    #[test]
    fn scattered_placement_is_flagged() {
        let report = quick(ConfigId::C1_1).run().unwrap();
        let findings = diagnose(&report, &DiagnosticConfig::default());
        assert!(
            findings.iter().any(|f| f.kind == FindingKind::ScatteredPlacement),
            "C1.1's CP = 0.5 should flag: {findings:#?}"
        );
    }

    #[test]
    fn rendering_contains_tags() {
        let report = quick(ConfigId::C1_1).run().unwrap();
        let text = render_findings(&diagnose(&report, &DiagnosticConfig::default()));
        assert!(text.contains('['));
        assert!(!text.trim().is_empty());
    }
}
