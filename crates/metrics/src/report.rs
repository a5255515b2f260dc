//! Experiment reports: the rows behind every figure and table
//! regeneration, and their JSON form.

use ensemble_core::{CouplingScenario, MemberStageTimes};
use hpc_platform::HwCounters;
use json::{write_f64, write_seq, write_str, write_u64};

use crate::traditional::TraditionalMetrics;

/// Results for one ensemble component.
#[derive(Debug, Clone)]
pub struct ComponentReport {
    /// Display name, e.g. "Sim1" or "Ana1.2".
    pub name: String,
    /// Cores allocated.
    pub cores: u32,
    /// Node indexes occupied.
    pub nodes: Vec<usize>,
    /// Accumulated hardware counters.
    pub counters: HwCounters,
    /// Table 1 metrics.
    pub metrics: TraditionalMetrics,
}

/// Results for one ensemble member.
#[derive(Debug, Clone)]
pub struct MemberReport {
    /// Member index (0-based).
    pub member: usize,
    /// Steady-state stage times (starred quantities).
    pub stage_times: MemberStageTimes,
    /// `σ̄*` (Eq. 1), seconds.
    pub sigma_star: f64,
    /// Measured member makespan, seconds.
    pub makespan: f64,
    /// Eq. 2 estimate (`n_steps × σ̄*`), seconds.
    pub makespan_model: f64,
    /// Computational efficiency `E` (Eq. 3).
    pub efficiency: f64,
    /// Placement indicator `CP` (Eq. 6).
    pub cp: f64,
    /// Coupling scenarios per analysis.
    pub scenarios: Vec<CouplingScenario>,
    /// Frames dropped by the member's staging queue (always 0 under the
    /// paper's synchronous protocol; nonzero only in in-transit mode).
    pub lost_frames: u64,
    /// Component-level results (simulation first).
    pub components: Vec<ComponentReport>,
}

/// Results for one configuration run.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// Configuration label (e.g. "C1.5").
    pub config: String,
    /// Number of members `N`.
    pub n: usize,
    /// Number of nodes `M`.
    pub m: usize,
    /// In situ steps executed.
    pub n_steps: u64,
    /// Ensemble makespan (max member makespan), seconds.
    pub ensemble_makespan: f64,
    /// Per-member results.
    pub members: Vec<MemberReport>,
    /// Staging store retries performed across the run (nonzero only in
    /// threaded runs with a retry policy).
    pub staging_retries: u64,
    /// Transient staging errors surfaced after the retry budget ran out.
    pub staging_giveups: u64,
    /// Faults injected by the run's fault plan (failures + delays +
    /// corruptions), 0 for fault-free runs.
    pub faults_injected: u64,
}

impl ComponentReport {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_str(out, &self.name);
        out.push_str(",\"cores\":");
        write_u64(out, u64::from(self.cores));
        out.push_str(",\"nodes\":");
        write_seq(out, &self.nodes, |out, &n| write_u64(out, n as u64));
        let c = &self.counters;
        out.push_str(",\"counters\":");
        write_f64_fields(
            out,
            &[
                ("instructions", c.instructions),
                ("cycles", c.cycles),
                ("llc_references", c.llc_references),
                ("llc_misses", c.llc_misses),
                ("dram_bytes", c.dram_bytes),
            ],
        );
        let m = &self.metrics;
        out.push_str(",\"metrics\":");
        write_f64_fields(
            out,
            &[
                ("execution_time", m.execution_time),
                ("llc_miss_ratio", m.llc_miss_ratio),
                ("memory_intensity", m.memory_intensity),
                ("ipc", m.ipc),
            ],
        );
        out.push('}');
    }
}

impl MemberReport {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"member\":");
        write_u64(out, self.member as u64);
        out.push_str(",\"stage_times\":{\"s\":");
        write_f64(out, self.stage_times.s);
        out.push_str(",\"w\":");
        write_f64(out, self.stage_times.w);
        out.push_str(",\"analyses\":");
        write_seq(out, &self.stage_times.analyses, |out, t| {
            write_f64_fields(out, &[("r", t.r), ("a", t.a)]);
        });
        out.push('}');
        out.push_str(",\"sigma_star\":");
        write_f64(out, self.sigma_star);
        out.push_str(",\"makespan\":");
        write_f64(out, self.makespan);
        out.push_str(",\"makespan_model\":");
        write_f64(out, self.makespan_model);
        out.push_str(",\"efficiency\":");
        write_f64(out, self.efficiency);
        out.push_str(",\"cp\":");
        write_f64(out, self.cp);
        out.push_str(",\"scenarios\":");
        write_seq(out, &self.scenarios, |out, scenario| {
            write_str(
                out,
                match scenario {
                    CouplingScenario::IdleSimulation => "IdleSimulation",
                    CouplingScenario::IdleAnalyzer => "IdleAnalyzer",
                    CouplingScenario::Balanced => "Balanced",
                },
            );
        });
        out.push_str(",\"lost_frames\":");
        write_u64(out, self.lost_frames);
        out.push_str(",\"components\":");
        write_seq(out, &self.components, |out, c| c.write_json(out));
        out.push('}');
    }
}

/// Appends an object whose values are all numbers.
fn write_f64_fields(out: &mut String, fields: &[(&str, f64)]) {
    for (i, &(key, value)) in fields.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        write_str(out, key);
        out.push(':');
        write_f64(out, value);
    }
    out.push('}');
}

impl EnsembleReport {
    /// Appends the report as one compact JSON object: every field under
    /// its own name, nested as the structs nest, coupling scenarios by
    /// variant name. A non-finite number is written `null`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"config\":");
        write_str(out, &self.config);
        out.push_str(",\"n\":");
        write_u64(out, self.n as u64);
        out.push_str(",\"m\":");
        write_u64(out, self.m as u64);
        out.push_str(",\"n_steps\":");
        write_u64(out, self.n_steps);
        out.push_str(",\"ensemble_makespan\":");
        write_f64(out, self.ensemble_makespan);
        out.push_str(",\"members\":");
        write_seq(out, &self.members, |out, m| m.write_json(out));
        out.push_str(",\"staging_retries\":");
        write_u64(out, self.staging_retries);
        out.push_str(",\"staging_giveups\":");
        write_u64(out, self.staging_giveups);
        out.push_str(",\"faults_injected\":");
        write_u64(out, self.faults_injected);
        out.push('}');
    }

    /// Per-member efficiency values in member order.
    pub fn efficiencies(&self) -> Vec<f64> {
        self.members.iter().map(|m| m.efficiency).collect()
    }

    /// Renders a compact fixed-width table of the member rows.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} (N={}, M={}, steps={}): ensemble makespan {:.2}s\n",
            self.config, self.n, self.m, self.n_steps, self.ensemble_makespan
        ));
        out.push_str("  member  sigma*     makespan   E        CP\n");
        for m in &self.members {
            out.push_str(&format!(
                "  EM{}     {:>8.3}s  {:>8.2}s  {:.4}  {:.3}\n",
                m.member + 1,
                m.sigma_star,
                m.makespan,
                m.efficiency,
                m.cp
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_core::AnalysisStageTimes;

    fn member_report() -> MemberReport {
        let stage_times =
            MemberStageTimes::new(20.0, 0.5, vec![AnalysisStageTimes { r: 0.3, a: 15.0 }]).unwrap();
        MemberReport {
            member: 0,
            sigma_star: 20.5,
            makespan: 760.0,
            makespan_model: 758.5,
            efficiency: 0.85,
            cp: 1.0,
            scenarios: vec![CouplingScenario::IdleAnalyzer],
            lost_frames: 0,
            stage_times,
            components: vec![],
        }
    }

    /// Every number under `v`, as bits, in document order.
    fn number_bits(v: &json::Value, out: &mut Vec<u64>) {
        match v {
            json::Value::Num(n) => out.push(n.to_bits()),
            json::Value::Arr(items) => items.iter().for_each(|v| number_bits(v, out)),
            json::Value::Obj(fields) => fields.iter().for_each(|(_, v)| number_bits(v, out)),
            _ => {}
        }
    }

    fn keys(v: &json::Value) -> Vec<&str> {
        let json::Value::Obj(fields) = v else { panic!("{v:?} is not an object") };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn report_serializes_roundtrip() {
        let counters = HwCounters {
            instructions: 1.5e12,
            cycles: 2.25e12,
            llc_references: 3e9 + 0.5,
            llc_misses: 1e9 / 3.0,
            dram_bytes: 6.4e10,
        };
        let metrics = TraditionalMetrics::from_counters(&counters, 0.1 + 0.2);
        let mut member = member_report();
        member.components = vec![ComponentReport {
            name: "Sim1".into(),
            cores: 16,
            nodes: vec![0, 3],
            counters,
            metrics,
        }];
        let r = EnsembleReport {
            config: "C1.5".into(),
            n: 1,
            m: 2,
            n_steps: 37,
            ensemble_makespan: 760.0 / 7.0,
            members: vec![member],
            staging_retries: 3,
            staging_giveups: 1,
            faults_injected: 2,
        };
        let back = json::Value::parse(&json::encoded(|out| r.write_json(out))).unwrap();

        // Field names and nesting, in declaration order.
        assert_eq!(
            keys(&back),
            [
                "config",
                "n",
                "m",
                "n_steps",
                "ensemble_makespan",
                "members",
                "staging_retries",
                "staging_giveups",
                "faults_injected"
            ]
        );
        assert_eq!(back.get("config").unwrap().as_str(), Some("C1.5"));
        let m = &back.get("members").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            keys(m),
            [
                "member",
                "stage_times",
                "sigma_star",
                "makespan",
                "makespan_model",
                "efficiency",
                "cp",
                "scenarios",
                "lost_frames",
                "components"
            ]
        );
        assert_eq!(keys(m.get("stage_times").unwrap()), ["s", "w", "analyses"]);
        assert_eq!(m.get("scenarios").unwrap().to_json(), r#"["IdleAnalyzer"]"#);
        let c = &m.get("components").unwrap().as_arr().unwrap()[0];
        assert_eq!(keys(c), ["name", "cores", "nodes", "counters", "metrics"]);
        assert_eq!(c.get("name").unwrap().as_str(), Some("Sim1"));
        assert_eq!(
            keys(c.get("counters").unwrap()),
            ["instructions", "cycles", "llc_references", "llc_misses", "dram_bytes"]
        );
        assert_eq!(
            keys(c.get("metrics").unwrap()),
            ["execution_time", "llc_miss_ratio", "memory_intensity", "ipc"]
        );

        // Every numeric field, bit for bit, in the same order.
        let (mr, t) = (&r.members[0], &r.members[0].stage_times);
        let want = [
            r.n as f64,
            r.m as f64,
            r.n_steps as f64,
            r.ensemble_makespan,
            mr.member as f64,
            t.s,
            t.w,
            t.analyses[0].r,
            t.analyses[0].a,
            mr.sigma_star,
            mr.makespan,
            mr.makespan_model,
            mr.efficiency,
            mr.cp,
            mr.lost_frames as f64,
            16.0,
            0.0,
            3.0,
            counters.instructions,
            counters.cycles,
            counters.llc_references,
            counters.llc_misses,
            counters.dram_bytes,
            metrics.execution_time,
            metrics.llc_miss_ratio,
            metrics.memory_intensity,
            metrics.ipc,
            3.0,
            1.0,
            2.0,
        ];
        let mut got = Vec::new();
        number_bits(&back, &mut got);
        assert_eq!(got, want.map(f64::to_bits));
    }

    #[test]
    fn table_rendering_contains_members() {
        let r = EnsembleReport {
            config: "C_f".into(),
            n: 1,
            m: 2,
            n_steps: 10,
            ensemble_makespan: 205.0,
            members: vec![member_report()],
            staging_retries: 0,
            staging_giveups: 0,
            faults_injected: 0,
        };
        let table = r.to_table();
        assert!(table.contains("C_f"));
        assert!(table.contains("EM1"));
        assert!(table.contains("sigma*"));
    }
}
