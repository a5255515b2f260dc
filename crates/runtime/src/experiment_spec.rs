//! Declarative experiment descriptions: a schema users write as JSON,
//! covering the ensemble layout, placement, workload scaling, and run
//! settings — the runtime's equivalent of a batch script.

use ensemble_core::{ComponentSpec, EnsembleSpec, MemberSpec};
use json::{write_bool, write_f64, write_seq, write_str, write_u64, Value};

use crate::error::{RuntimeError, RuntimeResult};
use crate::sim_exec::{CouplingMode, SimRunConfig};
use crate::workload_map::WorkloadMap;

/// One analysis in a member description.
#[derive(Debug, Clone)]
pub struct AnalysisDesc {
    /// Cores for this analysis.
    pub cores: u32,
    /// Node index it runs on.
    pub node: usize,
    /// Work multiplier relative to the paper's analysis workload
    /// (1.0 = the paper's eigenvalue kernel).
    pub work_scale: f64,
}

/// One ensemble member.
#[derive(Debug, Clone)]
pub struct MemberDesc {
    /// Simulation cores.
    pub sim_cores: u32,
    /// Simulation node.
    pub sim_node: usize,
    /// Work multiplier relative to the paper's simulation workload.
    pub sim_work_scale: f64,
    /// Coupled analyses (K ≥ 1).
    pub analyses: Vec<AnalysisDesc>,
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Experiment name (report label).
    pub name: String,
    /// The members.
    pub members: Vec<MemberDesc>,
    /// In situ steps to run.
    pub steps: u64,
    /// Simulation stride (MD steps per frame).
    pub stride: u64,
    /// Per-step jitter fraction.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
    /// Staging queue capacity (synchronous protocol capacity, or the
    /// in-transit queue depth when `in_transit` is set).
    pub staging_capacity: u64,
    /// Use in-transit (asynchronous) coupling.
    pub in_transit: bool,
    /// Node power cap in watts (optional).
    pub power_cap_watts: Option<f64>,
}

/// `<path><key> <problem>` as the error an experiment file gets.
fn bad(path: &str, key: &str, problem: &str) -> RuntimeError {
    RuntimeError::InvalidExperiment { detail: format!("{path}{key} {problem}") }
}

/// One object of an experiment file: `path` locates it for messages
/// (`members[0].`, empty at the top level).
struct Object<'a> {
    path: &'a str,
    value: &'a Value,
}

impl<'a> Object<'a> {
    /// `value` as an object with no key outside `known` — a misspelt
    /// key must not silently read as its default.
    fn new(path: &'a str, value: &'a Value, known: &[&str]) -> RuntimeResult<Object<'a>> {
        let Value::Obj(fields) = value else {
            let here = if path.is_empty() { "the top level" } else { path.trim_end_matches('.') };
            return Err(bad(here, "", "must be an object"));
        };
        match fields.iter().find(|(key, _)| !known.contains(&key.as_str())) {
            Some((key, _)) => Err(bad(path, key, "is not a key an experiment file has here")),
            None => Ok(Object { path, value }),
        }
    }

    /// `key`'s value through `read`; `default` when the key is absent,
    /// an error when there is no default either.
    fn field<T>(
        &self,
        key: &str,
        default: Option<T>,
        expected: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> RuntimeResult<T> {
        match self.value.get(key) {
            Some(value) => read(value).ok_or_else(|| bad(self.path, key, expected)),
            None => default.ok_or_else(|| bad(self.path, key, "is missing")),
        }
    }

    fn u64(&self, key: &str, default: Option<u64>) -> RuntimeResult<u64> {
        self.field(key, default, "must be a non-negative integer below 2^53", Value::as_u64)
    }

    fn u32(&self, key: &str) -> RuntimeResult<u32> {
        self.field(key, None, "must be a non-negative integer below 2^32", |v| {
            v.as_u64().and_then(|n| u32::try_from(n).ok())
        })
    }

    fn usize(&self, key: &str) -> RuntimeResult<usize> {
        self.field(key, None, "must be a non-negative integer below 2^53", Value::as_usize)
    }

    fn f64(&self, key: &str, default: Option<f64>) -> RuntimeResult<f64> {
        self.field(key, default, "must be a number", Value::as_f64)
    }

    /// The objects of the array under `key`, each with its own path.
    fn objects<T>(
        &self,
        key: &str,
        read: impl Fn(&str, &'a Value) -> RuntimeResult<T>,
    ) -> RuntimeResult<Vec<T>> {
        let items = self.field(key, None, "must be an array", Value::as_arr)?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| read(&format!("{}{key}[{i}].", self.path), item))
            .collect()
    }
}

impl AnalysisDesc {
    fn from_value(path: &str, value: &Value) -> RuntimeResult<AnalysisDesc> {
        let o = Object::new(path, value, &["cores", "node", "work_scale"])?;
        Ok(AnalysisDesc {
            cores: o.u32("cores")?,
            node: o.usize("node")?,
            work_scale: o.f64("work_scale", Some(1.0))?,
        })
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"cores\":");
        write_u64(out, u64::from(self.cores));
        out.push_str(",\"node\":");
        write_u64(out, self.node as u64);
        out.push_str(",\"work_scale\":");
        write_f64(out, self.work_scale);
        out.push('}');
    }
}

impl MemberDesc {
    fn from_value(path: &str, value: &Value) -> RuntimeResult<MemberDesc> {
        let o = Object::new(path, value, &["sim_cores", "sim_node", "sim_work_scale", "analyses"])?;
        Ok(MemberDesc {
            sim_cores: o.u32("sim_cores")?,
            sim_node: o.usize("sim_node")?,
            sim_work_scale: o.f64("sim_work_scale", Some(1.0))?,
            analyses: o.objects("analyses", AnalysisDesc::from_value)?,
        })
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"sim_cores\":");
        write_u64(out, u64::from(self.sim_cores));
        out.push_str(",\"sim_node\":");
        write_u64(out, self.sim_node as u64);
        out.push_str(",\"sim_work_scale\":");
        write_f64(out, self.sim_work_scale);
        out.push_str(",\"analyses\":");
        write_seq(out, &self.analyses, |out, a| a.write_json(out));
        out.push('}');
    }
}

impl ExperimentSpec {
    /// Parses an experiment from JSON. `name` and `members` (with each
    /// member's cores, nodes and analyses) are required; everything else
    /// has a default. Unknown keys, and integers that are fractional,
    /// negative or not exact in an `f64`, are errors naming the key.
    pub fn from_json(json: &str) -> RuntimeResult<Self> {
        let value = Value::parse(json)
            .map_err(|e| RuntimeError::InvalidExperiment { detail: format!("not JSON: {e}") })?;
        let known = [
            "name",
            "members",
            "steps",
            "stride",
            "jitter",
            "seed",
            "staging_capacity",
            "in_transit",
            "power_cap_watts",
        ];
        let o = Object::new("", &value, &known)?;
        Ok(ExperimentSpec {
            name: o.field("name", None, "must be a string", Value::as_str)?.to_string(),
            members: o.objects("members", MemberDesc::from_value)?,
            steps: o.u64("steps", Some(37))?,
            stride: o.u64("stride", Some(kernels::profile::PAPER_STRIDE))?,
            jitter: o.f64("jitter", Some(0.0))?,
            seed: o.u64("seed", Some(0))?,
            staging_capacity: o.u64("staging_capacity", Some(1))?,
            in_transit: o.field(
                "in_transit",
                Some(false),
                "must be true or false",
                Value::as_bool,
            )?,
            power_cap_watts: o.field(
                "power_cap_watts",
                Some(None),
                "must be a number or null",
                |v| match v {
                    Value::Null => Some(None),
                    v => v.as_f64().map(Some),
                },
            )?,
        })
    }

    /// Serializes the experiment to indented JSON, every field written.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"name\":");
        write_str(&mut out, &self.name);
        out.push_str(",\"members\":");
        write_seq(&mut out, &self.members, |out, m| m.write_json(out));
        out.push_str(",\"steps\":");
        write_u64(&mut out, self.steps);
        out.push_str(",\"stride\":");
        write_u64(&mut out, self.stride);
        out.push_str(",\"jitter\":");
        write_f64(&mut out, self.jitter);
        out.push_str(",\"seed\":");
        write_u64(&mut out, self.seed);
        out.push_str(",\"staging_capacity\":");
        write_u64(&mut out, self.staging_capacity);
        out.push_str(",\"in_transit\":");
        write_bool(&mut out, self.in_transit);
        out.push_str(",\"power_cap_watts\":");
        // `write_f64` spells a non-finite number `null`, the absent cap.
        write_f64(&mut out, self.power_cap_watts.unwrap_or(f64::NAN));
        out.push('}');
        json::pretty(&out)
    }

    /// Builds the ensemble layout.
    pub fn ensemble(&self) -> EnsembleSpec {
        EnsembleSpec::new(
            self.members
                .iter()
                .map(|m| {
                    MemberSpec::new(
                        ComponentSpec::simulation(m.sim_cores, m.sim_node),
                        m.analyses
                            .iter()
                            .map(|a| ComponentSpec::analysis(a.cores, a.node))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Builds the full simulated-run configuration, applying work-scale
    /// overrides.
    pub fn to_run_config(&self) -> RuntimeResult<SimRunConfig> {
        let spec = self.ensemble();
        spec.validate(None)?;
        let mut cfg = SimRunConfig::paper(spec);
        cfg.n_steps = self.steps;
        cfg.jitter = self.jitter;
        cfg.seed = self.seed;
        cfg.staging_capacity = self.staging_capacity;
        cfg.power_cap_watts = self.power_cap_watts;
        cfg.workloads = WorkloadMap::paper_defaults(self.stride);
        if self.in_transit {
            cfg.coupling =
                CouplingMode::Asynchronous { queue_capacity: self.staging_capacity as usize };
        }
        for (i, m) in self.members.iter().enumerate() {
            if (m.sim_work_scale - 1.0).abs() > f64::EPSILON {
                let base =
                    cfg.workloads.workload_for(ensemble_core::ComponentRef::simulation(i)).clone();
                cfg.workloads.set_override(
                    ensemble_core::ComponentRef::simulation(i),
                    base.scaled(m.sim_work_scale),
                );
            }
            for (j, a) in m.analyses.iter().enumerate() {
                if (a.work_scale - 1.0).abs() > f64::EPSILON {
                    let cref = ensemble_core::ComponentRef::analysis(i, j + 1);
                    let mut w = cfg.workloads.workload_for(cref).clone();
                    w.instructions_per_step *= a.work_scale;
                    cfg.workloads.set_override(cref, w);
                }
            }
        }
        Ok(cfg)
    }

    /// A ready-made example spec (the C1.5 layout).
    pub fn example() -> Self {
        ExperimentSpec {
            name: "c1.5-example".into(),
            members: vec![
                MemberDesc {
                    sim_cores: 16,
                    sim_node: 0,
                    sim_work_scale: 1.0,
                    analyses: vec![AnalysisDesc { cores: 8, node: 0, work_scale: 1.0 }],
                },
                MemberDesc {
                    sim_cores: 16,
                    sim_node: 1,
                    sim_work_scale: 1.0,
                    analyses: vec![AnalysisDesc { cores: 8, node: 1, work_scale: 1.0 }],
                },
            ],
            steps: 37,
            stride: kernels::profile::PAPER_STRIDE,
            jitter: 0.01,
            seed: 2021,
            staging_capacity: 1,
            in_transit: false,
            power_cap_watts: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_roundtrips_through_json() {
        let spec = ExperimentSpec::example();
        let json = spec.to_json();
        assert!(
            json.starts_with("{\n  \"name\": \"c1.5-example\",\n  \"members\": [\n    {\n"),
            "{json}"
        );
        assert!(json.ends_with("\"in_transit\": false,\n  \"power_cap_watts\": null\n}"), "{json}");
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.name, "c1.5-example");
        assert_eq!(back.members.len(), 2);
        assert_eq!(back.ensemble().num_nodes(), 2);
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let json = r#"{
            "name": "tiny",
            "members": [
                { "sim_cores": 16, "sim_node": 0,
                  "analyses": [ { "cores": 8, "node": 0 } ] }
            ]
        }"#;
        let spec = ExperimentSpec::from_json(json).unwrap();
        assert_eq!(spec.steps, 37);
        assert_eq!(spec.stride, kernels::profile::PAPER_STRIDE);
        assert_eq!(spec.staging_capacity, 1);
        assert!(!spec.in_transit);
        let cfg = spec.to_run_config().unwrap();
        assert_eq!(cfg.n_steps, 37);
    }

    #[test]
    fn work_scale_overrides_apply() {
        let mut spec = ExperimentSpec::example();
        spec.members[0].analyses[0].work_scale = 2.0;
        spec.members[1].sim_work_scale = 0.5;
        let cfg = spec.to_run_config().unwrap();
        let base_ana = kernels::profile::analysis_workload().instructions_per_step;
        let ana0 = cfg
            .workloads
            .workload_for(ensemble_core::ComponentRef::analysis(0, 1))
            .instructions_per_step;
        assert!((ana0 - 2.0 * base_ana).abs() < 1.0);
        let base_sim = kernels::profile::simulation_workload(spec.stride).instructions_per_step;
        let sim1 = cfg
            .workloads
            .workload_for(ensemble_core::ComponentRef::simulation(1))
            .instructions_per_step;
        assert!((sim1 - 0.5 * base_sim).abs() < 1.0);
    }

    #[test]
    fn in_transit_flag_selects_async_coupling() {
        let mut spec = ExperimentSpec::example();
        spec.in_transit = true;
        spec.staging_capacity = 4;
        let cfg = spec.to_run_config().unwrap();
        assert_eq!(cfg.coupling, CouplingMode::Asynchronous { queue_capacity: 4 });
    }

    #[test]
    fn bad_json_is_a_clean_error() {
        assert!(ExperimentSpec::from_json(r#"{"name": "x", "members": []}"#)
            .unwrap()
            .to_run_config()
            .is_err());
        // Every refusal is an `InvalidExperiment` whose message names
        // the key; `$` stands for a member that is otherwise complete.
        let member = r#""sim_cores": 16, "sim_node": 0, "analyses": [{"cores": 8, "node": 0}]"#;
        for (input, names) in [
            ("{ not json", "not JSON"),
            ("[1, 2]", "the top level must be an object"),
            (r#"{"name": "x"}"#, "members is missing"),
            (r#"{"members": [{$}]}"#, "name is missing"),
            (r#"{"name": "x", "members": [{$}], "step": 4}"#, "step is not a key"),
            (r#"{"name": "x", "members": [{$, "work_scale": 2}]}"#, "members[0].work_scale is not"),
            (
                r#"{"name": "x", "members": [{$}, {"sim_cores": 16, "sim_node": 0,
                    "analyses": [{"cores": 8, "node": 0, "work_scal": 2}]}]}"#,
                "members[1].analyses[0].work_scal is not a key",
            ),
            (r#"{"name": "x", "members": [{$}], "steps": 3.5}"#, "steps must be a non-negative"),
            (r#"{"name": "x", "members": [{$}], "stride": -1}"#, "stride must be"),
            (r#"{"name": "x", "members": [{$}], "seed": 9007199254740992}"#, "seed must be"),
            (
                r#"{"name": "x", "members": [{$}], "staging_capacity": "1"}"#,
                "staging_capacity must",
            ),
            (r#"{"name": "x", "members": [{$}], "in_transit": 1}"#, "in_transit must be true"),
            (r#"{"name": "x", "members": [{$}], "power_cap_watts": "no"}"#, "power_cap_watts must"),
            (
                r#"{"name": "x", "members": [{"sim_node": 0, "analyses": []}]}"#,
                "sim_cores is missing",
            ),
            (
                r#"{"name": "x", "members": [{"sim_cores": 4294967296, "sim_node": 0,
                    "analyses": []}]}"#,
                "members[0].sim_cores must be a non-negative integer below 2^32",
            ),
            (
                r#"{"name": "x", "members": [{"sim_cores": 16, "sim_node": -1, "analyses": []}]}"#,
                "members[0].sim_node must be",
            ),
            (
                r#"{"name": "x", "members": [{"sim_cores": 16, "sim_node": 0,
                    "analyses": [{"cores": 0.5, "node": 0}]}]}"#,
                "members[0].analyses[0].cores must be",
            ),
            (r#"{"name": "x", "members": [7]}"#, "members[0] must be an object"),
        ] {
            let err = ExperimentSpec::from_json(&input.replace('$', member)).unwrap_err();
            assert!(matches!(err, RuntimeError::InvalidExperiment { .. }), "{input}: {err:?}");
            let message = err.to_string();
            assert!(message.starts_with("invalid experiment file: "), "{message}");
            assert!(message.contains(names), "{input}: {message}");
        }
        // A null power cap is the absent one.
        let spec =
            format!(r#"{{"name": "x", "members": [{{{member}}}], "power_cap_watts": null}}"#);
        assert_eq!(ExperimentSpec::from_json(&spec).unwrap().power_cap_watts, None);
    }

    #[test]
    fn spec_runs_end_to_end() {
        let mut spec = ExperimentSpec::example();
        spec.steps = 4;
        spec.jitter = 0.0;
        let cfg = spec.to_run_config().unwrap();
        let exec = crate::sim_exec::run_simulated(&cfg).unwrap();
        assert_eq!(exec.trace.member_indexes(), vec![0, 1]);
    }
}
