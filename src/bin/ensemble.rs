//! `ensemble` — command-line front end to the workflow-ensemble library.
//!
//! ```text
//! ensemble run C1.5 [--steps N] [--jitter J] [--gantt] [--csv DIR] [--json FILE]
//! ensemble run experiment.json [...]
//! ensemble run C1.5 --threaded [--steps N] [--fault-plan SPEC]
//!                              [--retry-attempts N] [--restarts N]
//! ensemble predict C2.8
//! ensemble sweep
//! ensemble advise --members N --k K --nodes M [--cores 32]
//! ensemble energy C1.5 [--cap WATTS]
//! ensemble serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!                [--scan-workers N]
//!                [--journal FILE] [--journal-fsync per-record|batched[:N]]
//!                [--journal-max-bytes N]
//!                [--cosched] [--cosched-nodes M] [--cosched-cores C]
//!                [--cosched-queue N] [--cosched-no-backfill]
//!                [--tenant-quota NAME=SLOTS ...] [--tenant-weight NAME=W ...]
//!                [--tenant-default-quota N] [--svc-fault SPEC]
//! ensemble serve --standby-of HOST:PORT --journal FILE [--addr HOST:PORT]
//!                [--auto-promote] [--heartbeat-ms MS] [--dead-after N]
//! ensemble serve --follow FILE [--addr HOST:PORT] [--auto-promote]
//!                [--heartbeat-ms MS] [--dead-after N]
//! ensemble query score --members N --k K --nodes M [--top-k K] [--workers N]
//!                      [--addr HOST:PORT] [--progress] [--progress-every N]
//!                      [--progress-every-ms MS] [...]
//! ensemble query run C1.5 [--addr HOST:PORT] [--steps N] [--seed S]
//!                         [--progress] [...]
//! ensemble query submit --members N --k K [--sim-cores C] [--ana-cores C]
//!                       [--steps N] [--seed S] [--tenant NAME] [--progress]
//!                       [--addr HOST:PORT]
//! ensemble query attach --job ID [--addr HOST:PORT]
//! ensemble query metrics [--addr HOST:PORT]
//! ensemble example-spec
//! ensemble list
//! ```
//!
//! Every `query` kind accepts `--tenant NAME` to tag the request for
//! per-tenant accounting in the service metrics, and `--addr` takes a
//! comma-separated address list (primary first, standbys after) to
//! fail over automatically.

use std::collections::HashMap;

use insitu_ensembles::measurement::{self, GanttOptions};
use insitu_ensembles::model::{ConfigId, IndicatorPath, MemberInputs};
use insitu_ensembles::prelude::*;
use insitu_ensembles::runtime::{build_report, ExperimentSpec};
use insitu_ensembles::scheduling;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("sweep") => cmd_sweep(),
        Some("advise") => cmd_advise(&args[1..]),
        Some("energy") => cmd_energy(&args[1..]),
        Some("diagnose") => cmd_diagnose(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("example-spec") => {
            println!("{}", ExperimentSpec::example().to_json());
            0
        }
        Some("list") => {
            for id in ConfigId::all() {
                let spec = id.build();
                println!("{:<6} N={} M={}", id.label(), spec.n(), spec.num_nodes());
            }
            0
        }
        _ => {
            eprintln!(
                "usage: ensemble <run|predict|sweep|advise|energy|diagnose|serve|query|example-spec|list> [...]\n\
                 see the module docs of src/bin/ensemble.rs for flags"
            );
            2
        }
    };
    std::process::exit(code);
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// The value of flag `name` as a `T`, `None` when the flag is absent. A
/// value that does not parse — a `u32` flag's out-of-range number
/// included — is an error naming the flag, never a silent default.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, name).map(|v| v.parse().map_err(|e| format!("{name} '{v}': {e}"))).transpose()
}

/// Every value of a repeatable flag, in order of appearance
/// (`--tenant-quota a=4 --tenant-quota b=2`).
fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_config(label: &str) -> Option<ConfigId> {
    // Accept "C1.5", "c1_5", "Cc", "C_f", … — punctuation-insensitive.
    let canon = |s: &str| {
        s.chars().filter(|c| c.is_ascii_alphanumeric()).collect::<String>().to_ascii_lowercase()
    };
    let wanted = canon(label);
    ConfigId::all().into_iter().find(|id| canon(id.label()) == wanted)
}

/// Builds the run configuration from either a paper config label or a
/// JSON experiment file.
fn load_run(target: &str, args: &[String]) -> Result<(String, SimRunConfig), String> {
    let mut cfg = if let Some(id) = parse_config(target) {
        (id.label().to_string(), SimRunConfig::paper(id.build()))
    } else {
        let json = std::fs::read_to_string(target).map_err(|e| {
            format!("'{target}' is neither a config label nor a readable file: {e}")
        })?;
        let spec = ExperimentSpec::from_json(&json).map_err(|e| e.to_string())?;
        let run = spec.to_run_config().map_err(|e| e.to_string())?;
        (spec.name, run)
    };
    cfg.1.n_steps = flag(args, "--steps")?.unwrap_or(cfg.1.n_steps);
    cfg.1.jitter = flag(args, "--jitter")?.unwrap_or(cfg.1.jitter);
    cfg.1.power_cap_watts = flag(args, "--cap")?.or(cfg.1.power_cap_watts);
    Ok(cfg)
}

fn cmd_run(args: &[String]) -> i32 {
    let Some(target) = args.first() else {
        eprintln!("run: missing config label or experiment file");
        return 2;
    };
    if has_flag(args, "--threaded") {
        return cmd_run_threaded(target, args);
    }
    let (label, run_cfg) = match load_run(target, args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("run: {e}");
            return 1;
        }
    };
    let spec = run_cfg.spec.clone();
    let exec = match run_simulated(&run_cfg) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("run failed: {e}");
            return 1;
        }
    };
    let report = match build_report(&label, &spec, &exec, run_cfg.n_steps, WarmupPolicy::default())
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("report failed: {e}");
            return 1;
        }
    };
    println!("{}", report.to_table());

    // The full indicator per member plus F.
    let values: Vec<f64> = report
        .members
        .iter()
        .zip(&spec.members)
        .map(|(mr, ms)| {
            insitu_ensembles::model::indicator(
                &MemberInputs::from_specs(ms, &spec, mr.efficiency),
                &IndicatorPath::uap(),
            )
        })
        .collect();
    println!("F(P^U,A,P) = {:.4e}", objective(&values));
    let lost: u64 = report.members.iter().map(|m| m.lost_frames).sum();
    if lost > 0 {
        println!("lost frames: {lost}");
    }

    if has_flag(args, "--gantt") {
        let horizon = exec
            .trace
            .intervals()
            .iter()
            .map(|i| i.end)
            .fold(0.0f64, f64::max)
            .min(report.members[0].sigma_star * 4.0);
        println!(
            "\n{}",
            measurement::render_gantt(
                &exec.trace,
                &GanttOptions { width: 100, window: Some((0.0, horizon)) }
            )
        );
    }
    if let Some(dir) = flag_value(args, "--csv") {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--csv: {e}");
            return 1;
        }
        let base = std::path::Path::new(dir);
        let writes = [
            ("members.csv", measurement::members_csv(&[&report])),
            ("components.csv", measurement::components_csv(&[&report])),
            ("trace.csv", measurement::trace_csv(&exec.trace)),
        ];
        for (name, body) in writes {
            if let Err(e) = std::fs::write(base.join(name), body) {
                eprintln!("--csv {name}: {e}");
                return 1;
            }
        }
        println!("wrote members.csv, components.csv, trace.csv to {dir}");
    }
    if let Some(path) = flag_value(args, "--json") {
        if !write_report_json(path, &report) {
            return 1;
        }
    }
    0
}

/// Writes `report` to `path` as indented JSON; false, after saying why,
/// when the file cannot be written.
fn write_report_json(path: &str, report: &measurement::EnsembleReport) -> bool {
    let body = json::pretty(&json::encoded(|out| report.write_json(out)));
    match std::fs::write(path, body) {
        Ok(()) => {
            println!("wrote report to {path}");
            true
        }
        Err(e) => {
            eprintln!("--json: {e}");
            false
        }
    }
}

/// Parses `flag`'s fault-plan `spec` and refuses, by name, the first
/// clause the command does not apply: `serve` (`service`) applies only
/// the journal's and the replication stream's clauses, `run --threaded`
/// only the others.
fn parse_fault_plan(flag: &str, spec: &str, service: bool) -> Result<FaultPlan, String> {
    let plan = FaultPlan::parse(spec).map_err(|e| format!("{flag}: {e}"))?;
    let applies = |c: &&str| insitu_ensembles::dtl::SERVICE_CLAUSES.contains(c) == service;
    let Some(clause) = plan.clauses().into_iter().find(|c| !applies(c)) else {
        return Ok(plan);
    };
    let (this, other) = if service {
        ("serve", "run --threaded --fault-plan")
    } else {
        ("run --threaded", "serve --svc-fault")
    };
    Err(format!("{flag}: {this} does not apply clause '{clause}' ({other} does)"))
}

/// `ensemble run <config> --threaded`: run the real-kernel runtime,
/// optionally under a fault plan, and report per-member outcomes plus
/// retry/fault counters alongside the usual report table.
fn cmd_run_threaded(target: &str, args: &[String]) -> i32 {
    use insitu_ensembles::runtime::build_threaded_report;

    let Some(id) = parse_config(target) else {
        eprintln!("run --threaded: '{target}' is not a config label (see `ensemble list`)");
        return 2;
    };
    let mut cfg = ThreadRunConfig {
        spec: id.build(),
        md: MdConfig { atoms_per_side: 5, stride: 10, ..Default::default() },
        analysis_group_size: 32,
        n_steps: 6,
        ..Default::default()
    };
    if let Some(steps) = flag_value(args, "--steps") {
        match steps.parse() {
            Ok(n) => cfg.n_steps = n,
            Err(e) => {
                eprintln!("run --threaded: --steps: {e}");
                return 2;
            }
        }
    }
    if let Some(spec) = flag_value(args, "--fault-plan") {
        match parse_fault_plan("--fault-plan", spec, false) {
            Ok(plan) => cfg.fault_plan = Some(plan),
            Err(e) => {
                eprintln!("run --threaded: {e}");
                return 2;
            }
        }
    }
    if let Some(attempts) = flag_value(args, "--retry-attempts") {
        match attempts.parse() {
            Ok(n) => cfg.retry = Some(RetryPolicy::with_attempts(n)),
            Err(e) => {
                eprintln!("run --threaded: --retry-attempts: {e}");
                return 2;
            }
        }
    }
    if let Some(restarts) = flag_value(args, "--restarts") {
        match restarts.parse() {
            Ok(n) => cfg.restart = Some(RestartPolicy { max_restarts: n }),
            Err(e) => {
                eprintln!("run --threaded: --restarts: {e}");
                return 2;
            }
        }
    }

    let spec = cfg.spec.clone();
    let exec = match run_threaded(&cfg) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("run --threaded failed: {e}");
            return 1;
        }
    };
    for (i, outcome) in exec.member_outcomes.iter().enumerate() {
        match outcome {
            MemberOutcome::Completed => println!("EM{}: completed", i + 1),
            MemberOutcome::Restarted { attempts } => {
                println!("EM{}: completed after {attempts} restart(s)", i + 1);
            }
            MemberOutcome::Failed { step, cause } => {
                println!("EM{}: FAILED at step {step}: {cause}", i + 1);
            }
        }
    }
    println!(
        "staging: {} puts, {} gets, {} retries, {} giveups; faults injected: {}",
        exec.staging_stats.puts,
        exec.staging_stats.gets,
        exec.staging_stats.retries,
        exec.staging_stats.giveups,
        exec.fault_stats.total_injected(),
    );
    match build_threaded_report(id.label(), &spec, &exec, cfg.n_steps, WarmupPolicy::default()) {
        Ok(report) => {
            println!("{}", report.to_table());
            if let Some(path) = flag_value(args, "--json") {
                if !write_report_json(path, &report) {
                    return 1;
                }
            }
            if exec.member_outcomes.iter().any(|o| o.is_failed()) {
                1
            } else {
                0
            }
        }
        Err(e) => {
            // Every member failing leaves nothing to report on.
            eprintln!("report failed: {e}");
            1
        }
    }
}

fn cmd_predict(args: &[String]) -> i32 {
    let Some(target) = args.first() else {
        eprintln!("predict: missing config label or experiment file");
        return 2;
    };
    let (label, run_cfg) = match load_run(target, args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("predict: {e}");
            return 1;
        }
    };
    match insitu_ensembles::runtime::predict(&run_cfg) {
        Ok(p) => {
            println!("{label}: predicted ensemble makespan {:.2}s", p.ensemble_makespan);
            for (i, m) in p.members.iter().enumerate() {
                println!(
                    "  EM{}: sigma* {:.3}s, E {:.4}, CP {:.3}, makespan {:.2}s",
                    i + 1,
                    m.sigma_star,
                    m.efficiency,
                    m.cp,
                    m.makespan
                );
            }
            0
        }
        Err(e) => {
            eprintln!("predict failed: {e}");
            1
        }
    }
}

fn cmd_sweep() -> i32 {
    match core_sweep(&CoreSweepConfig::paper()) {
        Ok(sweep) => {
            println!("cores  S*+W*     R*+A*     sigma*    E       Eq.4");
            for p in &sweep.points {
                println!(
                    "{:>5} {:>8.2}s {:>8.2}s {:>8.2}s {:>7.4} {}",
                    p.analysis_cores,
                    p.sim_busy,
                    p.ana_busy,
                    p.sigma_star,
                    p.efficiency,
                    if p.satisfies_eq4 { "yes" } else { "no" }
                );
            }
            println!("recommended analysis cores: {}", sweep.recommended_cores);
            0
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            1
        }
    }
}

fn cmd_advise(args: &[String]) -> i32 {
    let parsed = (|| -> Result<_, String> {
        let members = flag(args, "--members")?.unwrap_or(2);
        let k = flag(args, "--k")?.unwrap_or(1);
        let max_nodes = flag(args, "--nodes")?.unwrap_or(3);
        let cores_per_node = flag(args, "--cores")?.unwrap_or(32);
        Ok((members, k, scheduling::NodeBudget { max_nodes, cores_per_node }))
    })();
    let (members, k, budget) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("advise: {e}");
            return 2;
        }
    };
    match scheduling::recommend_with_core_sweep(members, 16, k, budget) {
        Ok(rec) => {
            println!("{}", rec.rationale);
            for (i, m) in rec.spec.members.iter().enumerate() {
                println!(
                    "  EM{}: Sim@{:?}, Ana@{:?}",
                    i + 1,
                    m.simulation.nodes,
                    m.analyses.iter().map(|a| a.nodes.clone()).collect::<Vec<_>>()
                );
            }
            0
        }
        Err(e) => {
            eprintln!("advise failed: {e}");
            1
        }
    }
}

fn cmd_diagnose(args: &[String]) -> i32 {
    let Some(target) = args.first() else {
        eprintln!("diagnose: missing config label or experiment file");
        return 2;
    };
    let (label, run_cfg) = match load_run(target, args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("diagnose: {e}");
            return 1;
        }
    };
    let spec = run_cfg.spec.clone();
    let exec = match run_simulated(&run_cfg) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("diagnose run failed: {e}");
            return 1;
        }
    };
    let report = match build_report(&label, &spec, &exec, run_cfg.n_steps, WarmupPolicy::default())
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("diagnose report failed: {e}");
            return 1;
        }
    };
    let findings = insitu_ensembles::runtime::diagnose(
        &report,
        &insitu_ensembles::runtime::DiagnosticConfig::default(),
    );
    println!("{label}:");
    print!("{}", insitu_ensembles::runtime::render_findings(&findings));
    0
}

const DEFAULT_SVC_ADDR: &str = "127.0.0.1:7717";

fn cmd_serve(args: &[String]) -> i32 {
    if flag_value(args, "--standby-of").is_some() || flag_value(args, "--follow").is_some() {
        return cmd_serve_standby(args);
    }
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_SVC_ADDR);
    let config = match parse_svc_config(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: {e}");
            return 2;
        }
    };
    run_server(addr, config)
}

/// Everything `serve` and a promoting standby share: worker pool,
/// queue, cache, deadline, journal, co-scheduler, and tenant policy
/// flags folded into one [`SvcConfig`].
fn parse_svc_config(args: &[String]) -> Result<insitu_ensembles::service::SvcConfig, String> {
    use insitu_ensembles::service::SvcConfig;

    let mut config = SvcConfig::default();
    config.workers = flag(args, "--workers")?.unwrap_or(config.workers);
    config.queue_capacity = flag(args, "--queue")?.unwrap_or(config.queue_capacity);
    config.cache_capacity = flag(args, "--cache")?.unwrap_or(config.cache_capacity);
    config.scan_workers = flag(args, "--scan-workers")?.unwrap_or(config.scan_workers);
    config.default_deadline = flag(args, "--deadline")?.map(std::time::Duration::from_millis);
    if let Some(path) = flag_value(args, "--journal") {
        use insitu_ensembles::service::{FsyncPolicy, JournalConfig};
        let mut journal = JournalConfig::new(path);
        if let Some(policy) = flag_value(args, "--journal-fsync") {
            journal.fsync = match policy.split_once(':') {
                None if policy == "per-record" => FsyncPolicy::PerRecord,
                None if policy == "batched" => FsyncPolicy::default(),
                Some(("batched", n)) => match n.parse::<u32>() {
                    Ok(n) if n > 0 => FsyncPolicy::Batched(n),
                    _ => {
                        return Err(
                            "--journal-fsync batched:N needs a positive integer N".to_string()
                        );
                    }
                },
                _ => {
                    return Err(format!(
                        "--journal-fsync must be 'per-record' or 'batched[:N]', got '{policy}'"
                    ));
                }
            };
        }
        if let Some(bytes) = flag_value(args, "--journal-max-bytes") {
            match bytes.parse::<u64>() {
                Ok(b) if b > 0 => journal.max_bytes = b,
                _ => return Err("--journal-max-bytes needs a positive integer".to_string()),
            }
        }
        if let Some(spec) = flag_value(args, "--svc-fault") {
            journal.fault = Some(parse_fault_plan("--svc-fault", spec, true)?);
        }
        config.journal = Some(journal);
    } else if flag_value(args, "--svc-fault").is_some() {
        return Err("--svc-fault needs --journal (faults hit the durability layer)".to_string());
    }
    if has_flag(args, "--cosched") {
        use insitu_ensembles::service::{CoschedSvcConfig, Workloads};
        let budget = insitu_ensembles::scheduling::NodeBudget {
            max_nodes: match flag(args, "--cosched-nodes")?.unwrap_or(4) {
                0 => return Err("--cosched-nodes needs a positive integer".to_string()),
                v => v,
            },
            cores_per_node: match flag(args, "--cosched-cores")?.unwrap_or(32) {
                0 => return Err("--cosched-cores needs a positive integer".to_string()),
                v => v,
            },
        };
        let mut cosched = CoschedSvcConfig::new(budget);
        cosched.workloads =
            if has_flag(args, "--paper") { Workloads::Paper } else { Workloads::Small };
        if let Some(n) = flag_value(args, "--cosched-queue") {
            match n.parse::<usize>() {
                Ok(n) if n > 0 => cosched.queue_capacity = n,
                _ => return Err("--cosched-queue needs a positive integer".to_string()),
            }
        }
        cosched.backfill = !has_flag(args, "--cosched-no-backfill");
        config.cosched = Some(cosched);
    }
    // NAME=VALUE pairs, repeatable; tags are validated with the same
    // rule the wire decoder applies so a policy can never name a tenant
    // no request could ever carry.
    let parse_tenant_pairs = |flag: &str| -> Result<Vec<(String, u64)>, String> {
        flag_values(args, flag)
            .into_iter()
            .map(|pair| {
                let (name, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("{flag} expects NAME=VALUE, got '{pair}'"))?;
                insitu_ensembles::service::protocol::validate_tenant(name)
                    .map_err(|e| format!("{flag}: {e}"))?;
                let value: u64 = value.parse().map_err(|e| format!("{flag} {name}: {e}"))?;
                Ok((name.to_string(), value))
            })
            .collect()
    };
    config.tenant_policy.quotas.extend(parse_tenant_pairs("--tenant-quota")?);
    config.tenant_policy.weights.extend(parse_tenant_pairs("--tenant-weight")?);
    if let Some(n) = flag_value(args, "--tenant-default-quota") {
        match n.parse::<u64>() {
            Ok(n) if n > 0 => config.tenant_policy.default_quota = Some(n),
            _ => return Err("--tenant-default-quota needs a positive integer".to_string()),
        }
    }
    Ok(config)
}

/// Binds and serves until stdin closes, then drains — the tail of
/// `serve`, shared with a promoted standby.
fn run_server(addr: &str, config: insitu_ensembles::service::SvcConfig) -> i32 {
    let journaled = config.journal.as_ref().map(|j| j.path.display().to_string());
    let handle = match insitu_ensembles::service::serve(addr, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: cannot bind {addr} or open the journal: {e}");
            return 1;
        }
    };
    let m = handle.metrics();
    println!(
        "ensemble service listening on {} ({} workers, queue {}); close stdin for graceful drain",
        handle.addr(),
        handle.service().workers(),
        m.get("queue_capacity"),
    );
    if let Some(path) = journaled {
        println!(
            "journal {path}: replayed {} scores, {} runs ({} lines dropped)",
            m.get("journal_replayed_scores"),
            m.get("journal_replayed_runs"),
            m.get("journal_replay_dropped")
        );
    }
    if m.get("cosched_enabled") == 1.0 {
        println!(
            "co-scheduler on: {} open reservations restored, {} cores committed",
            m.get("cosched_open_reservations"),
            m.get("cosched_committed_cores")
        );
    }
    let policy = &handle.service().config().tenant_policy;
    if policy.is_active() {
        let quotas: Vec<String> = policy.quotas.iter().map(|(n, q)| format!("{n}={q}")).collect();
        let weights: Vec<String> = policy.weights.iter().map(|(n, w)| format!("{n}={w}")).collect();
        println!(
            "tenant policy on: quotas [{}], weights [{}], default quota {}",
            quotas.join(", "),
            weights.join(", "),
            policy.default_quota.map_or("unlimited".to_string(), |q| q.to_string()),
        );
    }
    // Serve until stdin closes (Ctrl-D, or the end of a piped script),
    // then drain: everything already admitted still gets its answer.
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::stdin().read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let m = handle.metrics();
    println!(
        "draining: {} completed, {} rejected, cache hit rate {:.2}",
        m.get("requests_completed"),
        m.get("requests_rejected_overload"),
        m.get("cache_hit_rate")
    );
    handle.shutdown();
    0
}

/// `serve --standby-of ADDR --journal LOCAL` or `serve --follow FILE`:
/// follow a primary, serve read-only metrics/attach, and optionally
/// (`--auto-promote`) take over once the primary's heartbeats stop.
fn cmd_serve_standby(args: &[String]) -> i32 {
    use insitu_ensembles::service::{JournalConfig, Standby, StandbyConfig, StandbySource};

    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_SVC_ADDR);
    let source = if let Some(primary) = flag_value(args, "--standby-of") {
        let Some(local) = flag_value(args, "--journal") else {
            eprintln!(
                "serve: --standby-of needs --journal FILE (the local copy records stream into)"
            );
            return 2;
        };
        StandbySource::Primary { addr: primary.to_string(), local: local.into() }
    } else {
        let file = flag_value(args, "--follow").expect("caller checked");
        StandbySource::File(file.into())
    };
    let described = match &source {
        StandbySource::File(path) => format!("following journal {}", path.display()),
        StandbySource::Primary { addr, local } => {
            format!("replicating from {} into {}", addr, local.display())
        }
    };
    let mut standby_config = StandbyConfig::new(source);
    standby_config.serve_addr = Some(addr.to_string());
    if let Some(ms) = flag_value(args, "--heartbeat-ms") {
        match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => standby_config.heartbeat = std::time::Duration::from_millis(ms),
            _ => {
                eprintln!("serve: --heartbeat-ms needs a positive integer");
                return 2;
            }
        }
    }
    if let Some(n) = flag_value(args, "--dead-after") {
        match n.parse::<u32>() {
            Ok(n) if n > 0 => standby_config.dead_after_beats = n,
            _ => {
                eprintln!("serve: --dead-after needs a positive integer (missed heartbeats)");
                return 2;
            }
        }
    }
    // The flags a promoted standby serves with are checked now, not when
    // the primary dies: a spec it cannot serve with must not leave the
    // platform without a server then. It serves the journal it follows.
    let mut svc_args = args.to_vec();
    if let (StandbySource::File(path), None) =
        (&standby_config.source, flag_value(args, "--journal"))
    {
        svc_args.extend(["--journal".to_string(), path.display().to_string()]);
    }
    let mut config = match parse_svc_config(&svc_args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: {e}");
            return 2;
        }
    };
    let auto_promote = has_flag(args, "--auto-promote");
    let standby = match Standby::start(standby_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start standby: {e}");
            return 1;
        }
    };
    println!(
        "ensemble standby listening on {} ({described}); read-only until promoted{}",
        standby.addr().map_or_else(|| addr.to_string(), |a| a.to_string()),
        if auto_promote { "; will auto-promote when the primary dies" } else { "" },
    );
    // Close stdin to stop a supervised standby; with --auto-promote the
    // loop also watches the primary's heartbeats.
    let stdin_closed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let stdin_closed = std::sync::Arc::clone(&stdin_closed);
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match std::io::stdin().read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            stdin_closed.store(true, std::sync::atomic::Ordering::Release);
        });
    }
    loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if stdin_closed.load(std::sync::atomic::Ordering::Acquire) {
            let s = standby.status();
            println!(
                "standby stopping: {} records applied, {} runs indexed, epoch {}",
                s.records_applied, s.runs_indexed, s.epoch
            );
            drop(standby);
            return 0;
        }
        if auto_promote && standby.primary_dead() {
            break;
        }
    }
    let status = standby.status();
    println!(
        "primary dead (epoch {}, {} records applied, {} runs indexed): promoting",
        status.epoch, status.records_applied, status.runs_indexed
    );
    // Release the read-only listener and the follower, then start a
    // full server on the same address over the followed journal with
    // the fencing epoch bumped.
    let journal_path = standby.stop();
    let mut journal =
        config.journal.take().unwrap_or_else(|| JournalConfig::new(journal_path.clone()));
    journal.path = journal_path;
    journal.promote = true;
    config.journal = Some(journal);
    run_server(addr, config)
}

/// The request `ensemble query KIND [flags]` sends, or why it cannot be
/// built — which `query` reports on one line, exiting 2 before any
/// connection is attempted.
fn query_request(
    kind: &str,
    args: &[String],
) -> Result<insitu_ensembles::service::Request, String> {
    use insitu_ensembles::service::{
        ProgressSpec, Request, RequestBody, RunRequest, ScoreRequest, SubmitRequest, Workloads,
    };

    let id = flag(args, "--id")?.unwrap_or(1);
    let deadline = flag(args, "--deadline")?.map(std::time::Duration::from_millis);
    let workloads = if has_flag(args, "--small") { Workloads::Small } else { Workloads::Paper };
    // `--progress` alone opts in at the server's default time cadence;
    // either cadence flag implies the opt-in.
    let every_candidates = flag(args, "--progress-every")?;
    let every_ms = flag(args, "--progress-every-ms")?;
    let progress =
        (has_flag(args, "--progress") || every_candidates.is_some() || every_ms.is_some())
            .then_some(ProgressSpec { every_candidates, every_ms });
    let tenant = flag_value(args, "--tenant").map(str::to_string);
    let shape = || -> Result<_, String> {
        Ok(scheduling::EnsembleShape::uniform(
            flag(args, "--members")?.unwrap_or(2),
            flag(args, "--sim-cores")?.unwrap_or(16),
            flag(args, "--k")?.unwrap_or(1),
            flag(args, "--ana-cores")?.unwrap_or(8),
        ))
    };
    let steps = |default: u64| flag(args, "--steps").map(|s| s.unwrap_or(default));
    let jitter = || flag(args, "--jitter").map(|j| j.unwrap_or(0.0));
    let seed = || flag(args, "--seed").map(|s| s.unwrap_or(0));

    let body = match kind {
        "metrics" => RequestBody::Metrics,
        "attach" => RequestBody::Attach {
            job: flag(args, "--job")?
                .ok_or("--job ID (the request id of the original run) is required")?,
        },
        "score" => RequestBody::Score(ScoreRequest {
            shape: shape()?,
            budget: scheduling::NodeBudget {
                max_nodes: flag(args, "--nodes")?.unwrap_or(3),
                cores_per_node: flag(args, "--cores")?.unwrap_or(32),
            },
            top_k: flag(args, "--top-k")?.unwrap_or(5),
            steps: steps(6)?,
            workloads,
            workers: flag(args, "--workers")?.unwrap_or(0),
        }),
        "run" => {
            let target = args.get(1).ok_or("missing config label (e.g. C1.5)")?;
            let config_id = parse_config(target)
                .ok_or_else(|| format!("unknown config label '{target}' (see `ensemble list`)"))?;
            RequestBody::Run(RunRequest {
                spec: config_id.build(),
                steps: steps(8)?,
                jitter: jitter()?,
                seed: seed()?,
                workloads,
            })
        }
        "submit" => RequestBody::Submit(SubmitRequest {
            shape: shape()?,
            steps: steps(6)?,
            jitter: jitter()?,
            seed: seed()?,
            workloads,
        }),
        _ => return Err("unknown request kind (score|run|submit|attach|metrics)".to_string()),
    };
    Ok(Request { id, deadline, progress, tenant, body })
}

fn cmd_query(args: &[String]) -> i32 {
    use insitu_ensembles::service::{
        FailoverClient, FailoverPolicy, Progress, ProgressBody, Response, SvcClient,
    };

    let Some(kind) = args.first().map(String::as_str) else {
        eprintln!("query: missing request kind (score|run|submit|attach|metrics)");
        return 2;
    };
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_SVC_ADDR);
    let request = match query_request(kind, args) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("query {kind}: {e}");
            return 2;
        }
    };

    // Progress frames paint a live status line on stderr (stdout stays
    // clean for the final result, `--json` included).
    let live = |text: String| {
        use std::io::Write;
        eprint!("\r\x1b[2K{text}");
        let _ = std::io::stderr().flush();
    };
    let on_progress = |p: &Progress| match &p.body {
        ProgressBody::Score { candidates_scanned, best_objective, workers } => {
            let best = match best_objective {
                Some(b) => format!("{b:.4e}"),
                None => "-".to_string(),
            };
            live(format!(
                "scanned {candidates_scanned} candidates on {workers} workers, best {best}"
            ));
        }
        ProgressBody::Run { steps, member_steps } => {
            live(format!("step {steps} (members at {member_steps:?})"));
        }
        ProgressBody::Submit { queue_depth, assignment } => match (queue_depth, assignment) {
            (Some(depth), _) => live(format!("queued behind {depth} ensembles")),
            (_, Some(nodes)) => live(format!("placed on nodes {nodes:?}, starting")),
            _ => {}
        },
    };
    // `--addr` takes a comma-separated list (primary first, standbys
    // after); more than one address engages the failover client.
    let addrs: Vec<String> =
        addr.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect();
    let response = if addrs.len() > 1 {
        let mut client = FailoverClient::new(addrs, FailoverPolicy::default());
        client.request_streaming(&request, |p| on_progress(p))
    } else {
        match SvcClient::connect(addr) {
            Ok(mut client) => client.request_streaming(&request, |p| on_progress(p)),
            Err(e) => {
                eprintln!("query: cannot connect to {addr}: {e} (is `ensemble serve` running?)");
                return 1;
            }
        }
    };
    if request.progress.is_some() {
        // End the live line before printing the result.
        eprintln!();
    }
    let response = match response {
        Ok(r) => r,
        Err(e) => {
            eprintln!("query: {e}");
            return 1;
        }
    };
    if has_flag(args, "--json") {
        println!("{}", response.to_json());
        return match response {
            Response::Error { .. } => 1,
            Response::Overloaded { .. } => 3,
            _ => 0,
        };
    }
    match response {
        Response::ScoreResult {
            placements,
            cached,
            elapsed_ms,
            scan_workers,
            candidates_scanned,
            ..
        } => {
            println!(
                "{} placements ({}; {:.2} ms)",
                placements.len(),
                if cached {
                    "cached".to_string()
                } else {
                    format!("{candidates_scanned} candidates scanned on {scan_workers} workers")
                },
                elapsed_ms
            );
            println!("rank  nodes  objective     makespan  Eq.4  assignment");
            for (rank, p) in placements.iter().enumerate() {
                println!(
                    "{:>4} {:>6} {:>10.4e} {:>10.2}s  {:>4}  {:?}",
                    rank + 1,
                    p.nodes_used,
                    p.objective,
                    p.ensemble_makespan,
                    if p.eq4_satisfied { "yes" } else { "no" },
                    p.assignment
                );
            }
            0
        }
        Response::SubmitResult {
            assignment,
            objective,
            nodes_used,
            backfilled,
            queue_wait_ms,
            residual,
            ensemble_makespan,
            members,
            elapsed_ms,
            ..
        } => {
            println!(
                "placed on {nodes_used} node(s) {assignment:?} (objective {objective:.4e}{})",
                if backfilled { ", backfilled" } else { "" }
            );
            println!(
                "queue wait {queue_wait_ms:.1} ms; residual cores after placement {residual:?}"
            );
            println!("ensemble makespan {ensemble_makespan:.2}s ({elapsed_ms:.2} ms)");
            for (i, m) in members.iter().enumerate() {
                println!(
                    "  EM{}: sigma* {:.3}s, E {:.4}, CP {:.3}, makespan {:.2}s",
                    i + 1,
                    m.sigma_star,
                    m.efficiency,
                    m.cp,
                    m.makespan
                );
            }
            0
        }
        Response::RunResult { ensemble_makespan, members, elapsed_ms, .. } => {
            println!("ensemble makespan {ensemble_makespan:.2}s ({elapsed_ms:.2} ms)");
            for (i, m) in members.iter().enumerate() {
                println!(
                    "  EM{}: sigma* {:.3}s, E {:.4}, CP {:.3}, makespan {:.2}s",
                    i + 1,
                    m.sigma_star,
                    m.efficiency,
                    m.cp,
                    m.makespan
                );
            }
            0
        }
        Response::Metrics { rows, .. } => {
            for (name, value) in rows {
                println!("{name} {value}");
            }
            0
        }
        Response::Overloaded { retry_after_ms, .. } => {
            eprintln!("service overloaded; retry after {retry_after_ms} ms");
            3
        }
        Response::Error { kind, message, .. } => {
            eprintln!("request failed ({}): {message}", kind.tag());
            1
        }
    }
}

fn cmd_energy(args: &[String]) -> i32 {
    let Some(target) = args.first() else {
        eprintln!("energy: missing config label");
        return 2;
    };
    let (label, run_cfg) = match load_run(target, args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("energy: {e}");
            return 1;
        }
    };
    let exec = match run_simulated(&run_cfg) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("energy run failed: {e}");
            return 1;
        }
    };
    let cores: HashMap<_, _> =
        exec.allocations.iter().map(|(c, a)| (*c, a.total_cores())).collect();
    let nodes: HashMap<_, _> = exec.allocations.iter().map(|(c, a)| (*c, a.node)).collect();
    let report = measurement::run_energy(&exec.trace, &run_cfg.power_model, &cores, &nodes);
    println!(
        "{label}: total {:.1} MJ over {:.1}s (average {:.0} W)",
        report.total_joules / 1e6,
        report.span_seconds,
        report.average_watts()
    );
    let mut components: Vec<_> = report.per_component.iter().collect();
    components.sort_by_key(|(c, _)| **c);
    for (c, joules) in components {
        println!("  {c}: {:.2} MJ", joules / 1e6);
    }
    for (node, watts) in &exec.node_power_watts {
        println!("  node {node}: steady draw {watts:.0} W");
    }
    0
}
