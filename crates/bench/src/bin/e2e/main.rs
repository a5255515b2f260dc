//! `e2e`: the repository's benchmark. Four workloads drive the service
//! over TCP, the DES path and the threaded staging path end to end, and
//! a traced run attributes the same ops to layers. See `README.md`.
//!
//! ```text
//! e2e run --workload <name|all> --seed <u64> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! e2e compare <dirA> <dirB> [--bounds BENCHMARK.json]
//! ```

mod compare;
mod driver;
mod layers;
mod measure;
mod oracle;
mod probes;
mod report;
mod rng;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::Provenance;
use workload::Workload;

fn usage() -> String {
    format!(
        "usage:
  e2e run --workload <score_cold|run_des|svc_mix|staging_threaded|all> [--seed <u64>]
          [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
  e2e compare <dirA> <dirB> [--bounds <BENCHMARK.json>]
seeds: {} by default; {} is held out for checking claims",
        workload::DEFAULT_SEED,
        workload::HELD_OUT_SEED
    )
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // `--trace` alone means on; `--trace 0|1` is what the driver passes.
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        let mut take = || {
            i += 1;
            value.cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = take()?;
                run.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    one => {
                        vec![Workload::from_name(one).ok_or(format!("unknown workload '{one}'"))?]
                    }
                };
            }
            "--seed" => run.seed = take()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = take()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                run.trace = match value.map(String::as_str) {
                    None => true,
                    Some("0") | Some("1") => take()? == "1",
                    Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => run.quick = true,
            "--out" => run.out = Some(PathBuf::from(take()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if run.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if !(run.seconds.is_finite() && run.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if run.quick && !seconds_given {
        run.seconds = 0.5;
    }
    Ok(run)
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &RunArgs) -> Result<bool, String> {
    // A debug build or a pinned scan-thread count measures something no
    // user runs; refuse rather than print numbers that look comparable.
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".into());
    }
    if std::env::var_os("ENSEMBLE_SCAN_WORKERS").is_some() {
        return Err("refusing to run with ENSEMBLE_SCAN_WORKERS set: the service's own sizing is part of what is measured".into());
    }
    let scratch = driver::scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let git_commit = first_line_of("git", &["rev-parse", "HEAD"]);
    let rustc = first_line_of("rustc", &["--version"]);
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all_correct = true;
    for &workload in &args.workloads {
        let (metrics, tally, latency_samples) = if args.trace {
            let traced = layers::traced(workload, args.seed, args.quick)?;
            let path = scratch.join(format!("trace-{}.json", workload.name()));
            trace::write_json(&path, &traced.spans)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            (traced.metrics, traced.tally, traced.samples)
        } else {
            let measured = measure::end_to_end(workload, args.seed, args.seconds, args.quick)?;
            (measured.metrics, measured.tally, measured.samples)
        };
        for error in &tally.errors {
            eprintln!("e2e: {}: {error}", workload.name());
        }
        all_correct &= tally.failed == 0;
        if let Some(dir) = &args.out {
            let provenance = Provenance {
                workload: workload.name(),
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                quick: args.quick,
                clients: workload.clients(),
                host_cores,
                git_commit: git_commit.clone(),
                rustc: rustc.clone(),
                journal_dir: scratch.display().to_string(),
                journal_fs: driver::fs_type(&scratch),
                latency_samples,
                trace_ops: if args.trace { workload.trace_ops(args.quick) } else { 0 },
            };
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mode = if args.trace { "trace" } else { "e2e" };
            let file = dir.join(format!("{}-seed{}-{mode}.json", workload.name(), args.seed));
            std::fs::write(&file, report::result_file(&provenance, &metrics, &tally))
                .map_err(|e| format!("{}: {e}", file.display()))?;
        }
        println!("{}", report::contract_line(&metrics, &tally));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run_args| run(&run_args)),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(usage()),
    };
    match outcome {
        // A failed check still prints its result, so the failure can be
        // counted; the process itself ran to the end.
        Ok(_) => ExitCode::SUCCESS,
        Err(what) => {
            eprintln!("e2e: {what}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_style_arguments_parse() {
        let run = parse_run(&args("--workload svc_mix --seed 42 --seconds 15 --trace 0")).unwrap();
        assert_eq!((run.workloads.len(), run.seed, run.seconds, run.trace), (1, 42, 15.0, false));
        assert!(parse_run(&args("--workload all --trace 1")).unwrap().trace);
        assert!(parse_run(&args("--workload all --trace --quick")).unwrap().trace);
        assert_eq!(parse_run(&args("--workload all --quick")).unwrap().seconds, 0.5);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload all --trace 2")).is_err());
        assert!(parse_run(&args("--workload all --seconds 0")).is_err());
    }
}
