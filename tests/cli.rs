//! End-to-end tests of the `ensemble` CLI binary.

use std::process::Command;

fn ensemble() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ensemble"))
}

fn run_ok(args: &[&str]) -> String {
    let out = ensemble().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "`ensemble {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn list_shows_all_configurations() {
    let out = run_ok(&["list"]);
    for label in ["C_f", "C_c", "C1.5", "C2.8"] {
        assert!(out.contains(label), "missing {label} in:\n{out}");
    }
}

#[test]
fn run_paper_config_prints_report_and_objective() {
    let out = run_ok(&["run", "C1.5", "--steps", "6", "--jitter", "0"]);
    assert!(out.contains("C1.5"));
    assert!(out.contains("EM1"));
    assert!(out.contains("F(P^U,A,P)"));
}

#[test]
fn run_accepts_sloppy_labels() {
    let out = run_ok(&["run", "c1_5", "--steps", "4", "--jitter", "0"]);
    assert!(out.contains("C1.5"));
}

#[test]
fn predict_matches_run_shape() {
    let out = run_ok(&["predict", "C2.8"]);
    assert!(out.contains("predicted ensemble makespan"));
    assert!(out.contains("EM2"));
}

#[test]
fn predict_under_a_power_cap_matches_the_capped_run() {
    let predicted = run_ok(&["predict", "C1.4", "--steps", "8", "--cap", "150"]);
    let ran = run_ok(&["run", "C1.4", "--steps", "8", "--jitter", "0", "--cap", "150"]);
    // `predict` prints `  EM1: sigma* 36.707s, E 0.7328, CP …` per
    // member, `run`'s table `  EM1  36.707s  320.56s  0.7328  0.500`.
    let from_predict: Vec<(&str, &str)> = predicted
        .lines()
        .filter_map(|line| {
            let sigma = line.split("sigma* ").nth(1)?.split(',').next()?;
            Some((sigma, line.split(", E ").nth(1)?.split(',').next()?))
        })
        .collect();
    let from_run: Vec<(&str, &str)> = ran
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|fields| fields.len() == 5 && fields[0].starts_with("EM"))
        .map(|fields| (fields[1], fields[3]))
        .collect();
    assert_eq!(from_predict.len(), 2, "{predicted}");
    assert_eq!(from_predict, from_run, "predict:\n{predicted}\nrun:\n{ran}");
}

#[test]
fn sweep_recommends_eight_cores() {
    let out = run_ok(&["sweep"]);
    assert!(out.contains("recommended analysis cores: 8"), "{out}");
}

#[test]
fn advise_past_eight_components_ranks_in_closed_form_and_confirms_in_the_des() {
    // 8 × (16 + 8) cores fill 6 × 32 exactly.
    let out = run_ok(&["advise", "--members", "8", "--k", "1", "--nodes", "6"]);
    let rationale = out.lines().next().expect("a rationale line");
    assert!(rationale.contains("on 6 nodes"), "{out}");
    // `F(P^U,A,P) = <closed form> (DES <des>)`, equal to the digits shown.
    let f = rationale.split("F(P^U,A,P) = ").nth(1).expect("an objective");
    let (closed, des) = f.split_once(" (DES ").expect("its DES value");
    assert_eq!(Some(closed), des.split(')').next(), "{out}");
    assert_eq!(out.lines().filter(|l| l.trim_start().starts_with("EM")).count(), 8, "{out}");
}

#[test]
fn advise_on_a_budget_nothing_fits_says_so() {
    let args = ["advise", "--members", "2", "--k", "1", "--nodes", "1"];
    let out = ensemble().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "advise failed: no placement fits: the ensemble needs 48 cores, the budget is 1 × 32 \
         cores\n"
    );
}

#[test]
fn advise_on_a_budget_wider_than_the_node_is_refused_before_ranking() {
    // The service's `score` refuses the same budget with the same text.
    let args = ["advise", "--members", "2", "--nodes", "2", "--cores", "64"];
    let out = ensemble().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "advise failed: cores_per_node 64 exceeds the platform node's 32 cores\n"
    );
}

#[test]
fn run_from_experiment_json() {
    let dir = std::env::temp_dir().join(format!("ens-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("exp.json");
    let spec = run_ok(&["example-spec"]);
    std::fs::write(&spec_path, &spec).unwrap();
    let out = run_ok(&["run", spec_path.to_str().unwrap(), "--steps", "4", "--jitter", "0"]);
    assert!(out.contains("c1.5-example"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn csv_and_json_outputs_are_written() {
    let dir = std::env::temp_dir().join(format!("ens-cli-out-{}", std::process::id()));
    let json = dir.join("report.json");
    std::fs::create_dir_all(&dir).unwrap();
    run_ok(&[
        "run",
        "Cc",
        "--steps",
        "4",
        "--jitter",
        "0",
        "--csv",
        dir.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    for file in ["members.csv", "components.csv", "trace.csv", "report.json"] {
        let path = dir.join(file);
        assert!(path.exists(), "{file} missing");
        assert!(std::fs::metadata(&path).unwrap().len() > 10);
    }
    let members = std::fs::read_to_string(dir.join("members.csv")).unwrap();
    assert!(members.starts_with("config,member,sigma_star_s"));
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.starts_with("{\n  \"config\": \"C_c\",\n  \"n\": 1,\n"), "{report}");
    let report = json::Value::parse(&report).expect("report.json is JSON");
    assert_eq!(report.get("n_steps").and_then(json::Value::as_u64), Some(4));
    let members = report.get("members").and_then(json::Value::as_arr).expect("members");
    assert_eq!(members.len(), 1);
    assert!(members[0].get("makespan").and_then(json::Value::as_f64).is_some_and(|m| m > 0.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gantt_flag_renders_timeline() {
    let out = run_ok(&["run", "Cf", "--steps", "4", "--jitter", "0", "--gantt"]);
    assert!(out.contains("legend: S simulate"));
    assert!(out.contains("Sim1"));
}

#[test]
fn energy_reports_watts() {
    let out = run_ok(&["energy", "Cc", "--steps", "6"]);
    assert!(out.contains("average"));
    assert!(out.contains("steady draw"));
}

#[test]
fn capped_energy_run_is_slower() {
    let free = run_ok(&["run", "C1.5", "--steps", "6", "--jitter", "0"]);
    let capped = run_ok(&["run", "C1.5", "--steps", "6", "--jitter", "0", "--cap", "220"]);
    let makespan = |s: &str| -> f64 {
        s.lines()
            .find(|l| l.contains("ensemble makespan"))
            .and_then(|l| l.split("makespan ").nth(1))
            .and_then(|t| t.trim_end_matches("s\n").trim_end_matches('s').parse().ok())
            .expect("parse makespan")
    };
    assert!(makespan(&capped) > makespan(&free), "cap must slow the run");
}

#[test]
fn diagnose_flags_scattered_c1_1() {
    let out = run_ok(&["diagnose", "C1.1", "--steps", "6", "--jitter", "0"]);
    assert!(out.contains("placement indicator"), "{out}");
    assert!(out.contains("Eq. 4"), "{out}");
}

#[test]
fn diagnose_is_quiet_on_healthy_cf() {
    let out = run_ok(&["diagnose", "Cf", "--steps", "20", "--jitter", "0"]);
    // C_f: one member, no contention — at most info-level findings.
    assert!(!out.contains("CRITICAL"), "{out}");
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let out = ensemble().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn a_bad_experiment_file_fails_with_one_line_naming_the_key() {
    let dir = std::env::temp_dir().join(format!("ens-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    let spec = run_ok(&["example-spec"]).replacen("\"work_scale\"", "\"work_scal\"", 1);
    std::fs::write(&path, spec).unwrap();
    let out = ensemble().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "run: invalid experiment file: members[0].analyses[0].work_scal is not a key an \
         experiment file has here\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_flag_value_exits_2_with_one_line_naming_the_flag() {
    // Nothing listens on port 1: a query that got as far as connecting
    // would exit 1, so exit 2 shows the value was refused first.
    for (args, flag) in [
        (&["query", "score", "--top-k", "abc", "--addr", "127.0.0.1:1"][..], "--top-k"),
        (&["query", "score", "--sim-cores", "4294967312", "--addr", "127.0.0.1:1"], "--sim-cores"),
        (&["query", "metrics", "--deadline", "soon", "--addr", "127.0.0.1:1"], "--deadline"),
        (&["advise", "--k", "nope"], "--k"),
        (
            &["serve", "--cosched", "--cosched-cores", "4294967329", "--addr", "127.0.0.1:0"],
            "--cosched-cores",
        ),
    ] {
        let out = ensemble().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`ensemble {}`: {stderr}", args.join(" "));
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(flag), "{stderr}");
    }
}

#[test]
fn bad_config_label_fails_cleanly() {
    let out = ensemble().args(["run", "C9.9"]).output().unwrap();
    assert!(!out.status.success());
}
