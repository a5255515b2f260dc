//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- [table2|table4|fig3|fig4|fig5|fig7|fig8|fig9|ext-lost-frames|ext-ablations|ext-sensitivity|all] [--json DIR]
//! ```
//!
//! Each experiment prints the rows/series of the corresponding paper
//! artifact (the `ext-*` targets: of an EXPERIMENTS.md extension
//! study); `--json DIR` additionally writes machine-readable results.

use std::path::PathBuf;

use bench::experiments;
use bench::render;
use ensemble_core::ConfigId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut json_dir: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_dir = it.next().map(PathBuf::from);
            if json_dir.is_none() {
                eprintln!("--json requires a directory argument");
                std::process::exit(2);
            }
        } else {
            which.push(a);
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let run_all = which.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || which.iter().any(|w| w == name);
    let mut ran_any = false;

    if wants("table2") {
        ran_any = true;
        println!("== Table 2: experimental scenario configuration settings ==");
        println!("{}", render::render_config_table(&ConfigId::set_one()));
    }
    if wants("table4") {
        ran_any = true;
        println!("== Table 4: configurations with two analyses per simulation ==");
        println!("{}", render::render_config_table(&ConfigId::set_two()));
    }
    if wants("fig3") {
        ran_any = true;
        println!("== Figure 3: ensemble-component-level metrics (set one) ==");
        match experiments::fig3_component_metrics() {
            Ok(rows) => {
                println!("{}", render::render_fig3(&rows));
                write_rows(&json_dir, "fig3.json", &rows, experiments::Fig3Row::write_json);
            }
            Err(e) => fail("fig3", &e),
        }
    }
    if wants("fig4") || wants("fig5") {
        ran_any = true;
        println!("== Figures 4 & 5: member and ensemble makespans (set one) ==");
        match experiments::fig45_makespans() {
            Ok(rows) => {
                println!("{}", render::render_fig45(&rows));
                write_rows(&json_dir, "fig45.json", &rows, experiments::MakespanRow::write_json);
            }
            Err(e) => fail("fig4/fig5", &e),
        }
    }
    if wants("fig7") {
        ran_any = true;
        println!("== Figure 7: in situ step and efficiency vs analysis cores ==");
        match experiments::fig7_core_sweep() {
            Ok(sweep) => {
                println!("{}", render::render_fig7(&sweep));
                write_json(&json_dir, "fig7.json", |out| sweep.write_json(out));
            }
            Err(e) => fail("fig7", &e),
        }
    }
    if wants("fig8") {
        ran_any = true;
        println!("== Figure 8: F(P) per indicator stage (set one, higher is better) ==");
        match experiments::fig8_indicators() {
            Ok(rows) => {
                println!("{}", render::render_indicators(&rows));
                summarize_best("Figure 8", &rows);
                write_rows(&json_dir, "fig8.json", &rows, experiments::IndicatorRow::write_json);
            }
            Err(e) => fail("fig8", &e),
        }
    }
    if wants("fig9") {
        ran_any = true;
        println!("== Figure 9: F(P) per indicator stage (set two, higher is better) ==");
        match experiments::fig9_indicators() {
            Ok(rows) => {
                println!("{}", render::render_indicators(&rows));
                summarize_best("Figure 9", &rows);
                write_rows(&json_dir, "fig9.json", &rows, experiments::IndicatorRow::write_json);
            }
            Err(e) => fail("fig9", &e),
        }
    }

    if wants("ext-lost-frames") {
        ran_any = true;
        println!("== Extension: lost frames vs queue depth (in-transit coupling) ==");
        match experiments::ext_lost_frames() {
            Ok(rows) => {
                println!(
                    "{:>6} {:>9} {:>9} {:>6} {:>14} {:>14}",
                    "aload", "queue", "produced", "lost", "sim_idle(s)", "sim_finish(s)"
                );
                for r in &rows {
                    println!(
                        "{:>6.1} {:>9} {:>9} {:>6} {:>14.2} {:>14.1}",
                        r.analysis_scale,
                        if r.queue_capacity == 0 {
                            "sync".to_string()
                        } else {
                            r.queue_capacity.to_string()
                        },
                        r.produced,
                        r.lost,
                        r.sim_idle_seconds,
                        r.sim_finish_seconds
                    );
                }
                println!();
                write_rows(
                    &json_dir,
                    "ext_lost_frames.json",
                    &rows,
                    experiments::LostFramesRow::write_json,
                );
            }
            Err(e) => fail("ext-lost-frames", &e),
        }
    }

    if wants("ext-ablations") {
        ran_any = true;
        println!("== Extension: design ablations ==");
        match experiments::ext_ablations() {
            Ok(text) => println!("{text}"),
            Err(e) => fail("ext-ablations", &e),
        }
    }
    if wants("ext-sensitivity") {
        ran_any = true;
        println!("== Extension: sensitivity to binding, miss curve and power cap ==");
        match experiments::ext_sensitivity() {
            Ok(text) => println!("{text}"),
            Err(e) => fail("ext-sensitivity", &e),
        }
    }

    if !ran_any {
        eprintln!(
            "unknown experiment '{}'; use table2|table4|fig3|fig4|fig5|fig7|fig8|fig9|ext-lost-frames|ext-ablations|ext-sensitivity|all",
            which.join(" ")
        );
        std::process::exit(2);
    }
}

fn summarize_best(figure: &str, rows: &[bench::experiments::IndicatorRow]) {
    let final_path = "U,A,P";
    if let Some(best) = rows
        .iter()
        .filter(|r| r.path == final_path)
        .max_by(|a, b| a.objective.total_cmp(&b.objective))
    {
        let worst = rows
            .iter()
            .filter(|r| r.path == final_path)
            .min_by(|a, b| a.objective.total_cmp(&b.objective))
            .expect("non-empty");
        println!(
            "{figure}: best configuration at F(P^{{U,A,P}}) is {} ({:.3e}); spread best/worst = {:.1}x\n",
            best.config,
            best.objective,
            best.objective / worst.objective.max(f64::MIN_POSITIVE)
        );
    }
}

/// With `--json DIR`: `rows` as an array, each row written by `write`.
fn write_rows<T>(dir: &Option<PathBuf>, name: &str, rows: &[T], write: fn(&T, &mut String)) {
    write_json(dir, name, |out| json::write_seq(out, rows, |out, row| write(row, out)));
}

/// With `--json DIR`: what `write` encodes, indented, as `DIR/name`.
fn write_json(dir: &Option<PathBuf>, name: &str, write: impl FnOnce(&mut String)) {
    if let Some(dir) = dir {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, json::pretty(&json::encoded(write))) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn fail(what: &str, err: &dyn std::fmt::Display) {
    eprintln!("{what} failed: {err}");
    std::process::exit(1);
}
