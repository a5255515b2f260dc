//! `e2e compare <setA> <setB>`: two sets of untraced result files, one
//! row per (workload, end-to-end metric), each side's median and
//! quartiles, and a verdict by the rule in the choosing-metrics guide.
//! Set A is the parent, set B the change.

use std::collections::BTreeMap;
use std::path::Path;

use crate::probes;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one commit differ among themselves by more than the
    /// bound: the sets cannot show that nothing got worse.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn quartiles(values: &[f64]) -> [f64; 3] {
    match values {
        [one] => [*one; 3],
        more => stats::quartiles(more),
    }
}

/// The verdict for one metric on one workload. `parent` and `change`
/// are the values of the runs in order; run `i` of one is paired with
/// run `i` of the other. `bound` is the share of the parent's median by
/// which the metric may worsen.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { b < a } else { b > a };
    let [pq1, pmed, pq3] = quartiles(parent);
    let [cq1, cmed, cq3] = quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(a, b)| better(**a, **b)).count();
    // A gain: the change wins nine pairs in ten, and the medians are
    // further apart than the parent's own runs are from each other.
    if wins * 10 >= pairs * 9 && better(pmed, cmed) && (cmed - pmed).abs() > pq3 - pq1 {
        return Verdict::Improved;
    }
    let worse_by = if lower_is_better { cmed - pmed } else { pmed - cmed } / pmed.abs();
    let every_run_worse = parent.iter().all(|a| change.iter().all(|b| better(*b, *a)));
    if worse_by > bound && every_run_worse {
        return Verdict::Regressed;
    }
    let spread = ((pq3 - pq1) / pmed.abs()).max((cq3 - cq1) / cmed.abs());
    let every_run_better = parent.iter().all(|a| change.iter().all(|b| better(*a, *b)));
    if spread > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Regressed;
    }
    Verdict::Unchanged
}

/// `(workload, metric) -> values`, runs in file-name order.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read_set(dir: &Path) -> Result<Set, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    let mut set = Set::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result =
            probes::parse_result_file(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // Per-layer metrics have no bound; only untraced runs are judged.
        if result.traced {
            continue;
        }
        for (metric, value) in result.metrics {
            set.entry((result.workload.clone(), metric)).or_default().push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let (dirs, bounds_path) = match args {
        [a, b] => ([a, b], "BENCHMARK.json".to_string()),
        [a, b, flag, path] if flag == "--bounds" => ([a, b], path.clone()),
        _ => return Err("usage: e2e compare <dirA> <dirB> [--bounds <BENCHMARK.json>]".into()),
    };
    let bounds_text =
        std::fs::read_to_string(&bounds_path).map_err(|e| format!("{bounds_path}: {e}"))?;
    let bounds = probes::parse_benchmark(&bounds_text)
        .map_err(|e| format!("{bounds_path}: {e}"))?
        .end_to_end;
    let parent = read_set(Path::new(dirs[0]))?;
    let change = read_set(Path::new(dirs[1]))?;
    println!(
        "{:<17} {:<17} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "wins"
    );
    let mut all_hold = true;
    for ((workload, metric), a) in &parent {
        let Some(b) = change.get(&(workload.clone(), metric.clone())) else { continue };
        let Some((_, lower, bound)) = bounds.iter().find(|(name, _, _)| name == metric) else {
            continue;
        };
        let better = |x: f64, y: f64| if *lower { y < x } else { y > x };
        let wins = a.iter().zip(b).filter(|(x, y)| better(**x, **y)).count();
        let [aq1, amed, aq3] = quartiles(a);
        let [bq1, bmed, bq3] = quartiles(b);
        let verdict = verdict(a, b, *lower, *bound);
        all_hold &= matches!(verdict, Verdict::Unchanged | Verdict::Improved);
        println!(
            "{workload:<17} {metric:<17} {amed:>12.4} {:>25} {bmed:>12.4} {:>25} {:>+7.1}% {:>6}  {}",
            format!("[{aq1:.4}, {aq3:.4}]"),
            format!("[{bq1:.4}, {bq3:.4}]"),
            (bmed - amed) / amed * 100.0,
            format!("{wins}/{}", a.len().min(b.len())),
            verdict.word()
        );
    }
    Ok(all_hold)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 10] = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];

    fn scaled(values: &[f64], by: f64) -> Vec<f64> {
        values.iter().map(|v| v * by).collect()
    }

    #[test]
    fn the_same_runs_are_unchanged() {
        assert_eq!(verdict(&STEADY, &STEADY, true, 0.10), Verdict::Unchanged);
        // Within the bound, and not a win nine times in ten.
        let mut shuffled = STEADY;
        shuffled.reverse();
        assert_eq!(verdict(&STEADY, &shuffled, false, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_gain_is_improved_in_either_direction() {
        assert_eq!(verdict(&STEADY, &scaled(&STEADY, 0.8), true, 0.10), Verdict::Improved);
        assert_eq!(verdict(&STEADY, &scaled(&STEADY, 1.2), false, 0.10), Verdict::Improved);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_regressed() {
        assert_eq!(verdict(&STEADY, &scaled(&STEADY, 1.2), true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&STEADY, &scaled(&STEADY, 0.8), false, 0.10), Verdict::Regressed);
        // A loss inside the bound is not.
        assert_eq!(verdict(&STEADY, &scaled(&STEADY, 1.05), true, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_never_unchanged() {
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&STEADY, &noisy, true, 0.10), Verdict::Unresolved);
        // Unless every run of the change beats every run of the parent.
        assert_ne!(verdict(&noisy, &scaled(&STEADY, 0.1), true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn one_run_a_side_is_judged_on_its_values() {
        assert_eq!(verdict(&[10.0], &[10.5], true, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&[10.0], &[12.0], true, 0.10), Verdict::Regressed);
    }
}
