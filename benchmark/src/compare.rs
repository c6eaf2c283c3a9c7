//! `compare <a.json> <b.json>`: one row per (end-to-end metric, workload),
//! judged against the bounds in `BENCHMARK.json`.

use crate::manifest::{Manifest, MetricDef};
use crate::report::Results;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of a side spread wider than the bound and the two sides
    /// overlap: the data cannot say either way.
    Unresolved,
}

/// Judge the runs `b` (the change) against the runs `a` (the parent).
///
/// Within the spread the bound allows, `b` regresses when its median is
/// worse than `a`'s by more than the bound. With a wider spread the medians
/// decide nothing: the verdict is `Ok` only if every run of `b` reads better
/// than every run of `a`, `Regressed` only if every one reads worse and the
/// medians differ by more than the bound, and `Unresolved` otherwise.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| f(x, y)));
    let verdict = if spread > bound {
        if all(&better) {
            Verdict::Ok
        } else if worse_by > bound && all(&|x, y| better(y, x)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

/// Print the comparison; returns the process exit code: 0 when every row is
/// ok, 1 when any regressed, 3 when none regressed but some are unresolved.
pub fn compare(manifest: &Manifest, a: &Results, b: &Results) -> i32 {
    println!(
        "a: commit {} seed {} ({} cores, width {})\nb: commit {} seed {} ({} cores, width {})",
        a.commit,
        a.seed,
        a.host_cores,
        a.engine_width,
        b.commit,
        b.seed,
        b.host_cores,
        b.engine_width
    );
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse", "spread", "bound"
    );
    let (mut regressed, mut unresolved) = (false, false);
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<12} missing from b", wa.name);
            unresolved = true;
            continue;
        };
        for def in &manifest.end_to_end {
            let runs = |w: &crate::report::WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|(_, r)| r.clone())
                    .unwrap_or_default()
            };
            let (ra, rb) = (runs(wa), runs(wb));
            if ra.is_empty() || rb.is_empty() {
                println!("{:<12} {:<24} no runs on one side", wa.name, def.name);
                unresolved = true;
                continue;
            }
            let (verdict, worse_by, spread) = judge(def, &ra, &rb);
            regressed |= verdict == Verdict::Regressed;
            unresolved |= verdict == Verdict::Unresolved;
            println!(
                "{:<12} {:<24} {:>12.5} {:>12.5} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                wa.name,
                def.name,
                stats::median(&ra),
                stats::median(&rb),
                worse_by * 100.0,
                spread * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let share = |w: &crate::report::WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        let more_failures = share(wb) > share(wa);
        regressed |= more_failures;
        println!(
            "{:<12} failed ops: a {}/{}  b {}/{}  {}",
            wa.name,
            wa.failed,
            wa.attempted,
            wb.failed,
            wb.attempted,
            if more_failures { "regressed" } else { "ok" }
        );
        if a.seed == b.seed {
            println!(
                "{:<12} modeled-result digest: {}",
                wa.name,
                if wa.digest == wb.digest {
                    "same"
                } else {
                    "differs (a model change, if it was meant)"
                }
            );
        }
    }
    match (regressed, unresolved) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "round_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let def = lower(0.08);
        let a = [1.00, 1.01, 0.99, 1.00, 1.01];
        assert_eq!(
            judge(&def, &a, &[1.05, 1.06, 1.05, 1.04, 1.05]).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&def, &a, &[1.10, 1.11, 1.10, 1.09, 1.10]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&def, &a, &[0.5, 0.5, 0.5, 0.5, 0.5]).0, Verdict::Ok);
    }

    #[test]
    fn wide_runs_are_unresolved_unless_the_sides_separate() {
        let def = lower(0.08);
        let a = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(
            judge(&def, &a, &[1.0, 1.2, 0.9, 1.1, 1.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&def, &a, &[0.7, 0.6, 0.5, 0.7, 0.6]).0, Verdict::Ok);
        assert_eq!(
            judge(&def, &a, &[1.5, 1.6, 1.4, 1.7, 1.5]).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let def = MetricDef {
            higher_is_better: true,
            ..lower(0.08)
        };
        let (verdict, worse_by, _) = judge(&def, &[2.0], &[1.5]);
        assert_eq!(verdict, Verdict::Regressed);
        assert!((worse_by - 0.25).abs() < 1e-12);
        assert_eq!(judge(&def, &[2.0], &[2.5]).0, Verdict::Ok);
    }
}
