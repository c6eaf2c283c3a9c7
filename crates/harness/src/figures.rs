//! Per-figure/table data generation: every table and figure of the paper's
//! evaluation has one entry point here that regenerates its data series.
//!
//! Each function returns one or more [`FigureData`] tables that the
//! `hpac-bench` binaries print and persist to CSV. Absolute numbers come
//! from the simulator's cycle model, so the quantities to compare against
//! the paper are the *shapes*: orderings between techniques, crossover
//! locations, and error magnitudes (see EXPERIMENTS.md).

use crate::analyze;
use crate::db::ResultsDb;
use crate::runner::{self, SweepOutcome};
use crate::space::{self, Scale, SweepConfig};
use gpu_sim::memory;
use gpu_sim::DeviceSpec;
use hpac_apps::common::{Benchmark, LaunchParams, QoI};
use hpac_apps::{blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd};
use hpac_core::exec::ExecOptions;
use hpac_core::region::ApproxRegion;
use hpac_core::HierarchyLevel;
use std::path::Path;

/// One printable/saveable data table.
#[derive(Debug, Clone)]
pub struct FigureData {
    pub id: String,
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl FigureData {
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        FigureData {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),

            rows: Vec::new(),
        }
    }

    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Save as CSV under `dir/<id>.csv`.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut s = self.headers.join(",");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        std::fs::write(dir.join(format!("{}.csv", self.id)), s)
    }
}

fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Figure 3: percent of device global memory needed for per-thread
/// memoization tables vs thread count (5-entry tables, 36-byte entries).
pub fn fig03() -> FigureData {
    let spec = DeviceSpec::v100();
    let mut fig = FigureData::new(
        "fig03",
        "Per-thread memoization tables vs V100 global memory",
        &["threads_pow2", "threads", "table_bytes", "pct_of_16GB"],
    );
    for p in 14..=27u32 {
        let threads = 1u128 << p;
        let fit = memory::per_thread_state_fit(&spec, threads, 5 * 36);
        fig.push_row(vec![
            format!("2^{p}"),
            threads.to_string(),
            fit.required_bytes.to_string(),
            f(fit.fraction * 100.0),
        ]);
    }
    fig
}

/// Run the full Table 2 sweep for a set of benchmarks on both devices,
/// returning the populated database (the substrate for Figs 6-12).
pub fn full_sweep(benches: &[&dyn Benchmark], scale: Scale) -> (ResultsDb, Vec<(String, String)>) {
    let mut db = ResultsDb::new();
    let mut rejected = Vec::new();
    for spec in DeviceSpec::evaluation_platforms() {
        for bench in benches {
            let outcome = runner::run_sweep(*bench, &spec, scale);
            db.extend(outcome.rows);
            rejected.extend(outcome.rejected);
        }
    }
    (db, rejected)
}

/// Figure 6: highest speedup with error < 10% per benchmark, technique, and
/// platform, plus the headline aggregates (max speedup, geomean).
pub fn fig06(db: &ResultsDb) -> Vec<FigureData> {
    let mut best = FigureData::new(
        "fig06_best",
        "Highest speedup with error < 10% (per benchmark/technique/platform)",
        &[
            "device",
            "benchmark",
            "technique",
            "speedup",
            "error_pct",
            "config",
        ],
    );
    let mut devices: Vec<String> = db.rows.iter().map(|r| r.device.clone()).collect();
    devices.sort();
    devices.dedup();
    let mut benchmarks: Vec<String> = db.rows.iter().map(|r| r.benchmark.clone()).collect();
    benchmarks.sort();
    benchmarks.dedup();

    let mut headline_best: Vec<f64> = Vec::new();
    for device in &devices {
        for bench in &benchmarks {
            for tech in ["Perfo", "TAF", "iACT"] {
                let rows = db.select(bench, device, tech);
                match analyze::best_under_error(&rows, 10.0) {
                    Some(r) => {
                        headline_best.push(r.speedup);
                        best.push_row(vec![
                            device.clone(),
                            bench.clone(),
                            tech.to_string(),
                            f(r.speedup),
                            f(r.error_pct),
                            r.config.clone(),
                        ]);
                    }
                    None => best.push_row(vec![
                        device.clone(),
                        bench.clone(),
                        tech.to_string(),
                        "-".into(),
                        ">10".into(),
                        "(no config under 10% error)".into(),
                    ]),
                }
            }
        }
    }

    let mut headline = FigureData::new(
        "headline",
        "Paper §1/§6 headline aggregates",
        &["metric", "value"],
    );
    let max = headline_best.iter().cloned().fold(0.0, f64::max);
    headline.push_row(vec!["max speedup (err<10%)".into(), f(max)]);
    headline.push_row(vec![
        "geomean of best speedups (err<10%)".into(),
        f(hpac_core::metrics::geomean(&headline_best)),
    ]);

    vec![best, headline]
}

/// Speedup-vs-error cloud for one benchmark/device/technique, decile-binned
/// as the paper does to reduce overplotting (used by Figs 7-12 panels).
pub fn cloud(
    db: &ResultsDb,
    benchmark: &str,
    device: &str,
    technique: &str,
    id: &str,
) -> FigureData {
    let mut fig = FigureData::new(
        id,
        &format!("{benchmark} {technique} on {device}: speedup vs error"),
        &[
            "error_pct",
            "speedup",
            "approx_fraction",
            "divergent_fraction",
            "config",
        ],
    );
    let rows = db.select(benchmark, device, technique);
    for bin in analyze::decile_bins(&rows, 10) {
        for r in bin {
            fig.push_row(vec![
                f(r.error_pct),
                f(r.speedup),
                f(r.approx_fraction),
                f(r.divergent_fraction),
                r.config.clone(),
            ]);
        }
    }
    fig
}

/// Figure 7: LULESH perforation/TAF/iACT clouds on both platforms.
pub fn fig07(db: &ResultsDb) -> Vec<FigureData> {
    let mut out = Vec::new();
    for (device, tag) in [("V100", "nvidia"), ("MI250X", "amd")] {
        for (tech, t) in [("Perfo", "perfo"), ("TAF", "taf"), ("iACT", "iact")] {
            out.push(cloud(
                db,
                "LULESH",
                device,
                tech,
                &format!("fig07_{t}_{tag}"),
            ));
        }
    }
    out
}

/// Figure 8a/8b: Binomial Options TAF and iACT clouds on NVIDIA.
pub fn fig08ab(db: &ResultsDb) -> Vec<FigureData> {
    vec![
        cloud(db, "Binomial Options", "V100", "TAF", "fig08a_taf_nvidia"),
        cloud(db, "Binomial Options", "V100", "iACT", "fig08b_iact_nvidia"),
    ]
}

/// Figure 8c: parallelism vs approximation — speedup and percent
/// approximated vs items per thread (options per block), both platforms.
pub fn fig08c(bench: &dyn Benchmark, scale: Scale) -> FigureData {
    let mut fig = FigureData::new(
        "fig08c_parallelism",
        "Binomial Options: speedup vs items per thread (TAF, block level)",
        &["device", "items_per_thread", "speedup", "pct_approximated"],
    );
    for spec in DeviceSpec::evaluation_platforms() {
        let configs: Vec<SweepConfig> = space::fig8c_items_per_thread(scale)
            .into_iter()
            .map(|ipt| SweepConfig {
                region: ApproxRegion::memo_out(1, 64, 5.0).level(HierarchyLevel::Block),
                lp: LaunchParams::new(ipt, 128),
                label: format!("ipt={ipt}"),
            })
            .collect();
        let outcome = runner::run_configs(bench, &spec, &configs);
        let mut rows = outcome.rows;
        rows.sort_by_key(|r| r.items_per_thread);
        for r in rows {
            fig.push_row(vec![
                r.device.clone(),
                r.items_per_thread.to_string(),
                f(r.speedup),
                f(r.approx_fraction * 100.0),
            ]);
        }
    }
    fig
}

/// Figure 9: Leukocyte TAF/iACT clouds (NVIDIA) and MiniFE TAF, plus the
/// iACT-inapplicability demonstration for MiniFE.
pub fn fig09(db: &ResultsDb, minife_iact_rejection: &str) -> Vec<FigureData> {
    let mut out = vec![
        cloud(db, "Leukocyte", "V100", "TAF", "fig09a_taf_nvidia"),
        cloud(db, "Leukocyte", "V100", "iACT", "fig09b_iact_nvidia"),
        cloud(db, "MiniFE", "V100", "TAF", "fig09c_minife_taf_nvidia"),
    ];
    let mut note = FigureData::new(
        "fig09_minife_iact",
        "MiniFE: iACT applicability",
        &["outcome"],
    );
    note.push_row(vec![minife_iact_rejection.to_string()]);
    out.push(note);
    out
}

/// Figure 10a/10b: Blackscholes TAF and iACT clouds on AMD.
pub fn fig10ab(db: &ResultsDb) -> Vec<FigureData> {
    vec![
        cloud(db, "Blackscholes", "MI250X", "TAF", "fig10a_taf_amd"),
        cloud(db, "Blackscholes", "MI250X", "iACT", "fig10b_iact_amd"),
    ]
}

/// Figure 10c: distribution of output prices vs the exact prices, for TAF
/// with history 5, prediction 512, across RSD thresholds.
pub fn fig10c(cfg: &Blackscholes, scale: Scale) -> FigureData {
    let spec = DeviceSpec::mi250x();
    let lp = LaunchParams::new(64, 256);
    let exact = cfg
        .run(&spec, None, &lp)
        .expect("accurate blackscholes run");
    let QoI::Values(exact_prices) = &exact.qoi else {
        unreachable!()
    };

    let mut fig = FigureData::new(
        "fig10c_distributions",
        "Blackscholes output price distribution vs TAF RSD threshold (h=5, p=512)",
        &[
            "threshold",
            "mape_pct",
            "approx_pct",
            "p5",
            "p25",
            "median",
            "p75",
            "p95",
        ],
    );
    let mut push_dist = |label: String, prices: &[f64], mape_pct: f64, approx_pct: f64| {
        let mut sorted = prices.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        fig.push_row(vec![
            label,
            f(mape_pct),
            f(approx_pct),
            f(q(0.05)),
            f(q(0.25)),
            f(q(0.50)),
            f(q(0.75)),
            f(q(0.95)),
        ]);
    };
    push_dist("exact".into(), exact_prices, 0.0, 0.0);

    let thresholds: Vec<f64> = match scale {
        Scale::Full => vec![0.3, 0.6, 0.9, 1.2, 1.5, 3.0, 5.0, 20.0],
        Scale::Quick => vec![0.3, 1.5, 3.0, 20.0],
    };
    for t in thresholds {
        let region = ApproxRegion::memo_out(5, 512, t);
        let res = cfg
            .run(&spec, Some(&region), &lp)
            .expect("approximated blackscholes run");
        let err = res.qoi.error_vs(&exact.qoi);
        let QoI::Values(prices) = &res.qoi else {
            unreachable!()
        };
        push_dist(
            format!("T={t}"),
            prices,
            err * 100.0,
            res.stats.approx_fraction() * 100.0,
        );
    }
    fig
}

/// Figure 11a/11b: LavaMD TAF and iACT clouds on AMD.
pub fn fig11ab(db: &ResultsDb) -> Vec<FigureData> {
    vec![
        cloud(db, "LavaMD", "MI250X", "TAF", "fig11a_taf_amd"),
        cloud(db, "LavaMD", "MI250X", "iACT", "fig11b_iact_amd"),
    ]
}

/// Figure 11c: paired thread-level vs warp-level speedups per RSD threshold
/// (LavaMD TAF on AMD) — the hierarchical-decision ablation.
pub fn fig11c(cfg: &LavaMd, scale: Scale) -> FigureData {
    let spec = DeviceSpec::mi250x();
    let mut fig = FigureData::new(
        "fig11c_hierarchy",
        "LavaMD TAF on AMD: thread- vs warp-level decision speedup",
        &[
            "threshold",
            "hsize",
            "psize",
            "ipt",
            "thread_speedup",
            "warp_speedup",
        ],
    );
    let thresholds: Vec<f64> = match scale {
        Scale::Full => vec![0.6, 0.9, 1.2, 1.5, 3.0, 5.0],
        Scale::Quick => vec![0.9, 1.5, 3.0, 5.0],
    };
    let (hsizes, psizes, ipts): (Vec<usize>, Vec<usize>, Vec<usize>) = match scale {
        Scale::Full => (vec![2, 5], vec![8, 64], vec![32, 128]),
        Scale::Quick => (vec![2], vec![32], vec![64]),
    };
    let baseline = runner::select_baseline(cfg, &spec);
    for &t in &thresholds {
        for &h in &hsizes {
            for &p in &psizes {
                for &ipt in &ipts {
                    let mk = |lvl: HierarchyLevel| SweepConfig {
                        region: ApproxRegion::memo_out(h, p, t).level(lvl),
                        lp: LaunchParams::new(ipt, 256),
                        label: String::new(),
                    };
                    let run = |lvl| {
                        let opts = ExecOptions::default();
                        runner::run_config_bounded(cfg, &spec, &baseline, &mk(lvl), &opts)
                            .into_result()
                    };
                    if let (Ok(tr), Ok(wr)) =
                        (run(HierarchyLevel::Thread), run(HierarchyLevel::Warp))
                    {
                        fig.push_row(vec![
                            f(t),
                            h.to_string(),
                            p.to_string(),
                            ipt.to_string(),
                            f(tr.speedup),
                            f(wr.speedup),
                        ]);
                    }
                }
            }
        }
    }
    fig
}

/// Figure 12a/12b: K-Means TAF and iACT clouds on AMD (MCR metric).
pub fn fig12ab(db: &ResultsDb) -> Vec<FigureData> {
    vec![
        cloud(db, "K-Means", "MI250X", "TAF", "fig12a_taf_amd"),
        cloud(db, "K-Means", "MI250X", "iACT", "fig12b_iact_amd"),
    ]
}

/// Figure 12c: time speedup vs convergence speedup with the linear-fit R².
pub fn fig12c(cfg: &KMeans, outcome: &SweepOutcome) -> (FigureData, f64) {
    let _ = cfg;
    let base_iters = outcome
        .baseline
        .result
        .iterations
        .expect("K-Means reports iterations") as f64;
    let mut fig = FigureData::new(
        "fig12c_convergence",
        "K-Means: time speedup vs convergence speedup (TAF on AMD)",
        &["convergence_speedup", "time_speedup", "config"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in outcome.rows.iter().filter(|r| r.technique == "TAF") {
        if let Some(iters) = r.iterations {
            let conv = base_iters / iters as f64;
            xs.push(conv);
            ys.push(r.speedup);
            fig.push_row(vec![f(conv), f(r.speedup), r.config.clone()]);
        }
    }
    let (_, _, r2) = analyze::linear_fit(&xs, &ys);
    let mut note = format!("R2={r2:.3}");
    note.push_str(&format!(" over {} TAF configs", xs.len()));
    fig.title = format!("{} [{}]", fig.title, note);
    (fig, r2)
}

/// Table 1: the benchmark suite.
pub fn table1(benches: &[&dyn Benchmark]) -> FigureData {
    let mut fig = FigureData::new(
        "table1",
        "Benchmarks used to evaluate hpac-offload",
        &[
            "benchmark",
            "error_metric",
            "timing_basis",
            "decision_scope",
        ],
    );
    for b in benches {
        fig.push_row(vec![
            b.name().to_string(),
            b.error_metric().to_string(),
            if b.kernel_only_timing() {
                "kernel-only".into()
            } else {
                "end-to-end".into()
            },
            if b.block_level_only() {
                "block".into()
            } else {
                "thread/warp".into()
            },
        ]);
    }
    fig
}

/// Table 2: the design-space parameter grids actually swept.
pub fn table2(scale: Scale) -> FigureData {
    let mut fig = FigureData::new(
        "table2",
        "Design-space parameters (Table 2)",
        &["technique", "parameter", "values"],
    );
    let (h, p, t) = match scale {
        Scale::Full => ("1,2,3,4,5", "2,4,8,...,512", "0.3,0.6,...,1.5,3,5,20"),
        Scale::Quick => ("1,3,5", "4,32,512", "0.3,0.9,1.5,3,20"),
    };
    fig.push_row(vec!["TAF".into(), "hSize".into(), h.into()]);
    fig.push_row(vec!["TAF".into(), "pSize".into(), p.into()]);
    fig.push_row(vec!["TAF".into(), "threshold".into(), t.into()]);
    let (tpw, ts, it) = match scale {
        Scale::Full => ("1,2,16,32,64(AMD)", "1,2,4,8", "0.1,0.3,...,0.9,3,5,20"),
        Scale::Quick => ("1,16,32,64(AMD)", "2,8", "0.1,0.5,0.9,5"),
    };
    fig.push_row(vec!["iACT".into(), "tPerWarp".into(), tpw.into()]);
    fig.push_row(vec!["iACT".into(), "tSize".into(), ts.into()]);
    fig.push_row(vec!["iACT".into(), "threshold".into(), it.into()]);
    let (skips, pcts) = match scale {
        Scale::Full => ("2,4,8,16,32,64", "10,20,...,90"),
        Scale::Quick => ("2,8,64", "10,50,90"),
    };
    fig.push_row(vec![
        "Perfo".into(),
        "skip (small,large)".into(),
        skips.into(),
    ]);
    fig.push_row(vec![
        "Perfo".into(),
        "skipPercent (ini,fini)".into(),
        pcts.into(),
    ]);
    let ipt = match scale {
        Scale::Full => "8,16,32,...,512",
        Scale::Quick => "8,64,512",
    };
    fig.push_row(vec!["Memo".into(), "items per thread".into(), ipt.into()]);
    fig.push_row(vec![
        "Memo".into(),
        "hierarchy".into(),
        "thread, warp (block where required)".into(),
    ]);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_shows_capacity_wall() {
        let fig = fig03();
        assert_eq!(fig.rows.len(), 14);
        // The last row (2^27 threads) must exceed 100%.
        let last_pct: f64 = fig.rows.last().unwrap()[3].parse().unwrap();
        assert!(last_pct > 100.0);
        // The first row must be well under 1%.
        let first_pct: f64 = fig.rows[0][3].parse().unwrap();
        assert!(first_pct < 1.0);
    }

    #[test]
    fn render_aligns_columns() {
        let fig = fig03();
        let text = fig.render();
        assert!(text.contains("fig03"));
        assert!(text.lines().count() > 14);
    }

    #[test]
    fn table2_lists_all_techniques() {
        let t = table2(Scale::Full);
        let techs: Vec<&String> = t.rows.iter().map(|r| &r[0]).collect();
        assert!(techs.iter().any(|s| s.as_str() == "TAF"));
        assert!(techs.iter().any(|s| s.as_str() == "iACT"));
        assert!(techs.iter().any(|s| s.as_str() == "Perfo"));
    }

    #[test]
    fn table1_covers_all_benchmarks() {
        let benches = hpac_apps::all_benchmarks();
        let refs: Vec<&dyn Benchmark> = benches.iter().map(|b| b.as_ref()).collect();
        let t = table1(&refs);
        assert_eq!(t.rows.len(), 7);
        // K-Means uses MCR, everything else MAPE.
        let kmeans = t.rows.iter().find(|r| r[0] == "K-Means").unwrap();
        assert_eq!(kmeans[1], "MCR");
    }

    #[test]
    fn csv_save_works() {
        let fig = fig03();
        let dir = std::env::temp_dir().join("hpac_figs_test");
        fig.save_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig03.csv")).unwrap();
        assert!(content.starts_with("threads_pow2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
