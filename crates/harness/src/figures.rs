//! Per-figure/table data generation: every table and figure of the paper's
//! evaluation has one entry point here that regenerates its data series.
//!
//! Each generator takes its benchmark instance(s) and a [`Scale`], runs its
//! own sweeps, and returns one or more [`FigureData`] tables; [`generate`]
//! maps a figure id ([`IDS`]) to its generator, and the `hpac-bench`
//! `figures` binary prints and persists them to CSV. Absolute numbers come
//! from the simulator's cycle model, so the quantities to compare against
//! the paper are the *shapes*: orderings between techniques, crossover
//! locations, and error magnitudes (see EXPERIMENTS.md).

use crate::analyze;
use crate::db::ResultsDb;
use crate::runner::{self, SweepOutcome};
use crate::space::{Grid, Scale, SweepConfig};
use gpu_sim::memory;
use gpu_sim::DeviceSpec;
use hpac_apps::common::{Benchmark, LaunchParams, QoI};
use hpac_apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_core::exec::ExecOptions;
use hpac_core::params::{PerfoKind, Replacement};
use hpac_core::region::ApproxRegion;
use hpac_core::HierarchyLevel;
use std::borrow::Cow;
use std::collections::HashMap;
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

    /// Save as CSV under `dir/<id>.csv`. A cell holding `,` or `"` is
    /// quoted, its quotes doubled (RFC 4180): Table 2's values are comma
    /// lists.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<()> {
        fn cell(c: &str) -> Cow<'_, str> {
            if c.contains([',', '"']) {
                format!("\"{}\"", c.replace('"', "\"\"")).into()
            } else {
                c.into()
            }
        }
        let line = |cells: &[String]| cells.iter().map(|c| cell(c)).collect::<Vec<_>>().join(",");
        std::fs::create_dir_all(dir)?;
        let mut s = line(&self.headers);
        s.push('\n');
        for row in &self.rows {
            s.push_str(&line(row));
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

/// The seven benchmark instances the figures run on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Suite {
    pub lulesh: Lulesh,
    pub leukocyte: Leukocyte,
    pub binomial: BinomialOptions,
    pub minife: MiniFe,
    pub blackscholes: Blackscholes,
    pub lavamd: LavaMd,
    pub kmeans: KMeans,
}

impl Suite {
    /// All seven, in Table 1 order.
    pub(crate) fn all(&self) -> [&dyn Benchmark; 7] {
        [
            &self.lulesh,
            &self.leukocyte,
            &self.binomial,
            &self.minife,
            &self.blackscholes,
            &self.lavamd,
            &self.kmeans,
        ]
    }
}

/// Every figure id [`generate`] knows, in paper order. The tables each id
/// returns carry ids that start with it.
pub const IDS: [&str; 11] = [
    "table1",
    "table2",
    "fig03",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
];

/// The tables of figure `id` on `suite`'s instances, or `None` for an id not
/// in [`IDS`].
pub fn generate(id: &str, suite: &Suite, scale: Scale) -> Option<Vec<FigureData>> {
    Some(match id {
        "table1" => vec![table1(&suite.all())],
        "table2" => vec![table2(&suite.all(), scale)],
        "fig03" => vec![fig03()],
        "fig06" => fig06(&suite.all(), scale),
        "fig07" => fig07(&suite.lulesh, scale),
        "fig08" => fig08(&suite.binomial, scale),
        "fig09" => fig09(&suite.leukocyte, &suite.minife, scale),
        "fig10" => fig10(&suite.blackscholes, scale),
        "fig11" => fig11(&suite.lavamd, scale),
        "fig12" => fig12(&suite.kmeans, scale),
        "ablations" => ablations(&suite.blackscholes, &suite.lulesh, &suite.lavamd),
        _ => return None,
    })
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

/// The Table 2 sweeps of `benches` on `devices`, in one database.
fn sweep(benches: &[&dyn Benchmark], devices: &[DeviceSpec], scale: Scale) -> ResultsDb {
    let mut db = ResultsDb::new();
    for spec in devices {
        for bench in benches {
            db.extend(runner::run_sweep(*bench, spec, scale).rows);
        }
    }
    db
}

/// Figure 6: highest speedup with error < 10% per benchmark, technique, and
/// platform, plus the headline aggregates (max speedup, geomean), over the
/// Table 2 sweep of every benchmark on both platforms.
pub fn fig06(benches: &[&dyn Benchmark], scale: Scale) -> Vec<FigureData> {
    let db = sweep(benches, &DeviceSpec::evaluation_platforms(), scale);
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
        "fig06_headline",
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
pub fn fig07(lulesh: &Lulesh, scale: Scale) -> Vec<FigureData> {
    let db = sweep(&[lulesh], &DeviceSpec::evaluation_platforms(), scale);
    let mut out = Vec::new();
    for (device, tag) in [("V100", "nvidia"), ("MI250X", "amd")] {
        for (tech, t) in [("Perfo", "perfo"), ("TAF", "taf"), ("iACT", "iact")] {
            out.push(cloud(
                &db,
                lulesh.name(),
                device,
                tech,
                &format!("fig07_{t}_{tag}"),
            ));
        }
    }
    out
}

/// Figure 8: Binomial Options TAF and iACT clouds on NVIDIA (8a/8b) and the
/// parallelism-vs-approximation tradeoff on both platforms (8c).
pub fn fig08(binomial: &BinomialOptions, scale: Scale) -> Vec<FigureData> {
    let db = sweep(&[binomial], &[DeviceSpec::v100()], scale);
    vec![
        cloud(&db, binomial.name(), "V100", "TAF", "fig08a_taf_nvidia"),
        cloud(&db, binomial.name(), "V100", "iACT", "fig08b_iact_nvidia"),
        fig08c(binomial, scale),
    ]
}

/// The extended options-per-block axis of Fig 8c.
fn fig08c_items_per_thread(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![1, 4, 16, 64, 256, 1024, 2048, 4096, 8192, 16384],
        Scale::Quick => vec![1, 16, 64, 256, 1024, 4096, 16384],
    }
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
        let configs: Vec<SweepConfig> = fig08c_items_per_thread(scale)
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
pub fn fig09(leukocyte: &Leukocyte, minife: &MiniFe, scale: Scale) -> Vec<FigureData> {
    let v100 = DeviceSpec::v100();
    let db = sweep(&[leukocyte, minife], std::slice::from_ref(&v100), scale);
    let mut note = FigureData::new(
        "fig09_minife_iact",
        "MiniFE: iACT applicability",
        &["outcome"],
    );
    let iact = ApproxRegion::memo_in(4, 0.5);
    note.push_row(vec![
        match minife.run(&v100, Some(&iact), &LaunchParams::new(8, 256)) {
            Err(e) => format!("rejected as in the paper: {e}"),
            Ok(_) => "UNEXPECTED: iACT ran on MiniFE".to_string(),
        },
    ]);
    vec![
        cloud(&db, leukocyte.name(), "V100", "TAF", "fig09a_taf_nvidia"),
        cloud(&db, leukocyte.name(), "V100", "iACT", "fig09b_iact_nvidia"),
        cloud(
            &db,
            minife.name(),
            "V100",
            "TAF",
            "fig09c_minife_taf_nvidia",
        ),
        note,
    ]
}

/// Figure 10: Blackscholes TAF and iACT clouds on AMD (10a/10b) and the
/// output price distribution vs RSD threshold (10c).
pub fn fig10(blackscholes: &Blackscholes, scale: Scale) -> Vec<FigureData> {
    let db = sweep(&[blackscholes], &[DeviceSpec::mi250x()], scale);
    vec![
        cloud(&db, blackscholes.name(), "MI250X", "TAF", "fig10a_taf_amd"),
        cloud(
            &db,
            blackscholes.name(),
            "MI250X",
            "iACT",
            "fig10b_iact_amd",
        ),
        fig10c(blackscholes, scale),
    ]
}

/// Figure 10c: distribution of output prices vs the exact prices, for TAF
/// with history 5, prediction 512, across RSD thresholds.
pub fn fig10c(cfg: &Blackscholes, scale: Scale) -> FigureData {
    let spec = DeviceSpec::mi250x();
    let lp = LaunchParams::new(64, 256);
    let exact = runner::Baseline::measure(cfg, &spec, lp, &ExecOptions::default())
        .expect("accurate blackscholes run");
    let QoI::Values(exact_prices) = &exact.result.qoi else {
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
        let label = format!("T={t}");
        let row = exact.score(cfg, &spec, Some(&region), &label, &lp, &res);
        let QoI::Values(prices) = &res.qoi else {
            unreachable!()
        };
        push_dist(label, prices, row.error_pct, row.approx_fraction * 100.0);
    }
    fig
}

/// Figure 11: LavaMD TAF and iACT clouds on AMD (11a/11b) and the
/// hierarchical-decision ablation (11c).
pub fn fig11(lavamd: &LavaMd, scale: Scale) -> Vec<FigureData> {
    let db = sweep(&[lavamd], &[DeviceSpec::mi250x()], scale);
    vec![
        cloud(&db, lavamd.name(), "MI250X", "TAF", "fig11a_taf_amd"),
        cloud(&db, lavamd.name(), "MI250X", "iACT", "fig11b_iact_amd"),
        fig11c(lavamd, scale),
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
    // Every (thread, warp) pair, answered through one sweep, then paired
    // by label.
    let (mut points, mut configs) = (Vec::new(), Vec::new());
    for &t in &thresholds {
        for &h in &hsizes {
            for &p in &psizes {
                for &ipt in &ipts {
                    for lvl in [HierarchyLevel::Thread, HierarchyLevel::Warp] {
                        configs.push(SweepConfig {
                            region: ApproxRegion::memo_out(h, p, t).level(lvl),
                            lp: LaunchParams::new(ipt, 256),
                            label: format!("h={h} p={p} thr={t} ipt={ipt} lvl={lvl:?}"),
                        });
                    }
                    points.push(vec![f(t), h.to_string(), p.to_string(), ipt.to_string()]);
                }
            }
        }
    }
    let outcome = runner::run_configs(cfg, &spec, &configs);
    let speedup: HashMap<&str, f64> = outcome
        .rows
        .iter()
        .map(|r| (r.config.as_str(), r.speedup))
        .collect();
    for (mut row, pair) in points.into_iter().zip(configs.chunks(2)) {
        if let [Some(&tr), Some(&wr)] = [0, 1].map(|i| speedup.get(pair[i].label.as_str())) {
            row.extend([f(tr), f(wr)]);
            fig.push_row(row);
        }
    }
    fig
}

/// Figure 12: K-Means TAF and iACT clouds on AMD, MCR metric (12a/12b), and
/// the convergence-speedup vs time-speedup correlation (12c).
pub fn fig12(kmeans: &KMeans, scale: Scale) -> Vec<FigureData> {
    let outcome = runner::run_sweep(kmeans, &DeviceSpec::mi250x(), scale);
    let mut db = ResultsDb::new();
    db.extend(outcome.rows.iter().cloned());
    vec![
        cloud(&db, kmeans.name(), "MI250X", "TAF", "fig12a_taf_amd"),
        cloud(&db, kmeans.name(), "MI250X", "iACT", "fig12b_iact_amd"),
        fig12c(&outcome),
    ]
}

/// Figure 12c: time speedup vs convergence speedup over a K-Means sweep's
/// TAF rows, with the linear-fit R² in the title (the paper reports 0.95).
pub fn fig12c(outcome: &SweepOutcome) -> FigureData {
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
    fig.title = format!("{} [R2={r2:.3} over {} TAF configs]", fig.title, xs.len());
    fig
}

/// Ablations of the design choices the paper argues for, on the V100 model:
///
/// 1. relaxed-locality TAF (Fig 4d) vs the serialized "semantically
///    equivalent" GPU TAF (Fig 4c);
/// 2. herded vs naive (item-indexed) small/large perforation;
/// 3. iACT round-robin vs CLOCK replacement (paper footnote 3: no effect);
/// 4. iACT table-sharing degree (memory vs synchronization vs hit rate);
/// 5. shared-memory AC state vs the per-thread global-memory design (Fig 3).
pub fn ablations(blackscholes: &Blackscholes, lulesh: &Lulesh, lavamd: &LavaMd) -> Vec<FigureData> {
    let v100 = DeviceSpec::v100();

    let mut serialization = FigureData::new(
        "ablations_taf_serialization",
        "TAF algorithm: relaxed grid-stride locality (Fig 4d) vs serialized (Fig 4c)",
        &["variant", "kernel_seconds", "speedup_vs_baseline"],
    );
    let base = runner::select_baseline(blackscholes, &v100);
    let region = ApproxRegion::memo_out(3, 64, 1.5);
    let lp = LaunchParams::new(64, 256);
    for (variant, serialized_taf) in [
        ("relaxed (hpac-offload)", false),
        ("serialized (Fig 4c)", true),
    ] {
        let opts = ExecOptions {
            serialized_taf,
            ..ExecOptions::default()
        };
        let res = blackscholes
            .run_opts(&v100, Some(&region), &lp, &opts)
            .expect("TAF runs on Blackscholes");
        let row = base.score(blackscholes, &v100, Some(&region), variant, &lp, &res);
        serialization.push_row(vec![variant.into(), f(row.kernel_seconds), f(row.speedup)]);
    }

    let mut herding = FigureData::new(
        "ablations_herded_perfo",
        "LULESH large:8 perforation: herded vs naive (item-indexed)",
        &["variant", "speedup", "error_pct", "divergent_fraction"],
    );
    let base = runner::select_baseline(lulesh, &v100);
    let lp = LaunchParams::new(4, 64);
    for (variant, herded) in [("herded", true), ("naive", false)] {
        let region = ApproxRegion::perfo(PerfoKind::Large { m: 8 }).herded(herded);
        let res = lulesh
            .run(&v100, Some(&region), &lp)
            .expect("perforation runs on LULESH");
        let row = base.score(lulesh, &v100, Some(&region), variant, &lp, &res);
        herding.push_row(vec![
            variant.into(),
            f(row.speedup),
            f(row.error_pct),
            f(row.divergent_fraction),
        ]);
    }

    // LavaMD iACT at one table size and threshold: speedup, error and
    // approximated fraction of a variant.
    let base = runner::select_baseline(lavamd, &v100);
    let lp = LaunchParams::new(64, 256);
    let lavamd_iact = |variant: String, region: ApproxRegion| -> Vec<String> {
        let res = lavamd
            .run(&v100, Some(&region), &lp)
            .expect("iACT runs on LavaMD");
        let row = base.score(lavamd, &v100, Some(&region), &variant, &lp, &res);
        vec![
            variant,
            f(row.speedup),
            f(row.error_pct),
            f(row.approx_fraction),
        ]
    };
    let mut replacement = FigureData::new(
        "ablations_replacement",
        "LavaMD iACT: round-robin vs CLOCK replacement (paper fn.3: no effect)",
        &["policy", "speedup", "error_pct", "approx_fraction"],
    );
    for (policy, r) in [
        ("round-robin", Replacement::RoundRobin),
        ("CLOCK", Replacement::Clock),
    ] {
        let region = ApproxRegion::memo_in(4, 0.3)
            .tables_per_warp(16)
            .replacement(r);
        replacement.push_row(lavamd_iact(policy.to_string(), region));
    }
    let mut sharing = FigureData::new(
        "ablations_table_sharing",
        "LavaMD iACT: tables per warp (sharing degree)",
        &["tables_per_warp", "speedup", "error_pct", "approx_fraction"],
    );
    for tpw in [1u32, 2, 16, 32] {
        let region = ApproxRegion::memo_in(4, 0.3).tables_per_warp(tpw);
        sharing.push_row(lavamd_iact(tpw.to_string(), region));
    }

    let mut shared_state = FigureData::new(
        "ablations_shared_state",
        "AC state placement: per-block shared-memory budget enforcement",
        &["config", "outcome"],
    );
    for (config, tsize, tpw) in [
        ("iACT ts=64 tpw=32 block=1024", 64, 32),
        ("iACT ts=8 tpw=2 block=1024", 8, 2),
    ] {
        let region = ApproxRegion::memo_in(tsize, 0.5).tables_per_warp(tpw);
        let outcome = match blackscholes.run(&v100, Some(&region), &LaunchParams::new(64, 1024)) {
            Ok(_) => "ran".to_string(),
            Err(e) => format!("rejected: {e}"),
        };
        shared_state.push_row(vec![config.into(), outcome]);
    }

    vec![serialization, herding, replacement, sharing, shared_state]
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

/// Table 2: the design-space parameter grids the sweeps and the tuner use,
/// per evaluation platform, technique and parameter — the values the
/// benchmarks' [`Grid`]s hold. An axis whose values differ between the
/// benchmarks (the hierarchy levels) lists their union.
pub fn table2(benches: &[&dyn Benchmark], scale: Scale) -> FigureData {
    let mut fig = FigureData::new(
        "table2",
        "Design-space parameters (Table 2)",
        &["device", "technique", "parameter", "values"],
    );
    let mut rows: Vec<([&str; 3], Vec<String>)> = Vec::new();
    for device in DeviceSpec::evaluation_platforms() {
        for bench in benches {
            for grid in Grid::grids_for(*bench, &device, scale) {
                for (parameter, values) in grid.axes() {
                    let key = [device.name, grid.technique(), parameter];
                    let at = match rows.iter().position(|(k, _)| *k == key) {
                        Some(at) => at,
                        None => {
                            rows.push((key, Vec::new()));
                            rows.len() - 1
                        }
                    };
                    for v in values.iter().map(|v| v.to_string()) {
                        if !rows[at].1.contains(&v) {
                            rows[at].1.push(v);
                        }
                    }
                }
            }
        }
    }
    for (key, values) in rows {
        let mut row: Vec<String> = key.iter().map(|s| s.to_string()).collect();
        row.push(values.join(","));
        fig.push_row(row);
    }
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
        let suite = Suite::default();
        let t = table2(&suite.all(), Scale::Full);
        for tech in ["TAF", "iACT", "Perfo"] {
            assert!(t.rows.iter().any(|r| r[1] == tech), "{tech}");
        }
        // 64 tables per warp needs a 64-lane wavefront: MI250X only.
        let tpw = |device: &str| {
            let row = t.rows.iter().find(|r| r[0] == device && r[2] == "tPerWarp");
            row.unwrap()[3].clone()
        };
        assert_eq!(tpw("V100"), "1,2,16,32");
        assert_eq!(tpw("MI250X"), "1,2,16,32,64");
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
