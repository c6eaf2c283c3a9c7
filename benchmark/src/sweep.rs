//! The two sweep workloads: `harness::runner::run_sweep` on the V100 model
//! over a fixed set of applications. `sweep_memo` takes the applications
//! whose work goes through the memo stores, `sweep_iter` the iterative,
//! many-launch ones that bypass them.

use crate::names::LayerMetrics;
use crate::spans::{spanned, SpanLog};
use crate::stats;
use crate::suite::{self, App};
use crate::workload::{Round, Workload};
use gpu_sim::DeviceSpec;
use hpac_apps::common::install_eval_memo;
use hpac_core::exec::{engine, ExecOptions, Executor};
use hpac_harness::runner::{self, ConfigOutcome, SweepOutcome};
use hpac_harness::space::{self, Scale};
use hpac_obs::CounterId as C;
use std::collections::HashSet;
use std::time::Instant;

pub const MEMO_APPS: [&str; 3] = ["blackscholes", "lavamd", "binomial"];
pub const ITER_APPS: [&str; 4] = ["kmeans", "lulesh", "minife", "leukocyte"];

/// The quality bound behind `modeled_speedup_geomean`, in percent.
const ERROR_BOUND_PCT: f64 = 5.0;

/// Modeled work of one application's sweep, counted by obs over the traced
/// round; feeds the estimated columns of the attribution table.
struct TracedCounts {
    app: &'static str,
    warp_steps: u64,
    scored: u64,
}

pub struct Sweep {
    apps: Vec<App>,
    spec: DeviceSpec,
    /// Plan length per application: the ops of its sweep.
    plan_len: Vec<usize>,
    traced: Vec<TracedCounts>,
}

impl Sweep {
    pub fn set_up(keys: &[&str], seed: u64) -> Self {
        let spec = DeviceSpec::v100();
        let apps = suite::pick(seed, keys);
        let plan_len = apps
            .iter()
            .map(|a| space::plan(a.bench.as_ref(), &spec, Scale::Quick).len())
            .collect();
        let mut sweep = Sweep {
            apps,
            spec,
            plan_len,
            traced: Vec::new(),
        };
        sweep.round(None); // warm-up: engine workers spawned, allocator warm
        sweep
    }

    /// Fold one application's outcome into the round.
    fn account(&self, i: usize, seconds: f64, o: &SweepOutcome, round: &mut Round) {
        let ops = self.plan_len[i] as u64;
        round.ops += ops;
        if o.rows.len() + o.rejected.len() != self.plan_len[i] {
            round.failed += ops;
        }
        round.parts.push((self.apps[i].key, seconds));
        // The accurate run is always available, so the best answer under
        // the bound is never below 1x.
        let best = o
            .rows
            .iter()
            .filter(|r| r.error_pct <= ERROR_BOUND_PCT)
            .map(|r| r.speedup)
            .fold(1.0, f64::max);
        round.ln_speedup_sum += best.ln();
        round.speedups += 1;
    }

    /// The round under the plain single-threaded baseline: serial configs,
    /// sequential blocks. Returns each application's seconds, and the digest.
    fn serial_round(&self) -> (Vec<f64>, u64) {
        let opts = ExecOptions {
            executor: Executor::Sequential,
            ..ExecOptions::default()
        };
        let (seconds, digests): (Vec<f64>, Vec<u64>) = self
            .apps
            .iter()
            .map(|a| {
                let t = Instant::now();
                let outcome =
                    runner::run_sweep_serial(a.bench.as_ref(), &self.spec, Scale::Quick, &opts);
                (t.elapsed().as_secs_f64(), suite::outcome_digest(&outcome))
            })
            .unzip();
        (seconds, suite::combine(digests))
    }

    /// What `run_sweep` does for one application, taken apart from outside
    /// and run serially so that each step can be timed on its own: baseline
    /// selection, plan construction, then one bounded evaluation per
    /// canonical configuration. Returns `(technique, µs)` per evaluation.
    fn decomposed(&self, app: &App, log: &mut SpanLog) -> Vec<(&'static str, f64)> {
        let bench = app.bench.as_ref();
        let opts = ExecOptions::default();
        let whole = log.enter("app", "bench", app.key, 0);
        let _memo = install_eval_memo();
        let baseline = spanned(Some(&mut *log), "baseline", "harness", app.key, 0, || {
            runner::select_baseline_opts(bench, &self.spec, &opts)
        });
        let plan = spanned(Some(&mut *log), "plan", "harness", app.key, 0, || {
            space::plan(bench, &self.spec, Scale::Quick)
        });
        let mut seen = HashSet::new();
        let mut evals = Vec::with_capacity(plan.len());
        for (op, cfg) in plan.iter().enumerate() {
            let fresh =
                runner::canonical_key(bench, &self.spec, cfg).is_none_or(|key| seen.insert(key));
            if !fresh {
                continue;
            }
            let name = match cfg.region.technique_name() {
                "TAF" => "eval.taf",
                "iACT" => "eval.iact",
                _ => "eval.perfo",
            };
            let t = Instant::now();
            let outcome = spanned(Some(&mut *log), name, "harness", app.key, op as u64, || {
                runner::run_config_bounded(bench, &self.spec, &baseline, cfg, &opts)
            });
            evals.push((name, t.elapsed().as_secs_f64() * 1e6));
            debug_assert!(!matches!(outcome, ConfigOutcome::Aborted(_)));
        }
        log.exit(whole);
        evals
    }

    /// Mean µs of one error-metric pass: the baseline output scored against
    /// itself, per application.
    fn quality_metric_us(&self) -> f64 {
        const REPS: u32 = 20;
        let per_app: Vec<f64> = self
            .apps
            .iter()
            .map(|a| {
                let baseline = runner::select_baseline(a.bench.as_ref(), &self.spec);
                let qoi = &baseline.result.qoi;
                let t = Instant::now();
                for _ in 0..REPS {
                    std::hint::black_box(std::hint::black_box(qoi).error_vs(qoi));
                }
                t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS)
            })
            .collect();
        per_app.iter().sum::<f64>() / per_app.len() as f64
    }
}

impl Workload for Sweep {
    fn round(&mut self, mut log: Option<&mut SpanLog>) -> Round {
        let mut round = Round::default();
        let mut digests = Vec::with_capacity(self.apps.len());
        let counting = hpac_obs::enabled();
        if counting {
            self.traced.clear();
        }
        let whole = log.as_deref_mut().map(|l| l.enter("round", "bench", "", 0));
        let t_round = Instant::now();
        for (i, app) in self.apps.iter().enumerate() {
            let before = counting.then(hpac_obs::snapshot);
            let t = Instant::now();
            let outcome = spanned(
                log.as_deref_mut(),
                "run_sweep",
                "harness",
                app.key,
                i as u64,
                || runner::run_sweep(app.bench.as_ref(), &self.spec, Scale::Quick),
            );
            let seconds = t.elapsed().as_secs_f64();
            if let Some(before) = before {
                let d = hpac_obs::snapshot().delta_since(&before);
                self.traced.push(TracedCounts {
                    app: app.key,
                    warp_steps: d.counter(C::WarpSteps),
                    scored: d
                        .counter(C::ConfigsEvaluated)
                        .saturating_sub(d.counter(C::QualityCacheHits)),
                });
            }
            self.account(i, seconds, &outcome, &mut round);
            digests.push(suite::outcome_digest(&outcome));
        }
        round.seconds = t_round.elapsed().as_secs_f64();
        if let (Some(l), Some(id)) = (log, whole) {
            l.exit(id);
        }
        round.digest = suite::combine(digests);
        round
    }

    fn layer_pass(&mut self, untraced: &[Round], log: &mut SpanLog, out: &mut LayerMetrics) -> u64 {
        let round_s = stats::median(&untraced.iter().map(|r| r.seconds).collect::<Vec<_>>());
        let width = engine().default_width();
        let (w1, serial_digest) = self.serial_round();
        println!("\nscaling, width 1 (serial configs, sequential blocks) against width {width}:");
        println!(
            "{:<14} {:>10} {:>10} {:>12}",
            "app", "w1 [s]", "round [s]", "scaling eff"
        );
        for (i, app) in self.apps.iter().enumerate() {
            let secs: Vec<f64> = untraced.iter().map(|r| r.parts[i].1).collect();
            let sweep_s = stats::median(&secs);
            out.set_app("harness.sweep_s", app.key, sweep_s);
            println!(
                "{:<14} {:>10.4} {:>10.4} {:>12.3}",
                app.key,
                w1[i],
                sweep_s,
                w1[i] / (width as f64 * sweep_s)
            );
        }
        let w1: f64 = w1.iter().sum();
        out.set("harness.round_w1_s", w1);
        out.set("harness.scaling_eff", w1 / (width as f64 * round_s));
        // Config-parallel and serial sweeps must model the same thing.
        let failed = if serial_digest == untraced[0].digest {
            0
        } else {
            eprintln!("check failed: run_sweep and run_sweep_serial digests differ");
            untraced[0].ops
        };

        let pass = log.enter("decomposed", "bench", "", 0);
        let evals: Vec<(&'static str, f64)> = self
            .apps
            .iter()
            .flat_map(|a| self.decomposed(a, log))
            .collect();
        log.exit(pass);
        let total_us = log.spans[pass].dur_ns() as f64 / 1e3;
        let span_us = |name: &str| -> f64 {
            log.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .sum()
        };
        out.set("harness.baseline_ms", span_us("baseline") / 1e3);
        out.set("harness.plan_us", span_us("plan"));
        for tech in ["taf", "iact", "perfo"] {
            let us: Vec<f64> = evals
                .iter()
                .filter(|(name, _)| name.strip_prefix("eval.") == Some(tech))
                .map(|(_, us)| *us)
                .collect();
            out.set(&format!("harness.eval_p50_us.{tech}"), stats::median(&us));
            out.set(
                &format!("harness.eval_share.{tech}"),
                us.iter().sum::<f64>() / total_us,
            );
        }
        let all = stats::sorted(&evals.iter().map(|(_, us)| *us).collect::<Vec<_>>());
        out.set("harness.eval_p99_us", stats::percentile(&all, 99.0));
        out.set("harness.quality_metric_us", self.quality_metric_us());
        failed
    }

    /// The estimated columns of the attribution table: what the error metric
    /// and the bare walk account for inside each application's evaluations.
    fn traced_metrics(&mut self, _traced: &Round, out: &mut LayerMetrics) {
        let quality_us = out.get("harness.quality_metric_us");
        let walk_ns = out.get("core.walk_ns_per_step.accurate");
        println!(
            "\nestimated inside the evaluations (traced-round counts x layer-pass unit costs):"
        );
        println!(
            "{:<14} {:>12} {:>14} {:>12} {:>14}",
            "app", "warp-steps", "walk est [s]", "scored", "quality est [s]"
        );
        for t in &self.traced {
            println!(
                "{:<14} {:>12} {:>14.4} {:>12} {:>14.4}",
                t.app,
                t.warp_steps,
                t.warp_steps as f64 * walk_ns / 1e9,
                t.scored,
                t.scored as f64 * quality_us / 1e6,
            );
        }
    }
}
