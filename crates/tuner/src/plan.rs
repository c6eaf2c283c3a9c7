//! Tuning requests and results: the quality bound and the executable plan.

use crate::pareto::ParetoFrontier;
use gpu_sim::DeviceSpec;
use hpac_apps::common::{install_eval_memo, Benchmark, LaunchParams};
use hpac_core::exec::ExecOptions;
use hpac_core::region::{ApproxRegion, RegionError};
use hpac_harness::runner::Baseline;
use hpac_harness::Row;

/// The caller's quality constraint: maximum acceptable QoI error, in
/// percent (MAPE × 100 or MCR × 100, matching the harness database).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityBound {
    pub max_error_pct: f64,
}

impl QualityBound {
    /// `QualityBound::percent(5.0)` = "at most 5% error".
    pub fn percent(max_error_pct: f64) -> Self {
        assert!(
            max_error_pct.is_finite() && max_error_pct >= 0.0,
            "quality bound must be a finite non-negative percentage"
        );
        QualityBound { max_error_pct }
    }
}

/// The tuner's answer: a configuration choice that can be re-executed, plus
/// the evidence behind it.
#[derive(Debug, Clone)]
pub struct TunedPlan {
    pub benchmark: String,
    pub device: String,
    /// The instance the plan was tuned on: the benchmark's
    /// [`Benchmark::params_key`], `None` for one that declares none. A plan
    /// is a claim about this instance only, so a cache hit, a coalesced
    /// answer or a warm-start seed is taken from it only for a request
    /// whose benchmark has the same key.
    pub instance: Option<Vec<u64>>,
    pub bound_pct: f64,
    /// The chosen approximated region, or `None` when no approximate
    /// configuration met the bound (run accurately).
    pub region: Option<ApproxRegion>,
    /// Launch shape for the chosen configuration.
    pub lp: LaunchParams,
    /// "TAF", "iACT", "Perfo", or "accurate".
    pub technique: String,
    /// Human-readable parameter description of the choice.
    pub config: String,
    /// Speedup the search measured for this configuration.
    pub predicted_speedup: f64,
    /// QoI error the search measured for this configuration, in percent.
    pub measured_error_pct: f64,
    /// Best non-approximated launch shape (the speedup denominator).
    pub baseline_lp: LaunchParams,
    /// Fresh configuration executions the search spent.
    pub evaluations: usize,
    /// Size of the full Table 2 space for this benchmark/device — the
    /// denominator for the evaluation-budget claim.
    pub full_space: usize,
    /// Whether this plan was served from the persistent cache.
    pub from_cache: bool,
    /// Whether the search that made this plan was a warm start answered by
    /// verification: it ran this configuration alone, saw the numbers a
    /// cached neighbor stored for it reproduce bit for bit, and took that
    /// neighborhood's stored frontier as [`TunedPlan::frontier`] without
    /// re-measuring the other points. Like `from_cache`, it describes how
    /// the answer was reached and is not persisted.
    pub verified_seed: bool,
    /// The full (speedup, error) tradeoff curve the search uncovered.
    pub frontier: ParetoFrontier,
}

impl TunedPlan {
    /// Fraction of the full design space the search evaluated.
    pub fn budget_fraction_used(&self) -> f64 {
        if self.full_space == 0 {
            0.0
        } else {
            self.evaluations as f64 / self.full_space as f64
        }
    }

    /// Whether the plan's measured error respects its bound.
    pub fn respects_bound(&self) -> bool {
        self.measured_error_pct <= self.bound_pct
    }

    /// Re-execute the plan: the accurate run at [`TunedPlan::baseline_lp`],
    /// then the chosen configuration, scored by the harness's one scorer
    /// ([`Baseline::score`]) into the row a sweep would have made for it. A
    /// plan reproduces when that row's `speedup` and `error_pct` equal
    /// `predicted_speedup` and `measured_error_pct` bit for bit. `bench`
    /// must be the application the plan was tuned for.
    pub fn execute(&self, bench: &dyn Benchmark, spec: &DeviceSpec) -> Result<Row, RegionError> {
        assert_eq!(
            bench.name(),
            self.benchmark,
            "plan was tuned for a different benchmark"
        );
        let opts = ExecOptions::default();
        // One evaluation scope for both runs: the chosen run finds the
        // inputs and accurate outputs the baseline run prepared.
        let _scope = install_eval_memo();
        let baseline = Baseline::measure(bench, spec, self.baseline_lp, &opts)?;
        let region = self.region.as_ref();
        let chosen = bench.run_opts(spec, region, &self.lp, &opts)?;
        Ok(baseline.score(bench, spec, region, &self.config, &self.lp, &chosen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_apps::blackscholes::Blackscholes;

    fn accurate_plan(bench: &Blackscholes) -> TunedPlan {
        TunedPlan {
            benchmark: bench.name().to_string(),
            device: "V100".into(),
            instance: bench.params_key(),
            bound_pct: 5.0,
            region: None,
            lp: LaunchParams::new(8, 256),
            technique: "accurate".into(),
            config: "accurate".into(),
            predicted_speedup: 1.0,
            measured_error_pct: 0.0,
            baseline_lp: LaunchParams::new(8, 256),
            evaluations: 0,
            full_space: 100,
            from_cache: false,
            verified_seed: false,
            frontier: ParetoFrontier::new(),
        }
    }

    #[test]
    fn accurate_plan_executes_at_unity() {
        let bench = Blackscholes {
            n_options: 2048,
            ..Blackscholes::default()
        };
        let spec = DeviceSpec::v100();
        let row = accurate_plan(&bench).execute(&bench, &spec).unwrap();
        assert!((row.speedup - 1.0).abs() < 1e-9);
        assert!(row.error_pct.abs() < 1e-12);
        assert!(row.end_to_end_seconds > 0.0);
        assert_eq!(row.technique, "accurate");
    }

    #[test]
    fn approx_plan_executes_with_speedup() {
        let bench = Blackscholes {
            n_options: 2048,
            ..Blackscholes::default()
        };
        let spec = DeviceSpec::v100();
        let mut plan = accurate_plan(&bench);
        plan.region = Some(ApproxRegion::memo_out(2, 64, 5.0));
        plan.lp = LaunchParams::new(16, 256);
        let row = plan.execute(&bench, &spec).unwrap();
        assert!(row.speedup > 1.0, "speedup {}", row.speedup);
        assert!(row.error_pct.is_finite());
    }

    #[test]
    #[should_panic(expected = "different benchmark")]
    fn execute_rejects_wrong_benchmark() {
        let bench = Blackscholes::default();
        let mut plan = accurate_plan(&bench);
        plan.benchmark = "LULESH".into();
        let _ = plan.execute(&bench, &DeviceSpec::v100());
    }

    #[test]
    fn budget_fraction_and_bound_helpers() {
        let bench = Blackscholes::default();
        let mut plan = accurate_plan(&bench);
        plan.evaluations = 10;
        plan.full_space = 200;
        assert!((plan.budget_fraction_used() - 0.05).abs() < 1e-12);
        assert!(plan.respects_bound());
        plan.measured_error_pct = 7.5;
        assert!(!plan.respects_bound());
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn bound_rejects_negative() {
        let _ = QualityBound::percent(-1.0);
    }
}
