//! The tuner core: adaptive search and plan selection.
//!
//! [`Tuner`] holds the search policy (grid scale, budget) and
//! exposes one entry point, [`Tuner::search_plan`], which answers "fastest
//! configuration for this benchmark on this device with at most X% error" —
//! optionally warm-started from seed configurations (typically a cached
//! neighbor bound's Pareto frontier). Caching, request coalescing, and
//! provenance live a layer up, in `hpac-service`.

use crate::grid::Grid;
use crate::plan::{QualityBound, TunedPlan};
use crate::search::{search_grid, Evaluator};
use gpu_sim::DeviceSpec;
use hpac_apps::common::Benchmark;
use hpac_harness::runner::{select_baseline, Baseline};
use hpac_harness::space::{self, Scale, SweepConfig};

/// The quality-constrained autotuner.
#[derive(Debug)]
pub struct Tuner {
    /// Grid resolution to search. `Scale::Full` (the default) searches the
    /// paper's native Table 2 axes; `Scale::Quick` searches the pruned CI
    /// grids.
    pub scale: Scale,
    /// Evaluation budget as a fraction of the full design-space size
    /// (default 0.1 — an order of magnitude under `Scale::Full`).
    pub budget_fraction: f64,
}

impl Default for Tuner {
    fn default() -> Self {
        Tuner {
            scale: Scale::Full,
            budget_fraction: 0.1,
        }
    }
}

impl Tuner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the searched grid resolution.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// The per-benchmark evaluation budget on a device.
    pub fn budget(&self, bench: &dyn Benchmark, device: &DeviceSpec) -> usize {
        let full = space::full_space_size(bench, device);
        ((full as f64 * self.budget_fraction) as usize).max(1)
    }

    /// Search for the fastest plan under `bound`, never consulting or
    /// writing a cache.
    ///
    /// `seeds` are concrete configurations evaluated *before* any grid walk
    /// — typically the re-executable Pareto frontier of a neighboring
    /// cached bound on the same (benchmark, device). If the seeds already
    /// contain a feasible point genuinely faster than the accurate
    /// baseline, that winner is returned immediately: a warm start spends
    /// only `seeds.len()` evaluations instead of a full search. Otherwise
    /// the full grid search proceeds with the same evaluator, so seed
    /// evaluations still count against (and never exceed) the one budget a
    /// cold search gets.
    ///
    /// With empty `seeds`, the search is cold and deterministic: repeated
    /// calls with the same inputs retrace the same walk and return
    /// identical plans.
    pub fn search_plan(
        &self,
        bench: &dyn Benchmark,
        device: &DeviceSpec,
        bound: QualityBound,
        seeds: &[SweepConfig],
    ) -> TunedPlan {
        // One evaluation scope for the whole search. If the caller already
        // holds one (a tuning service does, across requests) this joins it,
        // and the baseline, the prepared inputs and the interned accurate
        // outputs of an earlier search on this (benchmark, device) are
        // found rather than rebuilt.
        let _memo_scope = hpac_apps::common::install_eval_memo();
        let baseline = select_baseline(bench, device);
        let full_space = space::full_space_size(bench, device);
        let mut ev = Evaluator::new(bench, device, &baseline, self.budget(bench, device));

        if !seeds.is_empty() {
            ev.eval_batch(seeds);
            if let Some(plan) = self.winning_plan(bench, device, bound, &baseline, &ev, full_space)
            {
                return plan;
            }
            // No seed beats the baseline under the bound: fall through to
            // the full search, reusing the evaluator (its memo table makes
            // re-visited seed configs free, and its spent budget keeps the
            // total at or under a cold search's).
        }

        // Deterministic per-(benchmark, device) seed so repeated cold tunes
        // retrace the same search.
        let seed = crate::cache::fnv1a_p48(bench.name().bytes().chain(device.name.bytes()));
        let grids = Grid::grids_for(bench, device, self.scale);
        for (i, grid) in grids.iter().enumerate() {
            let _grid = hpac_obs::span(
                hpac_obs::SpanId::TunerSearchGrid,
                i as u64,
                grid.size() as u64,
            );
            search_grid(
                grid,
                &mut ev,
                bound.max_error_pct,
                seed.wrapping_add(i as u64),
            );
        }

        self.winning_plan(bench, device, bound, &baseline, &ev, full_space)
            .unwrap_or_else(|| {
                // Nothing feasible: fall back to the accurate baseline
                // rather than violating the caller's bound.
                TunedPlan {
                    benchmark: bench.name().to_string(),
                    device: device.name.to_string(),
                    bound_pct: bound.max_error_pct,
                    region: None,
                    lp: baseline.lp,
                    technique: "accurate".to_string(),
                    config: "accurate".to_string(),
                    predicted_speedup: 1.0,
                    measured_error_pct: 0.0,
                    baseline_lp: baseline.lp,
                    evaluations: ev.evaluations,
                    full_space,
                    from_cache: false,
                    frontier: ev.frontier.clone(),
                }
            })
    }

    /// The plan for the evaluator's current best feasible point, if one
    /// exists. A feasible point that is not actually faster than the
    /// accurate baseline is worse than not approximating at all, so it
    /// never wins.
    fn winning_plan(
        &self,
        bench: &dyn Benchmark,
        device: &DeviceSpec,
        bound: QualityBound,
        baseline: &Baseline,
        ev: &Evaluator,
        full_space: usize,
    ) -> Option<TunedPlan> {
        let best = ev
            .frontier
            .best_under(bound.max_error_pct)
            .filter(|best| best.speedup > 1.0)?;
        let chosen = ev
            .lookup(&best.config)
            .expect("frontier points come from evaluated configs");
        Some(TunedPlan {
            benchmark: bench.name().to_string(),
            device: device.name.to_string(),
            bound_pct: bound.max_error_pct,
            region: Some(chosen.region),
            lp: chosen.lp,
            technique: best.technique.clone(),
            config: best.config.clone(),
            predicted_speedup: best.speedup,
            measured_error_pct: best.error_pct,
            baseline_lp: baseline.lp,
            evaluations: ev.evaluations,
            full_space,
            from_cache: false,
            frontier: ev.frontier.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_apps::blackscholes::Blackscholes;

    // Default-size Blackscholes: large enough that approximation genuinely
    // beats the baseline (the tiny test sizes have no feasible speedup, so
    // the tuner would — correctly — return the accurate fallback).
    fn tune_bs() -> Blackscholes {
        Blackscholes::default()
    }

    fn quick_tuner() -> Tuner {
        // Quick scale keeps unit tests fast; budget stays proportional to
        // the full space so the <10% claim is still exercised.
        Tuner::new().with_scale(Scale::Quick)
    }

    #[test]
    fn tune_respects_bound_and_budget() {
        let bench = tune_bs();
        let spec = DeviceSpec::v100();
        let plan = quick_tuner().search_plan(&bench, &spec, QualityBound::percent(5.0), &[]);
        assert!(plan.respects_bound(), "error {}", plan.measured_error_pct);
        assert!(plan.predicted_speedup >= 1.0);
        assert!(
            plan.budget_fraction_used() < 0.1,
            "evaluated {} of {}",
            plan.evaluations,
            plan.full_space
        );
        assert!(!plan.from_cache);
        assert!(!plan.frontier.is_empty());
    }

    /// The cold search is deterministic; these are the values it produced
    /// before the harness and the evaluator shared one dedup table. A change
    /// here means the search trajectory moved.
    #[test]
    fn cold_search_trajectory_is_pinned() {
        let plan = quick_tuner().search_plan(
            &tune_bs(),
            &DeviceSpec::v100(),
            QualityBound::percent(5.0),
            &[],
        );
        assert_eq!(plan.evaluations, 79);
        assert_eq!(plan.config, "h=1 p=512 thr=0.3 lvl=thread ipt=8");
        assert_eq!(plan.frontier.len(), 2);
    }

    #[test]
    fn tighter_bound_never_faster() {
        let bench = tune_bs();
        let spec = DeviceSpec::v100();
        let tuner = quick_tuner();
        let loose = tuner.search_plan(&bench, &spec, QualityBound::percent(10.0), &[]);
        let tight = tuner.search_plan(&bench, &spec, QualityBound::percent(0.5), &[]);
        assert!(tight.measured_error_pct <= 0.5);
        assert!(tight.predicted_speedup <= loose.predicted_speedup + 1e-9);
    }

    #[test]
    fn impossible_bound_falls_back_to_accurate() {
        let bench = tune_bs();
        let spec = DeviceSpec::v100();
        let plan = quick_tuner().search_plan(&bench, &spec, QualityBound::percent(0.0), &[]);
        // A zero bound may still be met by exact memoization; if nothing
        // met it the plan must be the accurate fallback, never a violation.
        if plan.region.is_none() {
            assert_eq!(plan.technique, "accurate");
            assert_eq!(plan.predicted_speedup, 1.0);
        }
        assert!(plan.respects_bound());
    }

    #[test]
    fn warm_seeds_from_own_frontier_shortcut_the_search() {
        let bench = tune_bs();
        let spec = DeviceSpec::v100();
        let tuner = quick_tuner();
        let bound = QualityBound::percent(5.0);
        let cold = tuner.search_plan(&bench, &spec, bound, &[]);
        assert!(cold.region.is_some(), "test needs a feasible winner");
        let seeds: Vec<_> = cold
            .frontier
            .points()
            .iter()
            .filter_map(|p| p.to_config())
            .collect();
        assert!(!seeds.is_empty());
        let warm = tuner.search_plan(&bench, &spec, bound, &seeds);
        assert_eq!(warm.config, cold.config, "same winner, warm or cold");
        assert!(
            warm.evaluations <= seeds.len(),
            "warm start evaluated {} > {} seeds",
            warm.evaluations,
            seeds.len()
        );
        assert!(warm.evaluations <= cold.evaluations);
        assert!(warm.respects_bound());
    }

    #[test]
    fn plan_reexecutes_through_apps_layer() {
        let bench = tune_bs();
        let spec = DeviceSpec::v100();
        let plan = quick_tuner().search_plan(&bench, &spec, QualityBound::percent(5.0), &[]);
        let report = plan.execute(&bench, &spec).unwrap();
        assert!((report.speedup - plan.predicted_speedup).abs() < 1e-6);
        assert!((report.error_pct - plan.measured_error_pct).abs() < 1e-6);
    }
}
