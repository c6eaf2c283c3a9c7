//! The tuner core: adaptive search and plan selection.
//!
//! [`Tuner`] holds the search policy (grid scale, budget) and
//! exposes one entry point, [`Tuner::search_plan`], which answers "fastest
//! configuration for this benchmark on this device with at most X% error" —
//! optionally warm-started from stored frontier points (typically a cached
//! neighbor bound's Pareto frontier), whose winner it verifies with one
//! run. Caching, request coalescing, and provenance live a layer up, in
//! `hpac-service`.

use crate::grid::Grid;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::plan::{QualityBound, TunedPlan};
use crate::search::{search_grid, Evaluator};
use gpu_sim::DeviceSpec;
use hpac_apps::common::Benchmark;
use hpac_harness::runner::select_baseline;
use hpac_harness::space::{self, Scale};
use std::sync::atomic::{AtomicBool, Ordering};

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
    /// `seeds` are frontier points an earlier search stored — typically the
    /// re-executable Pareto frontiers of neighboring cached bounds on the
    /// same (benchmark, device), nearest bound first — each carrying the
    /// (speedup, error) that search measured for it. A warm start *verifies*
    /// them rather than re-measuring them: the stored points form a prior
    /// frontier, its fastest point under `bound` is executed once, and if
    /// that run reproduces the stored speedup and error bit for bit the
    /// plan is returned with [`TunedPlan::verified_seed`] set: the measured
    /// numbers, the prior frontier, one evaluation. Runs are deterministic,
    /// so a point measured on this benchmark instance and device reproduces
    /// exactly; one that does not was measured on something else (or written
    /// by hand), and then nothing the seeds claim is taken on trust.
    ///
    /// In every other case — no stored point is feasible and faster than
    /// the accurate baseline, the stored winner does not launch or does not
    /// reproduce (counted in `TunerSeedMismatches`, one warning per
    /// process), or there are more seeds than budget — every seed is
    /// executed ahead of the grid walk and a feasible winner among them is
    /// returned at `seeds.len()` evaluations. Failing that the full grid
    /// search proceeds with the same evaluator, so seed evaluations still
    /// count against (and never exceed) the one budget a cold search gets.
    /// Seeds without a concrete configuration ([`ParetoPoint::to_config`])
    /// are ignored, and nothing measured here outlives the call.
    ///
    /// With empty `seeds`, the search is cold and deterministic: repeated
    /// calls with the same inputs retrace the same walk and return
    /// identical plans.
    pub fn search_plan(
        &self,
        bench: &dyn Benchmark,
        device: &DeviceSpec,
        bound: QualityBound,
        seeds: &[ParetoPoint],
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

        // The plan for a frontier's best feasible point, if there is one. A
        // feasible point that is not actually faster than the accurate
        // baseline is worse than not approximating at all, so it never wins.
        let winning_plan = |ev: &Evaluator, frontier: &ParetoFrontier, verified_seed: bool| {
            let best = frontier
                .best_under(bound.max_error_pct)
                .filter(|best| best.speedup > 1.0)?;
            let chosen = ev
                .lookup(&best.config)
                .expect("the evaluator has run the frontier's winner");
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
                verified_seed,
                frontier: frontier.clone(),
            })
        };

        // Stored points in seed order; `insert` drops non-finite claims.
        let mut prior = ParetoFrontier::new();
        let mut configs = Vec::new();
        for point in seeds {
            if let Some(cfg) = point.to_config() {
                configs.push(cfg);
                prior.insert(point.clone());
            }
        }
        if !configs.is_empty() {
            // Running the stored winner first spends what running every
            // seed spends only when every seed fits the budget.
            let all_fit = configs.len() <= ev.remaining();
            let claim = prior
                .best_under(bound.max_error_pct)
                .filter(|claim| all_fit && claim.speedup > 1.0);
            if let Some(claim) = claim {
                let cfg = claim
                    .to_config()
                    .expect("the prior holds executable points");
                let run = ev.eval_batch(std::slice::from_ref(&cfg)).pop().flatten();
                if run.as_ref().is_some_and(|run| {
                    run.speedup.to_bits() == claim.speedup.to_bits()
                        && run.error_pct.to_bits() == claim.error_pct.to_bits()
                }) {
                    hpac_obs::inc(hpac_obs::CounterId::TunerSeedsVerified);
                    return winning_plan(&ev, &prior, true)
                        .expect("the verified claim is the prior's winner");
                }
                hpac_obs::inc(hpac_obs::CounterId::TunerSeedMismatches);
                if !SEED_MISMATCH_WARNED.swap(true, Ordering::Relaxed) {
                    let measured = run.map_or("does not launch".to_string(), |run| {
                        format!("measures {}x at {}%", run.speedup, run.error_pct)
                    });
                    hpac_obs::log_warn(&format!(
                        "warm start: {:?} of {} on {} is cached at {}x and {}% error and \
                         {measured} here: the cached neighborhood was tuned for another \
                         problem instance, or edited. Re-measuring every seed (reported once \
                         per process; the tuner_seed_mismatches counter has them all)",
                        claim.config,
                        bench.name(),
                        device.name,
                        claim.speedup,
                        claim.error_pct,
                    ));
                }
            }
            // The evaluator remembers the run above: it is not repeated, and
            // the spend comes to one evaluation per seed either way.
            ev.eval_batch(&configs);
            if let Some(plan) = winning_plan(&ev, &ev.frontier, false) {
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

        winning_plan(&ev, &ev.frontier, false).unwrap_or_else(|| {
            // Nothing feasible: fall back to the accurate baseline rather
            // than violating the caller's bound.
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
                verified_seed: false,
                frontier: ev.frontier.clone(),
            }
        })
    }
}

/// One warning per process for a stored winner that does not reproduce; the
/// counter has every occurrence.
static SEED_MISMATCH_WARNED: AtomicBool = AtomicBool::new(false);

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
        assert!(!cold.verified_seed);
        let seeds = cold.frontier.points();
        assert!(seeds.len() > 1, "test needs more seeds than it will run");
        let warm = tuner.search_plan(&bench, &spec, bound, seeds);
        assert!(warm.verified_seed);
        assert_eq!(warm.evaluations, 1, "only the stored winner is run");
        assert_eq!(warm.config, cold.config, "same winner, warm or cold");
        assert_eq!(warm.predicted_speedup, cold.predicted_speedup);
        assert_eq!(warm.measured_error_pct, cold.measured_error_pct);
        assert_eq!(warm.frontier.points(), seeds);
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
