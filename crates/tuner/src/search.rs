//! Adaptive search over the technique grids.
//!
//! `Scale::Full` sweeps evaluate every point of the Table 2 product (the
//! paper ran 57k+ configurations). [`search_grid`] walks the same grids
//! while evaluating orders of magnitude fewer points, by coordinate
//! descent: axis-wise hill climbing from the grid midpoint with random
//! restarts. The paper's axes are individually monotone-ish (thresholds
//! trade error for speed, psize trades error for speed), which is exactly
//! when coordinate descent shines.
//!
//! Every evaluated point feeds the shared [`ParetoFrontier`], so the tuner
//! keeps the whole tradeoff curve, not just the bound-feasible winner.

use crate::grid::Grid;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use gpu_sim::DeviceSpec;
use hpac_apps::common::{Benchmark, LaunchParams};
use hpac_core::exec::{engine, ExecOptions};
use hpac_core::region::ApproxRegion;
use hpac_harness::runner::{self, Baseline, CanonicalReps, ConfigOutcome};
use hpac_harness::space::SweepConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One evaluated configuration, kept so a frontier point can be turned back
/// into an executable plan.
#[derive(Debug, Clone)]
pub struct Evaluated {
    pub region: ApproxRegion,
    pub lp: LaunchParams,
    pub technique: &'static str,
    pub speedup: f64,
    pub error_pct: f64,
}

/// Budgeted, memoizing configuration evaluator shared by all grids of one
/// tuning request.
pub struct Evaluator<'a> {
    bench: &'a dyn Benchmark,
    spec: &'a DeviceSpec,
    baseline: &'a Baseline,
    budget: usize,
    /// Fresh (non-memoized) configuration executions so far.
    pub evaluations: usize,
    pub frontier: ParetoFrontier,
    /// Configurations abandoned by the frontier-aware cost ceiling: their
    /// modeled-cost lower bound already proved them slower than the
    /// frontier's zero-error point, which dominates them at any error.
    pub aborted: Vec<SweepConfig>,
    /// label → outcome; `None` records a configuration rejected at launch
    /// or abandoned by the cost ceiling.
    seen: HashMap<String, Option<Evaluated>>,
    /// Canonical execution → label of the evaluated representative;
    /// equal-key configurations reuse its outcome instead of re-executing.
    canon: CanonicalReps<String>,
}

impl<'a> Evaluator<'a> {
    pub fn new(
        bench: &'a dyn Benchmark,
        spec: &'a DeviceSpec,
        baseline: &'a Baseline,
        budget: usize,
    ) -> Self {
        Evaluator {
            bench,
            spec,
            baseline,
            budget,
            evaluations: 0,
            frontier: ParetoFrontier::new(),
            aborted: Vec::new(),
            seen: HashMap::new(),
            canon: CanonicalReps::new(),
        }
    }

    /// Evaluations left before the budget is exhausted.
    pub fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.evaluations)
    }

    /// Outcome of a previously evaluated configuration.
    pub fn lookup(&self, label: &str) -> Option<&Evaluated> {
        self.seen.get(label).and_then(|o| o.as_ref())
    }

    /// Evaluate a batch, running fresh configurations in parallel on the
    /// shared [`engine`] (nested kernel fan-outs run inline on each config
    /// task's worker). Returns one outcome per input configuration
    /// (memoized results included); fresh work beyond the remaining budget
    /// is skipped and reported as `None`.
    pub fn eval_batch(&mut self, configs: &[SweepConfig]) -> Vec<Option<Evaluated>> {
        let mut fresh: Vec<&SweepConfig> = Vec::new();
        // (duplicate config, label of its canonical representative).
        let mut dups: Vec<(&SweepConfig, String)> = Vec::new();
        let remaining = self.remaining();
        for cfg in configs {
            if self.seen.contains_key(&cfg.label)
                || fresh.iter().any(|f| f.label == cfg.label)
                || dups.iter().any(|(d, _)| d.label == cfg.label)
            {
                continue;
            }
            // A duplicate is free; a fresh configuration is admitted (and
            // becomes its key's representative) only while budget remains.
            let room = fresh.len() < remaining;
            let candidate = room.then(|| cfg.label.clone());
            match self
                .canon
                .rep_or_admit(self.bench, self.spec, cfg, candidate)
            {
                Some(rep) => dups.push((cfg, rep)),
                None if room => fresh.push(cfg),
                None => {}
            }
        }
        // Frontier-aware early abort: a zero-error frontier point at
        // speedup S₀ dominates anything slower than baseline/S₀ seconds,
        // so the walk may abandon a config once its modeled-cost lower
        // bound crosses that ceiling.
        let opts = ExecOptions {
            abort_above_seconds: self
                .frontier
                .zero_error_speedup()
                .map(|s0| self.baseline.seconds / s0),
            ..ExecOptions::default()
        };
        let (bench, spec, baseline) = (self.bench, self.spec, self.baseline);
        let outcomes: Vec<ConfigOutcome> =
            engine().run(fresh.len(), engine().default_width(), |i| {
                runner::run_config_bounded(bench, spec, baseline, fresh[i], &opts)
            });
        self.evaluations += fresh.len();
        if hpac_obs::enabled() {
            hpac_obs::add(hpac_obs::CounterId::TunerEvals, fresh.len() as u64);
            hpac_obs::add(
                hpac_obs::CounterId::TunerEvalsSkipped,
                (configs.len() - fresh.len()) as u64,
            );
        }
        for (cfg, outcome) in fresh.iter().zip(outcomes) {
            let outcome = match outcome {
                ConfigOutcome::Done(row) => Some(Evaluated {
                    region: cfg.region,
                    lp: cfg.lp,
                    technique: cfg.region.technique_name(),
                    speedup: row.speedup,
                    error_pct: row.error_pct,
                }),
                ConfigOutcome::Aborted(_) => {
                    self.aborted.push((*cfg).clone());
                    None
                }
                ConfigOutcome::Rejected(..) => None,
            };
            if let Some(ev) = &outcome {
                self.frontier.insert(ParetoPoint {
                    speedup: ev.speedup,
                    error_pct: ev.error_pct,
                    technique: ev.technique.to_string(),
                    config: cfg.label.clone(),
                    items_per_thread: ev.lp.items_per_thread,
                    region: Some(ev.region),
                    lp: Some(ev.lp),
                });
            }
            self.seen.insert(cfg.label.clone(), outcome);
        }
        for (cfg, rep_label) in dups {
            hpac_obs::inc(hpac_obs::CounterId::ConfigsDeduped);
            let synth = self
                .seen
                .get(&rep_label)
                .cloned()
                .flatten()
                .map(|rep| Evaluated {
                    region: cfg.region,
                    lp: cfg.lp,
                    technique: cfg.region.technique_name(),
                    speedup: rep.speedup,
                    error_pct: rep.error_pct,
                });
            // The representative already holds the frontier point for these
            // coordinates; inserting the duplicate would be a no-op.
            self.seen.insert(cfg.label.clone(), synth);
        }
        // One trajectory sample per batch: how far the search has come and
        // how selective the frontier is at this point.
        hpac_obs::mark(
            hpac_obs::Mark::SearchPoint,
            self.evaluations as u64,
            self.frontier.len() as u64,
        );
        configs
            .iter()
            .map(|cfg| self.seen.get(&cfg.label).cloned().flatten())
            .collect()
    }
}

/// Candidate ordering under a quality bound: feasible beats infeasible,
/// then faster, then more accurate.
fn better(a: &Evaluated, b: &Evaluated, bound_pct: f64) -> bool {
    let (fa, fb) = (a.error_pct <= bound_pct, b.error_pct <= bound_pct);
    if fa != fb {
        return fa;
    }
    if fa {
        a.speedup > b.speedup || (a.speedup == b.speedup && a.error_pct < b.error_pct)
    } else {
        a.error_pct < b.error_pct || (a.error_pct == b.error_pct && a.speedup > b.speedup)
    }
}

fn random_index(grid: &Grid, rng: &mut StdRng) -> Vec<usize> {
    (0..grid.axis_count())
        .map(|a| rng.gen_range(0..grid.axis_len(a)))
        .collect()
}

/// Full axis sweeps one descent makes before it gives up on converging.
const MAX_SWEEPS: usize = 4;
/// Descents per grid: one from the midpoint, the rest from random points.
const RESTARTS: usize = 2;

/// Walk one grid by coordinate descent — [`RESTARTS`] starting points, each
/// swept axis by axis until a full sweep makes no move (at most
/// [`MAX_SWEEPS`]) — feeding the evaluator's frontier.
pub fn search_grid(grid: &Grid, ev: &mut Evaluator<'_>, bound_pct: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for restart in 0..RESTARTS {
        if ev.remaining() == 0 {
            return;
        }
        let start = if restart == 0 {
            (0..grid.axis_count())
                .map(|a| grid.axis_len(a) / 2)
                .collect()
        } else {
            random_index(grid, &mut rng)
        };
        coordinate_descent(grid, ev, bound_pct, start);
    }
}

fn coordinate_descent(grid: &Grid, ev: &mut Evaluator<'_>, bound_pct: f64, mut idx: Vec<usize>) {
    for _sweep in 0..MAX_SWEEPS {
        let mut moved = false;
        for axis in 0..grid.axis_count() {
            if ev.remaining() == 0 {
                return;
            }
            let candidates: Vec<SweepConfig> = (0..grid.axis_len(axis))
                .map(|v| {
                    let mut c = idx.clone();
                    c[axis] = v;
                    grid.build(&c)
                })
                .collect();
            let outcomes = ev.eval_batch(&candidates);
            let best = outcomes
                .iter()
                .enumerate()
                .filter_map(|(v, o)| o.as_ref().map(|e| (v, e)))
                .reduce(|acc, cur| {
                    if better(cur.1, acc.1, bound_pct) {
                        cur
                    } else {
                        acc
                    }
                });
            if let Some((v, _)) = best {
                if v != idx[axis] {
                    idx[axis] = v;
                    moved = true;
                }
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_apps::blackscholes::Blackscholes;
    use hpac_harness::runner::select_baseline;
    use hpac_harness::space::Scale;

    fn tiny_bs() -> Blackscholes {
        Blackscholes {
            n_options: 2048,
            distinct: 16,
            run_len: 16,
            seed: 1,
        }
    }

    #[test]
    fn coordinate_descent_finds_feasible_speedup() {
        // Default-size Blackscholes: a >1x point under 5% error exists (the
        // quick sweep tops out near 2x at 0% error).
        let bench = Blackscholes::default();
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        let mut ev = Evaluator::new(&bench, &spec, &baseline, 400);
        for (i, grid) in Grid::grids_for(&bench, &spec, Scale::Quick)
            .iter()
            .enumerate()
        {
            search_grid(grid, &mut ev, 5.0, 42 + i as u64);
        }
        assert!(ev.evaluations <= 400);
        let best = ev.frontier.best_under(5.0).expect("feasible point exists");
        assert!(best.error_pct <= 5.0);
        assert!(best.speedup > 1.0, "speedup {}", best.speedup);
    }

    #[test]
    fn evaluator_memoizes_repeated_configs() {
        let bench = tiny_bs();
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        let mut ev = Evaluator::new(&bench, &spec, &baseline, 100);
        let grid = &Grid::grids_for(&bench, &spec, Scale::Quick)[0];
        let cfg = grid.build(&vec![0; grid.axis_count()]);
        ev.eval_batch(std::slice::from_ref(&cfg));
        assert_eq!(ev.evaluations, 1);
        let again = ev.eval_batch(std::slice::from_ref(&cfg));
        assert_eq!(ev.evaluations, 1, "memoized eval must not re-run");
        assert!(again[0].is_some());
        assert!(ev.lookup(&cfg.label).is_some());
    }

    #[test]
    fn better_prefers_feasible_then_fast() {
        let mk = |speedup, error_pct| Evaluated {
            region: ApproxRegion::memo_out(1, 2, 0.5),
            lp: LaunchParams::new(8, 256),
            technique: "TAF",
            speedup,
            error_pct,
        };
        assert!(better(&mk(1.1, 2.0), &mk(9.0, 50.0), 5.0));
        assert!(better(&mk(2.0, 2.0), &mk(1.5, 1.0), 5.0));
        assert!(better(&mk(1.0, 10.0), &mk(2.0, 30.0), 5.0));
    }
}
