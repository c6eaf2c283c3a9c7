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
//!
//! The [`Evaluator`] answers a configuration without running it when its
//! family ([`runner::Family`]) proves the run's outcome: a duplicate of an
//! admitted member is free, and a configuration a sibling's finished run
//! covers — under the same cost ceiling — is admitted and charged like a
//! run, so the budget, the trajectory and every plan are those of running
//! it.

use crate::pareto::{ParetoFrontier, ParetoPoint};
use gpu_sim::DeviceSpec;
use hpac_apps::common::{Benchmark, LaunchParams};
use hpac_core::exec::{engine, ExecOptions};
use hpac_core::region::ApproxRegion;
use hpac_harness::runner::{self, Baseline, ConfigOutcome, Family, Reuse};
use hpac_harness::space::{Grid, SweepConfig};
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

impl Evaluated {
    /// This outcome as `cfg`'s own, for a configuration answered by another
    /// one's run.
    fn for_config(&self, cfg: &SweepConfig) -> Evaluated {
        Evaluated {
            region: cfg.region,
            lp: cfg.lp,
            technique: cfg.region.technique_name(),
            ..*self
        }
    }

    /// Can the descent move here? A non-finite speedup or error (a NaN or
    /// infinite output scores infinite error) ranks against nothing.
    fn is_candidate(&self) -> bool {
        self.speedup.is_finite() && self.error_pct.is_finite()
    }
}

/// How the evaluator answered one configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Run to completion.
    Run,
    /// A duplicate of the named configuration: the same execution. Free.
    DuplicateOf(String),
    /// Inside the decision margins the named configuration's finished run
    /// published under the same cost ceiling (`None`: no ceiling), so its
    /// own run would have been that run. Charged like a run.
    CoveredBy {
        sibling: String,
        ceiling: Option<f64>,
    },
    /// Abandoned once its modeled cost crossed the ceiling, in seconds.
    Aborted { ceiling: f64 },
    /// Refused at launch, for the given reason.
    Rejected(String),
}

/// Budgeted, memoizing configuration evaluator shared by all grids of one
/// tuning request.
pub struct Evaluator<'a> {
    bench: &'a dyn Benchmark,
    spec: &'a DeviceSpec,
    baseline: &'a Baseline,
    budget: usize,
    /// Configurations charged to the budget so far: every one admitted,
    /// whether it ran or a sibling's margins answered it.
    pub evaluations: usize,
    pub frontier: ParetoFrontier,
    /// Configurations abandoned by the frontier-aware cost ceiling: their
    /// modeled-cost lower bound already proved them slower than the
    /// frontier's zero-error point, which dominates them at any error.
    pub aborted: Vec<SweepConfig>,
    /// label → outcome; `None` records a configuration rejected at launch
    /// or abandoned by the cost ceiling.
    seen: HashMap<String, Option<Evaluated>>,
    /// Family key ([`runner::family_key`]) → its admitted members, by label.
    families: HashMap<Vec<u64>, Family<String>>,
    /// Every answered configuration's label and answer, in answer order.
    answers: Vec<(String, Answer)>,
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
            families: HashMap::new(),
            answers: Vec::new(),
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

    /// How each configuration was answered, in the order answered.
    pub fn answers(&self) -> &[(String, Answer)] {
        &self.answers
    }

    /// Evaluate a batch, running fresh configurations in parallel on the
    /// shared [`engine`] (each kernel launch walks its blocks on its config
    /// task's thread) — all but those their family answers: duplicates of
    /// admitted configurations, and those an earlier batch's published
    /// margins cover. Returns one outcome per input configuration (memoized
    /// results included); fresh work beyond the remaining budget is skipped
    /// and reported as `None`.
    pub fn eval_batch(&mut self, configs: &[SweepConfig]) -> Vec<Option<Evaluated>> {
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
        let ceiling = opts.abort_above_seconds;
        // Charged configurations in admission order: family key, member
        // index, and the sibling whose margins answer it (`None`: it runs).
        let mut admitted: Vec<(&SweepConfig, Vec<u64>, usize, Option<String>)> = Vec::new();
        // (duplicate config, label of the member it duplicates).
        let mut dups: Vec<(&SweepConfig, String)> = Vec::new();
        let remaining = self.remaining();
        for cfg in configs {
            if self.seen.contains_key(&cfg.label)
                || admitted.iter().any(|a| a.0.label == cfg.label)
                || dups.iter().any(|(d, _)| d.label == cfg.label)
            {
                continue;
            }
            let key = runner::family_key(self.bench, self.spec, cfg);
            let family = self.families.entry(key.clone()).or_default();
            // A duplicate is free; anything else is admitted only while
            // budget remains.
            match family.answer(cfg, ceiling) {
                Some(Reuse::Duplicate(rep)) => dups.push((cfg, rep)),
                answer if admitted.len() < remaining => {
                    let member = family.admit(cfg, cfg.label.clone());
                    let sibling = match answer {
                        Some(Reuse::Covered(sibling)) => Some(sibling),
                        _ => None,
                    };
                    admitted.push((cfg, key, member, sibling));
                }
                _ => {}
            }
        }
        let to_run: Vec<&SweepConfig> = admitted
            .iter()
            .filter(|a| a.3.is_none())
            .map(|a| a.0)
            .collect();
        let (bench, spec, baseline) = (self.bench, self.spec, self.baseline);
        let mut ran = engine()
            .run(to_run.len(), engine().default_width(), |i| {
                runner::evaluate(bench, spec, baseline, to_run[i], &opts)
            })
            .into_iter();
        self.evaluations += admitted.len();
        if hpac_obs::enabled() {
            hpac_obs::add(hpac_obs::CounterId::TunerEvals, admitted.len() as u64);
            hpac_obs::add(
                hpac_obs::CounterId::TunerEvalsSkipped,
                (configs.len() - admitted.len()) as u64,
            );
        }
        for (cfg, key, member, sibling) in admitted {
            let (outcome, answer) = match sibling {
                Some(sibling) => {
                    hpac_obs::inc(hpac_obs::CounterId::ConfigsDeduped);
                    hpac_obs::inc(hpac_obs::CounterId::ConfigsThresholdCovered);
                    let outcome = self.lookup(&sibling).map(|rep| rep.for_config(cfg));
                    (outcome, Answer::CoveredBy { sibling, ceiling })
                }
                None => {
                    let (outcome, margins) = ran.next().expect("one outcome per configuration run");
                    if let Some(margins) = margins {
                        let family = self.families.get_mut(&key).expect("admitted");
                        family.publish(member, margins, ceiling);
                    }
                    match outcome {
                        ConfigOutcome::Done(row) => {
                            let outcome = Evaluated {
                                region: cfg.region,
                                lp: cfg.lp,
                                technique: cfg.region.technique_name(),
                                speedup: row.speedup,
                                error_pct: row.error_pct,
                            };
                            (Some(outcome), Answer::Run)
                        }
                        ConfigOutcome::Aborted(_) => {
                            self.aborted.push(cfg.clone());
                            let ceiling = ceiling.unwrap_or(f64::INFINITY);
                            (None, Answer::Aborted { ceiling })
                        }
                        ConfigOutcome::Rejected(_, reason) => (None, Answer::Rejected(reason)),
                    }
                }
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
            self.answers.push((cfg.label.clone(), answer));
        }
        for (cfg, rep_label) in dups {
            hpac_obs::inc(hpac_obs::CounterId::ConfigsDeduped);
            let synth = self.lookup(&rep_label).map(|rep| rep.for_config(cfg));
            // The member it duplicates already holds the frontier point for
            // these coordinates; inserting the duplicate would be a no-op.
            self.seen.insert(cfg.label.clone(), synth);
            self.answers
                .push((cfg.label.clone(), Answer::DuplicateOf(rep_label)));
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
/// then faster, then more accurate. Both must be candidates
/// ([`Evaluated::is_candidate`]): a NaN compares false both ways and would
/// win by arriving first.
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

/// The index the descent moves to along an axis: the best candidate
/// outcome, the first among equals.
fn best_candidate(outcomes: &[Option<Evaluated>], bound_pct: f64) -> Option<usize> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(v, o)| o.as_ref().filter(|e| e.is_candidate()).map(|e| (v, e)))
        .reduce(|acc, cur| {
            if better(cur.1, acc.1, bound_pct) {
                cur
            } else {
                acc
            }
        })
        .map(|(v, _)| v)
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
            if let Some(v) = best_candidate(&outcomes, bound_pct) {
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
    fn margins_answer_only_under_the_ceiling_they_were_published_at() {
        let bench = tiny_bs();
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        let mut ev = Evaluator::new(&bench, &spec, &baseline, 100);
        // `hsize = 1` compares an RSD of 0: one run covers every threshold.
        let at = |threshold: f64, label: &str| SweepConfig {
            region: ApproxRegion::memo_out(1, 4, threshold),
            lp: LaunchParams::new(8, 256),
            label: label.into(),
        };
        let exact = SweepConfig {
            region: ApproxRegion::memo_out(3, 4, 0.0),
            lp: LaunchParams::new(8, 256),
            label: "exact".into(),
        };
        let answer = |ev: &Evaluator, label: &str| {
            let found = ev.answers().iter().find(|(l, _)| l == label);
            found.map(|(_, a)| a.clone()).expect("answered")
        };
        // No ceiling yet; the exact run sets one for every later batch.
        ev.eval_batch(&[at(0.3, "a"), exact]);
        assert_eq!(ev.lookup("exact").map(|e| e.error_pct), Some(0.0));
        let ceiling = ev
            .frontier
            .zero_error_speedup()
            .map(|s| baseline.seconds / s);
        assert!(ceiling.is_some());
        // "a" published its margins with no ceiling in force: they answer
        // nothing under one.
        ev.eval_batch(&[at(0.9, "b")]);
        assert_eq!(answer(&ev, "b"), Answer::Run);
        // "b" ran under the ceiling still in force: its margins answer "c".
        ev.eval_batch(&[at(20.0, "c")]);
        let sibling = "b".to_string();
        assert_eq!(answer(&ev, "c"), Answer::CoveredBy { sibling, ceiling });
        assert_eq!(ev.evaluations, 4, "a covered configuration is charged");
    }

    /// Tiny Blackscholes, except that `nan` outputs NaN prices and every
    /// other approximated configuration is refused.
    struct OneNan {
        inner: Blackscholes,
        nan: ApproxRegion,
    }

    impl Benchmark for OneNan {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn kernel_only_timing(&self) -> bool {
            self.inner.kernel_only_timing()
        }
        fn run_opts(
            &self,
            spec: &DeviceSpec,
            region: Option<&ApproxRegion>,
            lp: &LaunchParams,
            opts: &ExecOptions,
        ) -> Result<hpac_apps::common::AppResult, hpac_core::region::RegionError> {
            match region {
                Some(r) if *r != self.nan => Err(hpac_core::region::RegionError::Invalid(
                    "refused by the test".into(),
                )),
                _ => {
                    let mut res = self.inner.run_opts(spec, region, lp, opts)?;
                    if region.is_some() {
                        res.qoi = hpac_apps::common::QoI::Values(vec![f64::NAN; 4]);
                    }
                    Ok(res)
                }
            }
        }
    }

    #[test]
    fn a_non_finite_outcome_is_never_a_candidate() {
        let spec = DeviceSpec::v100();
        let grid = &Grid::grids_for(&tiny_bs(), &spec, Scale::Quick)[0];
        let axis: Vec<SweepConfig> = (0..grid.axis_len(0))
            .map(|v| {
                let mut idx = vec![0; grid.axis_count()];
                idx[0] = v;
                grid.build(&idx)
            })
            .collect();
        let bench = OneNan {
            inner: tiny_bs(),
            nan: axis[0].region,
        };
        let baseline = select_baseline(&bench, &spec);
        let mut ev = Evaluator::new(&bench, &spec, &baseline, 100);
        let outcomes = ev.eval_batch(&axis);
        // The NaN output scores infinite error; everything else is refused,
        // so it is the only outcome on the axis — and still not a move.
        assert!(outcomes[0]
            .as_ref()
            .is_some_and(|e| e.error_pct.is_infinite()));
        assert!(outcomes[1..].iter().all(Option::is_none));
        assert_eq!(best_candidate(&outcomes, 5.0), None);
        assert!(ev.frontier.is_empty());
        assert_eq!(ev.answers()[0], (axis[0].label.clone(), Answer::Run));
        assert!(ev.answers()[1..]
            .iter()
            .all(|(_, a)| matches!(a, Answer::Rejected(r) if r.contains("refused by the test"))));

        // A NaN error first in line used to win against every infeasible
        // candidate after it.
        let mut nan_first = vec![outcomes[0].clone(), None];
        nan_first[0].as_mut().unwrap().error_pct = f64::NAN;
        let mut infeasible = nan_first[0].clone().unwrap();
        infeasible.error_pct = 30.0;
        nan_first[1] = Some(infeasible);
        assert_eq!(best_candidate(&nan_first, 5.0), Some(1));
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
