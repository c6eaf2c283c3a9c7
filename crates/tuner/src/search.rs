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
//! The [`Evaluator`] answers each batch through one [`Ledger`] for the
//! whole search: a duplicate of an admitted configuration is free, and a
//! configuration a sibling's finished run covers — under the same cost
//! ceiling — is admitted and charged like a run, so the budget, the
//! trajectory and every plan are those of running it.

use crate::pareto::{ParetoFrontier, ParetoPoint};
use gpu_sim::DeviceSpec;
use hpac_apps::common::Benchmark;
use hpac_core::exec::ExecOptions;
use hpac_harness::db::Row;
use hpac_harness::runner::{Answer, Baseline, Ledger};
use hpac_harness::space::{Grid, SweepConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Budgeted, memoizing configuration evaluator shared by all grids of one
/// tuning request.
pub struct Evaluator<'a> {
    /// Every configuration answered so far, and how.
    ledger: Ledger<'a>,
    budget: usize,
    pub frontier: ParetoFrontier,
}

impl<'a> Evaluator<'a> {
    pub fn new(
        bench: &'a dyn Benchmark,
        spec: &'a DeviceSpec,
        baseline: &'a Baseline,
        budget: usize,
    ) -> Self {
        Evaluator {
            ledger: Ledger::new(bench, spec, baseline),
            budget,
            frontier: ParetoFrontier::new(),
        }
    }

    /// Configurations charged to the budget so far: every one admitted,
    /// whether it ran or a sibling's margins answered it.
    pub fn evaluations(&self) -> usize {
        self.ledger
            .answered()
            .iter()
            .filter(|a| !matches!(a.answer, Answer::DuplicateOf(_)))
            .count()
    }

    /// Evaluations left before the budget is exhausted.
    pub fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.evaluations())
    }

    /// Every configuration answered so far, in answer order.
    pub fn ledger(&self) -> &Ledger<'a> {
        &self.ledger
    }

    /// The frontier-aware cost ceiling: a zero-error frontier point at
    /// speedup S₀ dominates anything slower than baseline/S₀ seconds, so
    /// the walk may abandon a config once its modeled-cost lower bound
    /// crosses it. Such a config is dominated at any error.
    fn ceiling(&self) -> Option<f64> {
        let baseline = self.ledger.baseline();
        self.frontier
            .zero_error_speedup()
            .map(|s0| baseline.seconds / s0)
    }

    /// Evaluate a batch under the current ceiling, running fresh
    /// configurations in parallel on the shared engine (each kernel launch
    /// walks its blocks on its config task's thread) — all but those the
    /// ledger answers: labels already answered, duplicates of admitted
    /// configurations, and those an earlier batch's published margins
    /// cover. Returns the row of each input configuration that finished
    /// (memoized results included); fresh work beyond the remaining budget
    /// is skipped and reported as `None`, like a rejected or aborted run.
    pub fn eval_batch(&mut self, configs: &[SweepConfig]) -> Vec<Option<&Row>> {
        let opts = ExecOptions {
            abort_above_seconds: self.ceiling(),
            ..ExecOptions::default()
        };
        let from = self.ledger.answered().len();
        let charged = self
            .ledger
            .answer(configs, &opts, Some(self.remaining()), true);
        if hpac_obs::enabled() {
            hpac_obs::add(hpac_obs::CounterId::TunerEvals, charged as u64);
            hpac_obs::add(
                hpac_obs::CounterId::TunerEvalsSkipped,
                (configs.len() - charged) as u64,
            );
        }
        for a in &self.ledger.answered()[from..] {
            // A duplicate's run is its member's, whose frontier point these
            // coordinates already are.
            if let (Answer::Run | Answer::CoveredBy { .. }, Some(row)) =
                (&a.answer, a.outcome.row())
            {
                self.frontier.insert(ParetoPoint {
                    speedup: row.speedup,
                    error_pct: row.error_pct,
                    technique: row.technique.clone(),
                    config: row.config.clone(),
                    items_per_thread: row.items_per_thread,
                    region: Some(a.config.region),
                    lp: Some(a.config.lp),
                });
            }
        }
        // One trajectory sample per batch: how far the search has come and
        // how selective the frontier is at this point.
        hpac_obs::mark(
            hpac_obs::Mark::SearchPoint,
            self.evaluations() as u64,
            self.frontier.len() as u64,
        );
        configs
            .iter()
            .map(|cfg| self.ledger.get(&cfg.label)?.outcome.row())
            .collect()
    }
}

/// Can the descent move here? A non-finite speedup or error (a NaN or
/// infinite output scores infinite error) ranks against nothing.
fn is_candidate(row: &Row) -> bool {
    row.speedup.is_finite() && row.error_pct.is_finite()
}

/// Candidate ordering under a quality bound: feasible beats infeasible,
/// then faster, then more accurate. Both must be candidates
/// ([`is_candidate`]): a NaN compares false both ways and would win by
/// arriving first.
fn better(a: &Row, b: &Row, bound_pct: f64) -> bool {
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
fn best_candidate(outcomes: &[Option<&Row>], bound_pct: f64) -> Option<usize> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(v, o)| o.filter(|row| is_candidate(row)).map(|row| (v, row)))
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

/// Walk one grid by coordinate descent — `RESTARTS` starting points, each
/// swept axis by axis until a full sweep makes no move (at most
/// `MAX_SWEEPS`) — feeding the evaluator's frontier.
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
    use hpac_apps::common::LaunchParams;
    use hpac_core::region::ApproxRegion;
    use hpac_harness::runner::{select_baseline, ConfigOutcome};
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
        assert!(ev.evaluations() <= 400);
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
        assert_eq!(ev.evaluations(), 1);
        assert!(ev.eval_batch(std::slice::from_ref(&cfg))[0].is_some());
        assert_eq!(ev.evaluations(), 1, "memoized eval must not re-run");
        assert_eq!(ev.ledger().answered().len(), 1);
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
            let found = ev.ledger().get(label).expect("answered");
            found.answer.clone()
        };
        // No ceiling yet; the exact run sets one for every later batch.
        ev.eval_batch(&[at(0.3, "a"), exact]);
        let exact = ev.ledger().get("exact").and_then(|a| a.outcome.row());
        assert_eq!(exact.map(|row| row.error_pct), Some(0.0));
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
        assert_eq!(ev.evaluations(), 4, "a covered configuration is charged");
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
        assert!(outcomes[0].is_some_and(|row| row.error_pct.is_infinite()));
        assert!(outcomes[1..].iter().all(Option::is_none));
        assert_eq!(best_candidate(&outcomes, 5.0), None);
        let mut nan = outcomes[0].cloned().unwrap();
        assert!(ev.frontier.is_empty());
        let answered = ev.ledger().answered();
        assert_eq!(answered[0].config.label, axis[0].label);
        assert!(answered.iter().all(|a| a.answer == Answer::Run));
        assert!(answered[1..].iter().all(|a| matches!(
            &a.outcome,
            ConfigOutcome::Rejected(_, r) if r.contains("refused by the test")
        )));

        // A NaN error first in line used to win against every infeasible
        // candidate after it.
        nan.error_pct = f64::NAN;
        let infeasible = Row {
            error_pct: 30.0,
            ..nan.clone()
        };
        assert_eq!(
            best_candidate(&[Some(&nan), Some(&infeasible)], 5.0),
            Some(1)
        );
    }

    #[test]
    fn better_prefers_feasible_then_fast() {
        let mk = |speedup, error_pct| Row {
            benchmark: "Blackscholes".into(),
            device: "V100".into(),
            technique: "TAF".into(),
            config: "h=1 p=2 thr=0.5".into(),
            items_per_thread: 8,
            speedup,
            error_pct,
            approx_fraction: 0.5,
            divergent_fraction: 0.0,
            kernel_seconds: 1.0,
            end_to_end_seconds: 1.0,
            iterations: None,
        };
        assert!(better(&mk(1.1, 2.0), &mk(9.0, 50.0), 5.0));
        assert!(better(&mk(2.0, 2.0), &mk(1.5, 1.0), 5.0));
        assert!(better(&mk(1.0, 10.0), &mk(2.0, 30.0), 5.0));
    }
}
