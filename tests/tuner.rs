//! Cross-crate tests of the autotuning subsystem: Pareto-frontier
//! invariants (property-based), end-to-end bound compliance on real
//! applications, warm starts that verify the stored winner against warm
//! starts that run every seed, and configurations the evaluator answered
//! from a sibling's decision margins against running them alone.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::binomial::BinomialOptions;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::apps::common::Benchmark;
use hpac_offload::apps::kmeans::KMeans;
use hpac_offload::apps::lavamd::LavaMd;
use hpac_offload::apps::leukocyte::Leukocyte;
use hpac_offload::apps::lulesh::Lulesh;
use hpac_offload::apps::minife::MiniFe;
use hpac_offload::core::exec::ExecOptions;
use hpac_offload::core::hash::fnv1a;
use hpac_offload::harness::runner::{run_config_bounded, select_baseline, Answer, ConfigOutcome};
use hpac_offload::harness::space::Grid;
use hpac_offload::harness::Scale;
use hpac_offload::tuner::search::{search_grid, Evaluator};
use hpac_offload::tuner::{ParetoFrontier, ParetoPoint, QualityBound, TunedPlan, Tuner};
use proptest::prelude::*;
use std::collections::HashMap;

fn pt(speedup: f64, error_pct: f64) -> ParetoPoint {
    ParetoPoint {
        speedup,
        error_pct,
        technique: "TAF".into(),
        config: format!("s={speedup} e={error_pct}"),
        items_per_thread: 8,
        region: None,
        lp: None,
    }
}

fn coords(f: &ParetoFrontier) -> Vec<(u64, u64)> {
    // Bit patterns make the set comparable without f64 equality pitfalls.
    f.points()
        .iter()
        .map(|p| (p.speedup.to_bits(), p.error_pct.to_bits()))
        .collect()
}

proptest! {
    /// No frontier point ever dominates another.
    #[test]
    fn frontier_is_mutually_non_dominated(
        points in prop::collection::vec((0.5f64..4.0, 0.0f64..20.0), 1..40),
    ) {
        let mut f = ParetoFrontier::new();
        for (s, e) in &points {
            f.insert(pt(*s, *e));
        }
        let ps = f.points();
        for i in 0..ps.len() {
            for j in 0..ps.len() {
                if i != j {
                    prop_assert!(
                        !ps[i].dominates(&ps[j]),
                        "{} dominates {}", ps[i].config, ps[j].config
                    );
                }
            }
        }
    }

    /// Inserting a point dominated by the frontier is a no-op.
    #[test]
    fn dominated_insert_is_noop(
        points in prop::collection::vec((0.5f64..4.0, 0.0f64..20.0), 1..30),
        pick in 0usize..30,
        ds in 0.0f64..1.0,
        de in 0.0f64..1.0,
    ) {
        let mut f = ParetoFrontier::new();
        for (s, e) in &points {
            f.insert(pt(*s, *e));
        }
        let anchor = &f.points()[pick % f.len()];
        // Slower and less accurate than an existing point.
        let dominated = pt(anchor.speedup - ds.max(1e-6), anchor.error_pct + de.max(1e-6));
        let before = coords(&f);
        prop_assert!(!f.insert(dominated));
        prop_assert_eq!(coords(&f), before);
    }

    /// The frontier is invariant to insertion order.
    #[test]
    fn frontier_is_insertion_order_invariant(
        points in prop::collection::vec((0.5f64..4.0, 0.0f64..20.0), 1..30),
    ) {
        let mut forward = ParetoFrontier::new();
        for (s, e) in &points {
            forward.insert(pt(*s, *e));
        }
        let mut reverse = ParetoFrontier::new();
        for (s, e) in points.iter().rev() {
            reverse.insert(pt(*s, *e));
        }
        // Interleaved: odd indices first, then even.
        let mut interleaved = ParetoFrontier::new();
        for (i, (s, e)) in points.iter().enumerate() {
            if i % 2 == 1 {
                interleaved.insert(pt(*s, *e));
            }
        }
        for (i, (s, e)) in points.iter().enumerate() {
            if i % 2 == 0 {
                interleaved.insert(pt(*s, *e));
            }
        }
        prop_assert_eq!(coords(&forward), coords(&reverse));
        prop_assert_eq!(coords(&forward), coords(&interleaved));
    }

    /// best_under answers: feasible, and no frontier point both feasible
    /// and faster.
    #[test]
    fn best_under_is_the_fastest_feasible(
        points in prop::collection::vec((0.5f64..4.0, 0.0f64..20.0), 1..40),
        bound in 0.5f64..15.0,
    ) {
        let mut f = ParetoFrontier::new();
        for (s, e) in &points {
            f.insert(pt(*s, *e));
        }
        match f.best_under(bound) {
            Some(best) => {
                prop_assert!(best.error_pct <= bound);
                for p in f.points() {
                    if p.error_pct <= bound {
                        prop_assert!(p.speedup <= best.speedup);
                    }
                }
            }
            None => {
                prop_assert!(f.points().iter().all(|p| p.error_pct > bound));
            }
        }
    }
}

/// The tuner's plan respects the 5% quality bound on Blackscholes, and the
/// re-executed plan reproduces the tuned numbers.
#[test]
fn blackscholes_plan_respects_bound() {
    let bench = Blackscholes::default();
    let spec = DeviceSpec::v100();
    let tuner = Tuner::new().with_scale(Scale::Quick);
    let plan = tuner.search_plan(&bench, &spec, QualityBound::percent(5.0), &[]);
    assert!(plan.respects_bound(), "error {}", plan.measured_error_pct);
    assert!(
        plan.budget_fraction_used() < 0.10,
        "evaluated {} of {}",
        plan.evaluations,
        plan.full_space
    );
    assert!(
        plan.predicted_speedup > 1.0,
        "blackscholes has feasible speedup"
    );
    let row = plan.execute(&bench, &spec).unwrap();
    assert!(row.error_pct <= 5.0, "re-executed error {}", row.error_pct);
}

/// Same contract on K-Means (the MCR-metric, convergence-driven app) on the
/// AMD device spec.
#[test]
fn kmeans_plan_respects_bound() {
    let bench = KMeans {
        n_points: 1024,
        max_iters: 30,
        ..KMeans::default()
    };
    let spec = DeviceSpec::mi250x();
    let tuner = Tuner::new().with_scale(Scale::Quick);
    let plan = tuner.search_plan(&bench, &spec, QualityBound::percent(5.0), &[]);
    assert!(plan.respects_bound(), "error {}", plan.measured_error_pct);
    assert!(
        plan.budget_fraction_used() < 0.10,
        "evaluated {} of {}",
        plan.evaluations,
        plan.full_space
    );
    let row = plan.execute(&bench, &spec).unwrap();
    assert!(
        row.error_pct <= 5.0 + 1e-9,
        "re-executed error {}",
        row.error_pct
    );
}

/// The seven applications at sizes a debug-profile search gets through in
/// seconds. Under the default budget five of them tune above 1x on at
/// least one device; MiniFE and K-Means do not and take the other path.
fn quick_apps() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Lulesh {
            edge: 8,
            steps: 6,
            dt: 1.0e-4,
            ..Lulesh::default()
        }),
        Box::new(Leukocyte {
            n_cells: 4,
            grid: 16,
            iterations: 12,
            ..Leukocyte::default()
        }),
        Box::new(BinomialOptions {
            n_options: 1024,
            tree_steps: 96,
            ..BinomialOptions::default()
        }),
        Box::new(MiniFe {
            nx: 6,
            max_iters: 20,
            ..MiniFe::default()
        }),
        Box::<Blackscholes>::default(),
        Box::new(LavaMd {
            boxes_per_dim: 3,
            par_per_box: 8,
            ..LavaMd::default()
        }),
        Box::new(KMeans {
            n_points: 512,
            max_iters: 20,
            ..KMeans::default()
        }),
    ]
}

/// The same configurations with nothing claimed for them: no point enters
/// the prior frontier, so the search runs every seed, as it did before warm
/// starts verified.
fn claimless(seeds: &[ParetoPoint]) -> Vec<ParetoPoint> {
    seeds
        .iter()
        .map(|p| ParetoPoint {
            speedup: f64::NAN,
            error_pct: f64::NAN,
            ..p.clone()
        })
        .collect()
}

/// Everything a search decides except what it spent, floats by bit pattern,
/// frontier points whole and in order.
fn decided(p: &TunedPlan) -> impl PartialEq + std::fmt::Debug {
    (
        (p.benchmark.clone(), p.device.clone(), p.bound_pct.to_bits()),
        (p.region, p.lp, p.technique.clone(), p.config.clone()),
        (
            p.predicted_speedup.to_bits(),
            p.measured_error_pct.to_bits(),
            p.baseline_lp,
            p.full_space,
        ),
        p.frontier
            .points()
            .iter()
            .map(|q| {
                (
                    (q.speedup.to_bits(), q.error_pct.to_bits()),
                    (q.technique.clone(), q.config.clone(), q.items_per_thread),
                    (q.region, q.lp),
                )
            })
            .collect::<Vec<_>>(),
    )
}

/// On every quick app and both devices, at a bound just above the one the
/// seeds were searched at: a warm start that verifies the stored winner
/// returns, one evaluation later, the plan that running every seed returns.
/// Where no stored point beats the accurate run there is nothing to verify
/// and the two searches are the same search.
#[test]
fn verified_warm_start_returns_the_all_seeds_plan() {
    let tuner = Tuner::new().with_scale(Scale::Quick);
    let mut verified = 0;
    for device in DeviceSpec::evaluation_platforms() {
        for bench in quick_apps() {
            let bench = bench.as_ref();
            let what = format!("{} on {}", bench.name(), device.name);
            let cold = tuner.search_plan(bench, &device, QualityBound::percent(5.0), &[]);
            let seeds = cold.frontier.points();
            let bound = QualityBound::percent(5.01);
            let warm = tuner.search_plan(bench, &device, bound, seeds);
            let all_seeds = tuner.search_plan(bench, &device, bound, &claimless(seeds));
            assert!(!all_seeds.verified_seed);
            assert_eq!(decided(&warm), decided(&all_seeds), "{what}");
            assert!(warm.respects_bound());
            if cold.predicted_speedup > 1.0 {
                assert!(warm.verified_seed, "{what}");
                assert_eq!(warm.evaluations, 1, "{what}");
                assert!(all_seeds.evaluations <= seeds.len());
                assert_eq!(all_seeds.config, cold.config, "{what}");
                verified += 1;
            } else {
                assert!(!warm.verified_seed, "{what}");
                assert_eq!(warm.evaluations, all_seeds.evaluations, "{what}");
            }
        }
    }
    assert!(
        verified >= 6,
        "only {verified} of 14 had a winner to verify"
    );
}

/// With fewer evaluations to spend than seeds to run, running the stored
/// winner first could take the place of a seed the budget would have
/// reached: the search does not verify, and spends its budget on the seeds
/// in the order given.
#[test]
fn more_seeds_than_budget_are_run_in_order() {
    let bench = Blackscholes::default();
    let device = DeviceSpec::v100();
    let bound = QualityBound::percent(5.0);
    let cold = Tuner::new()
        .with_scale(Scale::Quick)
        .search_plan(&bench, &device, bound, &[]);
    assert!(cold.predicted_speedup > 1.0);
    // The stored winner last, behind a point the bound rules out.
    let mut seeds = cold.frontier.points().to_vec();
    seeds.reverse();
    assert!(seeds.len() > 1 && seeds[0].error_pct > bound.max_error_pct);
    assert_eq!(seeds.last().unwrap().config, cold.config);

    let mut one_eval = Tuner::new().with_scale(Scale::Quick);
    one_eval.budget_fraction = 1e-9;
    assert_eq!(one_eval.budget(&bench, &device), 1);
    let warm = one_eval.search_plan(&bench, &device, bound, &seeds);
    let all_seeds = one_eval.search_plan(&bench, &device, bound, &claimless(&seeds));
    assert!(!warm.verified_seed);
    assert_eq!(warm.evaluations, 1);
    assert_eq!(warm.evaluations, all_seeds.evaluations);
    assert_eq!(decided(&warm), decided(&all_seeds));
    // The one evaluation went to the first seed: the winner was never run.
    assert_eq!(warm.config, "accurate");
    assert_eq!(warm.frontier.points()[0].config, seeds[0].config);
}

/// A stored neighborhood with no feasible point above 1x has no winner to
/// verify: the seeds are all run, then the grids, exactly as without claims.
#[test]
fn seeds_without_a_winner_fall_through_to_the_grids() {
    let bench = Blackscholes::default();
    let device = DeviceSpec::v100();
    let tuner = Tuner::new().with_scale(Scale::Quick);
    let bound = QualityBound::percent(5.0);
    let cold = tuner.search_plan(&bench, &device, bound, &[]);
    assert!(cold.predicted_speedup > 1.0);
    let seeds: Vec<ParetoPoint> = cold
        .frontier
        .points()
        .iter()
        .filter(|p| p.error_pct > bound.max_error_pct)
        .cloned()
        .collect();
    assert!(!seeds.is_empty());
    let warm = tuner.search_plan(&bench, &device, bound, &seeds);
    let all_seeds = tuner.search_plan(&bench, &device, bound, &claimless(&seeds));
    assert!(!warm.verified_seed);
    assert!(warm.evaluations > seeds.len(), "the grids were walked");
    assert_eq!(warm.evaluations, all_seeds.evaluations);
    assert_eq!(decided(&warm), decided(&all_seeds));
    assert_eq!(warm.config, cold.config, "and they find the cold winner");
}

/// On every quick app and both devices at 5%, a search's evaluator answers
/// some configurations from a family sibling's decision margins, with and
/// without a cost ceiling in force; each of them, run alone under the
/// ceiling it was covered at, reproduces the outcome it was given bit for
/// bit, and its sibling ran. Every duplicate names a configuration answered
/// before it and takes that one's outcome: none for a rejected or aborted
/// one.
#[test]
fn margin_covered_configurations_reproduce_when_run_alone() {
    let tuner = Tuner::new().with_scale(Scale::Quick);
    // Covered configurations without and with a ceiling in force.
    let mut covered = [0; 2];
    let mut duplicates = 0;
    // Every answered configuration, in answer order: its label, how it was
    // answered, the outcome kind, and a finished run's speedup and error.
    let mut log: Vec<u8> = Vec::new();
    for device in DeviceSpec::evaluation_platforms() {
        for bench in quick_apps() {
            let bench = bench.as_ref();
            let baseline = select_baseline(bench, &device);
            let mut ev = Evaluator::new(bench, &device, &baseline, tuner.budget(bench, &device));
            for (i, grid) in Grid::grids_for(bench, &device, Scale::Quick)
                .iter()
                .enumerate()
            {
                search_grid(grid, &mut ev, 5.0, i as u64);
            }
            let answered = ev.ledger().answered();
            let order: HashMap<&str, usize> = answered
                .iter()
                .enumerate()
                .map(|(i, a)| (a.config.label.as_str(), i))
                .collect();
            assert_eq!(order.len(), answered.len(), "each label answered once");
            let kind = |outcome: &ConfigOutcome| match outcome {
                ConfigOutcome::Done(_) => 0u8,
                ConfigOutcome::Rejected(..) => 1,
                ConfigOutcome::Aborted(_) => 2,
            };
            let bits = |outcome: &ConfigOutcome| {
                outcome
                    .row()
                    .map(|row| (row.speedup.to_bits(), row.error_pct.to_bits()))
            };
            for a in answered {
                // How it was answered, then the outcome kind and its bits.
                let how = match &a.answer {
                    Answer::Run => vec![0],
                    Answer::DuplicateOf(rep) => answer_bytes(1, rep, None),
                    Answer::CoveredBy { sibling, ceiling } => answer_bytes(2, sibling, *ceiling),
                };
                let (speedup, error) = bits(&a.outcome).unwrap_or((0, 0));
                let label = a.config.label.bytes().chain([0]);
                log.extend(label.chain(how).chain([kind(&a.outcome)]));
                log.extend(speedup.to_le_bytes().into_iter().chain(error.to_le_bytes()));
            }
            for (i, a) in answered.iter().enumerate() {
                let label = &a.config.label;
                let what = format!("{label} on {} ({})", bench.name(), device.name);
                if let Answer::DuplicateOf(rep) = &a.answer {
                    assert!(order[rep.as_str()] < i, "{what}: {rep} answered later");
                    let rep = &answered[order[rep.as_str()]].outcome;
                    assert_eq!(kind(&a.outcome), kind(rep), "{what}");
                    assert_eq!(bits(&a.outcome), bits(rep), "{what}");
                    duplicates += 1;
                }
                let Answer::CoveredBy { sibling, ceiling } = &a.answer else {
                    continue;
                };
                let sibling = &answered[order[sibling.as_str()]];
                assert_eq!(sibling.answer, Answer::Run, "{what}");
                assert!(
                    sibling.outcome.row().is_some(),
                    "{what}: sibling unfinished"
                );
                let given = a.outcome.row().expect("covered by a finished run");
                let opts = ExecOptions {
                    abort_above_seconds: *ceiling,
                    ..ExecOptions::default()
                };
                let ConfigOutcome::Done(row) =
                    run_config_bounded(bench, &device, &baseline, &a.config, &opts)
                else {
                    panic!("{what}: covered, yet aborted or refused alone");
                };
                assert_eq!(row.speedup.to_bits(), given.speedup.to_bits(), "{what}");
                assert_eq!(row.error_pct.to_bits(), given.error_pct.to_bits(), "{what}");
                covered[usize::from(ceiling.is_some())] += 1;
            }
        }
    }
    assert!(
        covered.iter().all(|&n| n > 0),
        "covered (no ceiling, ceiling): {covered:?}"
    );
    assert!(duplicates > 0, "no duplicate answered");
    let digest = fnv1a(log);
    assert_eq!(
        digest, 0x8a24_fcfc_35fe_2978,
        "answer log digest {digest:#018x}"
    );
}

/// An answer that names another configuration: its tag, the label, and
/// the cost ceiling's bits (a flag byte first; none for a duplicate).
fn answer_bytes(tag: u8, label: &str, ceiling: Option<f64>) -> Vec<u8> {
    let mut bytes = vec![tag];
    bytes.extend(label.bytes().chain([0]));
    bytes.push(u8::from(ceiling.is_some()));
    bytes.extend(ceiling.map_or(0, f64::to_bits).to_le_bytes());
    bytes
}
