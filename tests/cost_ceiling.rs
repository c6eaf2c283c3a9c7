//! The cost ceiling, pinned: which bounded runs finish and what they
//! report, for all seven applications, and that a run's ceiling depends on
//! that run alone.
//!
//! Each configuration is first run without a ceiling, then at fixed
//! fractions of its own kernel seconds. A ceiling below 1× must abort a run
//! whose lower bound crosses it, and a ceiling at or above 1× lets it
//! finish, so the fractions on both sides of 1× pin where the check fires.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::binomial::BinomialOptions;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::apps::common::{Benchmark, LaunchParams, QoI};
use hpac_offload::apps::kmeans::KMeans;
use hpac_offload::apps::lavamd::LavaMd;
use hpac_offload::apps::leukocyte::Leukocyte;
use hpac_offload::apps::lulesh::Lulesh;
use hpac_offload::apps::minife::MiniFe;
use hpac_offload::core::exec::ExecOptions;
use hpac_offload::core::hash::fnv1a;
use hpac_offload::core::region::ApproxRegion;
use hpac_offload::harness::runner::{run_config_bounded, select_baseline, ConfigOutcome};
use hpac_offload::harness::{space, Scale, SweepConfig};
use std::collections::BTreeMap;

/// Ceilings as multiples of a configuration's own unbounded kernel seconds.
const CEILINGS: [f64; 7] = [0.25, 0.5, 0.9, 0.99, 1.0, 1.01, 2.0];

/// Configurations taken from each technique's quick plan.
const PER_TECHNIQUE: usize = 3;

fn apps() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Blackscholes {
            n_options: 4096,
            distinct: 16,
            run_len: 16,
            seed: 7,
        }),
        Box::new(BinomialOptions {
            n_options: 256,
            tree_steps: 64,
            ..BinomialOptions::default()
        }),
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
        Box::new(MiniFe {
            nx: 6,
            max_iters: 20,
            ..MiniFe::default()
        }),
        Box::new(Leukocyte {
            n_cells: 4,
            grid: 16,
            iterations: 12,
            ..Leukocyte::default()
        }),
        Box::new(Lulesh {
            edge: 6,
            steps: 4,
            dt: 1.0e-4,
            ..Lulesh::default()
        }),
    ]
}

/// The first, middle and last configurations of each technique's quick plan.
fn configs(bench: &dyn Benchmark, spec: &DeviceSpec) -> Vec<SweepConfig> {
    let mut by_technique: BTreeMap<&str, Vec<SweepConfig>> = BTreeMap::new();
    for cfg in space::plan(bench, spec, Scale::Quick) {
        by_technique
            .entry(cfg.region.technique_name())
            .or_default()
            .push(cfg);
    }
    by_technique
        .into_values()
        .flat_map(|plan| {
            let last = plan.len() - 1;
            let picks: Vec<usize> = (0..PER_TECHNIQUE)
                .map(|k| k * last / (PER_TECHNIQUE - 1))
                .collect();
            plan.into_iter()
                .enumerate()
                .filter(move |(i, _)| picks.contains(i))
                .map(|(_, cfg)| cfg)
        })
        .collect()
}

fn bounded(ceiling: f64) -> ExecOptions {
    ExecOptions {
        abort_above_seconds: Some(ceiling),
        ..ExecOptions::default()
    }
}

/// One outcome as words: its kind, then a finished run's speedup, error
/// and kernel seconds as bits.
fn words(outcome: &ConfigOutcome) -> Vec<u64> {
    match outcome {
        ConfigOutcome::Done(row) => vec![
            0,
            row.speedup.to_bits(),
            row.error_pct.to_bits(),
            row.kernel_seconds.to_bits(),
        ],
        ConfigOutcome::Rejected(..) => vec![1],
        ConfigOutcome::Aborted(_) => vec![2],
    }
}

/// Every app's configurations on both devices at every ceiling, folded to
/// one digest. K-Means and MiniFE launch a kernel per iteration, so their
/// ceiling is crossed with seconds already spent: each must both finish and
/// abort under some finite ceiling.
#[test]
fn bounded_runs_fold_to_the_pinned_digest() {
    const PINNED: u64 = 0x7f11_c2cf_066a_3144;
    let mut all = Vec::new();
    for bench in apps() {
        let (mut done, mut aborted) = (0usize, 0usize);
        for spec in [DeviceSpec::v100(), DeviceSpec::mi250x()] {
            let baseline = select_baseline(bench.as_ref(), &spec);
            for cfg in configs(bench.as_ref(), &spec) {
                let free = run_config_bounded(
                    bench.as_ref(),
                    &spec,
                    &baseline,
                    &cfg,
                    &ExecOptions::default(),
                );
                all.extend(words(&free));
                let Some(row) = free.row() else { continue };
                for k in CEILINGS {
                    let opts = bounded(k * row.kernel_seconds);
                    let outcome = run_config_bounded(bench.as_ref(), &spec, &baseline, &cfg, &opts);
                    match &outcome {
                        ConfigOutcome::Done(r) => {
                            assert_eq!(
                                r.kernel_seconds.to_bits(),
                                row.kernel_seconds.to_bits(),
                                "{} {} at {k}x: a finished run is the unbounded one",
                                bench.name(),
                                cfg.label
                            );
                            done += 1;
                        }
                        ConfigOutcome::Aborted(label) => {
                            assert!(k < 1.0, "{} {label} aborted at {k}x", bench.name());
                            aborted += 1;
                        }
                        ConfigOutcome::Rejected(label, reason) => {
                            panic!("{} {label} at {k}x: rejected: {reason}", bench.name())
                        }
                    }
                    all.extend(words(&outcome));
                }
            }
        }
        if matches!(bench.name(), "K-Means" | "MiniFE") {
            assert!(
                done > 0 && aborted > 0,
                "{}: {done} finished and {aborted} aborted under a finite ceiling",
                bench.name()
            );
        }
    }
    let digest = fnv1a(all.iter().flat_map(|w| w.to_le_bytes()));
    assert_eq!(
        digest, PINNED,
        "bounded runs moved: {digest:#018x} against the pinned {PINNED:#018x}"
    );
}

fn qoi_bits(qoi: &QoI) -> Vec<u64> {
    match qoi {
        QoI::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
        QoI::Labels(l) => l.iter().map(|&x| u64::from(x)).collect(),
    }
}

/// Two identical bounded runs, back to back on one fresh thread, both
/// finish with the same result: a run's ceiling is charged with that run's
/// kernels only, never with what the thread ran before it.
#[test]
fn back_to_back_runs_see_only_their_own_seconds() {
    let spec = DeviceSpec::v100();
    let lp = LaunchParams::new(4, 256);
    let region = ApproxRegion::memo_out(2, 8, 0.5);
    let apps: [Box<dyn Benchmark>; 3] = [
        Box::new(LavaMd {
            boxes_per_dim: 6,
            par_per_box: 32,
            ..LavaMd::default()
        }),
        Box::new(KMeans {
            n_points: 512,
            max_iters: 20,
            ..KMeans::default()
        }),
        Box::new(MiniFe {
            nx: 6,
            max_iters: 20,
            ..MiniFe::default()
        }),
    ];
    for bench in &apps {
        let bench = bench.as_ref();
        let name = bench.name();
        let unbounded = std::thread::scope(|s| {
            s.spawn(|| bench.run(&spec, Some(&region), &lp).unwrap())
                .join()
                .unwrap()
        });
        let opts = bounded(1.5 * unbounded.kernel_seconds);
        let [first, second] = std::thread::scope(|s| {
            s.spawn(|| [(); 2].map(|()| bench.run_opts(&spec, Some(&region), &lp, &opts)))
                .join()
                .unwrap()
        });
        let first = first.unwrap_or_else(|e| panic!("{name}, first run: {e}"));
        let second = second.unwrap_or_else(|e| panic!("{name}, second run: {e}"));
        for run in [&first, &second] {
            assert_eq!(qoi_bits(&run.qoi), qoi_bits(&unbounded.qoi), "{name}");
            assert_eq!(
                run.kernel_seconds.to_bits(),
                unbounded.kernel_seconds.to_bits(),
                "{name}"
            );
        }
    }
}
