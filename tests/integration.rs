//! Cross-crate integration tests: every benchmark application driven through
//! the HPAC-Offload runtime on both modeled platforms, checking the paper's
//! qualitative results end to end.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::common::{Benchmark, LaunchParams};
use hpac_offload::apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_offload::core::params::PerfoKind;
use hpac_offload::core::region::RegionError;
use hpac_offload::core::{ApproxRegion, HierarchyLevel};

fn small_suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Lulesh {
            edge: 8,
            steps: 8,
            dt: 1e-4,
            ..Lulesh::default()
        }),
        Box::new(Leukocyte {
            n_cells: 4,
            grid: 16,
            iterations: 16,
            ..Leukocyte::default()
        }),
        Box::new(BinomialOptions {
            n_options: 256,
            tree_steps: 64,
            ..BinomialOptions::default()
        }),
        Box::new(MiniFe {
            nx: 8,
            max_iters: 30,
            ..MiniFe::default()
        }),
        Box::new(Blackscholes {
            n_options: 2048,
            ..Blackscholes::default()
        }),
        Box::new(LavaMd {
            boxes_per_dim: 3,
            par_per_box: 8,
            ..LavaMd::default()
        }),
        Box::new(KMeans {
            n_points: 1024,
            max_iters: 30,
            ..KMeans::default()
        }),
    ]
}

fn region_for(bench: &dyn Benchmark, technique: &str) -> ApproxRegion {
    let level = if bench.block_level_only() {
        HierarchyLevel::Block
    } else {
        HierarchyLevel::Thread
    };
    match technique {
        "TAF" => ApproxRegion::memo_out(2, 8, 0.0).level(level),
        "iACT" => ApproxRegion::memo_in(4, 0.0).level(level),
        _ => unreachable!(),
    }
}

/// Zero-threshold memoization must be bit-identical to the accurate run for
/// every application: TAF only predicts after an exactly-constant window
/// and repeats that exact value; iACT only returns exact input matches.
#[test]
fn zero_threshold_is_exact_everywhere() {
    let spec = DeviceSpec::v100();
    let lp = LaunchParams::new(8, 128);
    for bench in small_suite() {
        let accurate = bench.run(&spec, None, &lp).unwrap();
        for technique in ["TAF", "iACT"] {
            let region = region_for(bench.as_ref(), technique);
            match bench.run(&spec, Some(&region), &lp) {
                Ok(approx) => {
                    let err = approx.qoi.error_vs(&accurate.qoi);
                    assert!(
                        err < 1e-9,
                        "{} with zero-threshold {technique} drifted: {err}",
                        bench.name()
                    );
                }
                Err(RegionError::Invalid(_)) if bench.name() == "MiniFE" => {
                    // iACT is not applicable to MiniFE (varying CSR rows).
                    assert_eq!(technique, "iACT");
                }
                Err(e) => panic!("{} {technique} failed: {e}", bench.name()),
            }
        }
    }
}

/// Every application runs on both platforms and is deterministic.
#[test]
fn portable_and_deterministic() {
    let lp = LaunchParams::new(8, 128);
    for spec in DeviceSpec::evaluation_platforms() {
        for bench in small_suite() {
            let a = bench.run(&spec, None, &lp).unwrap();
            let b = bench.run(&spec, None, &lp).unwrap();
            assert_eq!(a.qoi, b.qoi, "{} on {}", bench.name(), spec.name);
            assert!(a.end_to_end_seconds() > 0.0);
        }
    }
}

/// TAF amortizes its decision cost while iACT pays a search every
/// invocation: with a generous threshold, TAF's modeled time must not be
/// worse than iACT's on the compute-heavy benchmarks (paper insight 4).
#[test]
fn taf_not_slower_than_iact_on_heavy_kernels() {
    let spec = DeviceSpec::v100();
    let lp = LaunchParams::new(32, 128);
    for bench in small_suite() {
        if matches!(bench.name(), "MiniFE" | "K-Means") {
            continue; // iACT inapplicable / convergence-dominated
        }
        let level = if bench.block_level_only() {
            HierarchyLevel::Block
        } else {
            HierarchyLevel::Thread
        };
        let taf = bench
            .run(
                &spec,
                Some(&ApproxRegion::memo_out(2, 64, 5.0).level(level)),
                &lp,
            )
            .unwrap();
        let iact = bench
            .run(
                &spec,
                Some(
                    &ApproxRegion::memo_in(4, 0.5)
                        .tables_per_warp(16)
                        .level(level),
                ),
                &lp,
            )
            .unwrap();
        assert!(
            taf.kernel_seconds <= iact.kernel_seconds * 1.05,
            "{}: TAF {} vs iACT {}",
            bench.name(),
            taf.kernel_seconds,
            iact.kernel_seconds
        );
    }
}

/// MiniFE error blow-up: approximating SpMV corrupts CG (paper Fig 9c).
#[test]
fn minife_blows_up_under_taf() {
    let spec = DeviceSpec::v100();
    let bench = MiniFe {
        nx: 8,
        max_iters: 40,
        ..MiniFe::default()
    };
    let lp = LaunchParams::new(16, 128);
    let accurate = bench.run(&spec, None, &lp).unwrap();
    let region = ApproxRegion::memo_out(1, 32, 20.0);
    let approx = bench.run(&spec, Some(&region), &lp).unwrap();
    let err = approx.qoi.error_vs(&accurate.qoi);
    assert!(err > 1.0, "expected runaway residual, err = {err}");
}

/// Shared-memory budget enforcement ends oversized configurations at launch
/// on every benchmark that accepts iACT.
#[test]
fn oversized_tables_rejected_everywhere() {
    let spec = DeviceSpec::v100();
    let lp = LaunchParams::new(8, 1024);
    let region = ApproxRegion::memo_in(512, 0.5); // 512-entry private tables
    let mut rejections = 0;
    for bench in small_suite() {
        if let Err(RegionError::Launch(gpu_sim::LaunchError::SharedMemExceeded { .. })) =
            bench.run(&spec, Some(&region), &lp)
        {
            rejections += 1;
        }
    }
    assert!(rejections >= 3, "only {rejections} benchmarks rejected");
}

/// Perforation on LULESH: fini must not hurt the QoI more than ini
/// (paper: early timesteps matter more than late ones).
#[test]
fn lulesh_fini_beats_ini() {
    let spec = DeviceSpec::v100();
    let bench = Lulesh {
        edge: 8,
        steps: 12,
        dt: 1e-4,
        ..Lulesh::default()
    };
    let lp = LaunchParams::new(1, 64);
    let accurate = bench.run(&spec, None, &lp).unwrap();
    let e_ini = bench
        .run(
            &spec,
            Some(&ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.4 })),
            &lp,
        )
        .unwrap()
        .qoi
        .error_vs(&accurate.qoi);
    let e_fini = bench
        .run(
            &spec,
            Some(&ApproxRegion::perfo(PerfoKind::Fini { fraction: 0.4 })),
            &lp,
        )
        .unwrap()
        .qoi
        .error_vs(&accurate.qoi);
    assert!(
        e_fini <= e_ini + 1e-12,
        "fini ({e_fini}) should not exceed ini ({e_ini})"
    );
}

/// K-Means approximation cannot slow convergence in iteration terms beyond
/// its max-iteration cap, and iterations drive time.
#[test]
fn kmeans_iterations_drive_time() {
    let spec = DeviceSpec::mi250x();
    let bench = KMeans::default();
    let lp = LaunchParams::new(8, 256);
    let accurate = bench.run(&spec, None, &lp).unwrap();
    let region = ApproxRegion::memo_out(1, 64, 0.9);
    let approx = bench.run(&spec, Some(&region), &lp).unwrap();
    let conv = accurate.iterations.unwrap() as f64 / approx.iterations.unwrap() as f64;
    let time = accurate.end_to_end_seconds() / approx.end_to_end_seconds();
    // Time and convergence speedups agree within 40% (the paper's R²=0.95
    // cloud at single-point granularity).
    assert!(
        (time / conv - 1.0).abs() < 0.4,
        "time {time:.2} vs convergence {conv:.2}"
    );
}

/// The full design-space harness produces a populated database on a tiny
/// benchmark, with every row carrying finite timings.
#[test]
fn harness_sweep_roundtrip() {
    use hpac_offload::harness::{run_sweep, Scale};
    let spec = DeviceSpec::v100();
    let bench = Blackscholes {
        n_options: 2048,
        ..Blackscholes::default()
    };
    let outcome = run_sweep(&bench, &spec, Scale::Quick);
    assert!(outcome.rows.len() > 100);
    for row in &outcome.rows {
        assert!(row.speedup > 0.0, "non-positive speedup in {}", row.config);
        assert!(row.kernel_seconds > 0.0);
        assert!(row.approx_fraction >= 0.0 && row.approx_fraction <= 1.0);
    }
}
