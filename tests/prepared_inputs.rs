//! Prepared inputs: a sweep scope builds each app's dataset once and shares
//! it — checked for sharing and release, for key coverage per app, and for
//! bit-identity of scoped sweeps against unscoped evaluation.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::common::{
    current_eval_memo, install_eval_memo, Benchmark, LaunchParams, QoI,
};
use hpac_offload::apps::{
    binomial::BinomialOptions,
    blackscholes::{price_call, Blackscholes, OPTION_DIMS},
    kmeans::KMeans,
    lavamd::LavaMd,
    leukocyte::Leukocyte,
    lulesh::{Lulesh, Topology},
    minife::MiniFe,
};
use hpac_offload::core::exec::{ExecOptions, Executor};
use hpac_offload::harness::runner::{run_config_bounded, run_sweep, select_baseline_opts};
use hpac_offload::harness::space::{self, Scale};
use hpac_offload::harness::Row;
use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard};

/// The memo scope is process-global, and these tests assert on what it
/// holds: they take turns.
fn scope_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn bs() -> Blackscholes {
    Blackscholes {
        n_options: 4096,
        distinct: 16,
        run_len: 16,
        seed: 7,
    }
}

fn binomial() -> BinomialOptions {
    BinomialOptions {
        n_options: 256,
        tree_steps: 64,
        distinct: 8,
        run_len: 16,
        block_size: 128,
        seed: 3,
    }
}

fn lavamd() -> LavaMd {
    LavaMd {
        boxes_per_dim: 3,
        par_per_box: 8,
        alpha: 0.5,
        seed: 5,
    }
}

fn kmeans() -> KMeans {
    KMeans {
        n_points: 1024,
        dims: 4,
        k: 4,
        max_iters: 30,
        spread: 0.25,
        convergence_frac: 5e-3,
        seed: 11,
    }
}

fn minife() -> MiniFe {
    MiniFe {
        nx: 6,
        max_iters: 20,
        tol: 1e-9,
        seed: 2,
    }
}

fn leukocyte() -> Leukocyte {
    Leukocyte {
        n_cells: 4,
        grid: 16,
        iterations: 12,
        omega: 0.6,
        kappa: 0.15,
        seed: 9,
    }
}

fn lulesh() -> Lulesh {
    Lulesh {
        edge: 6,
        steps: 6,
        dt: 1.0e-4,
        ..Lulesh::default()
    }
}

fn suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(bs()),
        Box::new(binomial()),
        Box::new(lavamd()),
        Box::new(kmeans()),
        Box::new(minife()),
        Box::new(leukocyte()),
        Box::new(lulesh()),
    ]
}

/// Outside a scope every call prepares a private copy and nothing is
/// stored. Inside one, `base`, its runs and each of `same` (instances
/// differing in a field the data does not depend on) share one entry; each
/// of `differing` (one data-affecting field changed) gets its own; every
/// entry holds what its instance generates for itself (`data` views an
/// entry, `fresh` generates); and the last guard's drop releases it all.
/// `params_key`, the identity a scoped baseline is kept under, differs for
/// every one of them.
fn check_scope_sharing<A: Benchmark, T, D: PartialEq + Debug>(
    base: &A,
    same: &[A],
    differing: &[A],
    inputs: impl Fn(&A) -> Arc<T>,
    data: impl Fn(&T) -> D,
    fresh: impl Fn(&A) -> D,
) {
    let _turn = scope_turn();
    // Each of `same` and `differing` changes one field, and together they
    // change every field once: the full identity tells them all apart.
    let identities: Vec<Vec<u64>> = std::iter::once(base)
        .chain(same)
        .chain(differing)
        .map(|a| a.params_key().expect("every app keys its parameters"))
        .collect();
    for (i, key) in identities.iter().enumerate() {
        assert!(
            !identities[..i].contains(key),
            "instance {i}: its field is missing from params_key"
        );
    }
    assert_eq!(base.params_key().as_ref(), Some(&identities[0]));

    let lone = inputs(base);
    assert!(!Arc::ptr_eq(&lone, &inputs(base)), "no scope, no sharing");
    assert!(current_eval_memo().is_none(), "no scope, nothing stored");

    let scope = install_eval_memo();
    let store = current_eval_memo().expect("scope active");
    let shared = inputs(base);
    assert_eq!(data(&shared), fresh(base));
    let retained = store.resident_bytes();
    assert!(retained > 0, "entries count toward the byte cap");
    let (spec, lp) = (DeviceSpec::v100(), LaunchParams::new(8, 128));
    let first = base.run(&spec, None, &lp).unwrap();
    let second = base.run(&spec, None, &lp).unwrap();
    assert_eq!(first.qoi, second.qoi);
    assert_eq!(store.resident_bytes(), retained, "runs build nothing more");
    for a in std::iter::once(base).chain(same) {
        assert!(Arc::ptr_eq(&shared, &inputs(a)), "one entry per key");
    }
    for a in differing {
        let own = inputs(a);
        assert!(
            !Arc::ptr_eq(&shared, &own),
            "a data-affecting field is missing from the key"
        );
        assert_eq!(data(&own), fresh(a));
    }

    let entry = Arc::downgrade(&shared);
    drop((shared, store, scope));
    assert!(
        entry.upgrade().is_none(),
        "the last guard releases the entry"
    );
}

#[test]
fn blackscholes_shares_one_portfolio_per_parameter_set() {
    let cfg = bs();
    check_scope_sharing(
        &cfg,
        &[],
        &[
            Blackscholes {
                n_options: 2048,
                ..cfg
            },
            Blackscholes { distinct: 8, ..cfg },
            Blackscholes { run_len: 8, ..cfg },
            Blackscholes { seed: 8, ..cfg },
        ],
        Blackscholes::inputs,
        |p| {
            (0..p.len())
                .flat_map(|i| p.option(i).to_vec())
                .collect::<Vec<f64>>()
        },
        Blackscholes::generate,
    );
}

/// The compact portfolio (base rows and a class index) prices every option
/// exactly as the fully generated rows do — alone, and with the scope's
/// price memo answering per class.
#[test]
fn blackscholes_compact_portfolio_prices_as_the_generated_rows() {
    let _turn = scope_turn();
    // A size the period does not divide, so the last tile is cut short.
    let cfg = Blackscholes {
        n_options: 4000,
        ..bs()
    };
    let expected: Vec<u64> = cfg
        .generate()
        .chunks_exact(OPTION_DIMS)
        .map(|o| price_call(o[0], o[1], o[2], o[3], o[4]).to_bits())
        .collect();
    assert_eq!(expected.len(), cfg.n_options);
    let (spec, lp) = (DeviceSpec::v100(), LaunchParams::new(8, 128));
    let priced = || match cfg.run(&spec, None, &lp).unwrap().qoi {
        QoI::Values(p) => p.into_iter().map(f64::to_bits).collect::<Vec<u64>>(),
        QoI::Labels(_) => panic!("Blackscholes prices are values"),
    };
    assert_eq!(priced(), expected, "lone run");
    let _scope = install_eval_memo();
    assert_eq!(priced(), expected, "scoped run, memo cold");
    assert_eq!(priced(), expected, "scoped run, memo warm");
}

#[test]
fn binomial_shares_one_portfolio_per_parameter_set() {
    let cfg = binomial();
    check_scope_sharing(
        &cfg,
        // The launch block size shapes neither the portfolio nor the walks.
        &[BinomialOptions {
            block_size: 64,
            ..cfg
        }],
        &[
            BinomialOptions {
                n_options: 128,
                ..cfg
            },
            BinomialOptions { distinct: 4, ..cfg },
            BinomialOptions { run_len: 8, ..cfg },
            BinomialOptions { seed: 4, ..cfg },
            // Same portfolio, but the memoized walks are deeper.
            BinomialOptions {
                tree_steps: 96,
                ..cfg
            },
        ],
        BinomialOptions::inputs,
        |p| p.options.clone(),
        BinomialOptions::generate,
    );
}

#[test]
fn lavamd_shares_one_particle_set_per_parameter_set() {
    let cfg = lavamd();
    check_scope_sharing(
        &cfg,
        &[],
        &[
            LavaMd {
                boxes_per_dim: 4,
                ..cfg
            },
            LavaMd {
                par_per_box: 4,
                ..cfg
            },
            LavaMd { seed: 6, ..cfg },
            // Same particles, but the memoized forces are screened harder.
            LavaMd { alpha: 0.7, ..cfg },
        ],
        LavaMd::inputs,
        |p| (p.pos.clone(), p.charge.clone()),
        LavaMd::generate,
    );
}

#[test]
fn kmeans_shares_one_dataset_per_parameter_set() {
    let cfg = kmeans();
    check_scope_sharing(
        &cfg,
        &[
            KMeans {
                max_iters: 10,
                ..cfg
            },
            KMeans {
                convergence_frac: 0.1,
                ..cfg
            },
        ],
        &[
            KMeans {
                n_points: 512,
                ..cfg
            },
            KMeans { dims: 3, ..cfg },
            KMeans { k: 5, ..cfg },
            KMeans { spread: 0.3, ..cfg },
            KMeans { seed: 12, ..cfg },
        ],
        KMeans::inputs,
        |o| (o.points.clone(), o.init_centroids.clone()),
        KMeans::generate,
    );
}

#[test]
fn minife_shares_one_system_per_parameter_set() {
    let cfg = minife();
    check_scope_sharing(
        &cfg,
        &[
            MiniFe {
                max_iters: 10,
                ..cfg
            },
            MiniFe { tol: 1e-3, ..cfg },
        ],
        &[MiniFe { nx: 5, ..cfg }, MiniFe { seed: 3, ..cfg }],
        MiniFe::inputs,
        |s| (s.a.clone(), s.b.clone()),
        |cfg| (cfg.assemble(), cfg.rhs()),
    );
}

#[test]
fn leukocyte_shares_one_frame_per_parameter_set() {
    let cfg = leukocyte();
    check_scope_sharing(
        &cfg,
        &[
            Leukocyte {
                iterations: 8,
                ..cfg
            },
            Leukocyte { omega: 0.5, ..cfg },
            Leukocyte { kappa: 0.2, ..cfg },
        ],
        &[
            Leukocyte { n_cells: 2, ..cfg },
            Leukocyte { grid: 8, ..cfg },
            Leukocyte { seed: 10, ..cfg },
        ],
        Leukocyte::inputs,
        |f| f.image.clone(),
        |cfg| cfg.generate().0,
    );
}

#[test]
fn lulesh_shares_one_topology_per_edge() {
    let cfg = lulesh();
    let view = |t: &Topology| (t.corners.clone(), t.mass.clone(), t.pos0.clone());
    check_scope_sharing(
        &cfg,
        &[
            Lulesh { steps: 2, ..cfg },
            Lulesh { e0: 2.0, ..cfg },
            Lulesh { hgcoef: 1.0, ..cfg },
            Lulesh { dt: 2.0e-4, ..cfg },
        ],
        &[Lulesh { edge: 5, ..cfg }],
        Lulesh::inputs,
        view,
        |cfg| view(&Topology::new(cfg.edge)),
    );
}

/// Every field of a row, floats by bit pattern.
fn row_bits(r: &Row) -> (String, String, usize, [u64; 6], Option<usize>) {
    (
        r.technique.clone(),
        r.config.clone(),
        r.items_per_thread,
        [
            r.speedup,
            r.error_pct,
            r.approx_fraction,
            r.divergent_fraction,
            r.kernel_seconds,
            r.end_to_end_seconds,
        ]
        .map(f64::to_bits),
        r.iterations,
    )
}

/// A sweep (one scope, shared prepared inputs, canonical dedup, configs on
/// the engine) reports, bit for bit and in order, what evaluating each
/// configuration of the same plan on its own outside any scope reports.
#[test]
fn scoped_sweep_rows_equal_unscoped_evaluation() {
    let _turn = scope_turn();
    let spec = DeviceSpec::v100();
    // A sweep's config tasks walk their blocks inline whatever `HPAC_THREADS`
    // says; the lone side is pinned to the same reference executor, so the
    // two sides differ in the scope alone (executor equivalence is
    // `tests/exec_equivalence.rs`'s subject).
    let opts = ExecOptions::with_executor(Executor::Sequential);
    for bench in suite() {
        let bench = bench.as_ref();
        let swept = run_sweep(bench, &spec, Scale::Quick);

        assert!(current_eval_memo().is_none());
        let baseline = select_baseline_opts(bench, &spec, &opts);
        let (mut rows, mut rejected) = (Vec::new(), Vec::new());
        for cfg in &space::plan(bench, &spec, Scale::Quick) {
            match run_config_bounded(bench, &spec, &baseline, cfg, &opts).into_result() {
                Ok(row) => rows.push(row),
                Err(rej) => rejected.push(rej),
            }
        }

        let name = bench.name();
        assert_eq!(swept.baseline.lp, baseline.lp, "{name}");
        assert_eq!(swept.rows.len(), rows.len(), "{name}");
        for (swept, lone) in swept.rows.iter().zip(&rows) {
            assert_eq!(row_bits(swept), row_bits(lone), "{name}");
        }
        assert_eq!(swept.rejected, rejected, "{name}");
        assert!(!rows.is_empty(), "{name}: the plan must evaluate");
    }
}
