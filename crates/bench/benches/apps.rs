//! Criterion wall-clock benches: the functional simulator genuinely skips
//! work on the approximate path, so host-side wall time also improves.
//! One group per benchmark application (accurate vs TAF vs iACT vs perfo),
//! plus microbenches of the runtime primitives. These guard the framework's
//! own performance; modeled-GPU numbers come from the fig* binaries.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::DeviceSpec;
use hpac_apps::common::{current_eval_memo, install_eval_memo, Benchmark, LaunchParams};
use hpac_apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_core::exec::ExecOptions;
use hpac_core::params::PerfoKind;
use hpac_core::region::ApproxRegion;
use hpac_core::HierarchyLevel;
use hpac_harness::runner::{run_config_bounded, run_configs, select_baseline_opts};
use hpac_harness::{Scale, SweepConfig};
use hpac_service::{TuneRequest, TuningService};
use hpac_tuner::{QualityBound, Tuner, TuningCache};
use std::hint::black_box;

fn bench_app(c: &mut Criterion, name: &str, bench: &dyn Benchmark, block_level: bool) {
    let spec = DeviceSpec::v100();
    let lp = LaunchParams::new(16, if block_level { 128 } else { 256 });
    let level = if block_level {
        HierarchyLevel::Block
    } else {
        HierarchyLevel::Thread
    };
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function("accurate", |b| {
        b.iter(|| black_box(bench.run(&spec, None, &lp).unwrap()))
    });
    let taf = ApproxRegion::memo_out(2, 64, 5.0).level(level);
    group.bench_function("taf", |b| {
        b.iter(|| black_box(bench.run(&spec, Some(&taf), &lp).unwrap()))
    });
    let iact = ApproxRegion::memo_in(4, 0.5)
        .tables_per_warp(16)
        .level(level);
    if bench.name() != "MiniFE" {
        group.bench_function("iact", |b| {
            b.iter(|| black_box(bench.run(&spec, Some(&iact), &lp).unwrap()))
        });
    }
    if !block_level {
        let perfo = ApproxRegion::perfo(PerfoKind::Large { m: 8 });
        group.bench_function("perfo_large8", |b| {
            b.iter(|| black_box(bench.run(&spec, Some(&perfo), &lp).unwrap()))
        });
    }
    group.finish();
}

// The quick-grid sizes the repo benchmark sweeps (`benchmark/src/suite.rs`).
fn lulesh() -> Lulesh {
    Lulesh {
        edge: 12,
        steps: 8,
        dt: 1e-4,
        ..Lulesh::default()
    }
}

fn leukocyte() -> Leukocyte {
    Leukocyte {
        n_cells: 8,
        grid: 16,
        iterations: 24,
        ..Leukocyte::default()
    }
}

fn binomial() -> BinomialOptions {
    BinomialOptions {
        n_options: 1024,
        tree_steps: 96,
        ..BinomialOptions::default()
    }
}

fn minife() -> MiniFe {
    MiniFe {
        nx: 10,
        max_iters: 25,
        ..MiniFe::default()
    }
}

fn lavamd() -> LavaMd {
    LavaMd {
        boxes_per_dim: 4,
        par_per_box: 16,
        ..LavaMd::default()
    }
}

fn kmeans() -> KMeans {
    KMeans {
        n_points: 2048,
        max_iters: 40,
        ..KMeans::default()
    }
}

fn apps(c: &mut Criterion) {
    bench_app(c, "lulesh", &lulesh(), false);
    bench_app(c, "leukocyte", &leukocyte(), false);
    bench_app(c, "binomial_options", &binomial(), true);
    bench_app(c, "minife", &minife(), false);
    bench_app(
        c,
        "blackscholes",
        &Blackscholes {
            n_options: 8192,
            ..Blackscholes::default()
        },
        false,
    );
    bench_app(c, "lavamd", &lavamd(), false);
    bench_app(c, "kmeans", &kmeans(), false);
}

/// The per-config fixed costs of a sweep. `<app>/build` is one app's input
/// build — what every config paid before the sweep scope owned the inputs.
/// `unscoped` against `scoped` is an accurate run that builds its own inputs
/// against one that finds them in the scope (for Blackscholes the scope also
/// holds the price memo, which a lone run does without, so that pair differs
/// by more than the build).
/// `config_eval_exact` against `scoped_exact` is what `run_config_bounded`
/// adds to the run it wraps when the output is bit-identical to the
/// baseline's (threshold-0 memoization), so the quality cache answers and no
/// error metric runs: the output fingerprint.
fn prepared_inputs(c: &mut Criterion) {
    let spec = DeviceSpec::v100();
    let opts = ExecOptions::default();
    let lp = LaunchParams::new(8, 256);
    let bs = Blackscholes::default();
    let fe = minife();
    let mut group = c.benchmark_group("prepared_inputs");

    group.sample_size(200);
    let mut build = |name: &str, inputs: &dyn Fn()| {
        group.bench_function(&format!("{name}/build"), |b| b.iter(inputs));
    };
    build("blackscholes", &|| drop(black_box(bs.inputs())));
    build("minife", &|| drop(black_box(fe.inputs())));
    build("kmeans", &|| drop(black_box(kmeans().inputs())));
    build("leukocyte", &|| drop(black_box(leukocyte().inputs())));
    build("lavamd", &|| drop(black_box(lavamd().inputs())));
    build("binomial_options", &|| drop(black_box(binomial().inputs())));
    build("lulesh", &|| drop(black_box(lulesh().inputs())));

    group.sample_size(10);
    for (name, bench) in [("blackscholes", &bs as &dyn Benchmark), ("minife", &fe)] {
        let mut accurate = |id: &str| {
            group.bench_function(&format!("{name}/{id}"), |b| {
                b.iter(|| black_box(bench.run_opts(&spec, None, &lp, &opts).unwrap()))
            });
        };
        accurate("unscoped");
        let _scope = install_eval_memo();
        accurate("scoped");
    }

    let _scope = install_eval_memo();
    let baseline = select_baseline_opts(&bs, &spec, &opts);
    let exact = SweepConfig {
        region: ApproxRegion::memo_out(2, 8, 0.0),
        lp: baseline.lp,
        label: "exact".into(),
    };
    group.sample_size(200);
    group.bench_function("blackscholes/scoped_exact", |b| {
        b.iter(|| black_box(bs.run_opts(&spec, Some(&exact.region), &exact.lp, &opts)))
    });
    group.bench_function("blackscholes/config_eval_exact", |b| {
        b.iter(|| black_box(run_config_bounded(&bs, &spec, &baseline, &exact, &opts)))
    });
    group.finish();
}

/// What a tuning service keeps between requests. `baseline/<app>/cold` is
/// one baseline selection in a scope of its own — three accurate runs and
/// the input build, the fixed part of every request before the scope
/// outlived it; `scoped` is the same call inside a held scope, a fetch.
/// `warm_request/<app>/fresh_service` against `retained` is the request
/// `serve_churn` times — a never-seen bound just above a cached 5% plan,
/// warm-started from it — on a service created for that request against one
/// that has searched the (benchmark, device) before. Each iteration asks for
/// a new bound and stores its answer, so the neighbour scan grows by one
/// entry per iteration on both sides alike.
fn service_scope(c: &mut Criterion) {
    let spec = DeviceSpec::v100();
    let opts = ExecOptions::default();
    let suite: [(&str, Box<dyn Benchmark>); 7] = [
        ("lulesh", Box::new(lulesh())),
        ("leukocyte", Box::new(leukocyte())),
        ("binomial_options", Box::new(binomial())),
        ("minife", Box::new(minife())),
        ("blackscholes", Box::<Blackscholes>::default()),
        ("lavamd", Box::new(lavamd())),
        ("kmeans", Box::new(kmeans())),
    ];
    let mut group = c.benchmark_group("service_scope");
    group.sample_size(10);

    for (name, bench) in &suite {
        let bench = bench.as_ref();
        assert!(current_eval_memo().is_none(), "cold means no scope");
        group.bench_function(&format!("baseline/{name}/cold"), |b| {
            b.iter(|| {
                // A scope of its own, as every search had: the candidates
                // share one input build, nothing outlives the call.
                let _scope = install_eval_memo();
                black_box(select_baseline_opts(bench, &spec, &opts))
            })
        });
        let _scope = install_eval_memo();
        group.bench_function(&format!("baseline/{name}/scoped"), |b| {
            b.iter(|| black_box(select_baseline_opts(bench, &spec, &opts)))
        });
    }

    let quick_service = |cache: &TuningCache| {
        TuningService::new()
            .with_cache(cache.clone())
            .with_tuner(Tuner::new().with_scale(Scale::Quick))
    };
    for (name, bench) in &suite {
        let bench = bench.as_ref();
        let cache = TuningCache::new(
            std::env::temp_dir().join(format!("hpac_bench_scope_{name}_{}", std::process::id())),
        );
        let _ = cache.clear();
        quick_service(&cache).submit(TuneRequest::new(bench, &spec, QualityBound::percent(5.0)));
        assert!(current_eval_memo().is_none(), "nothing retained yet");
        let mut step = 0u32;
        let mut fresh_bound = || {
            step += 1;
            QualityBound::percent(5.0 + f64::from(step) * 0.01)
        };
        group.bench_function(&format!("warm_request/{name}/fresh_service"), |b| {
            b.iter(|| {
                black_box(quick_service(&cache).submit(TuneRequest::new(
                    bench,
                    &spec,
                    fresh_bound(),
                )))
            })
        });
        let retained = quick_service(&cache);
        retained.submit(TuneRequest::new(bench, &spec, fresh_bound()));
        group.bench_function(&format!("warm_request/{name}/retained"), |b| {
            b.iter(|| black_box(retained.submit(TuneRequest::new(bench, &spec, fresh_bound()))))
        });
        let _ = cache.clear();
    }
    group.finish();
}

/// One five-threshold TAF family (the quick grid's thresholds at `h=3 p=32`,
/// thread level) answered by `run_configs` — members inside a sibling's
/// decision margin take its outcome — against the same five evaluated one by
/// one. Both sides find the baseline and the inputs in a held scope.
fn threshold_family(c: &mut Criterion) {
    let spec = DeviceSpec::v100();
    let opts = ExecOptions::default();
    let suite: [(&str, Box<dyn Benchmark>); 2] = [
        ("kmeans", Box::new(kmeans())),
        ("blackscholes", Box::<Blackscholes>::default()),
    ];
    let mut group = c.benchmark_group("threshold_family");
    group.sample_size(10);
    let _scope = install_eval_memo();
    for (name, bench) in &suite {
        let bench = bench.as_ref();
        let baseline = select_baseline_opts(bench, &spec, &opts);
        let family: Vec<SweepConfig> = [0.3, 0.9, 1.5, 3.0, 20.0]
            .iter()
            .map(|&t| SweepConfig {
                region: ApproxRegion::memo_out(3, 32, t),
                lp: LaunchParams::new(8, 256),
                label: format!("thr={t}"),
            })
            .collect();
        group.bench_function(&format!("{name}/run_configs"), |b| {
            b.iter(|| black_box(run_configs(bench, &spec, &family)))
        });
        group.bench_function(&format!("{name}/one_by_one"), |b| {
            b.iter(|| {
                for cfg in &family {
                    black_box(run_config_bounded(bench, &spec, &baseline, cfg, &opts));
                }
            })
        });
    }
    group.finish();
}

fn primitives(c: &mut Criterion) {
    use hpac_core::iact::IactPool;
    use hpac_core::metrics::RsdWindow;
    use hpac_core::params::{IactParams, TafParams};
    use hpac_core::taf::TafPool;

    c.bench_function("taf_observe", |b| {
        let mut pool = TafPool::new(1024, 4, TafParams::new(5, 32, 0.5));
        let out = [1.0, 2.0, 3.0, 4.0];
        let mut i = 0usize;
        b.iter(|| {
            pool.observe(i % 1024, black_box(&out));
            i += 1;
        })
    });
    c.bench_function("iact_probe_t8_d5", |b| {
        let mut pool = IactPool::new(1, 5, 1, IactParams::new(8, 0.5));
        for k in 0..8 {
            pool.insert(0, &[k as f64; 5], &[k as f64]);
        }
        b.iter(|| black_box(pool.probe(0, black_box(&[3.3; 5]))))
    });
    c.bench_function("rsd_window_push", |b| {
        let mut w = RsdWindow::new(5);
        let mut x = 0.0f64;
        b.iter(|| {
            w.push(black_box(x));
            x += 1.0;
            black_box(w.rsd())
        })
    });
}

criterion_group!(
    benches,
    apps,
    prepared_inputs,
    service_scope,
    threshold_family,
    primitives
);
criterion_main!(benches);
