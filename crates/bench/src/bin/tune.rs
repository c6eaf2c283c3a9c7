//! Quality-constrained autotuning across the full evaluation matrix: all
//! seven benchmarks × both device specs, via the `hpac-service` front end.
//!
//! Run with: `cargo run --release -p hpac-bench --bin tune`
//!
//! For each (benchmark, device) the service answers "fastest configuration
//! with ≤ 5% error" while evaluating well under 10% of the benchmark's full
//! Table 2 space, and persists the answer (plan + Pareto frontier) to the
//! sharded cache under `target/tuner-cache/`. A second invocation is served
//! entirely from the cache — the `source` column flips from `search` to
//! `cache`. A new `--bound` over a populated cache reads `warm (verified,
//! 1 eval)` where a neighboring bound's stored winner reproduced, and
//! `warm (re-measured, N evals)` where the search ran every seed.
//!
//! Flags: `--bound <pct>` changes the error bound; `--fresh` clears the
//! cache first. `HPAC_TRACE=<path>[:jsonl|chrome]` records the tuner's
//! search trajectory (spans per service request and grid, Pareto/cache
//! counters) and prints a metrics summary at the end.

use gpu_sim::DeviceSpec;
use hpac_apps::common::Benchmark;
use hpac_apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_core::metrics::geomean;
use hpac_service::{Source, TuneRequest, TuneResponse, TuningService};
use hpac_tuner::{QualityBound, TuningCache};

/// Laptop-scale configurations of all seven applications (Table 1 order) —
/// the same sizes the Criterion benches exercise.
fn suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Lulesh {
            edge: 12,
            steps: 8,
            dt: 1e-4,
            ..Lulesh::default()
        }),
        Box::new(Leukocyte {
            n_cells: 8,
            grid: 16,
            iterations: 24,
            ..Leukocyte::default()
        }),
        Box::new(BinomialOptions {
            n_options: 1024,
            tree_steps: 96,
            ..BinomialOptions::default()
        }),
        Box::new(MiniFe {
            nx: 10,
            max_iters: 25,
            ..MiniFe::default()
        }),
        Box::new(Blackscholes::default()),
        Box::new(LavaMd {
            boxes_per_dim: 4,
            par_per_box: 16,
            ..LavaMd::default()
        }),
        Box::new(KMeans {
            n_points: 2048,
            max_iters: 40,
            ..KMeans::default()
        }),
    ]
}

fn source_label(resp: &TuneResponse) -> String {
    match resp.source {
        Source::CacheHit => "cache".into(),
        Source::Coalesced => "coalesced".into(),
        Source::Searched { warm_seeds: 0 } => "search".into(),
        Source::Searched { .. } if resp.plan.verified_seed => "warm (verified, 1 eval)".into(),
        Source::Searched { .. } => format!(
            "warm (re-measured, {} eval{})",
            resp.evals_spent,
            if resp.evals_spent == 1 { "" } else { "s" }
        ),
    }
}

fn main() {
    hpac_core::env::init_trace_from_env();
    let traced = hpac_obs::sink_config().is_some();
    let args: Vec<String> = std::env::args().collect();
    let bound_pct = args
        .iter()
        .position(|a| a == "--bound")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(5.0);
    let cache = TuningCache::new(TuningCache::default_dir());
    if args.iter().any(|a| a == "--fresh") {
        if let Err(e) = cache.clear() {
            eprintln!("warning: could not clear cache: {e}");
        }
    }
    let service = TuningService::new().with_cache(cache.clone());
    let bound = QualityBound::percent(bound_pct);

    println!("hpac-service: fastest configuration with <= {bound_pct}% error");
    println!("cache: {}\n", cache.dir().display());

    for device in DeviceSpec::evaluation_platforms() {
        println!("== {} ({}) ==", device.name, device.vendor);
        println!(
            "{:<16} {:<9} {:<34} {:>8} {:>7} {:>6} {:>7}  source",
            "benchmark", "technique", "config", "speedup", "err%", "evals", "%full"
        );
        let mut speedups = Vec::new();
        for bench in suite() {
            let resp = service.submit(TuneRequest::new(bench.as_ref(), &device, bound));
            if traced {
                // Drain per request so a cold full-matrix search cannot
                // wrap the ring buffers.
                hpac_obs::flush().expect("flush trace sink");
            }
            let plan = &resp.plan;
            assert!(
                plan.respects_bound(),
                "{} on {} violates the bound",
                plan.benchmark,
                plan.device
            );
            assert!(
                !resp.source.is_searched() || plan.budget_fraction_used() < 0.10,
                "{} on {} overspent: {} of {} configs",
                plan.benchmark,
                plan.device,
                plan.evaluations,
                plan.full_space
            );
            speedups.push(plan.predicted_speedup);
            println!(
                "{:<16} {:<9} {:<34} {:>7.2}x {:>7.3} {:>6} {:>6.1}%  {}",
                plan.benchmark,
                plan.technique,
                plan.config,
                plan.predicted_speedup,
                plan.measured_error_pct,
                resp.evals_spent,
                plan.budget_fraction_used() * 100.0,
                source_label(&resp),
            );
        }
        println!(
            "geomean speedup under the bound: {:.2}x\n",
            geomean(&speedups)
        );
    }
    let stats = service.stats();
    println!(
        "{} tuned by search, {} served from the persistent cache{}",
        stats.searches,
        stats.cache_hits,
        if stats.cache_hits == 0 {
            " (run again to see every row hit the cache)"
        } else {
            ""
        }
    );
    if hpac_obs::enabled() {
        println!("\nobs metrics:");
        print!("{}", hpac_obs::snapshot().render_table());
        let cfg = hpac_obs::sink_config().expect("sink installed");
        hpac_obs::finish().expect("finalize trace sink");
        println!("wrote trace to {} ({:?})", cfg.path.display(), cfg.format);
    }
}
