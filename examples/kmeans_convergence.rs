//! K-Means: speedup comes from early convergence (the paper's Fig 12c).
//!
//! Approximating the distance kernel "herds" observations into staying in
//! their clusters, so the convergence criterion (few membership changes)
//! fires earlier. Time speedup tracks convergence speedup almost exactly
//! because the per-iteration host round trip dominates runtime.
//!
//! Run with: `cargo run --release --example kmeans_convergence`

use gpu_sim::DeviceSpec;
use hpac_offload::apps::common::{Benchmark, LaunchParams};
use hpac_offload::apps::kmeans::KMeans;
use hpac_offload::core::ApproxRegion;
use hpac_offload::harness::analyze::linear_fit;
use hpac_offload::harness::runner::Baseline;

fn main() {
    let spec = DeviceSpec::mi250x();
    let bench = KMeans::default();
    let lp = LaunchParams::new(8, 256);
    let accurate = Baseline::measure(&bench, &spec, lp, &Default::default()).unwrap();
    let base_iters = accurate.result.iterations.unwrap();
    println!(
        "K-Means: {} points, {} clusters on {}: accurate converges in {} iterations\n",
        bench.n_points, bench.k, spec.name, base_iters
    );
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>8}",
        "TAF config", "iters", "conv spdup", "time spdup", "MCR %"
    );

    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (h, p, t) in [
        (1usize, 16usize, 0.9),
        (1, 64, 0.9),
        (2, 8, 0.9),
        (2, 64, 1.5),
        (3, 32, 0.9),
        (5, 4, 0.3),
        (5, 512, 1.5),
    ] {
        for ipt in [8usize, 64] {
            let (region, lp) = (ApproxRegion::memo_out(h, p, t), LaunchParams::new(ipt, 256));
            let res = bench.run(&spec, Some(&region), &lp).unwrap();
            let label = format!("h={h} p={p} t={t} ipt={ipt}");
            let row = accurate.score(&bench, &spec, Some(&region), &label, &lp, &res);
            let iters = row.iterations.unwrap();
            let conv = base_iters as f64 / iters as f64;
            xs.push(conv);
            ys.push(row.speedup);
            println!(
                "{:<28} {:>6} {:>11.2}x {:>11.2}x {:>8.2}",
                label, iters, conv, row.speedup, row.error_pct
            );
        }
    }
    let (slope, intercept, r2) = linear_fit(&xs, &ys);
    println!(
        "\ntime_speedup ≈ {slope:.2}·conv_speedup + {intercept:.2}, R² = {r2:.3} (paper: 0.95)"
    );
}
