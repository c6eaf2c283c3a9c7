//! Portability: the same annotated application runs unchanged on both
//! modeled platforms (NVIDIA V100, AMD MI250X), the way HPAC-Offload's
//! OpenMP-offload runtime is portable across vendors.
//!
//! Run with: `cargo run --release --example portability`

use gpu_sim::DeviceSpec;
use hpac_offload::apps::common::{Benchmark, LaunchParams};
use hpac_offload::{apps::blackscholes::Blackscholes, core::ApproxRegion, harness::runner};

fn main() {
    let bench = Blackscholes::default();
    println!(
        "Blackscholes: {} European options; TAF h=1 p=512 on the price kernel\n\
         (kernel-only timing, as the paper reports for this benchmark)\n",
        bench.n_options
    );
    println!(
        "{:<10} {:>6} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "device", "warp", "SMs", "base µs", "approx µs", "speedup", "error %"
    );
    for spec in DeviceSpec::evaluation_platforms() {
        // 8 options per thread: the grid (16384 threads) is a multiple of
        // the dataset period, so every thread's output stream is constant —
        // the dataset redundancy TAF exploits.
        let lp = LaunchParams::new(8, 256);
        let accurate = runner::Baseline::measure(&bench, &spec, lp, &Default::default()).unwrap();
        // The identical pragma works on both platforms; the warp-level vote
        // uses a 32-lane ballot on NVIDIA and a 64-lane one on AMD.
        let region = ApproxRegion::memo_out(1, 512, 20.0);
        let approx = bench.run(&spec, Some(&region), &lp).unwrap();
        let row = accurate.score(&bench, &spec, Some(&region), "TAF h=1 p=512", &lp, &approx);
        println!(
            "{:<10} {:>6} {:>10} {:>12.1} {:>12.1} {:>9.2}x {:>10.4}",
            spec.name,
            spec.warp_size,
            spec.sm_count,
            accurate.seconds * 1e6,
            row.kernel_seconds * 1e6,
            row.speedup,
            row.error_pct,
        );
    }
    println!(
        "\nThe same region annotation produced approximation on both devices;\n\
         only the modeled hardware (SM count, wavefront width, bandwidth)\n\
         changed — the portability HPAC-Offload gets from OpenMP offload.\n\
         The MI250X gains less at this launch shape: its 220 CUs need more\n\
         blocks than the reduced-parallelism launch provides (paper Fig 8c)."
    );
}
