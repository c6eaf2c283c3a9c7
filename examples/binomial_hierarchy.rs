//! Block-level decision-making and the parallelism-vs-approximation
//! tradeoff on Binomial Options (the paper's Fig 8 study).
//!
//! One thread block cooperatively prices one option, so approximation
//! decisions are block-scoped. Assigning more options to each block raises
//! the approximation potential (TAF state warms up and stays warm) but
//! starves the GPU of blocks for latency hiding — speedup rises, peaks, and
//! collapses.
//!
//! Run with: `cargo run --release --example binomial_hierarchy`

use gpu_sim::DeviceSpec;
use hpac_offload::apps::binomial::BinomialOptions;
use hpac_offload::apps::common::{Benchmark, LaunchParams};
use hpac_offload::core::{ApproxRegion, HierarchyLevel};
use hpac_offload::harness::runner::Baseline;

fn main() {
    let bench = BinomialOptions::default();
    println!(
        "Binomial Options: {} American puts, {}-step lattice, one block per option\n",
        bench.n_options, bench.tree_steps
    );

    for spec in DeviceSpec::evaluation_platforms() {
        let lp = LaunchParams::new(1, 128);
        let baseline = Baseline::measure(&bench, &spec, lp, &Default::default()).unwrap();
        println!(
            "{} ({} SMs): accurate end-to-end {:.3} ms",
            spec.name,
            spec.sm_count,
            baseline.seconds * 1e3
        );
        println!(
            "  {:>16} {:>9} {:>12} {:>10}",
            "options/block", "speedup", "approximated", "error %"
        );
        for opb in [1usize, 4, 16, 64, 256, 1024, 4096] {
            let region = ApproxRegion::memo_out(1, 64, 5.0).level(HierarchyLevel::Block);
            let lp = LaunchParams::new(opb, 128);
            let res = bench.run(&spec, Some(&region), &lp).unwrap();
            let row = baseline.score(&bench, &spec, Some(&region), "TAF lvl=block", &lp, &res);
            println!(
                "  {:>16} {:>8.2}x {:>11.1}% {:>10.2}",
                opb,
                row.speedup,
                row.approx_fraction * 100.0,
                row.error_pct
            );
        }
        println!();
    }
    println!(
        "Both platforms peak and then collapse once too few blocks remain to\n\
         hide memory latency; the MI250X (more SMs to feed) collapses earlier\n\
         — the paper's Figure 8c."
    );
}
