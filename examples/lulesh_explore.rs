//! Explore accuracy/performance trade-offs on the LULESH proxy — a small
//! version of the paper's Figure 7 study: perforation, TAF, and iACT on the
//! Sedov blast's hourglass kernels.
//!
//! Run with: `cargo run --release --example lulesh_explore`

use gpu_sim::DeviceSpec;
use hpac_offload::apps::common::{Benchmark, LaunchParams};
use hpac_offload::apps::lulesh::Lulesh;
use hpac_offload::core::params::PerfoKind;
use hpac_offload::core::ApproxRegion;
use hpac_offload::core::HierarchyLevel;
use hpac_offload::harness::runner::Baseline;

fn main() {
    let spec = DeviceSpec::v100();
    let bench = Lulesh::default();
    let lp_base = LaunchParams::new(1, 64);
    let base = Baseline::measure(&bench, &spec, lp_base, &Default::default()).unwrap();
    println!(
        "LULESH {}^3 Sedov blast on {}: accurate end-to-end {:.3} ms\n",
        bench.edge,
        spec.name,
        base.seconds * 1e3
    );
    println!(
        "{:<34} {:>8} {:>10} {:>8}",
        "configuration", "speedup", "error %", "approx%"
    );

    let configs: Vec<(&str, ApproxRegion, usize)> = vec![
        (
            "perfo small:4 (herded)",
            ApproxRegion::perfo(PerfoKind::Small { m: 4 }),
            1,
        ),
        (
            "perfo large:8 (herded)",
            ApproxRegion::perfo(PerfoKind::Large { m: 8 }),
            1,
        ),
        (
            "perfo fini:30%",
            ApproxRegion::perfo(PerfoKind::Fini { fraction: 0.3 }),
            1,
        ),
        (
            "perfo ini:30%",
            ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.3 }),
            1,
        ),
        ("TAF h=2 p=32 t=0.9", ApproxRegion::memo_out(2, 32, 0.9), 8),
        (
            "TAF h=5 p=512 t=1.5",
            ApproxRegion::memo_out(5, 512, 1.5),
            8,
        ),
        (
            "TAF h=2 p=32 t=0.9 level(warp)",
            ApproxRegion::memo_out(2, 32, 0.9).level(HierarchyLevel::Warp),
            8,
        ),
        (
            "iACT ts=4 t=0.5 tpw=16",
            ApproxRegion::memo_in(4, 0.5).tables_per_warp(16),
            8,
        ),
    ];

    for (name, region, ipt) in configs {
        let lp = LaunchParams::new(ipt, 64);
        match bench.run(&spec, Some(&region), &lp) {
            Ok(res) => {
                let row = base.score(&bench, &spec, Some(&region), name, &lp, &res);
                println!(
                    "{:<34} {:>7.2}x {:>10.4} {:>7.1}%",
                    name,
                    row.speedup,
                    row.error_pct,
                    row.approx_fraction * 100.0
                );
            }
            Err(e) => println!("{name:<34} rejected: {e}"),
        }
    }
    println!(
        "\nNote: fini perforation (dropping trailing elements, far from the\n\
         blast) hurts the origin-energy QoI less than ini (dropping the\n\
         origin region) — the paper's Figure 7 observation."
    );
}
