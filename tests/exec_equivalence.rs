//! Host parallelism is over configurations: running configurations as
//! tasks on the engine is observationally indistinguishable from running
//! them one after another on one thread.
//!
//! For random launch configurations × all three techniques × all hierarchy
//! levels, both must produce bitwise-identical region outputs and an
//! identical `KernelRecord` (timing, statistics, residency).

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, KernelRecord, LaunchConfig};
use hpac_offload::apps::common::{Benchmark, QoI};
use hpac_offload::apps::leukocyte::Leukocyte;
use hpac_offload::core::exec::{approx_parallel_for_opts, engine, ExecOptions, RegionBody};
use hpac_offload::core::params::PerfoKind;
use hpac_offload::core::{ApproxRegion, HierarchyLevel};
use hpac_offload::harness::space::{self, Scale};
use proptest::prelude::*;

/// A deterministic region body whose input stream mixes plateaus (so TAF
/// and iACT genuinely approximate) with varying stretches (so decisions
/// differ across lanes and hierarchy levels matter).
struct MixBody {
    input: Vec<f64>,
    output: Vec<f64>,
}

impl MixBody {
    fn new(n: usize, seed: u64) -> Self {
        let input = (0..n)
            .map(|i| {
                let plateau = (i >> 5) as f64;
                let wiggle = (((i as u64).wrapping_mul(seed | 1) >> 7) % 13) as f64;
                plateau + if i % 3 == 0 { 0.0 } else { wiggle * 0.25 }
            })
            .collect();
        MixBody {
            input,
            output: vec![-1.0; n],
        }
    }
}

impl RegionBody for MixBody {
    fn in_dim(&self) -> usize {
        1
    }
    fn out_dim(&self) -> usize {
        2
    }
    fn inputs(&self, i: usize, buf: &mut [f64]) {
        buf[0] = self.input[i];
    }
    fn compute(&self, i: usize, out: &mut [f64]) {
        let x = self.input[i] + 1.0;
        out[0] = x.sqrt();
        out[1] = x.ln();
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.output[i] = out[0] + 0.5 * out[1];
    }
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(8.0)
            .sfu(2.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 16, AccessPattern::Coalesced)
    }
}

fn level_of(idx: usize) -> HierarchyLevel {
    match idx % 3 {
        0 => HierarchyLevel::Thread,
        1 => HierarchyLevel::Warp,
        _ => HierarchyLevel::Block,
    }
}

/// Every technique × hierarchy-level combination the runtime accepts.
fn regions(level_idx: usize, tsize: usize, threshold: f64) -> Vec<Option<ApproxRegion>> {
    let level = level_of(level_idx);
    vec![
        None,
        Some(ApproxRegion::memo_out(2, 16, threshold).level(level)),
        Some(
            ApproxRegion::memo_in(tsize, threshold)
                .tables_per_warp(8)
                .level(level),
        ),
        Some(ApproxRegion::perfo(PerfoKind::Small { m: 4 })),
        Some(ApproxRegion::perfo(PerfoKind::Large { m: 8 }).herded(false)),
        Some(ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.25 })),
    ]
}

/// One launch's observable result: the kernel record and the outputs.
type RunResult = (KernelRecord, Vec<f64>);

proptest! {
    /// Configuration tasks fan out on the engine, and each one launches
    /// its kernel from inside its task, walking the blocks on the task's
    /// thread. The composition must stay bit-identical to a plain loop over
    /// the same launches on one thread.
    #[test]
    fn nested_config_tasks_bit_identical_to_sequential(
        n in 64usize..3_000,
        warps in 1u32..4,
        ipt in 1usize..24,
        seed in 1u64..1_000_000,
        workers in 2usize..6,
        level_idx in 0usize..3,
    ) {
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::for_items_per_thread(n, warps * 32, ipt);
        let configs = regions(level_idx, 4, 0.3);

        // Reference: every config one after another.
        let opts = ExecOptions::default();
        let reference: Vec<Option<RunResult>> = configs
            .iter()
            .map(|region| {
                let mut body = MixBody::new(n, seed);
                approx_parallel_for_opts(&spec, &lc, region.as_ref(), &mut body, &opts)
                    .ok()
                    .map(|rec| (rec, body.output))
            })
            .collect();

        // Config tasks on the engine.
        let nested: Vec<Option<RunResult>> = engine().run(configs.len(), workers, |i| {
            let mut body = MixBody::new(n, seed);
            approx_parallel_for_opts(&spec, &lc, configs[i].as_ref(), &mut body, &opts)
                .ok()
                .map(|rec| (rec, body.output))
        });

        for (k, (a, b)) in reference.iter().zip(&nested).enumerate() {
            match (a, b) {
                (None, None) => {}
                (Some((r_seq, out_seq)), Some((r_par, out_par))) => {
                    prop_assert_eq!(r_seq, r_par, "record diverged for config {}", k);
                    for (x, y) in out_seq.iter().zip(out_par) {
                        prop_assert!(
                            x.to_bits() == y.to_bits(),
                            "output diverged under {:?}", configs[k]
                        );
                    }
                }
                _ => prop_assert!(false, "acceptance diverged for config {}", k),
            }
        }
    }
}

/// Leukocyte declares one cell per block (`BlockLocal`, stores re-read by
/// the block's own Jacobi sweeps). Perforation turns the launch into a
/// grid-stride one — over a shrunken range under ini/fini — so blocks write
/// into each other's cells, and the results depend on the order the blocks
/// walk in. Every launch walks them in ascending order, so every run of a
/// perforated configuration, on whichever engine worker, returns the bits
/// of the first run on the calling thread.
#[test]
fn leukocyte_perfo_is_deterministic() {
    let bench = Leukocyte {
        n_cells: 4,
        grid: 16,
        iterations: 12,
        ..Leukocyte::default()
    };
    let spec = DeviceSpec::v100();
    let opts = ExecOptions::default();
    let qoi_bits = |qoi: &QoI| -> Vec<u64> {
        let QoI::Values(v) = qoi else {
            panic!("Leukocyte reports centroid coordinates")
        };
        v.iter().map(|x| x.to_bits()).collect()
    };
    let plan = space::plan(&bench, &spec, Scale::Quick);
    for cfg in plan.iter().filter(|c| c.region.technique_name() == "Perfo") {
        let first = bench
            .run_opts(&spec, Some(&cfg.region), &cfg.lp, &opts)
            .unwrap();
        let runs = engine().run(100, engine().default_width(), |_| {
            bench
                .run_opts(&spec, Some(&cfg.region), &cfg.lp, &opts)
                .unwrap()
        });
        for (launch, run) in runs.iter().enumerate() {
            assert_eq!(
                qoi_bits(&run.qoi),
                qoi_bits(&first.qoi),
                "{} launch {launch}: QoI",
                cfg.label
            );
            assert_eq!(
                run.kernel_seconds.to_bits(),
                first.kernel_seconds.to_bits(),
                "{} launch {launch}: kernel seconds",
                cfg.label
            );
            assert_eq!(
                run.stats, first.stats,
                "{} launch {launch}: stats",
                cfg.label
            );
        }
    }
}
