//! Property tests: the `ParallelBlocks` executor is observationally
//! indistinguishable from the `Sequential` reference.
//!
//! For random launch configurations × all three techniques × all hierarchy
//! levels, both executors must produce bitwise-identical region outputs and
//! an identical `KernelRecord` (timing, statistics, residency). This is the
//! contract that makes intra-kernel parallelism safe to enable anywhere:
//! it is an implementation detail of the walk, never a semantic change.

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, KernelRecord, LaunchConfig};
use hpac_offload::apps::common::{Benchmark, QoI};
use hpac_offload::apps::leukocyte::Leukocyte;
use hpac_offload::core::exec::{
    approx_block_tasks_opts, approx_parallel_for_opts, engine, BlockTaskBody, ExecOptions,
    Executor, RegionBody,
};
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

/// One executor's observable result: the kernel record and the outputs.
type RunResult = (KernelRecord, Vec<f64>);

fn run_both(
    lc: &LaunchConfig,
    region: Option<&ApproxRegion>,
    n: usize,
    seed: u64,
    threads: usize,
) -> Option<(RunResult, RunResult)> {
    let spec = DeviceSpec::v100();
    let seq_opts = ExecOptions {
        executor: Executor::Sequential,
        ..ExecOptions::default()
    };
    let par_opts = ExecOptions {
        executor: Executor::ParallelBlocks,
        threads: Some(threads),
        ..ExecOptions::default()
    };
    let mut seq = MixBody::new(n, seed);
    let r_seq = approx_parallel_for_opts(&spec, lc, region, &mut seq, &seq_opts).ok()?;
    let mut par = MixBody::new(n, seed);
    let r_par = approx_parallel_for_opts(&spec, lc, region, &mut par, &par_opts)
        .expect("parallel executor rejected a launch the sequential one accepted");
    Some(((r_seq, seq.output), (r_par, par.output)))
}

proptest! {
    /// Bitwise executor equivalence over random launches, techniques, and
    /// hierarchy levels.
    #[test]
    fn parallel_blocks_bit_identical_to_sequential(
        n in 32usize..6_000,
        warps in 1u32..5,
        ipt in 1usize..40,
        seed in 1u64..1_000_000,
        threads in 2usize..5,
        level_idx in 0usize..3,
    ) {
        let lc = LaunchConfig::for_items_per_thread(n, warps * 32, ipt);
        for region in regions(level_idx, 4, 0.3) {
            let Some(((r_seq, out_seq), (r_par, out_par))) =
                run_both(&lc, region.as_ref(), n, seed, threads)
            else {
                continue; // launch legitimately rejected by both executors
            };
            // Record equality includes the threshold's and the prediction
            // size's decision margins, folded by max/min in whatever order
            // the blocks finished.
            prop_assert_eq!(r_seq, r_par);
            prop_assert!(
                r_par.stats.margins.covers(0.3, Some(16)),
                "{:?}",
                r_par.stats.margins
            );
            for (a, b) in out_seq.iter().zip(&out_par) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "output diverged under {:?}", region
                );
            }
        }
    }

    /// Block-local scheduling (contiguous per-block item ranges) preserves
    /// equivalence too.
    #[test]
    fn block_local_schedule_equivalent(
        n in 64usize..4_000,
        blocks in 2u32..7,
        seed in 1u64..1_000_000,
    ) {
        let lc = LaunchConfig::block_local(n, 64, blocks);
        for region in regions(1, 4, 0.3) {
            let Some(((r_seq, out_seq), (r_par, out_par))) =
                run_both(&lc, region.as_ref(), n, seed, 3)
            else {
                continue;
            };
            prop_assert_eq!(r_seq, r_par);
            for (a, b) in out_seq.iter().zip(&out_par) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }
    }
}

proptest! {
    /// The two granularities nest: configuration tasks fan out on the
    /// engine, and each one launches `ParallelBlocks` kernels from inside
    /// its task. The depth guard must run those nested block fan-outs
    /// inline, and the whole composition must stay bit-identical to a
    /// plain sequential loop over sequential launches.
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

        // Reference: every config sequential, one after another.
        let seq_opts = ExecOptions {
            executor: Executor::Sequential,
            ..ExecOptions::default()
        };
        let reference: Vec<Option<RunResult>> = configs
            .iter()
            .map(|region| {
                let mut body = MixBody::new(n, seed);
                approx_parallel_for_opts(&spec, &lc, region.as_ref(), &mut body, &seq_opts)
                    .ok()
                    .map(|rec| (rec, body.output))
            })
            .collect();

        // Config tasks on the engine, each launching ParallelBlocks.
        let par_opts = ExecOptions {
            executor: Executor::ParallelBlocks,
            threads: Some(workers),
            ..ExecOptions::default()
        };
        let nested: Vec<Option<RunResult>> = engine().run(configs.len(), workers, |i| {
            let mut body = MixBody::new(n, seed);
            approx_parallel_for_opts(&spec, &lc, configs[i].as_ref(), &mut body, &par_opts)
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

/// Leukocyte declares one cell per block (`BlockLocal`, `BlockPrivate`
/// stores re-read by the block's own Jacobi sweeps). Perforation turns the
/// launch into a grid-stride one — over a shrunken range under ini/fini —
/// so blocks write into each other's cells, and blocks fanned out over
/// workers raced (37 to 1431 of 2700 launches differed at this size before
/// the launch driver pinned re-partitioned `BlockLocal` launches to the
/// calling thread). A stress test, not a proof: it needs release speed and
/// two cores to have shown the race at all.
#[test]
fn leukocyte_perfo_parallel_blocks_equal_sequential() {
    let bench = Leukocyte {
        n_cells: 4,
        grid: 16,
        iterations: 12,
        ..Leukocyte::default()
    };
    let spec = DeviceSpec::v100();
    let seq_opts = ExecOptions {
        executor: Executor::Sequential,
        ..ExecOptions::default()
    };
    let par_opts = ExecOptions {
        executor: Executor::ParallelBlocks,
        threads: Some(4),
        ..ExecOptions::default()
    };
    let qoi_bits = |qoi: &QoI| -> Vec<u64> {
        let QoI::Values(v) = qoi else {
            panic!("Leukocyte reports centroid coordinates")
        };
        v.iter().map(|x| x.to_bits()).collect()
    };
    for cfg in space::perfo_configs(&bench, &spec, Scale::Quick) {
        let seq = bench
            .run_opts(&spec, Some(&cfg.region), &cfg.lp, &seq_opts)
            .unwrap();
        for launch in 0..100 {
            let par = bench
                .run_opts(&spec, Some(&cfg.region), &cfg.lp, &par_opts)
                .unwrap();
            assert_eq!(
                qoi_bits(&par.qoi),
                qoi_bits(&seq.qoi),
                "{} launch {launch}: QoI",
                cfg.label
            );
            assert_eq!(
                par.kernel_seconds.to_bits(),
                seq.kernel_seconds.to_bits(),
                "{} launch {launch}: kernel seconds",
                cfg.label
            );
            assert_eq!(par.stats, seq.stats, "{} launch {launch}: stats", cfg.label);
        }
    }
}

// --- block tasks -----------------------------------------------------------

struct PriceBody {
    params: Vec<f64>,
    prices: Vec<f64>,
}

impl BlockTaskBody for PriceBody {
    fn in_dim(&self) -> usize {
        1
    }
    fn out_dim(&self) -> usize {
        1
    }
    fn inputs(&self, task: usize, buf: &mut [f64]) {
        buf[0] = self.params[task];
    }
    fn compute(&self, task: usize, out: &mut [f64]) {
        out[0] = (self.params[task] * 2.0 + 1.0).sqrt();
    }
    fn store(&mut self, task: usize, out: &[f64]) {
        self.prices[task] = out[0];
    }
    fn task_cost_per_warp(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().flops(500.0)
    }
}

proptest! {
    /// Executor equivalence for the cooperative block-task pipeline.
    #[test]
    fn block_tasks_bit_identical(
        n_tasks in 8usize..3_000,
        n_blocks in 2u32..80,
        modulus in 2usize..16,
        threads in 2usize..5,
    ) {
        let spec = DeviceSpec::v100();
        let regions = [
            None,
            Some(ApproxRegion::memo_out(2, 8, 0.05).level(HierarchyLevel::Block)),
            Some(ApproxRegion::memo_in(4, 1e-9).level(HierarchyLevel::Block)),
            Some(ApproxRegion::perfo(PerfoKind::Small { m: 3 })),
        ];
        for region in &regions {
            let mk = || PriceBody {
                params: (0..n_tasks).map(|i| (i % modulus) as f64).collect(),
                prices: vec![0.0; n_tasks],
            };
            let seq_opts = ExecOptions {
                executor: Executor::Sequential,
                ..ExecOptions::default()
            };
            let par_opts = ExecOptions {
                executor: Executor::ParallelBlocks,
                threads: Some(threads),
                ..ExecOptions::default()
            };
            let mut seq = mk();
            let r_seq =
                approx_block_tasks_opts(&spec, n_tasks, 128, n_blocks, region.as_ref(), &mut seq, &seq_opts)
                    .unwrap();
            let mut par = mk();
            let r_par =
                approx_block_tasks_opts(&spec, n_tasks, 128, n_blocks, region.as_ref(), &mut par, &par_opts)
                    .unwrap();
            prop_assert_eq!(r_seq, r_par);
            for (a, b) in seq.prices.iter().zip(&par.prices) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }
    }
}
