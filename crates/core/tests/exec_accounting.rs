//! The three launch entry points — `approx_parallel_for_opts`,
//! `RepeatedLaunch::run` and `approx_block_tasks_opts` — go through one
//! driver and account alike: every launch counts once in `kernel_launches`
//! and walks its blocks on the calling thread, never on the engine.
//!
//! In a binary of its own, with one test: the obs gate and its counters are
//! process-global, and `exec.rs`'s tests launch kernels concurrently, which
//! would land in the same counters.

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, KernelRecord, LaunchConfig};
use hpac_core::exec::{
    approx_block_tasks_opts, approx_parallel_for_opts, BlockTaskBody, ExecOptions, RegionBody,
    RepeatedLaunch,
};
use hpac_core::region::ApproxRegion;
use hpac_obs::CounterId;

const N: usize = 1000;
const BLOCKS: u32 = 8;

/// Declared inputs repeat every four items, so iACT hits.
struct Items {
    out: Vec<f64>,
}

impl RegionBody for Items {
    fn in_dim(&self) -> usize {
        1
    }
    fn out_dim(&self) -> usize {
        1
    }
    fn inputs(&self, i: usize, buf: &mut [f64]) {
        buf[0] = (i % 4) as f64;
    }
    fn compute(&self, i: usize, out: &mut [f64]) {
        out[0] = ((i % 4) as f64).sqrt() + 1.0;
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.out[i] = out[0];
    }
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(4.0)
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }
}

struct Tasks {
    out: Vec<f64>,
}

impl BlockTaskBody for Tasks {
    fn out_dim(&self) -> usize {
        1
    }
    fn compute(&self, task: usize, out: &mut [f64]) {
        out[0] = (task as f64 + 2.0).ln();
    }
    fn store(&mut self, task: usize, out: &[f64]) {
        self.out[task] = out[0];
    }
    fn task_cost_per_warp(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().flops(100.0)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Run one launch and check how it accounted: one `kernel_launches`, no
/// engine batch, phase or task.
fn launch_once(f: impl FnOnce() -> KernelRecord) -> KernelRecord {
    let before = hpac_obs::snapshot();
    let record = f();
    let delta = hpac_obs::snapshot().delta_since(&before);
    assert_eq!(delta.counter(CounterId::KernelLaunches), 1);
    for engine in [
        CounterId::EngineBatches,
        CounterId::EnginePhases,
        CounterId::EngineTasks,
        CounterId::EngineNestedInline,
    ] {
        assert_eq!(delta.counter(engine), 0, "{engine:?}");
    }
    record
}

#[test]
fn entry_points_account_alike() {
    let spec = DeviceSpec::v100();
    let lc = LaunchConfig::for_items_per_thread(N, 64, 2);
    assert!(lc.n_blocks > 1);
    let region = ApproxRegion::memo_in(2, 0.5);
    let opts = ExecOptions::default();
    hpac_obs::set_enabled(true);

    let mut walked_body = Items { out: vec![0.0; N] };
    let walked = launch_once(|| {
        approx_parallel_for_opts(&spec, &lc, Some(&region), &mut walked_body, &opts).unwrap()
    });
    assert!(walked.stats.approx_lanes > 0, "iACT must hit");

    // The first run walks and records, the later ones replay.
    let mut handle = RepeatedLaunch::new();
    let mut body = Items { out: vec![0.0; N] };
    for run in 0..3 {
        let record = launch_once(|| {
            handle
                .run(&spec, &lc, Some(&region), &mut body, &opts)
                .unwrap()
        });
        assert_eq!(record, walked, "run {run}");
        assert_eq!(bits(&body.out), bits(&walked_body.out), "run {run}");
    }

    let mut tasks = Tasks { out: vec![0.0; N] };
    launch_once(|| approx_block_tasks_opts(&spec, N, 64, BLOCKS, None, &mut tasks, &opts).unwrap());
    assert!(tasks.out.iter().all(|&v| v > 0.0));
    hpac_obs::set_enabled(false);
}
