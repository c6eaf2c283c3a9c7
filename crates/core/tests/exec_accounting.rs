//! The three launch entry points — `approx_parallel_for_opts`,
//! `batch::run_batch`, `approx_block_tasks_opts` — go through one driver
//! and account alike.
//!
//! In a binary of its own, with one test: the obs gate and its counters are
//! process-global, and `exec.rs`'s tests fan blocks out concurrently (all
//! of them under `HPAC_THREADS=4`), which would land in the same counter.

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, KernelRecord, LaunchConfig};
use hpac_core::exec::batch::{prepare, run_batch};
use hpac_core::exec::{
    approx_block_tasks_opts, approx_parallel_for_opts, BlockField, BlockTaskBody, ExecOptions,
    Executor, RegionBody, StoreVisibility,
};
use hpac_obs::CounterId;

const N: usize = 1000;
const BLOCKS: u32 = 8;

/// One stage of a dependent pair over block-private fields: reads `src`
/// (the previous stage's output, if any), writes `dst`.
struct Stage<'m> {
    src: Option<&'m BlockField>,
    dst: BlockField,
}

impl<'m> Stage<'m> {
    fn new(src: Option<&'m BlockField>) -> Self {
        Stage {
            src,
            dst: BlockField::from_vec(vec![0.0; N]),
        }
    }
}

impl RegionBody for Stage<'_> {
    fn out_dim(&self) -> usize {
        1
    }
    fn compute(&self, i: usize, out: &mut [f64]) {
        out[0] = match self.src {
            None => (i as f64).sqrt() + 1.0,
            Some(src) => src.get(i) * 2.0 - 1.0,
        };
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.store_shared(i, out);
    }
    fn store_visibility(&self) -> StoreVisibility {
        StoreVisibility::BlockPrivate
    }
    fn store_shared(&self, i: usize, out: &[f64]) {
        self.dst.set(i, out[0]);
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

/// Run `f` and return what it added to `WalkChunks` beside its result.
fn walk_chunks<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = hpac_obs::snapshot();
    let r = f();
    let counted = hpac_obs::snapshot()
        .delta_since(&before)
        .counter(CounterId::WalkChunks);
    (counted, r)
}

#[test]
fn entry_points_account_alike() {
    let spec = DeviceSpec::v100();
    let lc = LaunchConfig::block_local(N, 64, BLOCKS);
    let sequential = ExecOptions {
        executor: Executor::Sequential,
        ..ExecOptions::default()
    };
    let parallel = ExecOptions {
        executor: Executor::ParallelBlocks,
        threads: Some(4),
        ..ExecOptions::default()
    };
    hpac_obs::set_enabled(true);

    // Two dependent kernels, submitted one by one and as one batch.
    let one_by_one = |opts: &ExecOptions| -> (Vec<KernelRecord>, Vec<u64>) {
        let mut one = Stage::new(None);
        let r1 = approx_parallel_for_opts(&spec, &lc, None, &mut one, opts).unwrap();
        let mut two = Stage::new(Some(&one.dst));
        let r2 = approx_parallel_for_opts(&spec, &lc, None, &mut two, opts).unwrap();
        (vec![r1, r2], bits(&two.dst.to_vec(0..N)))
    };
    let (solo_chunks, solo) = walk_chunks(|| one_by_one(&parallel));
    let (batch_chunks, batch) = walk_chunks(|| {
        let one = Stage::new(None);
        let two = Stage::new(Some(&one.dst));
        let kernels = [
            prepare(&spec, &lc, None, &one, &parallel).unwrap(),
            prepare(&spec, &lc, None, &two, &parallel).unwrap(),
        ];
        let records = run_batch(&spec, &kernels, &parallel).unwrap();
        (records, bits(&two.dst.to_vec(0..N)))
    });
    assert!(solo_chunks > 0, "the launches must have fanned out");
    assert_eq!(batch_chunks, solo_chunks);
    assert_eq!(batch, solo);
    let (inline_chunks, inline) = walk_chunks(|| one_by_one(&sequential));
    assert_eq!(inline_chunks, 0);
    assert_eq!(inline, solo);

    // One block-task launch over as many blocks: as many chunks as one of
    // the kernels above, and the sequential launch's record and outputs.
    let tasks = |opts: &ExecOptions| {
        let mut body = Tasks { out: vec![0.0; N] };
        let record = approx_block_tasks_opts(&spec, N, 64, BLOCKS, None, &mut body, opts).unwrap();
        (record, bits(&body.out))
    };
    let (task_chunks, fanned) = walk_chunks(|| tasks(&parallel));
    assert_eq!(2 * task_chunks, solo_chunks);
    let (inline_chunks, inline) = walk_chunks(|| tasks(&sequential));
    assert_eq!(inline_chunks, 0);
    assert_eq!(fanned, inline);
    hpac_obs::set_enabled(false);
}
