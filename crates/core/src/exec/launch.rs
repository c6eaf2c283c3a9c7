//! The launch stage: the one block loop under the warp walk
//! ([`walk::execute_traced`](crate::exec::walk::execute_traced)), the
//! cooperative block tasks and the recording walk of
//! [`RepeatedLaunch`](crate::exec::RepeatedLaunch).
//!
//! The paper has one launch construct — a `target teams distribute parallel
//! for` whose teams are independent — and the GPU runs those teams in
//! parallel. `gpu-sim` models that parallelism per block whatever order the
//! host walks the blocks in, so [`run`] walks them in ascending order on
//! the calling thread: walk a block, merge it into the kernel's record,
//! then check the cost ceiling. Callers differ only in how one block is
//! walked.

use crate::exec::ExecOptions;
use crate::region::RegionError;
use gpu_sim::{BlockAccumulator, KernelExec};

/// Frontier-aware early abort: with a ceiling set, fail once the modeled
/// time already spent — prior kernels finished on this thread plus a lower
/// bound on the in-flight kernel's merged work — provably exceeds it.
/// Checked at block boundaries, against the in-flight kernel's
/// [`KernelExec::lower_bound_seconds`], so the bit-identical accounting of
/// completed blocks is untouched; when no abort fires the run is
/// indistinguishable from an unbounded one. The bound only grows as blocks
/// merge, so a launch aborts exactly when the bound after its last block
/// exceeds the ceiling; a replayed launch checks that recorded bound once.
pub(crate) fn check_ceiling(
    lower_bound_seconds: f64,
    opts: &ExecOptions,
) -> Result<(), RegionError> {
    if let Some(ceiling) = opts.abort_above_seconds {
        if gpu_sim::modeled_seconds() + lower_bound_seconds > ceiling {
            return Err(RegionError::CostCeiling(ceiling));
        }
    }
    Ok(())
}

/// Walk every block of `exec` in ascending order: `block(b, acc)` walks
/// block `b` into the empty `acc`, which is merged into `exec` and reset
/// for the next block, and the cost ceiling of `opts` is checked after
/// each merge.
pub(crate) fn run(
    exec: &mut KernelExec,
    opts: &ExecOptions,
    mut block: impl FnMut(u32, &mut BlockAccumulator),
) -> Result<(), RegionError> {
    let (spec, launch) = (*exec.spec(), *exec.launch());
    let mut acc = BlockAccumulator::new(launch.warps_per_block(&spec) as usize, spec.costs);
    for b in 0..launch.n_blocks {
        block(b, &mut acc);
        exec.merge_block(b, &acc);
        acc.reset();
        check_ceiling(exec.lower_bound_seconds(), opts)?;
    }
    Ok(())
}
