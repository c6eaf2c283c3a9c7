//! The launch stage: the one block loop under the warp walk
//! ([`walk::execute_traced`](crate::exec::walk::execute_traced)), the
//! cooperative block tasks, the recording walk of
//! [`RepeatedLaunch`](crate::exec::RepeatedLaunch) and the uniform helper
//! kernels of [`charge_uniform_kernel`].
//!
//! The paper has one launch construct — a `target teams distribute parallel
//! for` whose teams are independent — and the GPU runs those teams in
//! parallel. `gpu-sim` models that parallelism per block whatever order the
//! host walks the blocks in, so [`run`] walks them in ascending order on
//! the calling thread: walk a block, merge it into the kernel's record,
//! then check the cost ceiling. Callers differ only in how one block is
//! walked.

use crate::exec::walk::Geom;
use crate::exec::ExecOptions;
use crate::region::RegionError;
use gpu_sim::{BlockAccumulator, CostProfile, DeviceSpec, KernelExec, KernelRecord, LaunchConfig};

/// Frontier-aware early abort: with a ceiling set, fail once a lower bound
/// on the in-flight kernel's merged work provably exceeds it. The ceiling
/// is this launch's budget, what is left of its run's. Checked at block
/// boundaries, against the in-flight kernel's
/// [`KernelExec::lower_bound_seconds`], so the bit-identical accounting of
/// completed blocks is untouched; when no abort fires the run is
/// indistinguishable from an unbounded one. The bound only grows as blocks
/// merge, so a launch aborts exactly when the bound after its last block
/// exceeds the ceiling; a replayed launch checks that recorded bound once.
pub(crate) fn check_ceiling(
    lower_bound_seconds: f64,
    opts: &ExecOptions,
) -> Result<(), RegionError> {
    match opts.abort_above_seconds {
        Some(ceiling) if lower_bound_seconds > ceiling => Err(RegionError::CostCeiling(ceiling)),
        _ => Ok(()),
    }
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

/// Charge a uniform accurate kernel without running a body: every active
/// warp step of `launch` costs `cost_per_warp_step`, whatever its lane
/// count. Helper kernels whose outputs an app computes host-side (MiniFE's
/// dot products and vector updates) launch this way. The record is the one
/// an accurate walk of a body with that `accurate_cost` produces.
pub fn charge_uniform_kernel(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    cost_per_warp_step: &CostProfile,
) -> Result<KernelRecord, RegionError> {
    let mut exec = KernelExec::new(spec, launch, 0)?;
    let geom = Geom::new(spec, launch, 0);
    let cost = cost_per_warp_step.precompose(&spec.costs);
    run(&mut exec, &ExecOptions::default(), |b, acc| {
        for s in 0..geom.steps {
            for w in 0..geom.warps_per_block {
                let lanes = geom.warp_span(b, w, s).n;
                if lanes > 0 {
                    acc.charge_precomposed(w, &cost);
                    acc.note_step(lanes, 0, 0, false);
                }
            }
        }
    })?;
    Ok(exec.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{approx_parallel_for, RegionBody};
    use gpu_sim::AccessPattern;

    /// A body that computes and stores nothing and costs the same at any
    /// lane count: what a uniform helper kernel charges.
    struct Uniform(CostProfile);

    impl RegionBody for Uniform {
        fn out_dim(&self) -> usize {
            1
        }
        fn compute(&self, _i: usize, _out: &mut [f64]) {}
        fn store(&mut self, _i: usize, _out: &[f64]) {}
        fn accurate_cost(&self, _lanes: u32, _spec: &DeviceSpec) -> CostProfile {
            self.0
        }
    }

    #[test]
    fn uniform_kernel_equals_the_accurate_walk() {
        for spec in [DeviceSpec::v100(), DeviceSpec::mi250x()] {
            let cost = CostProfile::new()
                .flops(2.0)
                .global_read(spec.warp_size, 16, AccessPattern::Coalesced)
                .global_write(spec.warp_size, 8, AccessPattern::Coalesced);
            for launch in [
                LaunchConfig::one_item_per_thread(4096, 256),
                // Partial last warp.
                LaunchConfig::one_item_per_thread(1000, 256),
                // Several grid-stride steps.
                LaunchConfig::for_items_per_thread(1000, 128, 4),
                LaunchConfig::for_items_per_thread(5000, 256, 7),
                // Block sizes that are not a multiple of the warp size
                // (96 is one on V100, not on MI250X).
                LaunchConfig::one_item_per_thread(200, 100),
                LaunchConfig::for_items_per_thread(1000, 100, 3),
                LaunchConfig::for_items_per_thread(1000, 96, 3),
            ] {
                let walked = approx_parallel_for(&spec, &launch, None, &mut Uniform(cost)).unwrap();
                let charged = charge_uniform_kernel(&spec, &launch, &cost).unwrap();
                assert_eq!(charged, walked, "{} {launch:?}", spec.name);
            }
        }
    }
}
