//! The launch stage: the one driver that takes a sequence of dependent
//! kernels through their blocks.
//!
//! The paper has one launch construct — a `target teams distribute parallel
//! for` whose teams are independent — and this module is its only
//! rendering: [`run`] owns the block loop for the warp walk
//! ([`walk::execute`](crate::exec::walk::execute)), the cooperative block
//! tasks and the phased [`batch`](crate::exec::batch). Callers differ only
//! in what they pass: the per-task scratch, how one block is walked into a
//! [`BlockAccumulator`], and what is committed once a chunk of blocks has
//! been merged (store replay, the cost ceiling).
//!
//! [`fan_out`] is the only place that decides whether blocks leave the
//! calling thread. On the caller they are walked in order with one scratch
//! and one accumulator; fanned out they are chunked over
//! [`ExecEngine::run_phases`](crate::exec::engine::ExecEngine::run_phases)
//! — a single kernel is a batch of one phase — and merged in ascending
//! block order, which is what keeps every
//! [`KernelRecord`](gpu_sim::KernelRecord) bit-identical across executors.

use crate::exec::engine::engine;
use crate::exec::{ExecOptions, Executor};
use crate::region::RegionError;
use gpu_sim::{BlockAccumulator, KernelExec};

/// One kernel of a launch: its validated execution record and whether its
/// blocks may leave the calling thread at all.
pub(crate) struct Phase {
    pub exec: KernelExec,
    /// `false` pins the kernel to the in-order walk whatever the executor:
    /// a body whose `compute` reads other blocks' stores, or a `BlockLocal`
    /// launch that approximation re-partitioned (see
    /// [`ResolvedKernel::partition_kept`](crate::exec::ResolvedKernel)).
    pub may_fan_out: bool,
}

/// How the driver lends the body to a block walk: exclusively to the
/// caller's in-order walk, which may therefore commit stores inline, or
/// shared among fanned-out chunk tasks.
pub(crate) enum Lent<'a, B: ?Sized> {
    Caller(&'a mut B),
    Task(&'a B),
}

impl<B: ?Sized> Lent<'_, B> {
    pub fn shared(&self) -> &B {
        match self {
            Lent::Caller(body) => body,
            Lent::Task(body) => body,
        }
    }
}

/// The one fan-out decision. Launches submitted from inside an engine task
/// (a config-level sweep worker) stay on their thread — the engine's depth
/// guard would serialize them anyway, and skipping the fan-out avoids
/// pointless store buffering.
fn fan_out(opts: &ExecOptions, width: usize, phase: &Phase) -> bool {
    let wants = match opts.executor {
        Executor::Sequential => false,
        Executor::ParallelBlocks => true,
    };
    wants
        && phase.may_fan_out
        && width > 1
        && phase.exec.launch().n_blocks > 1
        && !engine().is_nested()
}

/// How many chunks `chunk_ranges` aims for per worker: oversplitting lets
/// the engine's atomic claim cursor rebalance unbalanced launches (blocks
/// whose work varies) instead of pinning one fixed range per worker.
const CHUNKS_PER_WORKER: usize = 4;

/// Split `n` blocks into contiguous index ranges for the engine — about
/// [`CHUNKS_PER_WORKER`] per worker, each at least one block.
fn chunk_ranges(n: u32, threads: usize) -> Vec<(u32, u32)> {
    let chunk = (n as usize)
        .div_ceil(threads.max(1) * CHUNKS_PER_WORKER)
        .max(1) as u32;
    (0..n)
        .step_by(chunk as usize)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect()
}

/// Frontier-aware early abort: with a ceiling set, fail once the modeled
/// time already spent — prior kernels finished on this thread plus a lower
/// bound on the in-flight kernel's merged work — provably exceeds it.
/// Checked at block boundaries so the bit-identical accounting of completed
/// blocks is untouched; when no abort fires the run is indistinguishable
/// from an unbounded one.
pub(crate) fn check_ceiling(exec: &KernelExec, opts: &ExecOptions) -> Result<(), RegionError> {
    if let Some(ceiling) = opts.abort_above_seconds {
        if gpu_sim::modeled_seconds() + exec.lower_bound_seconds() > ceiling {
            return Err(RegionError::CostCeiling(ceiling));
        }
    }
    Ok(())
}

/// Run `phases` in order — every block of a phase before any block of the
/// next — merging each block into its phase's `exec`.
///
/// `scratch(p)` builds the per-task state of phase `p`; `block(p, body,
/// scratch, b, acc)` walks block `b` into the empty `acc`; `commit(p, body,
/// scratch, exec)` runs after the blocks that scratch walked have been
/// merged into `exec`: after every block on the caller, after every chunk
/// once a fanned-out submission has joined. A launch of several kernels
/// whose later phases read earlier phases' stores must therefore commit
/// them inside `block` (what [`batch::prepare`](crate::exec::batch::prepare)
/// enforces), not in `commit`.
pub(crate) fn run<B, S, W, C>(
    opts: &ExecOptions,
    phases: &mut [Phase],
    body: &mut B,
    scratch: impl Fn(usize) -> S + Sync,
    block: W,
    mut commit: C,
) -> Result<(), RegionError>
where
    B: ?Sized + Sync,
    S: Send,
    W: Fn(usize, Lent<'_, B>, &mut S, u32, &mut BlockAccumulator) + Sync,
    C: FnMut(usize, &mut B, &mut S, &KernelExec) -> Result<(), RegionError>,
{
    let width = engine().width_for(opts);
    let new_acc = |exec: &KernelExec| {
        let (spec, launch) = (exec.spec(), exec.launch());
        BlockAccumulator::new(launch.warps_per_block(spec) as usize, spec.costs)
    };

    if !phases.iter().any(|phase| fan_out(opts, width, phase)) {
        for (p, Phase { exec, .. }) in phases.iter_mut().enumerate() {
            let mut s = scratch(p);
            let mut acc = new_acc(exec);
            for b in 0..exec.launch().n_blocks {
                block(p, Lent::Caller(&mut *body), &mut s, b, &mut acc);
                exec.merge_block(b, &acc);
                acc.reset();
                commit(p, &mut *body, &mut s, exec)?;
            }
        }
        return Ok(());
    }

    // A phase that stays put is one range: one task walks it whole.
    let mut fanned = 0;
    let chunks: Vec<Vec<(u32, u32)>> = phases
        .iter()
        .map(|phase| {
            let n_blocks = phase.exec.launch().n_blocks;
            if fan_out(opts, width, phase) {
                let ranges = chunk_ranges(n_blocks, width);
                fanned += ranges.len();
                ranges
            } else {
                vec![(0, n_blocks)]
            }
        })
        .collect();
    hpac_obs::add(hpac_obs::CounterId::WalkChunks, fanned as u64);
    let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
    let (shared, walking): (&B, &[Phase]) = (&*body, &*phases);
    // Each task reuses one scratch across its blocks; the accumulators stay
    // separate because the timing model wants per-block cycles.
    let walked = engine().run_phases(&sizes, width, |p, j| {
        let (lo, hi) = chunks[p][j];
        let mut s = scratch(p);
        let accs: Vec<BlockAccumulator> = (lo..hi)
            .map(|b| {
                let mut acc = new_acc(&walking[p].exec);
                block(p, Lent::Task(shared), &mut s, b, &mut acc);
                acc
            })
            .collect();
        (accs, s)
    });
    // Chunks come back in chunk (= ascending block) order no matter which
    // worker finished first, and each chunk's scratch recorded its blocks
    // in walk order, so merging and committing here follows the sequential
    // walk's order exactly.
    for (p, (Phase { exec, .. }, walked)) in phases.iter_mut().zip(walked).enumerate() {
        let mut b = 0u32;
        for (accs, mut s) in walked {
            for acc in &accs {
                exec.merge_block(b, acc);
                b += 1;
            }
            commit(p, &mut *body, &mut s, exec)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_and_oversplit() {
        for (n, threads) in [(1u32, 4), (7, 2), (64, 4), (237, 8), (3, 16)] {
            let ranges = chunk_ranges(n, threads);
            let mut next = 0u32;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, next);
                assert!(hi > lo);
                next = hi;
            }
            assert_eq!(next, n);
            assert!(ranges.len() <= (threads * CHUNKS_PER_WORKER).max(1));
        }
    }
}
