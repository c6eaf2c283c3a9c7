//! The one grid walker: block → grid-stride step → warp iteration, shared
//! by every technique policy.
//!
//! The walk is *slice-wise*: for both schedules the active lanes of a
//! `(block, warp, step)` form a lane prefix `[0, n)` whose items and thread
//! ids are consecutive (the lane index is the lowest-order term of both
//! formulas in [`LaunchConfig::item_for`]), so one [`WarpSlice`] of span
//! arithmetic replaces the former 32 `item_for` calls per warp step, and
//! policies receive whole slices instead of one virtual call per lane.
//! Votes are produced once per warp step into the [`WalkArena`]'s SoA
//! buffers — block-level decisions tally that single pass instead of
//! re-collecting and re-voting every warp (the old walk did both twice).
//!
//! Because a block touches only its own technique state, its own store
//! buffer, and its own accumulator, [`execute`] can run blocks sequentially
//! (the reference executor) or fan them out over the persistent
//! [`engine`](crate::exec::engine) worker pool
//! ([`Executor::ParallelBlocks`]) with bit-identical results. The
//! per-lane walk this replaced is preserved verbatim as the test oracle in
//! [`reference`](crate::exec::reference).

use crate::exec::body::{
    BodyAccess, BufferedAccess, InlineAccess, RegionBody, SharedAccess, StoreVisibility,
};
use crate::exec::charge::{MixMemo, StoreBuffer};
use crate::exec::engine::engine;
use crate::exec::policy::{TechniquePolicy, WarpCtx};
use crate::exec::{ExecOptions, Executor};
use crate::hierarchy::{self, HierarchyLevel};
use crate::region::RegionError;
use gpu_sim::{BlockAccumulator, DeviceSpec, KernelExec, KernelRecord, LaunchConfig, Schedule};

/// The active lanes of one warp at a given (block, step): a lane prefix
/// `[0, n)` executing consecutive items with consecutive thread ids. Lane
/// `k` of the slice executes item `item_base + k` as thread `tid_base + k`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WarpSlice {
    /// Warp index within the block.
    pub warp: u32,
    /// Item of lane 0 (already offset by `item_lo`). Meaningless if `n == 0`.
    pub item_base: usize,
    /// Global thread id of lane 0.
    pub tid_base: usize,
    /// Active lane count.
    pub n: u32,
}

/// The launch geometry the walker iterates, plus the item offset applied by
/// ini-perforation (the kernel iterates `[item_lo, item_lo + n_items)`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geom {
    pub spec: DeviceSpec,
    pub launch: LaunchConfig,
    pub warps_per_block: u32,
    pub n_blocks: u32,
    pub steps: usize,
    pub item_lo: usize,
}

impl Geom {
    pub fn new(spec: &DeviceSpec, launch: &LaunchConfig, item_lo: usize) -> Self {
        Geom {
            spec: *spec,
            launch: *launch,
            warps_per_block: launch.warps_per_block(spec),
            n_blocks: launch.n_blocks,
            steps: launch.steps(),
            item_lo,
        }
    }

    /// The slice of active lanes of `(block, warp, step)`, by direct span
    /// arithmetic. Agrees lane-for-lane with [`LaunchConfig::item_for`]:
    /// every activity condition there is of the form `lane < bound`, so the
    /// active set is the prefix below the tightest bound.
    pub fn warp_span(&self, block: u32, warp: u32, step: usize) -> WarpSlice {
        let ws = self.spec.warp_size as usize;
        let bs = self.launch.block_size as usize;
        let lanes_in_block = bs.saturating_sub(warp as usize * ws);
        let tid_base = block as usize * bs + warp as usize * ws;
        let (raw_base, n) = match self.launch.schedule {
            Schedule::GridStride => {
                let first = tid_base + step * self.launch.total_threads();
                let remaining = self.launch.n_items.saturating_sub(first);
                (first, ws.min(lanes_in_block).min(remaining))
            }
            Schedule::BlockLocal => {
                let ipb = self.launch.items_per_block();
                let local_base = warp as usize * ws + step * bs;
                let raw = block as usize * ipb + local_base;
                let rem_local = ipb.saturating_sub(local_base);
                let rem_items = self.launch.n_items.saturating_sub(raw);
                (raw, ws.min(lanes_in_block).min(rem_local).min(rem_items))
            }
        };
        WarpSlice {
            warp,
            item_base: self.item_lo + raw_base,
            tid_base,
            n: n as u32,
        }
    }
}

/// Reusable per-walk buffers: the SoA step state (one slice and one vote
/// segment per warp) and the cost-composition memo. One arena serves every
/// block an executor task walks — nothing here is allocated per block.
pub(crate) struct WalkArena {
    /// spans[w] = this step's slice of warp `w`.
    spans: Vec<WarpSlice>,
    /// votes[w*warp_size ..][..spans[w].n] = activation votes of warp `w`.
    votes: Vec<bool>,
    /// Memoized (lane-mix → precomposed cost) table for the policy in play.
    memo: MixMemo,
}

impl WalkArena {
    pub fn new(geom: &Geom) -> Self {
        let ws = geom.spec.warp_size as usize;
        let wpb = geom.warps_per_block as usize;
        WalkArena {
            spans: vec![WarpSlice::default(); wpb],
            votes: vec![false; wpb * ws],
            memo: MixMemo::new(geom.spec.warp_size, geom.spec.costs),
        }
    }
}

/// Walk one block through every (step, warp), charging into `acc` (which
/// the caller provides empty and may reuse across blocks via
/// [`BlockAccumulator::reset`]).
pub(crate) fn walk_block<P, A>(
    geom: &Geom,
    policy: &P,
    access: &mut A,
    block: u32,
    arena: &mut WalkArena,
    acc: &mut BlockAccumulator,
) where
    P: TechniquePolicy + ?Sized,
    A: BodyAccess,
{
    let ws = geom.spec.warp_size as usize;
    let wpb = geom.warps_per_block as usize;
    let mut st = policy.block_state(geom, block, access.body());
    let block_level = policy.level() == HierarchyLevel::Block;

    for s in 0..geom.steps {
        // Block-level decisions need the whole block's votes before any
        // warp steps (shared-memory atomic + barrier on hardware). Produce
        // them once into the arena and reuse them for the steps below —
        // warp-local vote state (per-thread TAF machines, per-warp iACT
        // tables) is only mutated by its own warp's step, which has not
        // happened yet this step, so the single pass votes identically to
        // re-voting each warp right before its step.
        let block_decision = if block_level {
            let mut yes = 0u32;
            let mut active = 0u32;
            for w in 0..wpb {
                let slice = geom.warp_span(block, w as u32, s);
                arena.spans[w] = slice;
                let n = slice.n as usize;
                if n > 0 {
                    let seg = &mut arena.votes[w * ws..w * ws + n];
                    policy.vote_slice(&mut st, &slice, seg, access.body());
                    active += slice.n;
                    yes += seg.iter().filter(|&&v| v).count() as u32;
                }
            }
            Some(hierarchy::group_decision(yes, active))
        } else {
            None
        };

        for w in 0..wpb {
            let slice = if block_level {
                arena.spans[w]
            } else {
                geom.warp_span(block, w as u32, s)
            };
            if slice.n == 0 {
                continue;
            }
            let seg_end = w * ws + slice.n as usize;
            if !block_level {
                policy.vote_slice(
                    &mut st,
                    &slice,
                    &mut arena.votes[w * ws..seg_end],
                    access.body(),
                );
            }
            let votes = &arena.votes[w * ws..seg_end];
            let ctx = WarpCtx {
                spec: &geom.spec,
                slice,
                votes,
                decision: block_decision
                    .unwrap_or_else(|| hierarchy::warp_decide(policy.level(), votes)),
            };
            policy.warp_step(&mut st, &ctx, access, &mut arena.memo, acc);
        }
    }
    acc.note_margin(&policy.margin(&st));
}

/// How many chunks `chunk_ranges` aims for per worker: oversplitting lets
/// the engine's atomic claim cursor rebalance unbalanced launches (blocks
/// whose work varies) instead of pinning one fixed range per worker.
const CHUNKS_PER_WORKER: usize = 4;

/// Split `n` blocks into contiguous index ranges for the engine — about
/// [`CHUNKS_PER_WORKER`] per worker, each at least one block.
pub(crate) fn chunk_ranges(n: u32, threads: usize) -> Vec<(u32, u32)> {
    let chunk = (n as usize)
        .div_ceil(threads.max(1) * CHUNKS_PER_WORKER)
        .max(1) as u32;
    (0..n)
        .step_by(chunk as usize)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect()
}

/// Modeled warp-steps below which [`Executor::Auto`] keeps the walk on the
/// calling thread: a handful of steps cannot amortize the handoff to the
/// worker pool (task dispatch, per-chunk arenas, store buffering).
pub(crate) const AUTO_FANOUT_MIN_WARP_STEPS: usize = 4096;

fn should_fan_out(geom: &Geom, opts: &ExecOptions, width: usize) -> bool {
    let wants = match opts.executor {
        Executor::Sequential => false,
        Executor::ParallelBlocks => true,
        Executor::Auto => {
            geom.n_blocks as usize * geom.warps_per_block as usize * geom.steps
                >= AUTO_FANOUT_MIN_WARP_STEPS
        }
    };
    let fan = wants && width > 1 && geom.n_blocks > 1 && !engine().is_nested();
    if hpac_obs::enabled() && matches!(opts.executor, Executor::Auto) {
        hpac_obs::inc(if fan {
            hpac_obs::CounterId::AutoFanOut
        } else {
            hpac_obs::CounterId::AutoInline
        });
    }
    fan
}

/// Drain an arena's memo tallies into the calling worker's obs counters.
/// Called where an arena retires (end of chunk task / sequential walk), so
/// the per-lookup hot path stays a plain integer increment.
pub(crate) fn flush_memo_stats(arena: &mut WalkArena) {
    if hpac_obs::enabled() {
        let (h, m) = arena.memo.hit_stats();
        hpac_obs::add(hpac_obs::CounterId::MixMemoHits, h);
        hpac_obs::add(hpac_obs::CounterId::MixMemoMisses, m);
        arena.memo.reset_stats();
    }
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

/// Run every block of the launch through `policy` and fold the results into
/// a [`KernelRecord`], on the executor `opts` selects.
pub(crate) fn execute<P: TechniquePolicy + ?Sized>(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    shared: usize,
    policy: &P,
    body: &mut dyn RegionBody,
    opts: &ExecOptions,
    item_lo: usize,
) -> Result<KernelRecord, RegionError> {
    let mut exec = KernelExec::new(spec, launch, shared)?;
    let geom = Geom::new(spec, launch, item_lo);

    // Launches submitted from inside an engine task (a config-level sweep
    // worker) run inline — the engine's depth guard would serialize them
    // anyway, and skipping the fan-out avoids pointless store buffering.
    let width = engine().width_for(opts);
    let parallel = should_fan_out(&geom, opts, width);
    let wpb = geom.warps_per_block as usize;
    let _walk = hpac_obs::span(
        hpac_obs::SpanId::KernelWalk,
        geom.n_blocks as u64,
        (geom.n_blocks as usize * wpb * geom.steps) as u64,
    );

    match (parallel, body.store_visibility()) {
        (true, StoreVisibility::Independent) => {
            // Fan blocks out in contiguous chunks; results come back in
            // chunk order, so the fold below visits blocks in ascending
            // index order no matter which worker finished first. Each chunk
            // task reuses one arena and one store buffer across its blocks
            // (per-block accumulators must stay separate: the timing model
            // wants per-block cycles).
            let ranges = chunk_ranges(geom.n_blocks, width);
            hpac_obs::add(hpac_obs::CounterId::WalkChunks, ranges.len() as u64);
            let shared_body: &dyn RegionBody = body;
            let per_chunk: Vec<(Vec<BlockAccumulator>, StoreBuffer)> =
                engine().run(ranges.len(), width, |k| {
                    let (lo, hi) = ranges[k];
                    let mut arena = WalkArena::new(&geom);
                    let mut stores = StoreBuffer::new(shared_body.out_dim());
                    let accs = (lo..hi)
                        .map(|b| {
                            let mut acc = BlockAccumulator::new(wpb, geom.spec.costs);
                            let mut access = BufferedAccess::new(shared_body, &mut stores);
                            walk_block(&geom, policy, &mut access, b, &mut arena, &mut acc);
                            acc
                        })
                        .collect();
                    flush_memo_stats(&mut arena);
                    (accs, stores)
                });
            let mut b = 0u32;
            for (accs, stores) in &per_chunk {
                for acc in accs {
                    exec.merge_block(b, acc);
                    b += 1;
                }
                check_ceiling(&exec, opts)?;
                // Chunks replay in chunk (= block) order, and each chunk's
                // buffer recorded its blocks' stores in walk order, so the
                // global store order matches the sequential walk.
                stores.replay(|item, out| body.store(item, out));
            }
        }
        (true, StoreVisibility::BlockPrivate) => {
            // Blocks own disjoint partitions of the body's shared state, so
            // stores commit inline from each block's worker and the block's
            // own later reads (Jacobi sweeps) observe them immediately.
            let ranges = chunk_ranges(geom.n_blocks, width);
            hpac_obs::add(hpac_obs::CounterId::WalkChunks, ranges.len() as u64);
            let shared_body: &dyn RegionBody = body;
            let per_chunk: Vec<Vec<BlockAccumulator>> = engine().run(ranges.len(), width, |k| {
                let (lo, hi) = ranges[k];
                let mut arena = WalkArena::new(&geom);
                let accs = (lo..hi)
                    .map(|b| {
                        let mut acc = BlockAccumulator::new(wpb, geom.spec.costs);
                        let mut access = SharedAccess { body: shared_body };
                        walk_block(&geom, policy, &mut access, b, &mut arena, &mut acc);
                        acc
                    })
                    .collect::<Vec<_>>();
                flush_memo_stats(&mut arena);
                accs
            });
            for (b, acc) in per_chunk.iter().flatten().enumerate() {
                exec.merge_block(b as u32, acc);
                check_ceiling(&exec, opts)?;
            }
        }
        // Sequential reference, or a Global-visibility body that must stay
        // on it: blocks walked one after another, stores committed inline,
        // one arena and one accumulator reused for the whole launch.
        _ => {
            let mut arena = WalkArena::new(&geom);
            let mut acc = BlockAccumulator::new(wpb, geom.spec.costs);
            for b in 0..geom.n_blocks {
                let mut access = InlineAccess { body: &mut *body };
                walk_block(&geom, policy, &mut access, b, &mut arena, &mut acc);
                exec.merge_block(b, &acc);
                acc.reset();
                check_ceiling(&exec, opts)?;
            }
            flush_memo_stats(&mut arena);
        }
    }
    Ok(exec.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_span_matches_item_for() {
        let spec = DeviceSpec::v100();
        let launches = [
            LaunchConfig::for_items_per_thread(1000, 64, 4),
            LaunchConfig::one_item_per_thread(4096, 128),
            LaunchConfig {
                n_items: 96,
                block_size: 48,
                n_blocks: 2,
                schedule: Schedule::GridStride,
            },
            LaunchConfig::block_local(1000, 96, 7),
            LaunchConfig::block_local(37, 64, 3),
        ];
        for launch in &launches {
            for item_lo in [0usize, 11] {
                let geom = Geom::new(&spec, launch, item_lo);
                for b in 0..geom.n_blocks {
                    for w in 0..geom.warps_per_block {
                        for s in 0..geom.steps {
                            let slice = geom.warp_span(b, w, s);
                            for lane in 0..spec.warp_size {
                                let expect = launch.item_for(&spec, b, w, lane, s);
                                let got = (lane < slice.n)
                                    .then(|| slice.item_base + lane as usize - item_lo);
                                assert_eq!(got, expect, "{launch:?} b={b} w={w} s={s} lane={lane}");
                                if lane < slice.n {
                                    assert_eq!(
                                        slice.tid_base + lane as usize,
                                        launch.tid(&spec, b, w, lane)
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

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
