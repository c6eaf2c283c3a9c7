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
//! buffer, and its own accumulator, the [`launch`] driver can run
//! [`execute`]'s blocks in order on the caller (the reference executor) or
//! fan them out over the persistent [`engine`](crate::exec::engine) worker
//! pool ([`Executor::ParallelBlocks`](crate::exec::Executor::ParallelBlocks))
//! with bit-identical results. The per-lane walk this replaced is preserved
//! verbatim as the test oracle in [`reference`](crate::exec::reference).

use crate::exec::body::{
    BodyAccess, BufferedAccess, InlineAccess, RegionBody, SharedAccess, StoreVisibility,
};
use crate::exec::charge::{MixMemo, StoreBuffer};
use crate::exec::launch::{self, Lent, Phase};
use crate::exec::policy::{TechniquePolicy, WarpCtx};
use crate::exec::{ExecOptions, ResolvedKernel, ResolvedPolicy};
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
    acc.note_margins(&policy.margins(&st));
}

impl Drop for WalkArena {
    /// An arena retires where its task ends; its memo tallies drain into
    /// the retiring thread's obs counters there, so the per-lookup hot path
    /// stays a plain integer increment.
    fn drop(&mut self) {
        if hpac_obs::enabled() {
            let (h, m) = self.memo.hit_stats();
            hpac_obs::add(hpac_obs::CounterId::MixMemoHits, h);
            hpac_obs::add(hpac_obs::CounterId::MixMemoMisses, m);
        }
    }
}

impl ResolvedPolicy {
    /// [`walk_block`], monomorphized per technique.
    pub(crate) fn walk_block<A: BodyAccess>(
        &self,
        geom: &Geom,
        access: &mut A,
        block: u32,
        arena: &mut WalkArena,
        acc: &mut BlockAccumulator,
    ) {
        match self {
            ResolvedPolicy::Accurate(p) => walk_block(geom, p, access, block, arena, acc),
            ResolvedPolicy::Perfo(p) => walk_block(geom, p, access, block, arena, acc),
            ResolvedPolicy::Taf(p) => walk_block(geom, p, access, block, arena, acc),
            ResolvedPolicy::SerializedTaf(p) => walk_block(geom, p, access, block, arena, acc),
            ResolvedPolicy::Iact(p) => walk_block(geom, p, access, block, arena, acc),
        }
    }
}

/// Run every block of the resolved launch and fold the results into a
/// [`KernelRecord`], on the executor `opts` selects.
pub(crate) fn execute(
    spec: &DeviceSpec,
    kernel: &ResolvedKernel,
    body: &mut dyn RegionBody,
    opts: &ExecOptions,
) -> Result<KernelRecord, RegionError> {
    let exec = KernelExec::new(spec, &kernel.launch, kernel.shared)?;
    let geom = Geom::new(spec, &kernel.launch, kernel.item_lo);
    let _walk = hpac_obs::span(
        hpac_obs::SpanId::KernelWalk,
        geom.n_blocks as u64,
        (geom.n_blocks as usize * geom.warps_per_block as usize * geom.steps) as u64,
    );

    // How a fanned-out block reaches the body. Independent bodies buffer
    // each task's stores (replayed below in block order, so the global
    // store order matches the sequential walk); BlockPrivate bodies own
    // disjoint partitions of their shared state, so stores commit inline
    // from each block's worker and the block's own later reads (Jacobi
    // sweeps) observe them immediately; Global bodies never leave the
    // caller. On the caller every body commits inline through `&mut`.
    let visibility = body.store_visibility();
    let out_dim = body.out_dim();
    let mut phase = [Phase {
        exec,
        may_fan_out: kernel.partition_kept && visibility != StoreVisibility::Global,
    }];
    launch::run(
        opts,
        &mut phase,
        body,
        |_| (WalkArena::new(&geom), StoreBuffer::new(out_dim)),
        |_, body, (arena, stores), b, acc| {
            let policy = &kernel.policy;
            match body {
                Lent::Caller(body) => {
                    policy.walk_block(&geom, &mut InlineAccess { body }, b, arena, acc)
                }
                Lent::Task(body) if visibility == StoreVisibility::Independent => {
                    let mut access = BufferedAccess::new(body, stores);
                    policy.walk_block(&geom, &mut access, b, arena, acc)
                }
                Lent::Task(body) => {
                    policy.walk_block(&geom, &mut SharedAccess { body }, b, arena, acc)
                }
            }
        },
        |_, body, (_, stores), exec| {
            launch::check_ceiling(exec, opts)?;
            stores.replay(|item, out| body.store(item, out));
            Ok(())
        },
    )?;
    let [Phase { exec, .. }] = phase;
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
}
