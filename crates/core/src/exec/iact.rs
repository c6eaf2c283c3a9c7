//! iACT policy: input memoization with warp-shared tables and two-phase
//! (read/write) access.
//!
//! Tables belong to warps (`tables_per_warp` per warp), and a block's warps
//! are private to it, so each block gets a pool of
//! `warps_per_block × tables_per_warp` tables and behaves exactly like the
//! former launch-wide pool. Per-lane probe scratch is sized for the whole
//! block (`warps_per_block × warp_size`, indexed
//! `slice.warp * warp_size + k`) so the block-level tally pass can cache
//! every warp's probes at once and the step pass reuses them un-re-probed.

use crate::exec::body::{BodyAccess, RegionBody};
use crate::exec::charge::MixMemo;
use crate::exec::policy::{TechniquePolicy, WarpCtx};
use crate::exec::walk::{Geom, WarpSlice};
use crate::hierarchy::{self, HierarchyLevel, WarpDecision};
use crate::iact::IactPool;
use crate::lane;
use crate::params::IactParams;
use gpu_sim::{BlockAccumulator, DecisionMargins};

pub(crate) struct IactPolicy {
    pub params: IactParams,
    pub level: HierarchyLevel,
    pub tables_per_warp: u32,
    pub lanes_per_table: u32,
}

pub(crate) struct IactState {
    pool: IactPool,
    /// Lanes of scratch below (`warps_per_block × warp_size`).
    warp_size: usize,
    // Per-lane scratch, indexed `warp * warp_size + k`; refreshed by
    // `vote_slice` in the read phase and consumed by `warp_step`.
    in_cache: Vec<f64>,
    out_cache: Vec<f64>,
    probe_slot: Vec<Option<usize>>,
    probe_dist: Vec<f64>,
    out: Vec<f64>,
    // Per-step writer election scratch, one cell per table of the current
    // warp: the accurate lane with the largest probe distance seen so far
    // (`usize::MAX` = no accurate lane touched the table yet).
    writer_kg: Vec<usize>,
    writer_dist: Vec<f64>,
}

impl IactPolicy {
    /// Table of slice lane `k` of warp `warp`, relative to the block's pool.
    fn table(&self, warp: u32, k: usize) -> usize {
        (warp * self.tables_per_warp) as usize + k / self.lanes_per_table as usize
    }
}

impl TechniquePolicy for IactPolicy {
    type State = IactState;

    fn level(&self) -> HierarchyLevel {
        self.level
    }

    fn block_state(&self, geom: &Geom, _block: u32, body: &dyn RegionBody) -> IactState {
        let ws = geom.spec.warp_size as usize;
        let lanes = geom.warps_per_block as usize * ws;
        let in_dim = body.in_dim();
        let out_dim = body.out_dim();
        let n_tables = geom.warps_per_block as usize * self.tables_per_warp as usize;
        IactState {
            pool: IactPool::new(n_tables, in_dim, out_dim, self.params),
            warp_size: ws,
            in_cache: vec![0.0; lanes * in_dim],
            out_cache: vec![0.0; lanes * out_dim],
            probe_slot: vec![None; lanes],
            probe_dist: vec![f64::INFINITY; lanes],
            out: vec![0.0; out_dim],
            writer_kg: vec![usize::MAX; self.tables_per_warp as usize],
            writer_dist: vec![f64::NEG_INFINITY; self.tables_per_warp as usize],
        }
    }

    /// Read phase for the slice: gather each lane's region inputs, probe
    /// its table, cache the probe, vote on the hit.
    fn vote_slice(
        &self,
        st: &mut IactState,
        slice: &WarpSlice,
        votes: &mut [bool],
        body: &dyn RegionBody,
    ) {
        let in_dim = st.pool.in_dim();
        let base = slice.warp as usize * st.warp_size;
        for (k, v) in votes.iter_mut().enumerate() {
            let kg = base + k;
            let t = self.table(slice.warp, k);
            body.inputs(
                slice.item_base + k,
                &mut st.in_cache[kg * in_dim..(kg + 1) * in_dim],
            );
            let probe = st
                .pool
                .probe(t, &st.in_cache[kg * in_dim..(kg + 1) * in_dim]);
            st.probe_slot[kg] = probe.slot;
            st.probe_dist[kg] = probe.distance;
            *v = st.pool.admit(&probe);
        }
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut IactState,
        ctx: &WarpCtx<'_>,
        access: &mut A,
        memo: &mut MixMemo,
        acc: &mut BlockAccumulator,
    ) {
        let in_dim = st.pool.in_dim();
        let out_dim = st.out.len();
        let n = ctx.slice.n as usize;
        let base = ctx.slice.warp as usize * st.warp_size;

        // Writer election happens inline with the lane pass: per table, the
        // accurate lane with the largest probe distance (first such lane
        // wins ties, matching a k-ascending scan). One pass over the lanes
        // replaces the former `tables_per_warp × n` rescan.
        let tables_touched = (n as u32).div_ceil(self.lanes_per_table) as usize;
        st.writer_kg[..tables_touched].fill(usize::MAX);
        st.writer_dist[..tables_touched].fill(f64::NEG_INFINITY);

        let mut n_acc = 0u32;
        let mut n_apx = 0u32;
        for k in 0..n {
            let kg = base + k;
            let item = ctx.slice.item_base + k;
            let t = self.table(ctx.slice.warp, k);
            let approx = match ctx.decision {
                WarpDecision::PerLane => ctx.votes[k],
                // A forced lane returns its *nearest* entry even beyond the
                // threshold; with an empty table it must execute accurately.
                WarpDecision::GroupApprox => st.probe_slot[kg].is_some(),
                WarpDecision::GroupAccurate => false,
            };
            if approx {
                let slot = st.probe_slot[kg].expect("approx lane must have an entry");
                lane::copy(&mut st.out, st.pool.output(t, slot));
                st.pool.touch(t, slot);
                access.store(item, &st.out);
                n_apx += 1;
            } else {
                access.compute(item, &mut st.out);
                lane::copy(&mut st.out_cache[kg * out_dim..(kg + 1) * out_dim], &st.out);
                access.store(item, &st.out);
                n_acc += 1;
                let table_off = k / self.lanes_per_table as usize;
                if st.probe_dist[kg] > st.writer_dist[table_off] {
                    st.writer_dist[table_off] = st.probe_dist[kg];
                    st.writer_kg[table_off] = kg;
                }
            }
        }

        // Write phase: one writer per table — the accurate lane whose
        // inputs were farthest from any cached entry (most novel).
        if n_acc > 0 {
            for table_off in 0..tables_touched {
                let kg = st.writer_kg[table_off];
                if kg == usize::MAX {
                    continue;
                }
                let t = (ctx.slice.warp * self.tables_per_warp) as usize + table_off;
                st.pool.insert(
                    t,
                    &st.in_cache[kg * in_dim..(kg + 1) * in_dim],
                    &st.out_cache[kg * out_dim..(kg + 1) * out_dim],
                );
            }
        }

        // The slice is fully partitioned (n = n_acc + n_apx), so the mix
        // key also determines the input-gather width below.
        let cost = memo.get_or(n_acc, n_apx, || {
            let body = access.body();
            let mut cost = hierarchy::decision_cost(self.level)
                .add(&body.input_cost(n as u32, ctx.spec))
                .add(&st.pool.search_cost());
            if n_acc > 0 {
                cost = cost.add(
                    &body
                        .accurate_cost(n_acc, ctx.spec)
                        .add(&st.pool.write_phase_cost(self.lanes_per_table)),
                );
            }
            if n_apx > 0 {
                cost = cost.add(&st.pool.hit_cost().add(&body.store_cost(n_apx, ctx.spec)));
            }
            cost
        });
        acc.charge_precomposed(ctx.slice.warp, &cost);
        acc.note_step(n_acc, n_apx, 0, n_acc > 0 && n_apx > 0);
    }

    fn margins(&self, st: &IactState) -> DecisionMargins {
        st.pool.margins()
    }
}
