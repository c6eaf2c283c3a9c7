//! TAF policies: the relaxed-locality per-thread design (Fig 4d) and the
//! serialized "semantically equivalent" per-warp ablation (Fig 4c).
//!
//! Per-thread TAF state machines are indexed by thread id; a block's
//! threads form a contiguous disjoint id range, so each block gets a
//! private pool of `block_size` machines and decisions match the former
//! launch-wide pool exactly. A slice's machines are likewise consecutive
//! (`tid_base - block_base + k`), so voting and stepping walk the pool
//! linearly.

use crate::exec::body::{BodyAccess, RegionBody};
use crate::exec::charge::MixMemo;
use crate::exec::policy::{TechniquePolicy, WarpCtx};
use crate::exec::walk::{Geom, WarpSlice};
use crate::hierarchy::{self, HierarchyLevel, WarpDecision};
use crate::lane;
use crate::params::TafParams;
use crate::taf::TafPool;
use gpu_sim::{BlockAccumulator, CostProfile, DecisionMargins};

pub(crate) struct TafPolicy {
    pub params: TafParams,
    pub level: HierarchyLevel,
}

pub(crate) struct TafState {
    /// One state machine per thread of this block, indexed by
    /// `tid - block_base`.
    pool: TafPool,
    block_base: usize,
    out: Vec<f64>,
}

impl TafState {
    /// Machine of the slice's lane 0; lane `k` is `local(slice) + k`.
    fn local(&self, slice: &WarpSlice) -> usize {
        slice.tid_base - self.block_base
    }
}

impl TechniquePolicy for TafPolicy {
    type State = TafState;

    fn level(&self) -> HierarchyLevel {
        self.level
    }

    fn block_state(&self, geom: &Geom, block: u32, body: &dyn RegionBody) -> TafState {
        let out_dim = body.out_dim();
        TafState {
            pool: TafPool::new(geom.launch.block_size as usize, out_dim, self.params),
            block_base: block as usize * geom.launch.block_size as usize,
            out: vec![0.0; out_dim],
        }
    }

    fn vote_slice(
        &self,
        st: &mut TafState,
        slice: &WarpSlice,
        votes: &mut [bool],
        _body: &dyn RegionBody,
    ) {
        st.pool.vote(st.local(slice), votes);
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut TafState,
        ctx: &WarpCtx<'_>,
        access: &mut A,
        memo: &mut MixMemo,
        acc: &mut BlockAccumulator,
    ) {
        let base = st.local(&ctx.slice);
        let mut n_acc = 0u32;
        let mut n_apx = 0u32;
        for k in 0..ctx.slice.n as usize {
            let s = base + k;
            let item = ctx.slice.item_base + k;
            let approx = match ctx.decision {
                WarpDecision::PerLane => ctx.votes[k],
                WarpDecision::GroupApprox => st.pool.can_approximate(s),
                WarpDecision::GroupAccurate => false,
            };
            if approx {
                lane::copy(&mut st.out, st.pool.last(s));
                access.store(item, &st.out);
                st.pool.note_approx(s);
                n_apx += 1;
            } else {
                access.compute(item, &mut st.out);
                access.store(item, &st.out);
                st.pool.observe(s, &st.out);
                n_acc += 1;
            }
        }

        let cost = memo.get_or(n_acc, n_apx, || {
            let body = access.body();
            let mut cost = st
                .pool
                .activation_cost()
                .add(&hierarchy::decision_cost(self.level));
            if n_acc > 0 {
                cost = cost.add(
                    &body
                        .accurate_cost(n_acc, ctx.spec)
                        .add(&st.pool.observe_cost()),
                );
            }
            if n_apx > 0 {
                cost = cost.add(
                    &st.pool
                        .predict_cost()
                        .add(&body.store_cost(n_apx, ctx.spec)),
                );
            }
            cost
        });
        acc.charge_precomposed(ctx.slice.warp, &cost);
        acc.note_step(n_acc, n_apx, 0, n_acc > 0 && n_apx > 0);
    }

    fn margins(&self, st: &TafState) -> DecisionMargins {
        st.pool.margins()
    }
}

/// Fig 4(c) ablation: the "semantically equivalent" GPU TAF. One state
/// machine per warp consumes the warp's items in loop order (spatial
/// locality preserved), and lanes execute one at a time while the rest of
/// the warp idles — the serialization the relaxed-locality design removes.
pub(crate) struct SerializedTafPolicy {
    pub params: TafParams,
}

pub(crate) struct SerializedTafState {
    /// One machine per warp of this block, indexed by the warp's index
    /// within the block.
    pool: TafPool,
    out: Vec<f64>,
    // The component profiles are fixed for the whole launch; caching them
    // here keeps the per-lane serialized cost accumulation (whose f64
    // addition order is semantically part of the ablation and cannot be
    // memoized by mix) from re-assembling them every lane.
    activation: CostProfile,
    predict: CostProfile,
    observe: CostProfile,
    accurate_one: CostProfile,
    store_one: CostProfile,
}

impl TechniquePolicy for SerializedTafPolicy {
    type State = SerializedTafState;

    // The serialized ablation makes no group decisions (each warp's state
    // machine is consulted lane by lane inside `warp_step`), so the default
    // all-accurate `vote_slice` stands.

    fn block_state(&self, geom: &Geom, _block: u32, body: &dyn RegionBody) -> SerializedTafState {
        let out_dim = body.out_dim();
        let pool = TafPool::new(geom.warps_per_block as usize, out_dim, self.params);
        SerializedTafState {
            activation: pool.activation_cost(),
            predict: pool.predict_cost(),
            observe: pool.observe_cost(),
            accurate_one: body.accurate_cost(1, &geom.spec),
            store_one: body.store_cost(1, &geom.spec),
            pool,
            out: vec![0.0; out_dim],
        }
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut SerializedTafState,
        ctx: &WarpCtx<'_>,
        access: &mut A,
        _memo: &mut MixMemo,
        acc: &mut BlockAccumulator,
    ) {
        let wid = ctx.slice.warp as usize;
        let mut n_acc = 0u32;
        let mut n_apx = 0u32;
        let mut cost = st.activation;
        for k in 0..ctx.slice.n as usize {
            let item = ctx.slice.item_base + k;
            if st.pool.wants_approx(wid) {
                lane::copy(&mut st.out, st.pool.last(wid));
                access.store(item, &st.out);
                st.pool.note_approx(wid);
                n_apx += 1;
                cost = cost.add(&st.predict).add(&st.store_one);
            } else {
                access.compute(item, &mut st.out);
                access.store(item, &st.out);
                st.pool.observe(wid, &st.out);
                n_acc += 1;
                // Serialized: each lane pays a full single-lane body.
                cost = cost.add(&st.accurate_one).add(&st.observe);
            }
        }
        acc.charge(ctx.slice.warp, &cost);
        acc.note_step(n_acc, n_apx, 0, n_acc > 0 && n_apx > 0);
    }

    fn margins(&self, st: &SerializedTafState) -> DecisionMargins {
        st.pool.margins()
    }
}
