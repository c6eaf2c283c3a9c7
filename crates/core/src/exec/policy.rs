//! The pluggable technique layer: one trait, one impl per approximation
//! technique.
//!
//! A [`TechniquePolicy`] owns everything technique-specific — activation
//! criteria, per-block approximation state, path execution, cost assembly —
//! while the walker in [`walk`](crate::exec::walk) owns everything
//! geometric. Policies operate *slice-wise*: the walker hands them one
//! [`WarpSlice`] per warp step (lane `k` executes item `item_base + k` as
//! thread `tid_base + k`) plus a vote segment to fill, instead of one
//! virtual call per lane. Adding a fourth technique to the runtime means
//! implementing this trait (~150 lines of pure decision logic) and adding
//! one dispatch arm in [`exec`](crate::exec); the grid walk, the hierarchy
//! voting machinery, the block loop, and the accounting are inherited
//! unchanged.
//!
//! Policies must be block-decomposable: `block_state` returns state private
//! to one block (per-thread TAF machines, per-warp iACT tables, …), created
//! fresh when the walk enters the block, so no decision of one block
//! depends on what another block did.

use crate::exec::body::{BodyAccess, RegionBody};
use crate::exec::charge::MixMemo;
use crate::exec::walk::{Geom, WarpSlice};
use crate::hierarchy::{HierarchyLevel, WarpDecision};
use gpu_sim::{BlockAccumulator, DecisionMargins, DeviceSpec};

/// One warp step, as handed to a policy: the slice of active lanes, their
/// activation votes, and the resolved hierarchy decision. Policies never
/// see the block index: all block-scoped state lives in their `State`,
/// which is what keeps blocks decomposable.
pub(crate) struct WarpCtx<'a> {
    pub spec: &'a DeviceSpec,
    /// The active lanes of this step.
    pub slice: WarpSlice,
    /// Activation votes of lanes `0..slice.n`, filled by `vote_slice`.
    pub votes: &'a [bool],
    /// The resolved group decision for this step.
    pub decision: WarpDecision,
}

/// One approximation technique, as seen by the grid walker.
pub(crate) trait TechniquePolicy {
    /// Per-block approximation state (pools, scratch). Created fresh for
    /// every block; must not alias state of any other block.
    type State;

    /// The `level(...)` clause this region runs at. `Block` makes the
    /// walker pre-tally votes across the whole block.
    fn level(&self) -> HierarchyLevel {
        HierarchyLevel::Thread
    }

    /// Fresh state for `block`.
    fn block_state(&self, geom: &Geom, block: u32, body: &dyn RegionBody) -> Self::State;

    /// Fill the activation votes of the slice's lanes into
    /// `votes[..slice.n]`. Called once per warp step, immediately before
    /// [`TechniquePolicy::warp_step`] for the same slice (for block-level
    /// regions: once per warp during the block-wide tally pass), so
    /// policies may cache per-lane scratch (e.g. iACT probes) indexed by
    /// `slice.warp * warp_size + k`. The default is the no-criterion vote
    /// (all accurate).
    fn vote_slice(
        &self,
        _st: &mut Self::State,
        _slice: &WarpSlice,
        votes: &mut [bool],
        _body: &dyn RegionBody,
    ) {
        votes.fill(false);
    }

    /// Execute one warp step: resolve each lane against `ctx.decision`,
    /// run the accurate or approximate path through `access`, and charge
    /// the step's cost (composed through `memo`) and statistics to `acc`.
    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut Self::State,
        ctx: &WarpCtx<'_>,
        access: &mut A,
        memo: &mut MixMemo,
        acc: &mut BlockAccumulator,
    );

    /// The decision margins of the region's threshold and prediction size
    /// over everything this block compared against them; the walker folds
    /// them into the block's accumulator when the block retires. Techniques
    /// that compare nothing keep the identity.
    fn margins(&self, _st: &Self::State) -> DecisionMargins {
        DecisionMargins::default()
    }
}

/// The non-approximated baseline: every lane takes the accurate path.
pub(crate) struct AccuratePolicy;

/// Scratch for one block of the accurate baseline.
pub(crate) struct AccurateState {
    out: Vec<f64>,
}

impl TechniquePolicy for AccuratePolicy {
    type State = AccurateState;

    fn block_state(&self, _geom: &Geom, _block: u32, body: &dyn RegionBody) -> AccurateState {
        AccurateState {
            out: vec![0.0; body.out_dim()],
        }
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut AccurateState,
        ctx: &WarpCtx<'_>,
        access: &mut A,
        memo: &mut MixMemo,
        acc: &mut BlockAccumulator,
    ) {
        let n = ctx.slice.n;
        for k in 0..n as usize {
            let item = ctx.slice.item_base + k;
            access.compute(item, &mut st.out);
            access.store(item, &st.out);
        }
        let cost = memo.get_or(n, 0, || access.body().accurate_cost(n, ctx.spec));
        acc.charge_precomposed(ctx.slice.warp, &cost);
        acc.note_step(n, 0, 0, false);
    }
}
