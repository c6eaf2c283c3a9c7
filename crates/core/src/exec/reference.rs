//! The retired per-lane walk, preserved verbatim as the bit-equivalence
//! oracle for the slice-wise walker.
//!
//! Everything in this module is the pre-vectorization runtime: one virtual
//! `lane_vote` call per lane, a fresh [`RefWarpLanes`] gather per warp step
//! (including the double collect+vote the block-level path used to do), the
//! per-step [`MixedStep`] cost assembly with no memoization, and a fresh
//! `BlockAccumulator` per block. [`reference_parallel_for`] drives it
//! sequentially through the same dispatch (`resolve`) as the production
//! entry point, so the property tests at the bottom can assert that the
//! slice-wise walk reproduces the old walk's outputs, costs, and
//! statistics bit for bit.

use crate::exec::body::{BodyAccess, InlineAccess, RegionBody};
use crate::exec::walk::Geom;
use crate::exec::{resolve, ResolvedPolicy};
use crate::hierarchy::{self, HierarchyLevel, WarpDecision};
use crate::iact::IactPool;
use crate::params::{IactParams, PerfoParams, TafParams};
use crate::perfo;
use crate::region::{ApproxRegion, RegionError};
use crate::taf::TafPool;
use gpu_sim::{
    BlockAccumulator, CostProfile, DecisionMargins, DeviceSpec, KernelExec, KernelRecord,
    LaunchConfig,
};

/// One active lane of a warp step (the old walk's unit of work).
#[derive(Debug, Clone, Copy)]
struct Lane {
    lane: u32,
    warp: u32,
    item: usize,
    tid: usize,
}

/// The old lane-buffer cursor: collects a warp's active lanes through one
/// `item_for` call per lane and their votes through one `lane_vote` call
/// per lane.
struct RefWarpLanes {
    lanes: Vec<Lane>,
    votes: Vec<bool>,
}

impl RefWarpLanes {
    fn new(warp_size: u32) -> Self {
        RefWarpLanes {
            lanes: Vec::with_capacity(warp_size as usize),
            votes: vec![false; warp_size as usize],
        }
    }

    fn collect(&mut self, geom: &Geom, block: u32, warp: u32, step: usize) {
        self.lanes.clear();
        for lane in 0..geom.spec.warp_size {
            if let Some(idx) = geom.launch.item_for(&geom.spec, block, warp, lane, step) {
                self.lanes.push(Lane {
                    lane,
                    warp,
                    item: geom.item_lo + idx,
                    tid: geom.launch.tid(&geom.spec, block, warp, lane),
                });
            }
        }
    }

    fn fill_votes<P: RefPolicy + ?Sized>(
        &mut self,
        policy: &P,
        st: &mut P::State,
        body: &dyn RegionBody,
    ) {
        let (lanes, votes) = (&self.lanes, &mut self.votes);
        for (k, l) in lanes.iter().enumerate() {
            votes[k] = policy.lane_vote(st, k, l, body);
        }
    }

    fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    fn votes(&self) -> &[bool] {
        &self.votes[..self.lanes.len()]
    }
}

struct RefWarpCtx<'a> {
    spec: &'a DeviceSpec,
    warp: u32,
    lanes: &'a [Lane],
    votes: &'a [bool],
    decision: WarpDecision,
}

/// The old per-lane policy trait: one `lane_vote` virtual call per lane.
trait RefPolicy {
    type State;

    fn level(&self) -> HierarchyLevel {
        HierarchyLevel::Thread
    }

    fn block_state(&self, geom: &Geom, block: u32, body: &dyn RegionBody) -> Self::State;

    fn lane_vote(&self, st: &mut Self::State, k: usize, lane: &Lane, body: &dyn RegionBody)
        -> bool;

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut Self::State,
        ctx: &RefWarpCtx<'_>,
        access: &mut A,
        acc: &mut BlockAccumulator,
    );

    /// Not part of the old walk: the threshold's and the prediction size's
    /// decision margins, folded like the production walk folds them so
    /// whole-`KernelStats` equality keeps comparing every field.
    fn margins(&self, _st: &Self::State) -> DecisionMargins {
        DecisionMargins::default()
    }
}

/// The old unmemoized per-step cost assembly.
struct MixedStep {
    base: CostProfile,
    accurate: CostProfile,
    approx: CostProfile,
}

impl MixedStep {
    fn commit(self, acc: &mut BlockAccumulator, warp: u32, n_acc: u32, n_apx: u32) {
        let mut cost = self.base;
        if n_acc > 0 {
            cost = cost.add(&self.accurate);
        }
        if n_apx > 0 {
            cost = cost.add(&self.approx);
        }
        acc.charge(warp, &cost);
        acc.note_step(n_acc, n_apx, 0, n_acc > 0 && n_apx > 0);
    }
}

/// The old block walk, double block-level vote pass and all.
fn ref_walk_block<P, A>(geom: &Geom, policy: &P, access: &mut A, block: u32) -> BlockAccumulator
where
    P: RefPolicy + ?Sized,
    A: BodyAccess,
{
    let mut acc = BlockAccumulator::new(geom.warps_per_block as usize, geom.spec.costs);
    let mut st = policy.block_state(geom, block, access.body());
    let mut cur = RefWarpLanes::new(geom.spec.warp_size);

    for s in 0..geom.steps {
        let block_decision = if policy.level() == HierarchyLevel::Block {
            let mut yes = 0u32;
            let mut active = 0u32;
            for w in 0..geom.warps_per_block {
                cur.collect(geom, block, w, s);
                cur.fill_votes(policy, &mut st, access.body());
                active += cur.lanes().len() as u32;
                yes += cur.votes().iter().filter(|&&v| v).count() as u32;
            }
            Some(hierarchy::group_decision(yes, active))
        } else {
            None
        };

        for w in 0..geom.warps_per_block {
            cur.collect(geom, block, w, s);
            if cur.lanes().is_empty() {
                continue;
            }
            cur.fill_votes(policy, &mut st, access.body());
            let ctx = RefWarpCtx {
                spec: &geom.spec,
                warp: w,
                lanes: cur.lanes(),
                votes: cur.votes(),
                decision: block_decision
                    .unwrap_or_else(|| hierarchy::warp_decide(policy.level(), cur.votes())),
            };
            policy.warp_step(&mut st, &ctx, access, &mut acc);
        }
    }
    acc.note_margins(&policy.margins(&st));
    acc
}

struct RefAccurate;

struct RefAccurateState {
    out: Vec<f64>,
}

impl RefPolicy for RefAccurate {
    type State = RefAccurateState;

    fn block_state(&self, _geom: &Geom, _block: u32, body: &dyn RegionBody) -> RefAccurateState {
        RefAccurateState {
            out: vec![0.0; body.out_dim()],
        }
    }

    fn lane_vote(
        &self,
        _st: &mut RefAccurateState,
        _k: usize,
        _l: &Lane,
        _b: &dyn RegionBody,
    ) -> bool {
        false
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut RefAccurateState,
        ctx: &RefWarpCtx<'_>,
        access: &mut A,
        acc: &mut BlockAccumulator,
    ) {
        for l in ctx.lanes {
            access.compute(l.item, &mut st.out);
            access.store(l.item, &st.out);
        }
        let cost = access
            .body()
            .accurate_cost(ctx.lanes.len() as u32, ctx.spec);
        acc.charge(ctx.warp, &cost);
        acc.note_step(ctx.lanes.len() as u32, 0, 0, false);
    }
}

struct RefPerfo {
    params: PerfoParams,
}

impl RefPolicy for RefPerfo {
    type State = RefAccurateState;

    fn block_state(&self, _geom: &Geom, _block: u32, body: &dyn RegionBody) -> RefAccurateState {
        RefAccurateState {
            out: vec![0.0; body.out_dim()],
        }
    }

    fn lane_vote(
        &self,
        _st: &mut RefAccurateState,
        _k: usize,
        _l: &Lane,
        _b: &dyn RegionBody,
    ) -> bool {
        false
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut RefAccurateState,
        ctx: &RefWarpCtx<'_>,
        access: &mut A,
        acc: &mut BlockAccumulator,
    ) {
        let mut n_exec = 0u32;
        let mut n_skip = 0u32;
        for l in ctx.lanes {
            if perfo::should_skip(&self.params, l.item, l.item / ctx.spec.warp_size as usize) {
                n_skip += 1;
            } else {
                access.compute(l.item, &mut st.out);
                access.store(l.item, &st.out);
                n_exec += 1;
            }
        }
        let mut cost = CostProfile::new().flops(1.0);
        if n_exec > 0 {
            let effective = if self.params.herded {
                n_exec
            } else {
                ctx.lanes.len() as u32
            };
            cost = cost.add(&access.body().accurate_cost(effective, ctx.spec));
        }
        acc.charge(ctx.warp, &cost);
        acc.note_step(n_exec, 0, n_skip, n_exec > 0 && n_skip > 0);
    }
}

struct RefTaf {
    params: TafParams,
    level: HierarchyLevel,
}

struct RefTafState {
    pool: TafPool,
    block_base: usize,
    out: Vec<f64>,
}

impl RefTafState {
    fn local(&self, lane: &Lane) -> usize {
        lane.tid - self.block_base
    }
}

impl RefPolicy for RefTaf {
    type State = RefTafState;

    fn level(&self) -> HierarchyLevel {
        self.level
    }

    fn block_state(&self, geom: &Geom, block: u32, body: &dyn RegionBody) -> RefTafState {
        let out_dim = body.out_dim();
        RefTafState {
            pool: TafPool::new(geom.launch.block_size as usize, out_dim, self.params),
            block_base: block as usize * geom.launch.block_size as usize,
            out: vec![0.0; out_dim],
        }
    }

    fn lane_vote(&self, st: &mut RefTafState, _k: usize, l: &Lane, _b: &dyn RegionBody) -> bool {
        st.pool.wants_approx(st.local(l))
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut RefTafState,
        ctx: &RefWarpCtx<'_>,
        access: &mut A,
        acc: &mut BlockAccumulator,
    ) {
        let mut n_acc = 0u32;
        let mut n_apx = 0u32;
        for (k, l) in ctx.lanes.iter().enumerate() {
            let s = st.local(l);
            let approx = match ctx.decision {
                WarpDecision::PerLane => ctx.votes[k],
                WarpDecision::GroupApprox => st.pool.can_approximate(s),
                WarpDecision::GroupAccurate => false,
            };
            if approx {
                st.out.copy_from_slice(st.pool.last(s));
                access.store(l.item, &st.out);
                st.pool.note_approx(s);
                n_apx += 1;
            } else {
                access.compute(l.item, &mut st.out);
                access.store(l.item, &st.out);
                st.pool.observe(s, &st.out);
                n_acc += 1;
            }
        }

        let body = access.body();
        MixedStep {
            base: st
                .pool
                .activation_cost()
                .add(&hierarchy::decision_cost(self.level)),
            accurate: body
                .accurate_cost(n_acc.max(1), ctx.spec)
                .add(&st.pool.observe_cost()),
            approx: st
                .pool
                .predict_cost()
                .add(&body.store_cost(n_apx.max(1), ctx.spec)),
        }
        .commit(acc, ctx.warp, n_acc, n_apx);
    }

    fn margins(&self, st: &RefTafState) -> DecisionMargins {
        st.pool.margins()
    }
}

struct RefSerializedTaf {
    params: TafParams,
}

struct RefSerializedTafState {
    pool: TafPool,
    out: Vec<f64>,
}

impl RefPolicy for RefSerializedTaf {
    type State = RefSerializedTafState;

    fn block_state(
        &self,
        geom: &Geom,
        _block: u32,
        body: &dyn RegionBody,
    ) -> RefSerializedTafState {
        let out_dim = body.out_dim();
        RefSerializedTafState {
            pool: TafPool::new(geom.warps_per_block as usize, out_dim, self.params),
            out: vec![0.0; out_dim],
        }
    }

    fn lane_vote(
        &self,
        _st: &mut RefSerializedTafState,
        _k: usize,
        _l: &Lane,
        _b: &dyn RegionBody,
    ) -> bool {
        false
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut RefSerializedTafState,
        ctx: &RefWarpCtx<'_>,
        access: &mut A,
        acc: &mut BlockAccumulator,
    ) {
        let wid = ctx.warp as usize;
        let mut n_acc = 0u32;
        let mut n_apx = 0u32;
        let mut cost = st.pool.activation_cost();
        for l in ctx.lanes {
            if st.pool.wants_approx(wid) {
                st.out.copy_from_slice(st.pool.last(wid));
                access.store(l.item, &st.out);
                st.pool.note_approx(wid);
                n_apx += 1;
                cost = cost
                    .add(&st.pool.predict_cost())
                    .add(&access.body().store_cost(1, ctx.spec));
            } else {
                access.compute(l.item, &mut st.out);
                access.store(l.item, &st.out);
                st.pool.observe(wid, &st.out);
                n_acc += 1;
                cost = cost
                    .add(&access.body().accurate_cost(1, ctx.spec))
                    .add(&st.pool.observe_cost());
            }
        }
        acc.charge(ctx.warp, &cost);
        acc.note_step(n_acc, n_apx, 0, n_acc > 0 && n_apx > 0);
    }

    fn margins(&self, st: &RefSerializedTafState) -> DecisionMargins {
        st.pool.margins()
    }
}

struct RefIact {
    params: IactParams,
    level: HierarchyLevel,
    tables_per_warp: u32,
    lanes_per_table: u32,
}

struct RefIactState {
    pool: IactPool,
    in_cache: Vec<f64>,
    out_cache: Vec<f64>,
    probe_slot: Vec<Option<usize>>,
    probe_dist: Vec<f64>,
    acc_mask: Vec<bool>,
    out: Vec<f64>,
}

impl RefIact {
    fn table(&self, warp_in_block: u32, lane: &Lane) -> usize {
        (warp_in_block * self.tables_per_warp + lane.lane / self.lanes_per_table) as usize
    }
}

impl RefPolicy for RefIact {
    type State = RefIactState;

    fn level(&self) -> HierarchyLevel {
        self.level
    }

    fn block_state(&self, geom: &Geom, _block: u32, body: &dyn RegionBody) -> RefIactState {
        let ws = geom.spec.warp_size as usize;
        let in_dim = body.in_dim();
        let out_dim = body.out_dim();
        let n_tables = geom.warps_per_block as usize * self.tables_per_warp as usize;
        RefIactState {
            pool: IactPool::new(n_tables, in_dim, out_dim, self.params),
            in_cache: vec![0.0; ws * in_dim],
            out_cache: vec![0.0; ws * out_dim],
            probe_slot: vec![None; ws],
            probe_dist: vec![f64::INFINITY; ws],
            acc_mask: vec![false; ws],
            out: vec![0.0; out_dim],
        }
    }

    fn lane_vote(&self, st: &mut RefIactState, k: usize, l: &Lane, body: &dyn RegionBody) -> bool {
        let in_dim = st.pool.in_dim();
        let t = self.table(l.warp, l);
        body.inputs(l.item, &mut st.in_cache[k * in_dim..(k + 1) * in_dim]);
        let probe = st.pool.probe(t, &st.in_cache[k * in_dim..(k + 1) * in_dim]);
        st.probe_slot[k] = probe.slot;
        st.probe_dist[k] = probe.distance;
        st.pool.admit(&probe)
    }

    fn warp_step<A: BodyAccess>(
        &self,
        st: &mut RefIactState,
        ctx: &RefWarpCtx<'_>,
        access: &mut A,
        acc: &mut BlockAccumulator,
    ) {
        let in_dim = st.pool.in_dim();
        let out_dim = st.out.len();

        let mut n_acc = 0u32;
        let mut n_apx = 0u32;
        for (k, l) in ctx.lanes.iter().enumerate() {
            let t = self.table(ctx.warp, l);
            let approx = match ctx.decision {
                WarpDecision::PerLane => ctx.votes[k],
                WarpDecision::GroupApprox => st.probe_slot[k].is_some(),
                WarpDecision::GroupAccurate => false,
            };
            st.acc_mask[k] = !approx;
            if approx {
                let slot = st.probe_slot[k].expect("approx lane must have an entry");
                st.out.copy_from_slice(st.pool.output(t, slot));
                st.pool.touch(t, slot);
                access.store(l.item, &st.out);
                n_apx += 1;
            } else {
                access.compute(l.item, &mut st.out);
                st.out_cache[k * out_dim..(k + 1) * out_dim].copy_from_slice(&st.out);
                access.store(l.item, &st.out);
                n_acc += 1;
            }
        }

        if n_acc > 0 {
            for table_off in 0..self.tables_per_warp {
                let t = (ctx.warp * self.tables_per_warp + table_off) as usize;
                let mut writer: Option<usize> = None;
                let mut best = f64::NEG_INFINITY;
                for (k, l) in ctx.lanes.iter().enumerate() {
                    if !st.acc_mask[k] || (l.lane / self.lanes_per_table) != table_off {
                        continue;
                    }
                    let d = st.probe_dist[k];
                    if d > best {
                        best = d;
                        writer = Some(k);
                    }
                }
                if let Some(k) = writer {
                    st.pool.insert(
                        t,
                        &st.in_cache[k * in_dim..(k + 1) * in_dim],
                        &st.out_cache[k * out_dim..(k + 1) * out_dim],
                    );
                }
            }
        }

        let body = access.body();
        MixedStep {
            base: hierarchy::decision_cost(self.level)
                .add(&body.input_cost(ctx.lanes.len() as u32, ctx.spec))
                .add(&st.pool.search_cost()),
            accurate: body
                .accurate_cost(n_acc.max(1), ctx.spec)
                .add(&st.pool.write_phase_cost(self.lanes_per_table)),
            approx: st
                .pool
                .hit_cost()
                .add(&body.store_cost(n_apx.max(1), ctx.spec)),
        }
        .commit(acc, ctx.warp, n_acc, n_apx);
    }

    fn margins(&self, st: &RefIactState) -> DecisionMargins {
        st.pool.margins()
    }
}

/// The oracle entry point: the old walk, sequential, behind the production
/// dispatch. Bit-comparable against `approx_parallel_for_opts` on any
/// executor.
pub(crate) fn reference_parallel_for(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    region: Option<&ApproxRegion>,
    body: &mut dyn RegionBody,
    serialized_taf: bool,
) -> Result<KernelRecord, RegionError> {
    let rk = resolve(spec, launch, region, body, serialized_taf)?;
    let mut exec = KernelExec::new(spec, &rk.launch, rk.shared)?;
    let geom = Geom::new(spec, &rk.launch, rk.item_lo);
    match &rk.policy {
        ResolvedPolicy::Accurate(_) => ref_execute(&geom, &RefAccurate, body, &mut exec),
        ResolvedPolicy::Perfo(p) => {
            ref_execute(&geom, &RefPerfo { params: p.params }, body, &mut exec)
        }
        ResolvedPolicy::Taf(p) => ref_execute(
            &geom,
            &RefTaf {
                params: p.params,
                level: p.level,
            },
            body,
            &mut exec,
        ),
        ResolvedPolicy::SerializedTaf(p) => ref_execute(
            &geom,
            &RefSerializedTaf { params: p.params },
            body,
            &mut exec,
        ),
        ResolvedPolicy::Iact(p) => ref_execute(
            &geom,
            &RefIact {
                params: p.params,
                level: p.level,
                tables_per_warp: p.tables_per_warp,
                lanes_per_table: p.lanes_per_table,
            },
            body,
            &mut exec,
        ),
    }
    Ok(exec.finish())
}

fn ref_execute<P: RefPolicy>(
    geom: &Geom,
    policy: &P,
    body: &mut dyn RegionBody,
    exec: &mut KernelExec,
) {
    for b in 0..geom.n_blocks {
        let mut access = InlineAccess { body: &mut *body };
        let acc = ref_walk_block(geom, policy, &mut access, b);
        exec.merge_block(b, &acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{approx_parallel_for_opts, ExecOptions};
    use crate::params::PerfoKind;
    use gpu_sim::{AccessPattern, Schedule};
    use proptest::prelude::*;

    /// A deterministic body whose input stream mixes plateaus (so TAF and
    /// iACT genuinely approximate) with varying stretches (so decisions
    /// differ across lanes and hierarchy levels matter). `compute` and
    /// `inputs` are pure in the item — never functions of in-launch stores
    /// — which is the contract every shipped app body satisfies.
    struct OracleBody {
        input: Vec<f64>,
        output: Vec<f64>,
    }

    impl OracleBody {
        fn new(n: usize, seed: u64) -> Self {
            let input = (0..n)
                .map(|i| {
                    let plateau = (i >> 5) as f64;
                    let wiggle = (((i as u64).wrapping_mul(seed | 1) >> 7) % 13) as f64;
                    plateau + if i % 3 == 0 { 0.0 } else { wiggle * 0.25 }
                })
                .collect();
            OracleBody {
                input,
                output: vec![-1.0; n],
            }
        }
    }

    impl RegionBody for OracleBody {
        fn in_dim(&self) -> usize {
            1
        }
        fn out_dim(&self) -> usize {
            2
        }
        fn inputs(&self, i: usize, buf: &mut [f64]) {
            buf[0] = self.input[i];
        }
        fn compute(&self, i: usize, out: &mut [f64]) {
            let x = self.input[i] + 1.0;
            out[0] = x.sqrt();
            out[1] = x.ln();
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.output[i] = out[0] + 0.5 * out[1];
        }
        fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
            CostProfile::new()
                .flops(8.0)
                .sfu(2.0)
                .global_read(lanes, 8, AccessPattern::Coalesced)
                .global_write(lanes, 16, AccessPattern::Coalesced)
        }
    }

    fn level_of(idx: usize) -> HierarchyLevel {
        match idx % 3 {
            0 => HierarchyLevel::Thread,
            1 => HierarchyLevel::Warp,
            _ => HierarchyLevel::Block,
        }
    }

    /// Every technique × hierarchy-level shape the runtime accepts, plus
    /// the serialized-TAF ablation flagged separately.
    fn regions(
        level_idx: usize,
        tsize: usize,
        threshold: f64,
    ) -> Vec<(Option<ApproxRegion>, bool)> {
        let level = level_of(level_idx);
        vec![
            (None, false),
            (
                Some(ApproxRegion::memo_out(2, 16, threshold).level(level)),
                false,
            ),
            (
                Some(ApproxRegion::memo_out(2, 16, threshold).level(level)),
                true,
            ),
            (
                Some(
                    ApproxRegion::memo_in(tsize, threshold)
                        .tables_per_warp(8)
                        .level(level),
                ),
                false,
            ),
            (Some(ApproxRegion::perfo(PerfoKind::Small { m: 4 })), false),
            (
                Some(ApproxRegion::perfo(PerfoKind::Large { m: 8 }).herded(false)),
                false,
            ),
            (
                Some(ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.25 })),
                false,
            ),
        ]
    }

    fn launches(n: usize, bs_idx: usize, blocks: u32) -> Vec<LaunchConfig> {
        let block_size = [32u32, 48, 64, 96, 128][bs_idx % 5];
        vec![
            LaunchConfig {
                n_items: n,
                block_size,
                n_blocks: blocks,
                schedule: Schedule::GridStride,
            },
            LaunchConfig {
                n_items: n,
                block_size,
                n_blocks: blocks,
                schedule: Schedule::BlockLocal,
            },
        ]
    }

    /// The slice-wise walk must reproduce the old per-lane walk bit for
    /// bit: same `KernelRecord` (costs, timing, statistics), same committed
    /// output bits.
    fn assert_matches_oracle(
        lc: &LaunchConfig,
        region: Option<&ApproxRegion>,
        serialized: bool,
        n: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let spec = DeviceSpec::v100();
        let opts = ExecOptions {
            serialized_taf: serialized,
            ..ExecOptions::default()
        };
        let mut oracle = OracleBody::new(n, seed);
        let expect = match reference_parallel_for(&spec, lc, region, &mut oracle, serialized) {
            Ok(r) => r,
            // Launches the dispatch rejects must be rejected identically.
            Err(_) => {
                let mut body = OracleBody::new(n, seed);
                prop_assert!(
                    approx_parallel_for_opts(&spec, lc, region, &mut body, &opts).is_err(),
                    "walk accepted a launch the oracle dispatch rejects"
                );
                return Ok(());
            }
        };

        let mut body = OracleBody::new(n, seed);
        let got = approx_parallel_for_opts(&spec, lc, region, &mut body, &opts)
            .expect("walk rejected a launch the oracle accepts");

        prop_assert_eq!(
            got,
            expect,
            "kernel record diverged from per-lane oracle: {:?} region={:?} serialized={}",
            lc,
            region,
            serialized
        );
        prop_assert!(
            body.output
                .iter()
                .zip(&oracle.output)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "outputs diverged from per-lane oracle: {:?} region={:?} serialized={}",
            lc,
            region,
            serialized
        );
        Ok(())
    }

    proptest! {
        /// Slice-wise walk ≡ per-lane oracle.
        #[test]
        fn slice_walk_matches_per_lane_oracle(
            n in 1usize..260,
            blocks in 1u32..7,
            bs_idx in 0usize..5,
            level_idx in 0usize..3,
            seed in 1u64..1_000_000,
        ) {
            for lc in launches(n, bs_idx, blocks) {
                for (region, serialized) in regions(level_idx, 4, 0.6) {
                    assert_matches_oracle(&lc, region.as_ref(), serialized, n, seed)?;
                }
            }
        }
    }
}
