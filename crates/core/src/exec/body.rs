//! The body contracts the pipeline executes: [`RegionBody`] for grid-stride
//! parallel-for regions and [`BlockTaskBody`] for block-cooperative tasks.
//!
//! Both traits split a region into a *pure* compute path (`compute`, taking
//! `&self`) and a commit path (`store`, taking `&mut self`). The walk calls
//! them lane by lane in walk order on the calling thread, so a store is
//! committed before the next lane computes.

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec};

/// Whether a region's `compute` reads what its `store` calls committed
/// earlier in the same launch — the one question
/// [`RepeatedLaunch`](crate::exec::RepeatedLaunch) asks before it records
/// a launch's decisions for replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreVisibility {
    /// `compute` never reads in-launch stores (the default).
    #[default]
    Independent,
    /// `compute` reads in-launch stores (Leukocyte's in-kernel Jacobi
    /// sweeps re-read the field the previous sweep stored). Such a launch
    /// never replays.
    InLaunch,
}

/// The annotated code region: the accurate path, its declared inputs and
/// outputs, and its cost.
///
/// This is the Rust rendering of what HPAC's Clang pass captures as a
/// closure. `compute` evaluates the region for one item; `store` commits an
/// output vector (both paths call it — the approximate path passes the
/// memoized vector). Cost methods describe one warp-step's work so the
/// engine can model kernel time:
///
/// * [`RegionBody::accurate_cost`] — the full accurate body including its
///   global reads and writes;
/// * [`RegionBody::input_cost`] — only the gathering of the declared region
///   inputs (paid by iACT's activation on every invocation);
/// * [`RegionBody::store_cost`] — only the write of the region outputs
///   (paid by the approximate path when it stores a memoized value).
pub trait RegionBody {
    /// Scalars in the declared region input (`in(...)` clause). 0 means the
    /// region declares no inputs (TAF and perforation need none).
    fn in_dim(&self) -> usize {
        0
    }

    /// Scalars in the declared region output (`out(...)` clause).
    fn out_dim(&self) -> usize;

    /// Gather the region inputs of item `i` into `buf` (`len == in_dim`).
    fn inputs(&self, _i: usize, _buf: &mut [f64]) {
        unreachable!("region declares no inputs; implement `inputs` to use iACT");
    }

    /// Execute the accurate path for item `i`, writing outputs to `out`.
    ///
    /// Must depend only on `i` and on state that existed before the kernel
    /// launch — not on what `store` wrote for other items — unless
    /// [`RegionBody::store_visibility`] says otherwise.
    fn compute(&self, i: usize, out: &mut [f64]);

    /// Commit the region outputs for item `i`.
    fn store(&mut self, i: usize, out: &[f64]);

    /// Whether `compute` reads this launch's stores (see
    /// [`StoreVisibility`]).
    fn store_visibility(&self) -> StoreVisibility {
        StoreVisibility::Independent
    }

    /// Cost of one warp executing the accurate path with `lanes` active
    /// lanes (including the body's own global traffic).
    fn accurate_cost(&self, lanes: u32, spec: &DeviceSpec) -> CostProfile;

    /// Cost of gathering the declared inputs for `lanes` lanes.
    fn input_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_read(lanes, (self.in_dim() * 8) as u32, AccessPattern::Coalesced)
    }

    /// Cost of writing the declared outputs for `lanes` lanes.
    fn store_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_write(
            lanes,
            (self.out_dim() * 8) as u32,
            AccessPattern::Coalesced,
        )
    }

    /// `Some(reason)` when iACT cannot apply (the paper's MiniFE case:
    /// "hpac-offload only supports computations with uniform input sizes").
    fn iact_incompatibility(&self) -> Option<String> {
        None
    }
}

/// A cooperative block task: one thread block computes one work item
/// (Binomial Options' one-block-per-option pattern). Decisions are
/// block-scoped — there is one AC state per block and the whole block takes
/// one path.
pub trait BlockTaskBody {
    /// Scalars in the declared task input.
    fn in_dim(&self) -> usize {
        0
    }

    /// Scalars in the declared task output.
    fn out_dim(&self) -> usize;

    /// Gather the task inputs.
    fn inputs(&self, _task: usize, _buf: &mut [f64]) {
        unreachable!("task declares no inputs; implement `inputs` to use iACT");
    }

    /// Execute the accurate task, writing outputs to `out`.
    ///
    /// Tasks are independent by the pattern's contract: `compute` must
    /// depend only on `task` and pre-launch state, never on what `store`
    /// committed for another task of the same launch.
    fn compute(&self, task: usize, out: &mut [f64]);

    /// Commit the task outputs.
    fn store(&mut self, task: usize, out: &[f64]);

    /// Per-warp cost of one accurate task execution (the block's warps
    /// cooperate; each warp is charged this profile).
    fn task_cost_per_warp(&self, spec: &DeviceSpec) -> CostProfile;

    /// Cost of gathering task inputs (one warp does it).
    fn input_cost(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_read(1, (self.in_dim() * 8) as u32, AccessPattern::Broadcast)
    }

    /// Cost of writing task outputs (one warp does it).
    fn store_cost(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().global_write(1, (self.out_dim() * 8) as u32, AccessPattern::Broadcast)
    }
}

/// How the walker reaches the body: [`InlineAccess`] forwards to it, and a
/// walk that records its decisions for
/// [`RepeatedLaunch`](crate::exec::RepeatedLaunch) wraps that in the
/// `Recording` access of [`replay`](crate::exec::replay).
///
/// The last three methods serve the recording walk. Every other access
/// keeps their defaults, and policies guard their recording-only work with
/// [`BodyAccess::RECORDS`], so a plain walk compiles to what it was.
pub(crate) trait BodyAccess {
    /// Whether this access records a decision trace.
    const RECORDS: bool = false;
    fn body(&self) -> &dyn RegionBody;
    fn compute(&mut self, i: usize, out: &mut [f64]);
    fn store(&mut self, i: usize, out: &[f64]);

    /// Commit item `i`'s memoized output `out`, which the lane recorded as
    /// writer `writer` computed.
    fn store_memo(&mut self, i: usize, out: &[f64], _writer: u32) {
        self.store(i, out);
    }

    /// The trace position the next executed lane will take.
    fn trace_pos(&self) -> u32 {
        0
    }

    /// Mark the lane recorded at trace position `pos` as a writer whose
    /// output later lanes may reuse; returns its writer id.
    fn keep(&mut self, _pos: u32) -> u32 {
        0
    }
}

pub(crate) struct InlineAccess<'a> {
    pub body: &'a mut dyn RegionBody,
}

impl BodyAccess for InlineAccess<'_> {
    fn body(&self) -> &dyn RegionBody {
        self.body
    }

    fn compute(&mut self, i: usize, out: &mut [f64]) {
        self.body.compute(i, out);
    }

    fn store(&mut self, i: usize, out: &[f64]) {
        self.body.store(i, out);
    }
}
