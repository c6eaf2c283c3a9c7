//! The staged execution pipeline: functional execution of approximated
//! kernels on the `gpu-sim` substrate.
//!
//! The pipeline has four stages, one module each:
//!
//! 1. **Dispatch** (this module) — validate the region against the body,
//!    size the shared-memory AC state, and select the
//!    [`TechniquePolicy`](policy) for the region's technique. [`resolve`]
//!    is the shared front half, used both by [`approx_parallel_for_opts`]
//!    and by the phased [`batch`] API.
//! 2. **Launch** ([`launch`]) — the one block-launch driver under the warp
//!    walk, the block tasks and the batch. It alone decides whether a
//!    kernel's blocks stay on the calling thread
//!    ([`Executor::Sequential`], a nested launch, a body or launch whose
//!    blocks are not independent) or are chunked over the persistent
//!    [`ExecEngine`](engine::ExecEngine) worker pool
//!    ([`Executor::ParallelBlocks`]), and it merges blocks and commits
//!    stores in ascending block order either way.
//! 3. **Walk** ([`walk`]) — the single grid walker iterates block →
//!    grid-stride step → warp, evaluates each warp step as one lane
//!    *slice*, resolves hierarchy-level votes, and calls the policy's
//!    hooks; [`taf`], [`iact`], and [`perfo`] each implement the policy
//!    trait in ~150 lines of pure decision logic. The retired per-lane
//!    walk survives as the bit-equivalence oracle in [`reference`].
//! 4. **Accounting** ([`charge`], plus `gpu_sim::BlockAccumulator`) —
//!    every block accumulates costs, statistics, and stores privately and
//!    the results fold back in block order, which is what makes
//!    [`Executor::ParallelBlocks`] bit-identical to the
//!    [`Executor::Sequential`] reference.
//!
//! [`approx_parallel_for`] is the analogue of launching an annotated
//! `#pragma omp target teams distribute parallel for` region;
//! [`approx_block_tasks_opts`] is the cooperative-block variant used by
//! benchmarks like Binomial Options where one block computes one work item
//! and decisions are block-scoped.

pub mod batch;
mod block_tasks;
pub mod body;
pub mod charge;
pub mod engine;
mod iact;
mod launch;
mod perfo;
mod policy;
#[cfg(test)]
mod reference;
mod taf;
mod walk;

pub use block_tasks::approx_block_tasks_opts;
pub use body::{BlockField, BlockTaskBody, RegionBody, StoreVisibility};
pub use charge::StoreBuffer;
pub use engine::{engine, ExecEngine};

use crate::region::{ApproxRegion, RegionError, Technique};
use crate::shared_state;
use gpu_sim::{DeviceSpec, KernelRecord, LaunchConfig, Schedule};

/// Which executor drives the block walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// The reference executor: blocks walked one after another on the
    /// calling thread, stores committed inline.
    #[default]
    Sequential,
    /// Independent blocks fan out over the persistent
    /// [`ExecEngine`](engine::ExecEngine) worker pool; each block buffers
    /// its stores and accounting privately and the results fold back in
    /// block order, bit-identical to [`Executor::Sequential`].
    ParallelBlocks,
}

impl Executor {
    /// The executor selected by the `HPAC_THREADS` environment override:
    /// unset or `1` keeps the sequential reference; a worker count (or `0`
    /// for all cores) enables [`Executor::ParallelBlocks`]. A malformed
    /// value aborts with a clear error (see [`engine`] for the full
    /// precedence rules).
    pub fn from_env() -> Executor {
        match engine::env_threads() {
            Some(1) | None => Executor::Sequential,
            Some(_) => Executor::ParallelBlocks,
        }
    }
}

/// Execution options beyond the pragma surface: ablation switches and the
/// executor knob.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Run the "semantically equivalent" serialized GPU TAF of Fig 4(c)
    /// instead of the relaxed-locality algorithm of Fig 4(d): one state
    /// machine per warp consumes the warp's items in loop order, and every
    /// lane's region execution serializes.
    pub serialized_taf: bool,
    /// Which executor drives the block walk. `Default::default()` consults
    /// the `HPAC_THREADS` environment override (see [`Executor::from_env`]).
    pub executor: Executor,
    /// Worker threads for [`Executor::ParallelBlocks`]. `None` falls back
    /// to `HPAC_THREADS`, then to every available core — the canonical
    /// precedence chain lives in the [`engine`] module docs.
    pub threads: Option<usize>,
    /// Modeled-seconds ceiling for frontier-aware early abort. When set,
    /// the walk compares a *lower bound* of the run's accumulated modeled
    /// time (prior kernels on this thread plus the in-flight kernel's
    /// issue cycles spread over all SMs) against the ceiling at block
    /// boundaries and returns [`RegionError::CostCeiling`] once it is
    /// provably exceeded. Results are bit-identical when no abort fires;
    /// callers must only set a ceiling they are prepared to treat as a
    /// proof of "cannot beat the incumbent" (see the tuner's wiring).
    pub abort_above_seconds: Option<f64>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            serialized_taf: false,
            executor: Executor::from_env(),
            threads: None,
            abort_above_seconds: None,
        }
    }
}

impl ExecOptions {
    /// Options pinned to one executor (threads still resolved from the
    /// environment / core count).
    pub fn with_executor(executor: Executor) -> Self {
        ExecOptions {
            executor,
            ..ExecOptions::default()
        }
    }
}

/// A region's technique policy, resolved to a concrete implementation.
/// This is the closed set [`resolve`] dispatches into; the walker is
/// monomorphized per variant in [`ResolvedPolicy::walk_block`].
pub(crate) enum ResolvedPolicy {
    Accurate(policy::AccuratePolicy),
    Perfo(perfo::PerfoPolicy),
    Taf(taf::TafPolicy),
    SerializedTaf(taf::SerializedTafPolicy),
    Iact(iact::IactPolicy),
}

/// The dispatch stage's output: everything [`walk::execute`] needs beyond
/// the body itself.
pub(crate) struct ResolvedKernel {
    pub policy: ResolvedPolicy,
    /// The effective launch (ini/fini perforation applied as bound changes).
    pub launch: LaunchConfig,
    /// Shared-memory AC state bytes per block.
    pub shared: usize,
    /// First iterated item (nonzero under ini-perforation).
    pub item_lo: usize,
    /// Whether every block still iterates the items the declared launch
    /// gave it. Perforation re-partitions a [`Schedule::BlockLocal`] launch
    /// (the effective launch is always grid-stride, over a shrunken range
    /// under ini/fini), so the blocks of a body that declared them private
    /// — Leukocyte's one cell per block — write into each other's
    /// partitions; such a launch stays on the calling thread.
    pub partition_kept: bool,
}

/// The dispatch stage: validate the region against the body, size the
/// shared AC state, apply perforation's loop-bound changes, and select the
/// technique policy.
pub(crate) fn resolve(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    region: Option<&ApproxRegion>,
    body: &dyn RegionBody,
    serialized_taf: bool,
) -> Result<ResolvedKernel, RegionError> {
    let Some(region) = region else {
        return Ok(ResolvedKernel {
            policy: ResolvedPolicy::Accurate(policy::AccuratePolicy),
            launch: *launch,
            shared: 0,
            item_lo: 0,
            partition_kept: true,
        });
    };
    region.validate()?;
    if body.out_dim() == 0 {
        return Err(RegionError::Invalid("region must declare outputs".into()));
    }
    if let Technique::Iact(_) = region.technique {
        if let Some(reason) = body.iact_incompatibility() {
            return Err(RegionError::Invalid(format!(
                "iACT not applicable to this region: {reason}"
            )));
        }
        if body.in_dim() == 0 {
            return Err(RegionError::Invalid(
                "iACT requires the region to declare inputs".into(),
            ));
        }
    }

    let shared =
        shared_state::region_block_bytes(region, spec, launch, body.in_dim(), body.out_dim())
            .map_err(RegionError::Invalid)?;

    match region.technique {
        Technique::Perfo(params) => {
            let (lo, hi) = crate::perfo::bounds(&params, launch.n_items);
            if lo >= hi {
                return Err(RegionError::Invalid(
                    "perforation drops the entire iteration space".into(),
                ));
            }
            // ini/fini are loop-bound changes: the kernel iterates only
            // [lo, hi).
            let eff = LaunchConfig {
                n_items: hi - lo,
                block_size: launch.block_size,
                n_blocks: launch.n_blocks,
                schedule: Schedule::GridStride,
            };
            Ok(ResolvedKernel {
                policy: ResolvedPolicy::Perfo(perfo::PerfoPolicy { params }),
                launch: eff,
                shared,
                item_lo: lo,
                partition_kept: launch.schedule != Schedule::BlockLocal,
            })
        }
        Technique::Taf(params) => {
            let policy = if serialized_taf {
                ResolvedPolicy::SerializedTaf(taf::SerializedTafPolicy { params })
            } else {
                ResolvedPolicy::Taf(taf::TafPolicy {
                    params,
                    level: region.level,
                })
            };
            Ok(ResolvedKernel {
                policy,
                launch: *launch,
                shared,
                item_lo: 0,
                partition_kept: true,
            })
        }
        Technique::Iact(params) => {
            let tables_per_warp = params
                .effective_tables_per_warp(spec.warp_size)
                .map_err(RegionError::Invalid)?;
            Ok(ResolvedKernel {
                policy: ResolvedPolicy::Iact(iact::IactPolicy {
                    params,
                    level: region.level,
                    tables_per_warp,
                    lanes_per_table: spec.warp_size / tables_per_warp,
                }),
                launch: *launch,
                shared,
                item_lo: 0,
                partition_kept: true,
            })
        }
    }
}

/// Launch an approximated grid-stride parallel-for.
///
/// `region = None` runs the accurate baseline with identical bookkeeping.
pub fn approx_parallel_for(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    region: Option<&ApproxRegion>,
    body: &mut dyn RegionBody,
) -> Result<KernelRecord, RegionError> {
    approx_parallel_for_opts(spec, launch, region, body, &ExecOptions::default())
}

/// [`approx_parallel_for`] with explicit execution options.
pub fn approx_parallel_for_opts(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    region: Option<&ApproxRegion>,
    body: &mut dyn RegionBody,
    opts: &ExecOptions,
) -> Result<KernelRecord, RegionError> {
    let kernel = resolve(spec, launch, region, body, opts.serialized_taf)?;
    walk::execute(spec, &kernel, body, opts)
}
