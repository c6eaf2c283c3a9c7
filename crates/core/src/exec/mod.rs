//! The staged execution pipeline: functional execution of approximated
//! kernels on the `gpu-sim` substrate.
//!
//! The pipeline has four stages, one module each:
//!
//! 1. **Dispatch** (this module) — validate the region against the body,
//!    size the shared-memory AC state, and select the
//!    [`TechniquePolicy`](policy) for the region's technique. [`resolve`]
//!    is the shared front half of [`approx_parallel_for_opts`] and
//!    [`RepeatedLaunch`].
//! 2. **Launch** ([`launch`]) — the one block loop under the warp walk,
//!    the block tasks and the recording walk. Every launch walks its blocks
//!    in ascending order on the calling thread: the GPU model, not the
//!    host, supplies a launch's block parallelism. Host threads work on
//!    whole configurations instead, through the [`ExecEngine`].
//! 3. **Walk** ([`walk`]) — the single grid walker iterates block →
//!    grid-stride step → warp, evaluates each warp step as one lane
//!    *slice*, resolves hierarchy-level votes, and calls the policy's
//!    hooks; [`taf`], [`iact`], and [`perfo`] each implement the policy
//!    trait in ~150 lines of pure decision logic. The retired per-lane
//!    walk survives as the bit-equivalence oracle in [`reference`].
//! 4. **Accounting** ([`charge`], plus `gpu_sim::BlockAccumulator`) —
//!    every block accumulates its costs and statistics, which merge into
//!    the kernel's record in block order.
//!
//! [`approx_parallel_for`] is the analogue of launching an annotated
//! `#pragma omp target teams distribute parallel for` region;
//! [`approx_block_tasks_opts`] is the cooperative-block variant used by
//! benchmarks like Binomial Options where one block computes one work item
//! and decisions are block-scoped. [`RepeatedLaunch`] issues one
//! grid-stride launch again and again over unchanged declared inputs: it
//! walks the first launch, recording decisions that read only declared
//! inputs, and replays them on the rest (see [`replay`]).

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
mod replay;
mod taf;
mod walk;

pub use block_tasks::approx_block_tasks_opts;
pub use body::{BlockTaskBody, RegionBody, StoreVisibility};
pub use engine::{engine, ExecEngine};
pub use replay::RepeatedLaunch;

use crate::region::{ApproxRegion, RegionError, Technique};
use crate::shared_state;
use gpu_sim::{DeviceSpec, KernelRecord, LaunchConfig, Schedule};

/// Which executor drives the block walk. There is one: blocks walked one
/// after another on the calling thread, stores committed inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    #[default]
    Sequential,
}

/// Execution options beyond the pragma surface.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecOptions {
    /// Run the "semantically equivalent" serialized GPU TAF of Fig 4(c)
    /// instead of the relaxed-locality algorithm of Fig 4(d): one state
    /// machine per warp consumes the warp's items in loop order, and every
    /// lane's region execution serializes.
    pub serialized_taf: bool,
    /// Which executor drives the block walk (see [`Executor`]).
    pub executor: Executor,
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
