//! # gpu-sim — a functional + cycle-cost simulator of the GPU execution model
//!
//! This crate is the hardware substrate for the HPAC-Offload reproduction.
//! It models the pieces of the GPU SPMD execution model that the paper's
//! results hinge on, without requiring a physical GPU:
//!
//! * **Hierarchy** — a kernel launch is a grid of thread *blocks*, each block
//!   is a set of *warps* of `warp_size` lanes executing in SIMD lockstep
//!   ([`dim`], [`warp`]).
//! * **Divergence** — when lanes of a warp take different execution paths the
//!   warp serializes both paths; the cost model charges both ([`cost`],
//!   [`engine`]).
//! * **Memory coalescing** — a warp's global-memory accesses are grouped into
//!   128-byte segment transactions ([`coalesce`]).
//! * **Shared memory** — per-block scratch with a hard capacity limit that
//!   also constrains how many blocks can be resident on an SM ([`memory`]).
//! * **Latency hiding** — an SM interleaves its resident warps; with few
//!   resident warps, global-memory latency is exposed ([`timing`]).
//! * **Host/device transfers** — HtoD/DtoH transfer time for end-to-end
//!   runtime accounting ([`transfer`]).
//!
//! Execution is *functional*: kernel bodies actually run and produce real
//! outputs, so downstream quality-of-result comparisons measure genuine
//! numerical error. Timing is *modeled*: bodies declare a [`cost::CostProfile`]
//! and the engine accumulates per-warp issue/latency cycles which
//! [`timing::kernel_time`] converts into a kernel runtime for a given
//! [`spec::DeviceSpec`].

#![forbid(unsafe_code)]

pub mod coalesce;
pub mod cost;
pub mod dim;
pub mod engine;
pub mod memory;
pub mod spec;
pub mod stats;
pub mod timing;
pub mod transfer;
pub mod warp;

pub use coalesce::AccessPattern;
pub use cost::{CostProfile, PrecomposedCost};
pub use dim::{LaunchConfig, Schedule};
pub use engine::{
    account_kernel, modeled_seconds, reset_modeled_seconds, BlockAccumulator, KernelExec,
    KernelRecord, LaunchError,
};
pub use spec::{CostParams, DeviceSpec, Vendor};
pub use stats::{DecisionMargin, DecisionMargins, KernelStats};
pub use warp::{lane_mask_ballot, popcount, WarpVote};
