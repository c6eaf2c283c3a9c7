//! # hpac-core — the HPAC-Offload programming model and runtime
//!
//! This crate is the Rust analogue of the paper's Clang/LLVM + OpenMP-offload
//! extension. Where the paper writes
//!
//! ```c
//! #pragma approx memo(in:2:0.5f:4) level(warp) in(input[i*5:5:N]) out(output1[i])
//! output1[i] = foo(&input[5*i], 5, N);
//! ```
//!
//! this crate writes
//!
//! ```ignore
//! let region = ApproxRegion::memo_in(2, 0.5).tables_per_warp(4).level(HierarchyLevel::Warp);
//! approx_parallel_for(&spec, &launch, Some(&region), &mut body)?;
//! ```
//!
//! with `body` implementing [`exec::RegionBody`] — the closure capture of
//! the accurate execution path, its region inputs/outputs, and its cost.
//!
//! The runtime is a staged pipeline (see [`exec`]): one generic grid walker,
//! a pluggable technique-policy layer and per-block accounting folded into
//! the `gpu-sim` timing model, and it implements the paper's GPU-aware
//! designs:
//!
//! * [`taf`] — relaxed-locality temporal output memoization (Fig 4d), with
//!   the serialized "semantically equivalent" variant (Fig 4c) available for
//!   ablation;
//! * [`iact`] — input memoization with warp-shared tables
//!   (`tables_per_warp`), two-phase read/write access, and round-robin or
//!   CLOCK replacement;
//! * [`perfo`] — small/large/ini/fini loop perforation plus the paper's
//!   divergence-free *herded* variants;
//! * [`hierarchy`] — thread/warp/block majority-rules decision-making built
//!   on ballot + popcount;
//! * [`shared_state`] — AC state sized and placed in block shared memory,
//!   with launches rejected when the device limit is exceeded.

#![forbid(unsafe_code)]

pub mod env;
pub mod exec;
pub mod hash;
pub mod hierarchy;
pub mod iact;
pub mod lane;
pub mod metrics;
pub mod once_map;
pub mod params;
pub mod perfo;
pub mod region;
pub mod shared_state;
pub mod taf;

pub use exec::{
    approx_block_tasks_opts, approx_parallel_for, approx_parallel_for_opts, BlockTaskBody,
    ExecOptions, Executor, RegionBody,
};
pub use hierarchy::HierarchyLevel;
pub use params::{IactParams, PerfoKind, PerfoParams, Replacement, TafParams};
pub use region::{ApproxRegion, FamilyPoint, RegionError, Technique};
