//! # hpac-service — tuning as a service
//!
//! The production front end over `hpac-tuner`: many callers, many threads,
//! one process-wide answer per question. Where `hpac-tuner` answers a
//! single "fastest configuration under X% error" query, this crate serves
//! *streams* of such queries cheaply:
//!
//! * a typed request/response API — [`TuneRequest`] in (benchmark, device,
//!   [`QualityBound`](hpac_tuner::QualityBound), budget, warm-start
//!   policy), [`TuneResponse`] out (plan + provenance: [`Source`],
//!   evaluations spent, wall time);
//! * a sharded, lock-striped persistent cache
//!   ([`TuningCache`](hpac_tuner::TuningCache)) safe for concurrent
//!   readers and writers across processes;
//! * request coalescing — concurrent identical requests run exactly one
//!   search, and every waiter gets the same plan;
//! * warm starts — a new bound seeds its search from the cached Pareto
//!   frontiers of neighboring bounds on the same (benchmark, device);
//! * one baseline per (benchmark, device) — a service that searches keeps
//!   each measured baseline and each app's prepared inputs for its lifetime
//!   (capped at 256 MiB, never changing a result), so only the first request
//!   pays for them; see [`service`]'s "What a service retains";
//! * engine admission — batches run on the process-wide
//!   [`ExecEngine`](hpac_core::exec::ExecEngine) pool at its default width.
//!
//! ```ignore
//! let svc = TuningService::new()
//!     .with_cache(TuningCache::new(TuningCache::default_dir()));
//! let resp = svc.submit(TuneRequest::new(&bench, &device, QualityBound::percent(5.0)));
//! println!("{:?} via {:?} in {} ns", resp.plan.config, resp.source, resp.wall_ns);
//! let report = resp.plan.execute(&bench, &device)?;
//! ```

#![forbid(unsafe_code)]

pub mod request;
pub mod service;

pub use request::{Source, TuneRequest, TuneResponse, WarmStart};
pub use service::{ServiceStats, TuningService};
