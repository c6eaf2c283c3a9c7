//! # hpac-offload — umbrella crate
//!
//! Re-exports the whole HPAC-Offload reproduction stack:
//!
//! * [`gpu_sim`] — the GPU execution-model simulator substrate,
//! * [`core`] — the HPAC-Offload programming model and runtime (TAF, iACT,
//!   perforation, hierarchical decision-making),
//! * [`apps`] — the seven evaluated HPC proxy applications,
//! * [`harness`] — the design-space-exploration harness and figure
//!   generators,
//! * [`tuner`] — the quality-constrained autotuner: Pareto frontiers,
//!   adaptive search, and the sharded persistent tuning cache,
//! * [`service`] — the concurrent tuning front end: typed
//!   request/response API, request coalescing, warm starts from
//!   neighboring bounds, engine admission,
//! * [`obs`] — structured tracing and metrics (spans, counters, per-worker
//!   ring buffers, JSONL / Chrome-trace sinks, `MetricsSnapshot`), enabled
//!   via `HPAC_TRACE=<path>[:jsonl|chrome]`.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `examples/autotune.rs` for the tuner.

#![forbid(unsafe_code)]

pub use gpu_sim;
pub use hpac_apps as apps;
pub use hpac_core as core;
pub use hpac_harness as harness;
pub use hpac_obs as obs;
pub use hpac_service as service;
pub use hpac_tuner as tuner;
