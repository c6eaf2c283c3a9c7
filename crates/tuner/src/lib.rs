//! # hpac-tuner — quality-constrained autotuning over the HPAC stack
//!
//! The paper's harness answers "what does the speedup/error cloud look
//! like?" by exhaustive sweep — 57k+ configurations (Table 2). This crate
//! answers the production question instead: *"give me the fastest
//! configuration with at most X% error on this device, quickly, and
//! remember it."*
//!
//! ```ignore
//! let tuner = Tuner::new();
//! let plan = tuner.search_plan(&bench, &DeviceSpec::v100(), QualityBound::percent(5.0), &[]);
//! let row = plan.execute(&bench, &DeviceSpec::v100())?;
//! ```
//!
//! Most callers should not drive the tuner directly: `hpac-service` wraps
//! [`Tuner::search_plan`] behind a typed request/response API with a
//! concurrent sharded cache, request coalescing, and warm starts.
//!
//! * [`pareto`] — the incremental Pareto frontier over (speedup, error)
//!   with dominance pruning: the whole tradeoff curve, not one point;
//! * [`search`] — coordinate descent with random restarts over the
//!   harness's Table 2 grids (`hpac_harness::space::Grid`), evaluating
//!   orders of magnitude fewer configurations than `Scale::Full`, in
//!   parallel;
//! * [`plan`] — [`QualityBound`] in, re-executable [`TunedPlan`] out;
//! * [`cache`] — the sharded, atomic-write-replace JSON
//!   tuning cache keyed by (benchmark, device, bound), invalidated by
//!   device-spec fingerprint, safe for concurrent readers and writers;
//! * [`json`] — the hand-rolled JSON tree behind the cache (the schema is
//!   flat and fully owned here, like the harness's CSV).

#![forbid(unsafe_code)]

pub mod cache;
pub mod json;
pub mod pareto;
pub mod plan;
pub mod search;
pub mod tuner;

pub use cache::{device_fingerprint, TuningCache};
pub use pareto::{ParetoFrontier, ParetoPoint};
pub use plan::{QualityBound, TunedPlan};
pub use tuner::Tuner;
