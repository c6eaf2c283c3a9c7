//! # hpac-harness — the HPAC-Offload execution harness
//!
//! "The HPAC execution harness exhaustively explores the space of
//! user-provided approximation techniques and parameters. [...] After
//! executing the approximated program, the harness calculates and saves
//! runtime information and error to a database." (§2.3)
//!
//! * [`space`] — the paper's Table 2 parameter grids (full) and pruned
//!   quick variants, per benchmark and device;
//! * [`runner`] — baseline selection and the parallel sweep executor
//!   (configurations fan out as tasks on the shared
//!   [`hpac_core::exec::engine`]; each kernel launch walks its
//!   blocks on its config task's thread);
//! * [`db`] — the results table with CSV persistence;
//! * [`analyze`] — best-speedup-under-error-cap queries, the paper's
//!   error-decile overplot reduction, and linear fits (Fig 12c's R²);
//! * [`figures`] — one data-generation entry point per paper table/figure.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod db;
pub mod figures;
pub mod runner;
pub mod space;

pub use db::{ResultsDb, Row};
pub use runner::{run_sweep, select_baseline, SweepOutcome};
pub use space::{Scale, SweepConfig};
