//! Scoped task batches for the HPAC stack (named for the `rayon` crate it
//! once shimmed).
//!
//! Every caller goes through the `ExecEngine` (`hpac_core::exec::engine`),
//! which fronts [`pool::run`]: a batch of independent configuration tasks
//! worked by the calling thread plus helpers spawned under
//! `std::thread::scope` for that batch alone, results in index order, and
//! a depth guard that runs nested submissions inline. See [`pool`] for the
//! full contract.
//!
//! Helpers are spawned per batch rather than kept in a persistent pool:
//! kernel launches never submit to the engine, so the batches left are a
//! few per tuning request, each holding tasks of milliseconds, and a spawn
//! costs tens of microseconds.

#![forbid(unsafe_code)]

pub mod pool;
