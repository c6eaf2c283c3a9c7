//! # hpac-bench — the paper's figures, the tuner driver, and Criterion benches.
//!
//! Binaries (`cargo run --release -p hpac-bench --bin <name>`):
//! `figures <id>… | all [--full]` regenerates the paper's tables and
//! figures through `hpac_harness::figures::generate` (CSV copies land in
//! `target/figures/`; `--full` runs the paper's complete Table 2 grids,
//! hours); `tune` runs the autotuner over all seven benchmarks on both
//! device models.
