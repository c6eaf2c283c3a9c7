//! # hpac-apps — the seven HPC applications evaluated by HPAC-Offload
//!
//! Each module implements one benchmark from the paper's Table 1 as a
//! self-contained application on the `gpu-sim` substrate: input generation
//! (seeded, deterministic), the kernels the paper approximates expressed as
//! [`hpac_core::RegionBody`]/[`hpac_core::exec::BlockTaskBody`] regions,
//! the surrounding accurate computation, and the paper's quality-of-interest
//! (QoI) extraction.
//!
//! | Module | Paper benchmark | QoI | Error metric |
//! |---|---|---|---|
//! | [`lulesh`] | LULESH | final origin energy | MAPE |
//! | [`leukocyte`] | Leukocyte | final cell locations | MAPE |
//! | [`binomial`] | Binomial Options | option prices | MAPE |
//! | [`minife`] | MiniFE | final CG residual | MAPE |
//! | [`blackscholes`] | Blackscholes | option prices | MAPE |
//! | [`lavamd`] | LavaMD | particle forces & positions | MAPE |
//! | [`kmeans`] | K-Means | cluster assignments | MCR |

#![forbid(unsafe_code)]

pub mod binomial;
pub mod blackscholes;
pub mod common;
pub mod kmeans;
pub mod lavamd;
pub mod leukocyte;
pub mod lulesh;
pub mod minife;

pub use common::{AppResult, Benchmark, LaunchParams, QoI};

/// All seven benchmarks with their default (laptop-scale) configurations,
/// in Table 1 order.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(lulesh::Lulesh::default()),
        Box::new(leukocyte::Leukocyte::default()),
        Box::new(binomial::BinomialOptions::default()),
        Box::new(minife::MiniFe::default()),
        Box::new(blackscholes::Blackscholes::default()),
        Box::new(lavamd::LavaMd::default()),
        Box::new(kmeans::KMeans::default()),
    ]
}
