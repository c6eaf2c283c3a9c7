//! Device memory accounting: global-memory capacity and per-block shared
//! memory.
//!
//! The paper's Figure 3 argument — per-thread memoization tables exhaust a
//! V100's 16 GB long before the 2^72-thread limit — is a *capacity* argument,
//! and HPAC-Offload's answer is to place AC state in block shared memory.
//! This module checks the global-memory side; the per-block shared-memory
//! limit is enforced where a launch sizes its AC state (`KernelExec::new`).

use crate::spec::DeviceSpec;

/// Outcome of asking whether a per-thread global-memory AC state fits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalFit {
    pub required_bytes: u128,
    pub capacity_bytes: u64,
    /// Fraction of device memory consumed (can exceed 1).
    pub fraction: f64,
}

impl GlobalFit {
    pub fn fits(&self) -> bool {
        self.required_bytes <= self.capacity_bytes as u128
    }
}

/// Global-memory footprint of replicating `bytes_per_thread` of AC state for
/// `n_threads` software threads (the CPU-HPAC design transplanted to GPU;
/// Fig 3's y-axis).
pub fn per_thread_state_fit(
    spec: &DeviceSpec,
    n_threads: u128,
    bytes_per_thread: u64,
) -> GlobalFit {
    let required = n_threads * bytes_per_thread as u128;
    GlobalFit {
        required_bytes: required,
        capacity_bytes: spec.global_mem_bytes,
        fraction: required as f64 / spec.global_mem_bytes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_scenario_exhausts_v100() {
        // Paper Fig 3: 5-entry tables of 36-byte entries, per thread.
        let spec = DeviceSpec::v100();
        let fit_small = per_thread_state_fit(&spec, 1 << 14, 5 * 36);
        assert!(fit_small.fits());
        let fit_large = per_thread_state_fit(&spec, 1 << 27, 5 * 36);
        assert!(!fit_large.fits(), "2^27 threads must exceed 16 GB");
        assert!(fit_large.fraction > 1.0);
    }

    #[test]
    fn fig3_crossover_near_2_pow_26() {
        let spec = DeviceSpec::v100();
        // 16 GiB / 180 B ~= 95.4e6 threads; 2^26 = 67.1e6 fits, 2^27 doesn't.
        assert!(per_thread_state_fit(&spec, 1 << 26, 180).fits());
        assert!(!per_thread_state_fit(&spec, 1 << 27, 180).fits());
    }
}
