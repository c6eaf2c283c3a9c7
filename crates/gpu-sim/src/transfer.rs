//! Host<->device transfer model.
//!
//! The paper measures "end-to-end application runtime, including time
//! transferring data between the CPU and GPU" (§4) — except for Blackscholes,
//! where 99% of time is allocation/transfer and kernel time is reported
//! instead. This module provides the transfer-time model; apps total a run
//! with `hpac_apps::common::RunAccumulator`.

use crate::spec::DeviceSpec;

/// Time in seconds to move `bytes` across the host-device link.
pub fn transfer_seconds(spec: &DeviceSpec, bytes: u64) -> f64 {
    let bw = spec.costs.xfer_bandwidth_gbs * 1e9;
    spec.costs.xfer_latency_us * 1e-6 + bytes as f64 / bw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let spec = DeviceSpec::v100();
        let t1 = transfer_seconds(&spec, 1 << 20);
        let t2 = transfer_seconds(&spec, 1 << 30);
        assert!(t2 > t1);
        // 1 GiB at 40 GB/s ~ 27 ms
        assert!((0.02..0.04).contains(&t2), "t2 = {t2}");
    }

    #[test]
    fn small_transfer_dominated_by_latency() {
        let spec = DeviceSpec::v100();
        let t = transfer_seconds(&spec, 64);
        assert!((t - spec.costs.xfer_latency_us * 1e-6).abs() < 1e-6);
    }
}
