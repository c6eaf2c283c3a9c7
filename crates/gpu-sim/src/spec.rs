//! Device specifications and per-operation cost parameters.
//!
//! Two presets mirror the paper's evaluation platforms: an NVIDIA V100
//! ([`DeviceSpec::v100`]) and an AMD Instinct MI250X ([`DeviceSpec::mi250x`]).
//! The numbers are public datasheet values where available; the cycle costs
//! are order-of-magnitude calibrations chosen so that aggregate quantities
//! (arithmetic throughput, memory bandwidth, memory latency) land near the
//! published figures for each device.

/// GPU vendor, used where the paper distinguishes platform behaviour
/// (e.g. only the AMD platform supports 64 iACT tables per warp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    Nvidia,
    Amd,
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vendor::Nvidia => write!(f, "NVIDIA"),
            Vendor::Amd => write!(f, "AMD"),
        }
    }
}

/// Cycle costs for each operation class the engine charges.
///
/// All costs are **per warp instruction**: a warp-wide FLOP costs
/// `flop_cycles` regardless of how many lanes are active, which is exactly
/// what makes divergence expensive — a warp with one accurate lane still pays
/// the full accurate path.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Issue cycles for one warp-wide floating-point instruction.
    pub flop_cycles: f64,
    /// Issue cycles for one warp-wide special-function op (exp, log, sqrt, ...).
    pub sfu_cycles: f64,
    /// Issue cycles for one warp-wide shared-memory access (conflict-free).
    pub shared_cycles: f64,
    /// Issue (throughput) cycles per 128-byte global-memory transaction.
    /// This encodes DRAM bandwidth: `sm_count * 128 B / (txn_cycles / clock)`
    /// approximates the device bandwidth.
    pub global_txn_cycles: f64,
    /// Latency of a dependent global-memory round trip, hideable by
    /// switching to other resident warps.
    pub global_latency_cycles: f64,
    /// Cycles for a block-wide barrier (`__syncthreads` analogue).
    pub barrier_cycles: f64,
    /// Cycles for one warp-wide atomic operation on shared memory.
    pub atomic_cycles: f64,
    /// Fixed per-block scheduling overhead in cycles.
    pub block_overhead_cycles: f64,
    /// Core clock in GHz, to convert cycles into seconds.
    pub clock_ghz: f64,
    /// Host<->device bandwidth in GB/s for the transfer model.
    pub xfer_bandwidth_gbs: f64,
    /// Fixed per-transfer latency in microseconds.
    pub xfer_latency_us: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub kernel_launch_us: f64,
}

/// A GPU device description: geometry limits plus cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSpec {
    pub name: &'static str,
    pub vendor: Vendor,
    /// Number of streaming multiprocessors (NVIDIA SMs / AMD CUs).
    pub sm_count: u32,
    /// SIMD width: threads per warp (NVIDIA) / wavefront (AMD).
    pub warp_size: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum warps resident on one SM.
    pub max_warps_per_sm: u32,
    /// Maximum blocks resident on one SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory available to one block, in bytes.
    pub shared_mem_per_block: usize,
    /// Total shared memory per SM, in bytes (limits block residency).
    pub shared_mem_per_sm: usize,
    /// Global (device) memory capacity in bytes.
    pub global_mem_bytes: u64,
    pub costs: CostParams,
}

impl DeviceSpec {
    /// NVIDIA Tesla V100 (16 GB), as in the paper's IBM Power9 platform.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "V100",
            vendor: Vendor::Nvidia,
            sm_count: 80,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 96 * 1024,
            global_mem_bytes: 16 * 1024 * 1024 * 1024,
            costs: CostParams {
                flop_cycles: 1.0,
                sfu_cycles: 4.0,
                shared_cycles: 2.0,
                // 80 SMs * 128 B / (16 cyc / 1.38 GHz) ~= 880 GB/s (HBM2).
                global_txn_cycles: 16.0,
                global_latency_cycles: 400.0,
                barrier_cycles: 12.0,
                atomic_cycles: 20.0,
                block_overhead_cycles: 200.0,
                clock_ghz: 1.38,
                xfer_bandwidth_gbs: 40.0, // NVLink2 to Power9
                xfer_latency_us: 10.0,
                kernel_launch_us: 5.0,
            },
        }
    }

    /// AMD Instinct MI250X (both GCDs, 220 CUs), as in the paper's
    /// AMD Epyc platform.
    pub fn mi250x() -> Self {
        DeviceSpec {
            name: "MI250X",
            vendor: Vendor::Amd,
            sm_count: 220,
            warp_size: 64,
            max_threads_per_block: 1024,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 32,
            shared_mem_per_block: 64 * 1024,
            shared_mem_per_sm: 64 * 1024,
            global_mem_bytes: 128 * 1024 * 1024 * 1024,
            costs: CostParams {
                flop_cycles: 1.0,
                sfu_cycles: 6.0,
                shared_cycles: 2.0,
                // 220 CUs * 128 B / (15 cyc / 1.7 GHz) ~= 3.2 TB/s (HBM2e).
                global_txn_cycles: 15.0,
                global_latency_cycles: 500.0,
                barrier_cycles: 14.0,
                atomic_cycles: 24.0,
                block_overhead_cycles: 220.0,
                clock_ghz: 1.7,
                xfer_bandwidth_gbs: 50.0, // Infinity Fabric to Epyc
                xfer_latency_us: 10.0,
                kernel_launch_us: 6.0,
            },
        }
    }

    /// Both evaluation platforms, NVIDIA first (paper figure order).
    pub fn evaluation_platforms() -> [DeviceSpec; 2] {
        [DeviceSpec::v100(), DeviceSpec::mi250x()]
    }

    /// Effective memory bandwidth implied by the cost parameters, in GB/s.
    /// Exposed so tests can check the calibration stays near datasheet values.
    pub fn implied_bandwidth_gbs(&self) -> f64 {
        let txn_time_s = self.costs.global_txn_cycles / (self.costs.clock_ghz * 1e9);
        self.sm_count as f64 * 128.0 / txn_time_s / 1e9
    }

    /// Convert device cycles to seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.costs.clock_ghz * 1e9)
    }

    /// The exact bits of every field, for keying values that are a pure
    /// function of the device model (two specs with equal words model the
    /// same device). Both structs are destructured in full, so a new field
    /// fails to compile here until it is part of the identity.
    pub fn identity_words(&self) -> Vec<u64> {
        let DeviceSpec {
            name,
            vendor,
            sm_count,
            warp_size,
            max_threads_per_block,
            max_warps_per_sm,
            max_blocks_per_sm,
            shared_mem_per_block,
            shared_mem_per_sm,
            global_mem_bytes,
            costs:
                CostParams {
                    flop_cycles,
                    sfu_cycles,
                    shared_cycles,
                    global_txn_cycles,
                    global_latency_cycles,
                    barrier_cycles,
                    atomic_cycles,
                    block_overhead_cycles,
                    clock_ghz,
                    xfer_bandwidth_gbs,
                    xfer_latency_us,
                    kernel_launch_us,
                },
        } = *self;
        let mut words = vec![
            vendor as u64,
            sm_count.into(),
            warp_size.into(),
            max_threads_per_block.into(),
            max_warps_per_sm.into(),
            max_blocks_per_sm.into(),
            shared_mem_per_block as u64,
            shared_mem_per_sm as u64,
            global_mem_bytes,
        ];
        words.extend(
            [
                flop_cycles,
                sfu_cycles,
                shared_cycles,
                global_txn_cycles,
                global_latency_cycles,
                barrier_cycles,
                atomic_cycles,
                block_overhead_cycles,
                clock_ghz,
                xfer_bandwidth_gbs,
                xfer_latency_us,
                kernel_launch_us,
            ]
            .map(f64::to_bits),
        );
        // The name last, length first, so no name can pass for fields.
        words.push(name.len() as u64);
        words.extend(name.as_bytes().chunks(8).map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        }));
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_geometry_matches_datasheet() {
        let d = DeviceSpec::v100();
        assert_eq!(d.sm_count, 80);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.global_mem_bytes, 16 << 30);
        assert_eq!(d.vendor, Vendor::Nvidia);
    }

    #[test]
    fn mi250x_geometry_matches_datasheet() {
        let d = DeviceSpec::mi250x();
        assert_eq!(d.sm_count, 220);
        assert_eq!(d.warp_size, 64);
        assert_eq!(d.vendor, Vendor::Amd);
    }

    #[test]
    fn v100_bandwidth_near_900_gbs() {
        let bw = DeviceSpec::v100().implied_bandwidth_gbs();
        assert!((700.0..1100.0).contains(&bw), "bw = {bw}");
    }

    #[test]
    fn mi250x_bandwidth_near_3200_gbs() {
        let bw = DeviceSpec::mi250x().implied_bandwidth_gbs();
        assert!((2500.0..4000.0).contains(&bw), "bw = {bw}");
    }

    #[test]
    fn amd_has_more_sms_than_nvidia() {
        // The paper's Fig 8c explanation relies on this ordering.
        assert!(DeviceSpec::mi250x().sm_count > DeviceSpec::v100().sm_count);
    }

    #[test]
    fn cycles_to_seconds_roundtrip() {
        let d = DeviceSpec::v100();
        let s = d.cycles_to_seconds(1.38e9);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_words_tell_every_field_apart() {
        let base = DeviceSpec::v100();
        assert_eq!(base.identity_words(), DeviceSpec::v100().identity_words());
        let edits: [fn(&mut DeviceSpec); 23] = [
            |d| d.name = "V100-recalibrated",
            |d| d.vendor = Vendor::Amd,
            |d| d.sm_count += 1,
            |d| d.warp_size += 1,
            |d| d.max_threads_per_block += 1,
            |d| d.max_warps_per_sm += 1,
            |d| d.max_blocks_per_sm += 1,
            |d| d.shared_mem_per_block += 1,
            |d| d.shared_mem_per_sm += 1,
            |d| d.global_mem_bytes += 1,
            |d| d.costs.flop_cycles += 0.5,
            |d| d.costs.sfu_cycles += 0.5,
            |d| d.costs.shared_cycles += 0.5,
            |d| d.costs.global_txn_cycles += 0.5,
            |d| d.costs.global_latency_cycles += 0.5,
            |d| d.costs.barrier_cycles += 0.5,
            |d| d.costs.atomic_cycles += 0.5,
            |d| d.costs.block_overhead_cycles += 0.5,
            |d| d.costs.clock_ghz += 0.5,
            |d| d.costs.xfer_bandwidth_gbs += 0.5,
            |d| d.costs.xfer_latency_us += 0.5,
            |d| d.costs.kernel_launch_us += 0.5,
            // Signed zero is a different bit pattern, hence a different key.
            |d| d.costs.xfer_latency_us = -0.0,
        ];
        let mut seen = vec![base.identity_words()];
        for (i, edit) in edits.iter().enumerate() {
            let mut d = base;
            edit(&mut d);
            let words = d.identity_words();
            assert!(!seen.contains(&words), "edit {i} does not reach the key");
            seen.push(words);
        }
    }

    #[test]
    fn display_vendor() {
        assert_eq!(Vendor::Nvidia.to_string(), "NVIDIA");
        assert_eq!(Vendor::Amd.to_string(), "AMD");
    }
}
