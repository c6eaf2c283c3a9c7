//! Per-warp-step cost accounting.
//!
//! Kernel bodies describe the work of one region execution as a
//! [`CostProfile`]; the engine converts it into issue cycles (occupying the
//! SM's instruction pipeline) and latency cycles (hideable global-memory
//! waits) using the device's [`crate::spec::CostParams`].
//!
//! Costs are charged **warp-wide**: arithmetic costs do not scale with the
//! number of active lanes (SIMD executes the instruction for the whole warp),
//! while memory transaction counts do (coalescing over active lanes only).

use crate::coalesce::{self, AccessPattern};
use crate::spec::CostParams;

/// Work performed by one warp executing one region step.
///
/// Arithmetic fields (`flops`, `sfu`) are per-lane instruction counts of the
/// region body — since SIMD issues one instruction for all lanes, they are
/// charged once per warp. Memory is described as access events so the
/// coalescing model can convert them to transactions based on the active
/// lane count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostProfile {
    /// FP instructions in the region body (per lane; charged warp-wide).
    pub flops: f64,
    /// Special-function instructions (exp/log/sqrt/div; per lane).
    pub sfu: f64,
    /// Warp-wide shared-memory accesses (already warp-aggregated).
    pub shared_ops: f64,
    /// Block barriers executed.
    pub barriers: f64,
    /// Warp-wide atomic operations.
    pub atomics: f64,
    /// Total 128-byte global transactions (use the `global_*` builders).
    pub global_txns: f64,
    /// Dependent global-memory round trips (latency periods exposed when
    /// too few warps are resident to hide them).
    pub mem_rounds: f64,
}

impl CostProfile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-lane floating-point instruction count.
    pub fn flops(mut self, n: f64) -> Self {
        self.flops += n;
        self
    }

    /// Per-lane special-function instruction count.
    pub fn sfu(mut self, n: f64) -> Self {
        self.sfu += n;
        self
    }

    /// Warp-wide shared memory accesses.
    pub fn shared_ops(mut self, n: f64) -> Self {
        self.shared_ops += n;
        self
    }

    pub fn barriers(mut self, n: f64) -> Self {
        self.barriers += n;
        self
    }

    pub fn atomics(mut self, n: f64) -> Self {
        self.atomics += n;
        self
    }

    /// A warp-wide global read: each of `lanes` active lanes reads
    /// `bytes_per_lane` bytes in `pattern`. Adds one dependent latency round.
    pub fn global_read(mut self, lanes: u32, bytes_per_lane: u32, pattern: AccessPattern) -> Self {
        self.global_txns += coalesce::transactions(lanes, bytes_per_lane, pattern) as f64;
        if lanes > 0 && bytes_per_lane > 0 {
            self.mem_rounds += 1.0;
        }
        self
    }

    /// A warp-wide global write (writes are fire-and-forget: they cost
    /// bandwidth but add no dependent latency round).
    pub fn global_write(mut self, lanes: u32, bytes_per_lane: u32, pattern: AccessPattern) -> Self {
        self.global_txns += coalesce::transactions(lanes, bytes_per_lane, pattern) as f64;
        self
    }

    /// Component-wise sum (used when a warp serializes both execution paths).
    pub fn add(&self, other: &CostProfile) -> CostProfile {
        CostProfile {
            flops: self.flops + other.flops,
            sfu: self.sfu + other.sfu,
            shared_ops: self.shared_ops + other.shared_ops,
            barriers: self.barriers + other.barriers,
            atomics: self.atomics + other.atomics,
            global_txns: self.global_txns + other.global_txns,
            mem_rounds: self.mem_rounds + other.mem_rounds,
        }
    }

    /// Scale all components (e.g. a body executed `k` times per step).
    pub fn scale(&self, k: f64) -> CostProfile {
        CostProfile {
            flops: self.flops * k,
            sfu: self.sfu * k,
            shared_ops: self.shared_ops * k,
            barriers: self.barriers * k,
            atomics: self.atomics * k,
            global_txns: self.global_txns * k,
            mem_rounds: self.mem_rounds * k,
        }
    }

    /// Issue cycles: time this warp occupies its SM's pipelines.
    pub fn issue_cycles(&self, p: &CostParams) -> f64 {
        self.flops * p.flop_cycles
            + self.sfu * p.sfu_cycles
            + self.shared_ops * p.shared_cycles
            + self.barriers * p.barrier_cycles
            + self.atomics * p.atomic_cycles
            + self.global_txns * p.global_txn_cycles
    }

    /// Latency cycles: dependent memory waits, hideable by other warps.
    pub fn latency_cycles(&self, p: &CostParams) -> f64 {
        self.mem_rounds * p.global_latency_cycles
    }

    /// Resolve this profile against a device's cost parameters once, so the
    /// result can be charged repeatedly without re-deriving the cycle sums.
    ///
    /// `charge_precomposed` with the result adds bit-identical values to what
    /// [`crate::engine::BlockAccumulator::charge`] would compute from the
    /// profile itself: `issue_cycles`/`latency_cycles` are deterministic pure
    /// functions of (profile, params), evaluated here exactly once.
    pub fn precompose(&self, p: &CostParams) -> PrecomposedCost {
        PrecomposedCost {
            issue: self.issue_cycles(p),
            latency: self.latency_cycles(p),
            global_txns: self.global_txns,
        }
    }
}

/// A [`CostProfile`] already folded through a device's [`CostParams`]:
/// the per-charge work is two f64 adds per accumulator field instead of a
/// seven-term dot product. Produced by [`CostProfile::precompose`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrecomposedCost {
    /// Issue cycles this cost occupies on the SM pipelines.
    pub issue: f64,
    /// Dependent (hideable) memory latency cycles.
    pub latency: f64,
    /// Total 128-byte global transactions (kept for the stats counters).
    pub global_txns: f64,
}

/// Accumulated cycles for one warp over a whole kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarpCycles {
    pub issue: f64,
    pub latency: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::LaunchConfig;
    use crate::engine::{BlockAccumulator, KernelExec};
    use crate::spec::DeviceSpec;

    fn params() -> CostParams {
        DeviceSpec::v100().costs
    }

    #[test]
    fn builder_accumulates() {
        let c =
            CostProfile::new()
                .flops(10.0)
                .sfu(2.0)
                .global_read(32, 8, AccessPattern::Coalesced);
        assert_eq!(c.flops, 10.0);
        assert_eq!(c.sfu, 2.0);
        assert_eq!(c.global_txns, 2.0);
        assert_eq!(c.mem_rounds, 1.0);
    }

    #[test]
    fn writes_add_no_latency_round() {
        let c = CostProfile::new().global_write(32, 8, AccessPattern::Coalesced);
        assert_eq!(c.mem_rounds, 0.0);
        assert!(c.global_txns > 0.0);
    }

    #[test]
    fn issue_cycles_linear_in_flops() {
        let p = params();
        let a = CostProfile::new().flops(100.0).issue_cycles(&p);
        let b = CostProfile::new().flops(200.0).issue_cycles(&p);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn add_is_componentwise() {
        let a = CostProfile::new().flops(1.0).barriers(1.0);
        let b = CostProfile::new().flops(2.0).atomics(3.0);
        let s = a.add(&b);
        assert_eq!(s.flops, 3.0);
        assert_eq!(s.barriers, 1.0);
        assert_eq!(s.atomics, 3.0);
    }

    #[test]
    fn scale_scales_everything() {
        let c = CostProfile::new()
            .flops(2.0)
            .global_read(32, 4, AccessPattern::Coalesced)
            .scale(3.0);
        assert_eq!(c.flops, 6.0);
        assert_eq!(c.global_txns, 3.0);
        assert_eq!(c.mem_rounds, 3.0);
    }

    #[test]
    fn warp_cycles_accumulate() {
        // One block of one warp, so the kernel's cycle totals are that
        // warp's.
        let spec = DeviceSpec::v100();
        let p = params();
        let mut k = KernelExec::new(&spec, &LaunchConfig::one_item_per_thread(32, 32), 0).unwrap();
        let mut acc = BlockAccumulator::new(1, p);
        let c = CostProfile::new()
            .flops(10.0)
            .global_read(32, 8, AccessPattern::Coalesced);
        acc.charge(0, &c);
        acc.charge(0, &c);
        k.merge_block(0, &acc);
        let w = k.finish().stats;
        assert!((w.total_issue_cycles - 2.0 * c.issue_cycles(&p)).abs() < 1e-9);
        assert!((w.total_latency_cycles - 2.0 * p.global_latency_cycles).abs() < 1e-9);
    }
}
