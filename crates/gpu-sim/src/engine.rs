//! Kernel execution bookkeeping.
//!
//! [`KernelExec`] is the handle a runtime (HPAC-Offload's, in `hpac-core`)
//! drives while functionally executing a kernel. The runtime walks the launch
//! geometry (blocks → grid-stride steps → warps), runs real Rust closures for
//! the lanes, and charges each block's [`CostProfile`]s and step outcomes
//! into a [`BlockAccumulator`]; [`KernelExec::merge_block`] folds the
//! finished blocks in, and `finish()` runs the accumulated per-warp cycles
//! through the SM scheduling model into a [`KernelRecord`].
//! Nothing here outlives a kernel: a run's caller adds up its records.

use crate::cost::{CostProfile, PrecomposedCost, WarpCycles};
use crate::dim::LaunchConfig;
use crate::spec::{CostParams, DeviceSpec};
use crate::stats::{DecisionMargins, KernelStats};
use crate::timing::{self, TimingBreakdown};

/// Errors rejecting a kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// Block size or grid shape exceeds device limits.
    InvalidGeometry(String),
    /// Per-block shared memory (including AC state) exceeds the device limit.
    SharedMemExceeded { requested: usize, limit: usize },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::InvalidGeometry(msg) => write!(f, "invalid launch geometry: {msg}"),
            LaunchError::SharedMemExceeded { requested, limit } => write!(
                f,
                "shared memory request of {requested} bytes exceeds per-block limit of {limit} bytes"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// The result of one kernel execution: modeled timing plus statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRecord {
    pub timing: TimingBreakdown,
    pub stats: KernelStats,
}

impl KernelRecord {
    /// Kernel time in seconds (convenience accessor).
    pub fn seconds(&self) -> f64 {
        self.timing.seconds
    }
}

/// Accounting for one block's execution, independent of every other block.
///
/// The walk gives each block its own accumulator, charges the block's costs
/// and step outcomes into it, and folds the finished accumulator back with
/// [`KernelExec::merge_block`]. Each accumulator is deterministic given the
/// block's work, and the fold visits blocks in ascending index order, so
/// the resulting [`KernelRecord`] is a function of the per-block work
/// alone.
#[derive(Debug, Clone)]
pub struct BlockAccumulator {
    costs: CostParams,
    warps: Vec<WarpCycles>,
    stats: KernelStats,
}

impl BlockAccumulator {
    /// An empty accumulator for a block of `warps` warps.
    pub fn new(warps: usize, costs: CostParams) -> Self {
        BlockAccumulator {
            costs,
            warps: vec![WarpCycles::default(); warps],
            stats: KernelStats::default(),
        }
    }

    /// Charge one warp-step's cost to warp `warp` of this block.
    pub fn charge(&mut self, warp: u32, profile: &CostProfile) {
        self.charge_precomposed(warp, &profile.precompose(&self.costs));
    }

    /// Charge a cost already resolved against this device's parameters
    /// (see [`CostProfile::precompose`]). This is the hot-path entry: the
    /// memoized walk resolves each distinct lane-mix once and replays the
    /// cached cycle sums here.
    pub fn charge_precomposed(&mut self, warp: u32, cost: &PrecomposedCost) {
        self.stats.total_issue_cycles += cost.issue;
        self.stats.total_latency_cycles += cost.latency;
        self.stats.global_txns += cost.global_txns as u64;
        let w = &mut self.warps[warp as usize];
        w.issue += cost.issue;
        w.latency += cost.latency;
    }

    /// The device cost parameters this accumulator charges against.
    pub fn params(&self) -> &CostParams {
        &self.costs
    }

    /// Clear accumulated cycles and statistics so the allocation can be
    /// reused for another block of the same geometry.
    pub fn reset(&mut self) {
        for w in &mut self.warps {
            *w = WarpCycles::default();
        }
        self.stats = KernelStats::default();
    }

    /// Record the outcome of one warp step for statistics.
    ///
    /// `accurate`/`approx`/`skipped` are lane counts; `divergent` marks that
    /// the warp serialized both execution paths this step.
    pub fn note_step(&mut self, accurate: u32, approx: u32, skipped: u32, divergent: bool) {
        self.stats.warp_steps += 1;
        self.stats.accurate_lanes += accurate as u64;
        self.stats.approx_lanes += approx as u64;
        self.stats.skipped_lanes += skipped as u64;
        if divergent {
            self.stats.divergent_steps += 1;
        }
    }

    /// Fold in the decision margins of this block's approximation state (see
    /// [`DecisionMargins`]); the walk calls it once, when the block retires.
    pub fn note_margins(&mut self, margins: &DecisionMargins) {
        self.stats.margins.merge(margins);
    }

    /// Statistics accumulated so far (tests and diagnostics).
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }
}

/// In-flight kernel execution state.
#[derive(Debug)]
pub struct KernelExec {
    spec: DeviceSpec,
    launch: LaunchConfig,
    shared_bytes_per_block: usize,
    /// blocks[b][w] = accumulated cycles of warp w in block b.
    blocks: Vec<Vec<WarpCycles>>,
    stats: KernelStats,
}

impl KernelExec {
    /// Validate the launch and create the execution record.
    pub fn new(
        spec: &DeviceSpec,
        launch: &LaunchConfig,
        shared_bytes_per_block: usize,
    ) -> Result<Self, LaunchError> {
        launch
            .validate(spec)
            .map_err(LaunchError::InvalidGeometry)?;
        if shared_bytes_per_block > spec.shared_mem_per_block {
            return Err(LaunchError::SharedMemExceeded {
                requested: shared_bytes_per_block,
                limit: spec.shared_mem_per_block,
            });
        }
        let warps = launch.warps_per_block(spec) as usize;
        Ok(KernelExec {
            spec: *spec,
            launch: *launch,
            shared_bytes_per_block,
            blocks: vec![vec![WarpCycles::default(); warps]; launch.n_blocks as usize],
            stats: KernelStats::default(),
        })
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    pub fn launch(&self) -> &LaunchConfig {
        &self.launch
    }

    /// Fold one block's finished accumulator into the kernel record.
    ///
    /// Call once per block, in ascending block order: the u64 counters are
    /// order-independent, and the fixed order makes the f64 cycle totals
    /// bit-deterministic as well.
    pub fn merge_block(&mut self, block: u32, acc: &BlockAccumulator) {
        let warps = &mut self.blocks[block as usize];
        debug_assert_eq!(warps.len(), acc.warps.len());
        for (w, cycles) in warps.iter_mut().zip(&acc.warps) {
            w.issue += cycles.issue;
            w.latency += cycles.latency;
        }
        self.stats.merge(&acc.stats);
    }

    /// A provable lower bound on this kernel's final modeled duration,
    /// given the work merged so far: the accumulated issue cycles spread
    /// perfectly over every SM. The busiest SM's modeled cycles are at
    /// least the mean issue load (waves time `max(Σ issue, ...)` per SM),
    /// further work only adds cycles, and `finish()` adds nonnegative
    /// launch overhead — so the final [`KernelRecord::seconds`] can never
    /// be below this value.
    pub fn lower_bound_seconds(&self) -> f64 {
        self.spec
            .cycles_to_seconds(self.stats.total_issue_cycles / self.spec.sm_count as f64)
    }

    /// Finish execution: run the SM scheduling model over the accumulated
    /// per-warp cycles.
    pub fn finish(self) -> KernelRecord {
        let timing = timing::kernel_time(
            &self.spec,
            &self.launch,
            self.shared_bytes_per_block,
            &self.blocks,
        );
        let record = KernelRecord {
            timing,
            stats: self.stats,
        };
        account_kernel(&record);
        record
    }
}

/// Account one finished kernel: add its execution statistics to the obs
/// counters.
///
/// Every kernel funnels through here: the walked, block-task and uniform
/// helper kernels, which `hpac-core` finishes through one block loop, and
/// a replayed launch that reuses a recorded [`KernelRecord`]. So this is
/// the one place modeled execution feeds the counters.
pub fn account_kernel(record: &KernelRecord) {
    if hpac_obs::enabled() {
        use hpac_obs::CounterId as C;
        let stats = &record.stats;
        hpac_obs::inc(C::KernelLaunches);
        hpac_obs::add(C::WarpSteps, stats.warp_steps);
        hpac_obs::add(C::DivergentSteps, stats.divergent_steps);
        hpac_obs::add(C::ApproxLanes, stats.approx_lanes);
        hpac_obs::add(C::AccurateLanes, stats.accurate_lanes);
        hpac_obs::add(C::SkippedLanes, stats.skipped_lanes);
        hpac_obs::add(C::GlobalTxns, stats.global_txns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::AccessPattern;
    use crate::dim::Schedule;

    fn spec() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn small_launch() -> LaunchConfig {
        LaunchConfig::one_item_per_thread(1024, 128)
    }

    /// An empty accumulator for one block of `k`.
    fn block(k: &KernelExec) -> BlockAccumulator {
        BlockAccumulator::new(
            k.launch().warps_per_block(k.spec()) as usize,
            k.spec().costs,
        )
    }

    #[test]
    fn rejects_shared_mem_overflow() {
        let err = KernelExec::new(&spec(), &small_launch(), 49 * 1024).unwrap_err();
        assert!(matches!(err, LaunchError::SharedMemExceeded { .. }));
        assert!(err.to_string().contains("49152"));
    }

    #[test]
    fn rejects_bad_geometry() {
        let lc = LaunchConfig {
            n_items: 10,
            block_size: 4096,
            n_blocks: 1,
            schedule: Schedule::GridStride,
        };
        let err = KernelExec::new(&spec(), &lc, 0).unwrap_err();
        assert!(matches!(err, LaunchError::InvalidGeometry(_)));
    }

    #[test]
    fn charge_accumulates_per_warp() {
        let mut k = KernelExec::new(&spec(), &small_launch(), 0).unwrap();
        let c = CostProfile::new()
            .flops(10.0)
            .global_read(32, 8, AccessPattern::Coalesced);
        let mut b0 = block(&k);
        b0.charge(0, &c);
        b0.charge(0, &c);
        k.merge_block(0, &b0);
        let mut b1 = block(&k);
        b1.charge(3, &c);
        k.merge_block(1, &b1);
        let rec = k.finish();
        assert_eq!(rec.stats.global_txns, 6); // 2 txns per charge
        assert!(rec.stats.total_issue_cycles > 0.0);
        assert!(rec.timing.cycles > 0.0);
    }

    #[test]
    fn note_step_updates_stats() {
        let mut k = KernelExec::new(&spec(), &small_launch(), 0).unwrap();
        let mut b = block(&k);
        b.note_step(20, 12, 0, true);
        b.note_step(32, 0, 0, false);
        k.merge_block(0, &b);
        let rec = k.finish();
        assert_eq!(rec.stats.warp_steps, 2);
        assert_eq!(rec.stats.divergent_steps, 1);
        assert_eq!(rec.stats.accurate_lanes, 52);
        assert_eq!(rec.stats.approx_lanes, 12);
        assert!((rec.stats.approx_fraction() - 12.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_reset_restores_the_margin_identity() {
        let mut acc = BlockAccumulator::new(1, spec().costs);
        let narrow = crate::DecisionMargin {
            pass_max: 0.25,
            fail_min: 0.75,
        };
        acc.note_margins(&DecisionMargins {
            threshold: narrow,
            psize: narrow,
        });
        assert!(!acc.stats().margins.covers(1.0, None));
        assert!(!acc.stats().margins.covers(0.5, Some(4)));
        acc.reset();
        assert_eq!(acc.stats().margins, DecisionMargins::default());
        assert!(acc.stats().margins.covers(0.0, Some(1)));
        assert!(acc.stats().margins.covers(1e300, Some(1 << 40)));
    }

    #[test]
    fn empty_kernel_still_times() {
        let k = KernelExec::new(&spec(), &small_launch(), 0).unwrap();
        let rec = k.finish();
        assert!(rec.seconds() > 0.0); // launch overhead
        assert_eq!(rec.stats.warp_steps, 0);
    }

    #[test]
    fn lower_bound_never_exceeds_final_seconds() {
        let mut k = KernelExec::new(&spec(), &small_launch(), 0).unwrap();
        let c = CostProfile::new()
            .flops(1000.0)
            .global_read(32, 8, AccessPattern::Coalesced);
        for b in 0..8 {
            let mut acc = block(&k);
            acc.charge(0, &c);
            k.merge_block(b, &acc);
        }
        let lb = k.lower_bound_seconds();
        assert!(lb > 0.0);
        let rec = k.finish();
        assert!(lb <= rec.seconds(), "{lb} > {}", rec.seconds());
    }

    #[test]
    fn divergent_charge_costs_more() {
        let acc = CostProfile::new().flops(100.0);
        let apx = CostProfile::new().flops(10.0);

        let mut k1 = KernelExec::new(&spec(), &small_launch(), 0).unwrap();
        let mut b1 = block(&k1);
        b1.charge(0, &acc);
        k1.merge_block(0, &b1);
        let uniform = k1.finish();

        let mut k2 = KernelExec::new(&spec(), &small_launch(), 0).unwrap();
        let mut b2 = block(&k2);
        b2.charge(0, &acc.add(&apx)); // both paths serialized
        k2.merge_block(0, &b2);
        let divergent = k2.finish();

        assert!(divergent.stats.total_issue_cycles > uniform.stats.total_issue_cycles);
    }
}
