//! Differential and contract tests: a `RepeatedLaunch` is observationally
//! one `approx_parallel_for_opts` per launch.
//!
//! The body's declared inputs are fixed while its `compute` reads a
//! parameter that changes every launch (K-Means' centroids), so a replay
//! that reused a recorded *value* instead of a recorded *decision* would
//! show up as a store mismatch. Every launch must return a bitwise-equal
//! `KernelRecord` (timing, statistics, decision margins), issue the same
//! store sequence, add the same kernel seconds to its run, and hit a cost
//! ceiling at the same launch.

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, KernelRecord, LaunchConfig};
use hpac_offload::apps::common::{Benchmark, LaunchParams};
use hpac_offload::apps::kmeans::KMeans;
use hpac_offload::core::exec::{
    approx_parallel_for_opts, ExecOptions, RegionBody, RepeatedLaunch, StoreVisibility,
};
use hpac_offload::core::params::{PerfoKind, Replacement};
use hpac_offload::core::{ApproxRegion, HierarchyLevel, RegionError};
use hpac_offload::obs::{self, CounterId};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Obs counters are process-wide, and the tests below read them, so every
/// test that launches a kernel holds this lock.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Launches per sequence: one recording walk and its replays.
const LAUNCHES: usize = 4;

/// Items of the contract tests' launches.
const ITEMS: usize = 700;

/// Fixed declared inputs mixing plateaus (iACT hits) with varying
/// stretches (misses and mixed warps); `compute` also reads `param`, which
/// changes every launch; every store is logged bit for bit.
struct ParamBody {
    input: Vec<f64>,
    param: f64,
    log: Vec<(usize, [u64; 2])>,
}

impl ParamBody {
    fn new(n: usize, seed: u64) -> Self {
        let input = (0..n)
            .map(|i| {
                // Plateaus recur every five warps' worth of items, so a
                // warp's later steps meet values its tables already hold.
                let plateau = ((i >> 5) % 5) as f64;
                let wiggle = (((i as u64).wrapping_mul(seed | 1) >> 7) % 13) as f64;
                plateau + if i % 3 == 0 { 0.0 } else { wiggle * 0.25 }
            })
            .collect();
        ParamBody {
            input,
            param: 0.0,
            log: Vec::new(),
        }
    }
}

impl RegionBody for ParamBody {
    fn in_dim(&self) -> usize {
        1
    }
    fn out_dim(&self) -> usize {
        2
    }
    fn inputs(&self, i: usize, buf: &mut [f64]) {
        buf[0] = self.input[i];
    }
    fn compute(&self, i: usize, out: &mut [f64]) {
        let x = self.input[i] + 1.0;
        out[0] = x.sqrt() * self.param;
        out[1] = x.ln() + self.param;
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.log.push((i, [out[0].to_bits(), out[1].to_bits()]));
    }
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(8.0)
            .sfu(2.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 16, AccessPattern::Coalesced)
    }
}

fn param_of(launch: usize) -> f64 {
    1.0 + 0.75 * launch as f64
}

fn level_of(idx: usize) -> HierarchyLevel {
    [
        HierarchyLevel::Thread,
        HierarchyLevel::Warp,
        HierarchyLevel::Block,
    ][idx % 3]
}

/// Accurate execution and every perforation kind, herded and not.
fn fixed_regions() -> Vec<Option<ApproxRegion>> {
    let mut regions = vec![None];
    for herded in [true, false] {
        regions.push(Some(
            ApproxRegion::perfo(PerfoKind::Small { m: 3 }).herded(herded),
        ));
        regions.push(Some(
            ApproxRegion::perfo(PerfoKind::Large { m: 4 }).herded(herded),
        ));
    }
    regions.push(Some(ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.3 })));
    regions.push(Some(ApproxRegion::perfo(PerfoKind::Fini { fraction: 0.2 })));
    regions
}

fn iact(tsize: usize, tables_per_warp: u32, level: usize, clock: bool) -> ApproxRegion {
    let replacement = if clock {
        Replacement::Clock
    } else {
        Replacement::RoundRobin
    };
    ApproxRegion::memo_in(tsize, 0.3)
        .tables_per_warp(tables_per_warp)
        .level(level_of(level))
        .replacement(replacement)
}

fn opts(ceiling: Option<f64>) -> ExecOptions {
    ExecOptions {
        abort_above_seconds: ceiling,
        ..ExecOptions::default()
    }
}

/// What one launch sequence observably did, launch by launch, stopping at
/// the first error: each outcome, the stores of each completed launch, and
/// the sequence's kernel seconds after it. Outcomes compare through
/// `Debug`, which prints every `f64` exactly.
#[derive(Debug, Default)]
struct Observed {
    outcomes: Vec<Result<KernelRecord, RegionError>>,
    stores: Vec<Vec<(usize, [u64; 2])>>,
    spent: Vec<u64>,
}

/// Launch a sequence as one run under `o`: each launch is handed what is
/// left of the run's ceiling after the seconds of the launches before it,
/// as `RunAccumulator::launch` hands it.
fn observe(
    n: usize,
    seed: u64,
    o: &ExecOptions,
    mut launch: impl FnMut(&mut ParamBody, &ExecOptions) -> Result<KernelRecord, RegionError>,
) -> Observed {
    let mut body = ParamBody::new(n, seed);
    let mut seen = Observed::default();
    let mut spent = 0.0;
    for l in 0..LAUNCHES {
        body.param = param_of(l);
        body.log.clear();
        let budget = o.abort_above_seconds.map(|c| c - spent);
        let result = launch(
            &mut body,
            &ExecOptions {
                abort_above_seconds: budget,
                ..*o
            },
        );
        let seconds = result.as_ref().ok().map(KernelRecord::seconds);
        seen.outcomes.push(result);
        let Some(seconds) = seconds else { break };
        seen.stores.push(std::mem::take(&mut body.log));
        spent += seconds;
        seen.spent.push(spent.to_bits());
    }
    seen
}

fn walked(
    lc: &LaunchConfig,
    region: Option<&ApproxRegion>,
    o: &ExecOptions,
    n: usize,
    seed: u64,
) -> Observed {
    let spec = DeviceSpec::v100();
    observe(n, seed, o, |body, o| {
        approx_parallel_for_opts(&spec, lc, region, body, o)
    })
}

fn repeated(
    lc: &LaunchConfig,
    region: Option<&ApproxRegion>,
    o: &ExecOptions,
    n: usize,
    seed: u64,
) -> Observed {
    let spec = DeviceSpec::v100();
    let mut handle = RepeatedLaunch::new();
    observe(n, seed, o, |body, o| handle.run(&spec, lc, region, body, o))
}

/// Ceilings around the launch `j` where the walked sequence's cumulative
/// modeled time crosses: just below, at and just above the bound the walk
/// checks after `j`'s last block, halfway through `j`'s bound, and the
/// sequence's seconds after `j`.
fn ceilings_around(
    lc: &LaunchConfig,
    region: Option<&ApproxRegion>,
    n: usize,
    seed: u64,
    j: usize,
) -> Vec<f64> {
    let spec = DeviceSpec::v100();
    let mut before = 0.0;
    let mut around = Vec::new();
    let mut l = 0;
    observe(n, seed, &opts(None), |body, o| {
        let rec = approx_parallel_for_opts(&spec, lc, region, body, o)?;
        if l == j {
            let bound = spec.cycles_to_seconds(rec.stats.total_issue_cycles / spec.sm_count as f64);
            let at = before + bound;
            around = vec![
                at.next_down(),
                at,
                at.next_up(),
                before + 0.5 * bound,
                before + rec.seconds(),
            ];
        }
        before += rec.seconds();
        l += 1;
        Ok(rec)
    });
    around
}

fn assert_same(region: Option<&ApproxRegion>, o: &ExecOptions, a: &Observed, b: &Observed) {
    assert_eq!(
        format!("{:?}", a.outcomes),
        format!("{:?}", b.outcomes),
        "outcomes differ: {region:?} {o:?}"
    );
    assert!(
        a.stores == b.stores,
        "store sequences differ: {region:?} {o:?}"
    );
    assert_eq!(a.spent, b.spent, "kernel seconds differ: {region:?} {o:?}");
}

proptest! {
    /// Random grid-stride shapes (one to many blocks), accurate, every
    /// perforation kind and one random iACT configuration,
    /// with no ceiling and with a ceiling placed around a random launch.
    #[test]
    fn repeated_launch_matches_one_walk_per_launch(
        n in 32usize..4_000,
        warps in 1u32..5,
        ipt in 1usize..40,
        seed in 1u64..1_000_000,
        tsize_log in 0usize..4,
        tables_log in 0usize..6,
        level in 0usize..3,
        clock in any::<bool>(),
        crossing in 0usize..LAUNCHES,
        ceiling_idx in 0usize..5,
    ) {
        let _serial = serial();
        let lc = LaunchConfig::for_items_per_thread(n, warps * 32, ipt);
        let mut regions = fixed_regions();
        regions.push(Some(iact(1 << tsize_log, 1 << tables_log, level, clock)));
        for region in &regions {
            let region = region.as_ref();
            let ceilings = ceilings_around(&lc, region, n, seed, crossing);
            for ceiling in [None, ceilings.get(ceiling_idx).copied()] {
                let o = opts(ceiling);
                let a = walked(&lc, region, &o, n, seed);
                let b = repeated(&lc, region, &o, n, seed);
                assert_same(region, &o, &a, &b);
                if ceiling.is_some() && ceiling_idx == 0 {
                    // Just below the crossing bound: the walk aborts there.
                    prop_assert_eq!(a.outcomes.len(), crossing + 1);
                    prop_assert!(matches!(
                        a.outcomes[crossing],
                        Err(RegionError::CostCeiling(_))
                    ));
                }
            }
        }
    }
}

/// Every iACT table size, tables-per-warp, hierarchy level and replacement
/// policy, on a launch of several blocks.
#[test]
fn every_iact_configuration_replays_like_a_walk() {
    let _serial = serial();
    let n = 1_500;
    let lc = LaunchConfig::for_items_per_thread(n, 64, 4);
    assert!(lc.n_blocks > 1);
    let mut approx_lanes = 0;
    for tsize in [1, 2, 4, 8] {
        for tables in [1, 2, 4, 8, 16, 32] {
            for level in 0..3 {
                for clock in [false, true] {
                    let region = iact(tsize, tables, level, clock);
                    let o = opts(None);
                    let a = walked(&lc, Some(&region), &o, n, 7);
                    let b = repeated(&lc, Some(&region), &o, n, 7);
                    assert_same(Some(&region), &o, &a, &b);
                    let rec = a.outcomes[0].as_ref().expect("the launch runs");
                    approx_lanes += rec.stats.approx_lanes;
                }
            }
        }
    }
    assert!(approx_lanes > 0, "the inputs must give iACT hits");
}

/// `kernel_replays` and `kernel_launches` accumulated while `f` runs.
fn count_launches(f: impl FnOnce()) -> (u64, u64) {
    obs::set_enabled(true);
    let before = obs::snapshot();
    f();
    let delta = obs::snapshot().delta_since(&before);
    obs::set_enabled(false);
    (
        delta.counter(CounterId::KernelReplays),
        delta.counter(CounterId::KernelLaunches),
    )
}

fn run_repeated<B: RegionBody>(region: Option<&ApproxRegion>, o: &ExecOptions, body: &mut B) {
    let spec = DeviceSpec::v100();
    let lc = LaunchConfig::for_items_per_thread(ITEMS, 64, 2);
    let mut handle = RepeatedLaunch::new();
    for _ in 0..LAUNCHES {
        handle
            .run(&spec, &lc, region, body, o)
            .expect("launch runs");
    }
}

/// A body whose `compute` reads this launch's stores.
struct FeedbackBody {
    field: Vec<f64>,
}

impl RegionBody for FeedbackBody {
    fn in_dim(&self) -> usize {
        1
    }
    fn out_dim(&self) -> usize {
        1
    }
    fn inputs(&self, i: usize, buf: &mut [f64]) {
        buf[0] = (i / 16) as f64;
    }
    fn compute(&self, i: usize, out: &mut [f64]) {
        out[0] = self.field[i] + 1.0;
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.field[i] = out[0];
    }
    fn store_visibility(&self) -> StoreVisibility {
        StoreVisibility::InLaunch
    }
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(2.0)
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }
}

#[test]
fn taf_and_store_dependent_bodies_never_replay() {
    let _serial = serial();
    let o = opts(None);
    let taf = ApproxRegion::memo_out(2, 8, 0.5);
    for serialized_taf in [false, true] {
        let o = ExecOptions {
            serialized_taf,
            ..o
        };
        let counts = count_launches(|| run_repeated(Some(&taf), &o, &mut ParamBody::new(ITEMS, 3)));
        assert_eq!(
            counts,
            (0, LAUNCHES as u64),
            "TAF (serialized: {serialized_taf})"
        );
    }
    let region = ApproxRegion::memo_in(2, 0.5);
    let counts = count_launches(|| {
        let mut body = FeedbackBody {
            field: vec![0.0; ITEMS],
        };
        run_repeated(Some(&region), &o, &mut body);
    });
    assert_eq!(counts, (0, LAUNCHES as u64), "in-launch stores");
    // The control: an independent body's iACT launch replays.
    let region = ApproxRegion::memo_in(2, 0.5);
    let counts = count_launches(|| run_repeated(Some(&region), &o, &mut ParamBody::new(ITEMS, 3)));
    assert_eq!(counts, (LAUNCHES as u64 - 1, LAUNCHES as u64));
}

#[test]
#[should_panic(expected = "must pass the spec, launch, region and options of the first run")]
fn a_changed_region_between_runs_panics() {
    let spec = DeviceSpec::v100();
    let lc = LaunchConfig::for_items_per_thread(ITEMS, 64, 2);
    let o = opts(None);
    let mut body = ParamBody::new(ITEMS, 3);
    let mut handle = RepeatedLaunch::new();
    let _ = handle.run(&spec, &lc, None, &mut body, &o);
    let _ = handle.run(
        &spec,
        &lc,
        Some(&ApproxRegion::memo_in(2, 0.5)),
        &mut body,
        &o,
    );
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "declared inputs, dimensions or cost profiles changed")]
fn changed_inputs_between_runs_panic_in_debug_builds() {
    let spec = DeviceSpec::v100();
    let lc = LaunchConfig::for_items_per_thread(ITEMS, 64, 2);
    let o = opts(None);
    let region = ApproxRegion::memo_in(2, 0.5);
    let mut body = ParamBody::new(ITEMS, 3);
    let mut handle = RepeatedLaunch::new();
    let _ = handle.run(&spec, &lc, Some(&region), &mut body, &o);
    body.input[17] += 1.0;
    let _ = handle.run(&spec, &lc, Some(&region), &mut body, &o);
}

/// K-Means issues its distance kernel through one `RepeatedLaunch` per
/// run: accurate, iACT and perforated runs walk the first iteration and
/// replay the rest; a TAF run walks every iteration.
#[test]
fn kmeans_replays_every_iteration_after_the_first() {
    let _serial = serial();
    let spec = DeviceSpec::v100();
    let app = KMeans {
        n_points: 512,
        dims: 2,
        k: 4,
        max_iters: 30,
        spread: 0.3,
        convergence_frac: 5e-3,
        seed: 5,
    };
    let lp = LaunchParams::new(4, 128);
    let replaying = [
        None,
        Some(ApproxRegion::memo_in(2, 0.05).tables_per_warp(8)),
        Some(ApproxRegion::perfo(PerfoKind::Small { m: 8 })),
    ];
    for region in &replaying {
        let mut iterations = 0;
        let (replays, launches) = count_launches(|| {
            let r = app.run(&spec, region.as_ref(), &lp).expect("K-Means runs");
            iterations = r.iterations.expect("K-Means reports iterations") as u64;
        });
        assert!(iterations > 1, "{region:?}");
        assert_eq!(
            (replays, launches),
            (iterations - 1, iterations),
            "{region:?}"
        );
    }
    let taf = ApproxRegion::memo_out(2, 8, 0.5);
    let (replays, _) = count_launches(|| {
        app.run(&spec, Some(&taf), &lp).expect("K-Means runs");
    });
    assert_eq!(replays, 0);
}
