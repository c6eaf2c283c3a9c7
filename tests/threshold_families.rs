//! Families: a sweep answers a configuration from a sibling that differs in
//! threshold and prediction size alone when the sibling's decision margins
//! cover both. Checked against evaluating every configuration on its own
//! (all seven apps, both devices, random families), at the pool level (a
//! run repeated at either end of either margin is the same run, and one
//! step past an end is not), and for the number of evaluations a quick
//! sweep still makes at the benchmark's sizes.

use gpu_sim::{
    AccessPattern, CostProfile, DecisionMargin, DecisionMargins, DeviceSpec, KernelRecord,
    LaunchConfig,
};
use hpac_offload::apps::common::{AppResult, Benchmark, LaunchParams};
use hpac_offload::apps::{
    binomial::BinomialOptions, blackscholes::Blackscholes, kmeans::KMeans, lavamd::LavaMd,
    leukocyte::Leukocyte, lulesh::Lulesh, minife::MiniFe,
};
use hpac_offload::core::exec::{
    approx_block_tasks_opts, approx_parallel_for_opts, BlockTaskBody, ExecOptions, Executor,
    RegionBody,
};
use hpac_offload::core::params::PerfoKind;
use hpac_offload::core::region::RegionError;
use hpac_offload::core::{ApproxRegion, HierarchyLevel};
use hpac_offload::harness::runner::{
    run_config_bounded, run_configs, run_sweep, run_sweep_serial, select_baseline_opts,
    SweepOutcome,
};
use hpac_offload::harness::space::{Scale, SweepConfig};
use hpac_offload::harness::Row;
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::atomic::{AtomicUsize, Ordering};

fn suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Blackscholes {
            n_options: 4096,
            distinct: 16,
            run_len: 16,
            seed: 7,
        }),
        Box::new(BinomialOptions {
            n_options: 256,
            tree_steps: 64,
            distinct: 8,
            run_len: 16,
            block_size: 128,
            seed: 3,
        }),
        Box::new(LavaMd {
            boxes_per_dim: 3,
            par_per_box: 8,
            alpha: 0.5,
            seed: 5,
        }),
        Box::new(KMeans {
            n_points: 1024,
            dims: 4,
            k: 4,
            max_iters: 30,
            spread: 0.25,
            convergence_frac: 5e-3,
            seed: 11,
        }),
        Box::new(MiniFe {
            nx: 6,
            max_iters: 20,
            tol: 1e-9,
            seed: 2,
        }),
        Box::new(Leukocyte {
            n_cells: 4,
            grid: 16,
            iterations: 12,
            omega: 0.6,
            kappa: 0.15,
            seed: 9,
        }),
        Box::new(Lulesh {
            edge: 6,
            steps: 6,
            dt: 1.0e-4,
            ..Lulesh::default()
        }),
    ]
}

/// Every field of a row, floats by bit pattern.
fn row_bits(r: &Row) -> (String, String, usize, [u64; 6], Option<usize>) {
    (
        r.technique.clone(),
        r.config.clone(),
        r.items_per_thread,
        [
            r.speedup,
            r.error_pct,
            r.approx_fraction,
            r.divergent_fraction,
            r.kernel_seconds,
            r.end_to_end_seconds,
        ]
        .map(f64::to_bits),
        r.iterations,
    )
}

/// `swept` reports exactly `rows` and `rejected`, in order.
fn assert_reports(swept: &SweepOutcome, rows: &[Row], rejected: &[(String, String)], what: &str) {
    assert_eq!(swept.rows.len(), rows.len(), "{what}");
    for (s, r) in swept.rows.iter().zip(rows) {
        assert_eq!(row_bits(s), row_bits(r), "{what}");
    }
    assert_eq!(swept.rejected, rejected, "{what}");
}

/// A family: the region at a given threshold and prediction size (ignored
/// by iACT, which has none).
type RegionAt = Box<dyn Fn(f64, usize) -> ApproxRegion>;

/// A prediction size no launch here reaches the end of: longer than any
/// thread's grid-stride steps, so no regime runs out.
const LONG_PSIZE: usize = 1 << 20;

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(0..from.len()).generate(rng)]
}

/// Six to eight thresholds in random order: 0, a duplicate, one beyond the
/// grid's 20, the rest log-uniform over 1e-3..20 (where criterion values
/// fall) — and, once in a while, one the region refuses.
fn thresholds(rng: &mut TestRng) -> Vec<f64> {
    let n = (6usize..9).generate(rng);
    let mut ts = vec![0.0, (20.0..1e3).generate(rng)];
    while ts.len() < n - 1 {
        ts.push(10f64.powf((-3.0..1.3).generate(rng)));
    }
    if (0u32..4).generate(rng) == 0 {
        ts[2] = pick(rng, &[-1.0, f64::NAN, f64::INFINITY]);
    }
    ts.push(ts[(2..ts.len()).generate(rng)]);
    for i in (1..ts.len()).rev() {
        ts.swap(i, (0..i + 1).generate(rng));
    }
    ts
}

/// One random plan: a TAF family over threshold and prediction size, an
/// iACT family and a perforation config, shuffled together. TAF members
/// take psize 1, a grid value or [`LONG_PSIZE`] (every plan has a 1 and a
/// [`LONG_PSIZE`] member) and, once in a while, 0, which the region
/// refuses. A quarter of the members take a second items-per-thread value,
/// so families split (or, where launch classes clamp, do not).
fn random_plan(bench: &dyn Benchmark, spec: &DeviceSpec, rng: &mut TestRng) -> Vec<SweepConfig> {
    let block = hpac_offload::harness::space::block_size_for(bench);
    let levels: &[HierarchyLevel] = if bench.block_level_only() {
        &[HierarchyLevel::Block]
    } else {
        &[HierarchyLevel::Thread, HierarchyLevel::Warp]
    };
    let ipts = [pick(rng, &[1, 8, 64, 512]), pick(rng, &[8, 512])];
    let hsize = (1usize..6).generate(rng);
    let psizes = [1, pick(rng, &[2, 4, 32, 512]), LONG_PSIZE];
    let tables: &[u32] = if spec.warp_size == 64 {
        &[1, 16, 64]
    } else {
        &[1, 2, 16, 32]
    };
    let (tsize, tpw) = ((1usize..9).generate(rng), pick(rng, tables));
    let (taf_level, iact_level) = (pick(rng, levels), pick(rng, levels));

    let mut regions = Vec::new();
    for (i, t) in thresholds(rng).into_iter().enumerate() {
        let psize = match i {
            0 => 1,
            1 => LONG_PSIZE,
            _ if (0u32..8).generate(rng) == 0 => 0,
            _ => pick(rng, &psizes),
        };
        regions.push(ApproxRegion::memo_out(hsize, psize, t).level(taf_level));
    }
    for t in thresholds(rng) {
        regions.push(
            ApproxRegion::memo_in(tsize, t)
                .tables_per_warp(tpw)
                .level(iact_level),
        );
    }
    let mut plan = Vec::new();
    for region in regions {
        let ipt = ipts[usize::from((0u32..4).generate(rng) == 0)];
        plan.push(SweepConfig {
            region,
            lp: LaunchParams::new(ipt, block),
            label: format!("#{} {:?} ipt={ipt}", plan.len(), region.technique),
        });
    }
    plan.push(SweepConfig {
        region: ApproxRegion::perfo(PerfoKind::Small { m: 4 }),
        lp: LaunchParams::new(ipts[0], block),
        label: "perfo".into(),
    });
    for i in (1..plan.len()).rev() {
        plan.swap(i, (0..i + 1).generate(rng));
    }
    plan
}

/// `run_configs` over random families reports, bit for bit and in plan
/// order, what evaluating each configuration alone reports.
#[test]
fn family_rows_equal_lone_evaluation() {
    // The seven-app comparison is slow in debug; CI runs it in release too.
    let cases = if cfg!(debug_assertions) { 4 } else { 12 };
    let mut rng = TestRng::from_name("family_rows_equal_lone_evaluation");
    // The lone side is pinned to the reference executor (a sweep's engine
    // tasks walk inline whatever `HPAC_THREADS` says).
    let opts = ExecOptions::with_executor(Executor::Sequential);
    for bench in suite() {
        let bench = bench.as_ref();
        for spec in DeviceSpec::evaluation_platforms() {
            let baseline = select_baseline_opts(bench, &spec, &opts);
            for case in 0..cases {
                let plan = random_plan(bench, &spec, &mut rng);
                let swept = run_configs(bench, &spec, &plan);
                let (mut rows, mut rejected) = (Vec::new(), Vec::new());
                for cfg in &plan {
                    match run_config_bounded(bench, &spec, &baseline, cfg, &opts).into_result() {
                        Ok(row) => rows.push(row),
                        Err(rej) => rejected.push(rej),
                    }
                }
                let what = format!("{} on {}, case {case}", bench.name(), spec.name);
                assert_eq!(rows.len() + rejected.len(), plan.len(), "{what}");
                assert_reports(&swept, &rows, &rejected, &what);
            }
        }
    }
}

/// The config-parallel and the serial entry point agree under family
/// scheduling, on an app with launch classes and block tasks and on one
/// without classes.
#[test]
fn run_sweep_and_run_sweep_serial_agree() {
    let spec = DeviceSpec::v100();
    let benches = suite();
    for bench in [benches[1].as_ref(), benches[4].as_ref()] {
        let par = run_sweep(bench, &spec, Scale::Quick);
        let ser = run_sweep_serial(bench, &spec, Scale::Quick, &ExecOptions::default());
        assert_reports(&par, &ser.rows, &ser.rejected, bench.name());
        assert!(!par.rows.is_empty());
    }
}

/// Counts the approximated runs that finished — what `ConfigsEvaluated`
/// counts — without the process-wide obs gate other tests would feed.
struct CountEvals<'a> {
    inner: &'a dyn Benchmark,
    evaluated: AtomicUsize,
}

impl Benchmark for CountEvals<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn error_metric(&self) -> &'static str {
        self.inner.error_metric()
    }
    fn kernel_only_timing(&self) -> bool {
        self.inner.kernel_only_timing()
    }
    fn block_level_only(&self) -> bool {
        self.inner.block_level_only()
    }
    fn launch_class(&self, spec: &DeviceSpec, lp: &LaunchParams) -> Option<u64> {
        self.inner.launch_class(spec, lp)
    }
    fn params_key(&self) -> Option<Vec<u64>> {
        self.inner.params_key()
    }
    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        let result = self.inner.run_opts(spec, region, lp, opts);
        if region.is_some() && result.is_ok() {
            self.evaluated.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

/// The approximated runs one V100 quick sweep makes at the repo benchmark's
/// seed-0 sizes (`benchmark/src/suite.rs`); the README lists them beside the
/// counts canonical dedup alone and threshold-only families left. Print them with
/// `cargo test --release --test threshold_families fresh_evaluations -- --nocapture`.
#[test]
#[cfg_attr(debug_assertions, ignore = "benchmark-size sweeps: run with --release")]
fn fresh_evaluations_at_benchmark_sizes() {
    let apps: [(Box<dyn Benchmark>, usize); 7] = [
        (
            Box::new(KMeans {
                n_points: 2048,
                max_iters: 40,
                ..KMeans::default()
            }),
            136,
        ),
        (
            Box::new(Lulesh {
                edge: 12,
                steps: 8,
                dt: 1e-4,
                ..Lulesh::default()
            }),
            286,
        ),
        (
            Box::new(MiniFe {
                nx: 10,
                max_iters: 25,
                ..MiniFe::default()
            }),
            72,
        ),
        (
            Box::new(Leukocyte {
                n_cells: 8,
                grid: 16,
                iterations: 24,
                ..Leukocyte::default()
            }),
            246,
        ),
        (Box::<Blackscholes>::default(), 172),
        (
            Box::new(LavaMd {
                boxes_per_dim: 4,
                par_per_box: 16,
                ..LavaMd::default()
            }),
            297,
        ),
        (
            Box::new(BinomialOptions {
                n_options: 1024,
                tree_steps: 96,
                ..BinomialOptions::default()
            }),
            103,
        ),
    ];
    let spec = DeviceSpec::v100();
    for (bench, at_most) in &apps {
        let counting = CountEvals {
            inner: bench.as_ref(),
            evaluated: AtomicUsize::new(0),
        };
        let outcome = run_sweep(&counting, &spec, Scale::Quick);
        let evaluated = counting.evaluated.load(Ordering::Relaxed);
        println!(
            "{:<18} {evaluated:>4} approximated runs for {} rows",
            bench.name(),
            outcome.rows.len(),
        );
        assert!(
            evaluated <= *at_most,
            "{}: {evaluated} approximated runs, expected at most {at_most}",
            bench.name()
        );
    }
}

// --- pool level --------------------------------------------------------------

/// Plateaus (so TAF and iACT approximate) mixed with varying stretches (so
/// criterion values spread around the threshold).
struct MixBody {
    input: Vec<f64>,
    output: Vec<f64>,
}

impl MixBody {
    fn new(n: usize, seed: u64) -> Self {
        let input = (0..n)
            .map(|i| {
                let plateau = (i >> 5) as f64;
                let wiggle = (((i as u64).wrapping_mul(seed | 1) >> 7) % 13) as f64;
                plateau + if i % 3 == 0 { 0.0 } else { wiggle * 0.25 }
            })
            .collect();
        MixBody {
            input,
            output: vec![-1.0; n],
        }
    }
}

impl RegionBody for MixBody {
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
        out[0] = x.sqrt();
        out[1] = x.ln();
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.output[i] = out[0] + 0.5 * out[1];
    }
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(8.0)
            .sfu(2.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 16, AccessPattern::Coalesced)
    }
}

struct PriceBody {
    params: Vec<f64>,
    prices: Vec<f64>,
}

impl BlockTaskBody for PriceBody {
    fn in_dim(&self) -> usize {
        1
    }
    fn out_dim(&self) -> usize {
        1
    }
    fn inputs(&self, task: usize, buf: &mut [f64]) {
        buf[0] = self.params[task];
    }
    fn compute(&self, task: usize, out: &mut [f64]) {
        out[0] = (self.params[task] * 2.0 + 1.0).sqrt();
    }
    fn store(&mut self, task: usize, out: &[f64]) {
        self.prices[task] = out[0];
    }
    fn task_cost_per_warp(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().flops(500.0)
    }
}

fn level_of(idx: usize) -> HierarchyLevel {
    match idx % 3 {
        0 => HierarchyLevel::Thread,
        1 => HierarchyLevel::Warp,
        _ => HierarchyLevel::Block,
    }
}

/// Both ends of the interval a margin covers, as thresholds a region
/// accepts: the largest value that passed (if any did), and the largest
/// `f64` below the smallest that failed.
fn margin_ends(m: &DecisionMargin) -> Vec<f64> {
    let top = if m.fail_min.is_finite() {
        m.fail_min.next_down()
    } else {
        f64::MAX
    };
    [m.pass_max, top]
        .into_iter()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .collect()
}

/// Both ends of the prediction sizes a psize margin covers (it records
/// `d <= psize − 1`): one past the largest `d` that passed, and the `d` that
/// failed — or, when none failed, the largest psize a region accepts.
fn psize_ends(m: &DecisionMargin) -> (usize, usize) {
    let low = if m.pass_max.is_finite() {
        m.pass_max as usize + 1
    } else {
        1
    };
    let high = if m.fail_min.is_finite() {
        m.fail_min as usize
    } else {
        u32::MAX as usize
    };
    (low, high)
}

/// A run's observable result: the kernel record (timing, every statistic,
/// the margins themselves) and the bits of what it stored.
fn observed(rec: KernelRecord, out: &[f64]) -> (KernelRecord, Vec<u64>) {
    (rec, out.iter().map(|v| v.to_bits()).collect())
}

type Observed = (KernelRecord, Vec<u64>);

/// The run at its own threshold `t` and prediction size `p`, repeated at
/// both ends of each of its margins and jointly at the far corner, is the
/// same run; one step past an end, the comparison there flips. Prediction
/// sizes are checked for TAF only; iACT's psize margin is the identity.
/// Returns the run's margins.
fn check_margin_ends(
    run: impl Fn(f64, usize) -> Observed,
    t: f64,
    p: usize,
    taf: bool,
) -> Result<DecisionMargins, TestCaseError> {
    let at_t = run(t, p);
    let margins = at_t.0.stats.margins;
    let margin = margins.threshold;
    prop_assert!(
        margins.covers(t, Some(p)),
        "{margins:?} does not cover its own ({t}, {p})"
    );
    for end in margin_ends(&margin) {
        prop_assert!(margin.covers(end));
        prop_assert!(
            run(end, p) == at_t,
            "differs at {end} inside {margin:?} of t={t}"
        );
    }
    if margin.fail_min.is_finite() {
        let past = run(margin.fail_min, p).0.stats.margins.threshold;
        prop_assert!(past.pass_max == margin.fail_min, "{past:?} past {margin:?}");
    }
    if margin.pass_max > 0.0 {
        let past = run(margin.pass_max.next_down(), p)
            .0
            .stats
            .margins
            .threshold;
        prop_assert!(past.fail_min == margin.pass_max, "{past:?} past {margin:?}");
    }
    if !taf {
        prop_assert!(margins.psize == DecisionMargin::default());
        return Ok(margins);
    }
    let psize = margins.psize;
    let (low, high) = psize_ends(&psize);
    for end in [low, high] {
        prop_assert!(margins.covers(t, Some(end)));
        prop_assert!(
            run(t, end) == at_t,
            "differs at psize {end} inside {psize:?} of p={p}"
        );
    }
    if let Some(&corner) = margin_ends(&margin).last() {
        prop_assert!(run(corner, high) == at_t, "differs at ({corner}, {high})");
    }
    if psize.fail_min.is_finite() {
        let past = run(t, high + 1).0.stats.margins.psize;
        prop_assert!(past.pass_max == psize.fail_min, "{past:?} past {psize:?}");
    }
    if psize.pass_max >= 1.0 {
        let past = run(t, low - 1).0.stats.margins.psize;
        prop_assert!(past.fail_min == psize.pass_max, "{past:?} past {psize:?}");
    }
    Ok(margins)
}

/// A proptest index → a prediction size: mostly short enough for regimes
/// to run out, sometimes [`LONG_PSIZE`].
fn psize_of(idx: usize) -> usize {
    if idx > 40 {
        LONG_PSIZE
    } else {
        idx
    }
}

proptest! {
    /// A walk at its own threshold and prediction size, repeated at either end of its own margins,
    /// reproduces statistics, timing and outputs exactly; one step past
    /// either end a comparison flips, so the intervals are as wide as they
    /// can be.
    #[test]
    fn walk_repeated_at_its_margin_ends_is_the_same_run(
        n in 64usize..4_000,
        warps in 1u32..4,
        ipt in 2usize..40,
        seed in 1u64..1_000_000,
        level_idx in 0usize..3,
        shape in (1usize..5, 1usize..9, 0usize..3),
        at in (0.0f64..0.6, 0.0f64..3.0, 1usize..48),
    ) {
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::for_items_per_thread(n, warps * 32, ipt);
        let level = level_of(level_idx);
        let (hsize, tsize, tpw_idx) = shape;
        let opts = ExecOptions::with_executor(Executor::Sequential);
        let families: [(f64, RegionAt); 2] = [
            (at.0, Box::new(move |t, p| ApproxRegion::memo_out(hsize, p, t).level(level))),
            (at.1, Box::new(move |t, _| {
                ApproxRegion::memo_in(tsize, t).tables_per_warp([1, 8, 32][tpw_idx]).level(level)
            })),
        ];
        for (t, region_at) in &families {
            let run = |t: f64, p: usize| {
                let mut body = MixBody::new(n, seed);
                let rec = approx_parallel_for_opts(&spec, &lc, Some(&region_at(t, p)), &mut body, &opts)
                    .expect("launch fits");
                observed(rec, &body.output)
            };
            let taf = region_at(0.0, 1).technique_name() == "TAF";
            let margin = check_margin_ends(run, *t, psize_of(at.2), taf)?.threshold;
            if hsize == 1 && taf {
                // A one-value window has RSD 0: every comparison passes, so
                // the run answers every threshold.
                prop_assert!(margin.covers(0.0) && margin.covers(f64::MAX), "{margin:?}");
            }
        }
    }

    /// The same for the block-task pipeline.
    #[test]
    fn block_tasks_repeated_at_their_margin_ends_are_the_same_run(
        n_tasks in 8usize..2_000,
        n_blocks in 2u32..40,
        modulus in 2usize..16,
        hsize in 1usize..4,
        at in (0.0f64..0.4, 0.0f64..4.0, 1usize..48),
    ) {
        let spec = DeviceSpec::v100();
        let opts = ExecOptions::with_executor(Executor::Sequential);
        let families: [(f64, RegionAt); 2] = [
            (at.0, Box::new(move |t, p| ApproxRegion::memo_out(hsize, p, t))),
            (at.1, Box::new(|t, _| ApproxRegion::memo_in(3, t))),
        ];
        for (t, region_at) in &families {
            let run = |t: f64, p: usize| {
                let mut body = PriceBody {
                    params: (0..n_tasks).map(|i| ((i * 7) % modulus) as f64 * 0.5).collect(),
                    prices: vec![0.0; n_tasks],
                };
                let region = region_at(t, p).level(HierarchyLevel::Block);
                let rec = approx_block_tasks_opts(
                    &spec, n_tasks, 128, n_blocks, Some(&region), &mut body, &opts,
                )
                .expect("launch fits");
                observed(rec, &body.prices)
            };
            let taf = region_at(0.0, 1).technique_name() == "TAF";
            check_margin_ends(run, *t, psize_of(at.2), taf)?;
        }
    }
}

/// `hsize = 1` publishes `[0, ∞)`: one run answers every threshold.
#[test]
fn unit_history_publishes_every_threshold() {
    let spec = DeviceSpec::v100();
    let lc = LaunchConfig::for_items_per_thread(2048, 128, 8);
    let mut body = MixBody::new(2048, 17);
    let rec = approx_parallel_for_opts(
        &spec,
        &lc,
        Some(&ApproxRegion::memo_out(1, 4, 0.3)),
        &mut body,
        &ExecOptions::with_executor(Executor::Sequential),
    )
    .unwrap();
    let margin = rec.stats.margins.threshold;
    assert_eq!((margin.pass_max, margin.fail_min), (0.0, f64::INFINITY));
    assert!(margin.covers(0.0) && margin.covers(20.0) && margin.covers(f64::MAX));
}
