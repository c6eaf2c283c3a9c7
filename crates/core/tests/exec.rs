//! Behavioural tests of the execution pipeline (migrated from the former
//! `runtime.rs` module tests).

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, LaunchConfig, Schedule};
use hpac_core::exec::{
    approx_block_tasks_opts, approx_parallel_for, approx_parallel_for_opts, engine, BlockTaskBody,
    ExecOptions, RegionBody,
};
use hpac_core::params::PerfoKind;
use hpac_core::region::{ApproxRegion, RegionError};
use hpac_core::HierarchyLevel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A simple square-root region over an input array.
struct SqrtBody {
    input: Vec<f64>,
    output: Vec<f64>,
    calls: AtomicUsize,
}

impl SqrtBody {
    fn new(n: usize) -> Self {
        SqrtBody {
            input: (0..n).map(|i| (i % 16) as f64).collect(),
            output: vec![-1.0; n],
            calls: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl RegionBody for SqrtBody {
    fn in_dim(&self) -> usize {
        1
    }
    fn out_dim(&self) -> usize {
        1
    }
    fn inputs(&self, i: usize, buf: &mut [f64]) {
        buf[0] = self.input[i];
    }
    fn compute(&self, i: usize, out: &mut [f64]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        out[0] = (self.input[i] + 1.0).sqrt();
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.output[i] = out[0];
    }
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(4.0)
            .sfu(1.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }
}

fn spec() -> DeviceSpec {
    DeviceSpec::v100()
}

const N: usize = 4096;

fn launch(ipt: usize) -> LaunchConfig {
    LaunchConfig::for_items_per_thread(N, 128, ipt)
}

#[test]
fn accurate_baseline_computes_everything() {
    let mut body = SqrtBody::new(N);
    let rec = approx_parallel_for(&spec(), &launch(1), None, &mut body).unwrap();
    assert_eq!(body.calls(), N);
    assert!(body.output.iter().all(|&o| o >= 1.0));
    assert_eq!(rec.stats.accurate_lanes, N as u64);
    assert_eq!(rec.stats.approx_fraction(), 0.0);
}

#[test]
fn taf_zero_threshold_on_varying_data_stays_accurate() {
    // Thread-consecutive items differ (period 17 is coprime to the
    // grid stride), so windows are never constant and threshold 0
    // never approximates.
    let mut body = SqrtBody::new(N);
    for (i, v) in body.input.iter_mut().enumerate() {
        *v = (i % 17) as f64;
    }
    let region = ApproxRegion::memo_out(2, 8, 0.0);
    let rec = approx_parallel_for(&spec(), &launch(8), Some(&region), &mut body).unwrap();
    assert_eq!(body.calls(), N);
    assert_eq!(rec.stats.approx_lanes, 0);
}

#[test]
fn taf_constant_data_approximates_heavily() {
    let mut body = SqrtBody::new(N);
    body.input.iter_mut().for_each(|v| *v = 7.0);
    let region = ApproxRegion::memo_out(2, 64, 0.1);
    let rec = approx_parallel_for(&spec(), &launch(64), Some(&region), &mut body).unwrap();
    assert!(
        rec.stats.approx_fraction() > 0.5,
        "fraction = {}",
        rec.stats.approx_fraction()
    );
    // Approximate outputs equal the memoized accurate value -> no error.
    let expect = (7.0f64 + 1.0).sqrt();
    assert!(body.output.iter().all(|&o| (o - expect).abs() < 1e-12));
}

#[test]
fn taf_faster_than_accurate_on_stable_data() {
    let mut acc = SqrtBody::new(N);
    acc.input.iter_mut().for_each(|v| *v = 3.0);
    let base = approx_parallel_for(&spec(), &launch(64), None, &mut acc).unwrap();

    let mut apx = SqrtBody::new(N);
    apx.input.iter_mut().for_each(|v| *v = 3.0);
    let region = ApproxRegion::memo_out(1, 64, 0.1);
    let fast = approx_parallel_for(&spec(), &launch(64), Some(&region), &mut apx).unwrap();
    assert!(
        fast.timing.cycles < base.timing.cycles,
        "approx {} >= accurate {}",
        fast.timing.cycles,
        base.timing.cycles
    );
}

#[test]
fn iact_exact_repeats_hit() {
    // Only 16 distinct inputs: small tables quickly cover them.
    let mut body = SqrtBody::new(N);
    let region = ApproxRegion::memo_in(8, 1e-9).tables_per_warp(1);
    let rec = approx_parallel_for(&spec(), &launch(32), Some(&region), &mut body).unwrap();
    assert!(rec.stats.approx_lanes > 0);
    // Exact-match hits mean zero output error.
    for (i, &o) in body.output.iter().enumerate() {
        let expect = (body.input[i] + 1.0).sqrt();
        assert!((o - expect).abs() < 1e-12, "item {i}");
    }
}

#[test]
fn iact_zero_threshold_still_exact() {
    let mut body = SqrtBody::new(N);
    let region = ApproxRegion::memo_in(4, 0.0);
    let rec = approx_parallel_for(&spec(), &launch(16), Some(&region), &mut body).unwrap();
    // threshold 0 hits only identical inputs -> outputs identical.
    for (i, &o) in body.output.iter().enumerate() {
        let expect = (body.input[i] + 1.0).sqrt();
        assert!((o - expect).abs() < 1e-12);
    }
    let _ = rec;
}

#[test]
fn iact_requires_inputs() {
    struct NoIn(Vec<f64>);
    impl RegionBody for NoIn {
        fn out_dim(&self) -> usize {
            1
        }
        fn compute(&self, _i: usize, out: &mut [f64]) {
            out[0] = 1.0;
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.0[i] = out[0];
        }
        fn accurate_cost(&self, _l: u32, _s: &DeviceSpec) -> CostProfile {
            CostProfile::new().flops(1.0)
        }
    }
    let mut body = NoIn(vec![0.0; 64]);
    let region = ApproxRegion::memo_in(4, 0.5);
    let lc = LaunchConfig::one_item_per_thread(64, 64);
    let err = approx_parallel_for(&spec(), &lc, Some(&region), &mut body).unwrap_err();
    assert!(matches!(err, RegionError::Invalid(_)));
}

#[test]
fn iact_incompatibility_rejected() {
    struct Varying(Vec<f64>);
    impl RegionBody for Varying {
        fn in_dim(&self) -> usize {
            3
        }
        fn out_dim(&self) -> usize {
            1
        }
        fn inputs(&self, _i: usize, buf: &mut [f64]) {
            buf.fill(0.0);
        }
        fn compute(&self, _i: usize, out: &mut [f64]) {
            out[0] = 1.0;
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.0[i] = out[0];
        }
        fn accurate_cost(&self, _l: u32, _s: &DeviceSpec) -> CostProfile {
            CostProfile::new().flops(1.0)
        }
        fn iact_incompatibility(&self) -> Option<String> {
            Some("input sizes vary across threads (CSR rows)".into())
        }
    }
    let mut body = Varying(vec![0.0; 64]);
    let region = ApproxRegion::memo_in(4, 0.5);
    let lc = LaunchConfig::one_item_per_thread(64, 64);
    let err = approx_parallel_for(&spec(), &lc, Some(&region), &mut body).unwrap_err();
    match err {
        RegionError::Invalid(msg) => assert!(msg.contains("CSR")),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn perfo_large_skips_most_items() {
    let mut body = SqrtBody::new(N);
    let region = ApproxRegion::perfo(PerfoKind::Large { m: 4 }).herded(false);
    let rec = approx_parallel_for(&spec(), &launch(1), Some(&region), &mut body).unwrap();
    assert_eq!(body.calls(), N / 4);
    assert_eq!(rec.stats.skipped_lanes, (N - N / 4) as u64);
    // Skipped items keep their initial (stale) output.
    assert!(body.output.iter().filter(|&&o| o == -1.0).count() == N - N / 4);
}

#[test]
fn herded_perfo_cheaper_than_naive() {
    let region_naive = ApproxRegion::perfo(PerfoKind::Small { m: 4 }).herded(false);
    let region_herd = ApproxRegion::perfo(PerfoKind::Small { m: 4 });
    let lc = launch(64);
    let mut b1 = SqrtBody::new(N);
    let naive = approx_parallel_for(&spec(), &lc, Some(&region_naive), &mut b1).unwrap();
    let mut b2 = SqrtBody::new(N);
    let herd = approx_parallel_for(&spec(), &lc, Some(&region_herd), &mut b2).unwrap();
    // Herded perforation issues strictly less work (whole warps skip);
    // wall-clock can coincide when the launch is latency-bound.
    assert!(
        herd.stats.total_issue_cycles < naive.stats.total_issue_cycles,
        "herded {} >= naive {}",
        herd.stats.total_issue_cycles,
        naive.stats.total_issue_cycles
    );
    assert!(herd.timing.cycles <= naive.timing.cycles);
    // Naive diverges, herded does not.
    assert!(naive.stats.divergent_steps > 0);
    assert_eq!(herd.stats.divergent_steps, 0);
}

#[test]
fn ini_perfo_shrinks_bounds() {
    let mut body = SqrtBody::new(N);
    let region = ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.5 });
    approx_parallel_for(&spec(), &launch(1), Some(&region), &mut body).unwrap();
    assert_eq!(body.calls(), N / 2);
    assert!(body.output[..N / 2].iter().all(|&o| o == -1.0));
    assert!(body.output[N / 2..].iter().all(|&o| o >= 1.0));
}

#[test]
fn fini_perfo_drops_tail() {
    let mut body = SqrtBody::new(N);
    let region = ApproxRegion::perfo(PerfoKind::Fini { fraction: 0.25 });
    approx_parallel_for(&spec(), &launch(1), Some(&region), &mut body).unwrap();
    assert_eq!(body.calls(), 3 * N / 4);
    assert!(body.output[3 * N / 4..].iter().all(|&o| o == -1.0));
}

#[test]
fn warp_level_eliminates_divergence() {
    // Mixed data: half the warps' lanes see constant input, half varying.
    let mk = |level: HierarchyLevel| {
        let mut body = SqrtBody::new(N);
        // Even lanes see a constant stream (stable), odd lanes a
        // strictly increasing one (never stable): thread level diverges.
        for (i, v) in body.input.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 5.0 } else { i as f64 };
        }
        let region = ApproxRegion::memo_out(2, 32, 0.05).level(level);
        approx_parallel_for(&spec(), &launch(64), Some(&region), &mut body).unwrap()
    };
    let thread = mk(HierarchyLevel::Thread);
    let warp = mk(HierarchyLevel::Warp);
    assert!(thread.stats.divergent_steps > 0);
    assert_eq!(warp.stats.divergent_steps, 0);
}

#[test]
fn serialized_taf_much_slower() {
    let mut b1 = SqrtBody::new(N);
    b1.input.iter_mut().for_each(|v| *v = 2.0);
    let region = ApproxRegion::memo_out(2, 16, 0.1);
    let relaxed = approx_parallel_for(&spec(), &launch(16), Some(&region), &mut b1).unwrap();

    let mut b2 = SqrtBody::new(N);
    b2.input.iter_mut().for_each(|v| *v = 2.0);
    let serialized = approx_parallel_for_opts(
        &spec(),
        &launch(16),
        Some(&region),
        &mut b2,
        &ExecOptions {
            serialized_taf: true,
            ..ExecOptions::default()
        },
    )
    .unwrap();
    assert!(
        serialized.timing.cycles > 2.0 * relaxed.timing.cycles,
        "serialized {} vs relaxed {}",
        serialized.timing.cycles,
        relaxed.timing.cycles
    );
}

#[test]
fn oversized_ac_state_rejected_at_launch() {
    let mut body = SqrtBody::new(N);
    // 1024 threads/block * 4096-entry window would blow shared memory.
    let region = ApproxRegion::memo_out(4096, 8, 0.5);
    let lc = LaunchConfig {
        n_items: N,
        block_size: 1024,
        n_blocks: 4,
        schedule: Schedule::GridStride,
    };
    let err = approx_parallel_for(&spec(), &lc, Some(&region), &mut body).unwrap_err();
    assert!(matches!(
        err,
        RegionError::Launch(gpu_sim::LaunchError::SharedMemExceeded { .. })
    ));
}

/// A body that records which threads executed `compute`.
struct TracingBody {
    input: Vec<f64>,
    output: Vec<f64>,
    threads_seen: Mutex<std::collections::HashSet<std::thread::ThreadId>>,
}

impl TracingBody {
    fn new(n: usize) -> Self {
        TracingBody {
            input: (0..n).map(|i| (i % 16) as f64).collect(),
            output: vec![-1.0; n],
            threads_seen: Mutex::new(std::collections::HashSet::new()),
        }
    }
}

impl RegionBody for TracingBody {
    fn out_dim(&self) -> usize {
        1
    }
    fn compute(&self, i: usize, out: &mut [f64]) {
        self.threads_seen
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        out[0] = (self.input[i] + 1.0).sqrt();
    }
    fn store(&mut self, i: usize, out: &[f64]) {
        self.output[i] = out[0];
    }
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(4.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }
}

#[test]
fn engine_is_reused_across_launches_no_respawn() {
    // Configuration batches run on the persistent engine workers. Each
    // kernel launch inside a task walks all of its blocks on that task's
    // thread, and repeated batches run on the same workers: worker ids stay
    // stable, nothing respawns.
    let batch = || {
        engine().run(8, 4, |_| {
            let mut body = TracingBody::new(N);
            approx_parallel_for_opts(
                &spec(),
                &launch(8),
                None,
                &mut body,
                &ExecOptions::default(),
            )
            .unwrap();
            body.threads_seen.into_inner().unwrap()
        })
    };
    batch();
    let ids_before = engine().worker_thread_ids();
    let spawned_before = engine().spawned_workers();
    assert!(
        spawned_before >= 3,
        "a width-4 batch should have spawned 3 helpers, saw {spawned_before}"
    );

    let mut seen = std::collections::HashSet::new();
    for _ in 0..25 {
        for threads in batch() {
            assert_eq!(threads.len(), 1, "a launch's blocks left its thread");
            seen.extend(threads);
        }
    }

    // Every thread that ran kernel work is a pool worker (or the caller,
    // which always participates in its own batch)...
    let caller = std::thread::current().id();
    let ids_after = engine().worker_thread_ids();
    for t in &seen {
        assert!(
            *t == caller || ids_after.contains(t),
            "kernel work ran outside the engine pool"
        );
    }
    // ...and the workers that existed before are still the same threads,
    // in the same slots: the pool only ever grows, it never respawns.
    assert_eq!(
        &ids_after[..ids_before.len()],
        &ids_before[..],
        "existing workers were replaced between batches"
    );
}

// --- block tasks -----------------------------------------------------------

struct TaskBody {
    params: Vec<f64>,
    prices: Vec<f64>,
    calls: AtomicUsize,
}

impl TaskBody {
    fn new(n: usize) -> Self {
        TaskBody {
            params: (0..n).map(|i| (i % 8) as f64).collect(),
            prices: vec![0.0; n],
            calls: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl BlockTaskBody for TaskBody {
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
        self.calls.fetch_add(1, Ordering::Relaxed);
        out[0] = self.params[task] * 2.0 + 1.0;
    }
    fn store(&mut self, task: usize, out: &[f64]) {
        self.prices[task] = out[0];
    }
    fn task_cost_per_warp(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().flops(1000.0)
    }
}

#[test]
fn block_tasks_accurate_baseline() {
    let mut body = TaskBody::new(256);
    let rec = approx_block_tasks_opts(
        &spec(),
        256,
        128,
        64,
        None,
        &mut body,
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(body.calls(), 256);
    assert!(body.prices.iter().all(|&p| p >= 1.0));
    assert_eq!(rec.stats.accurate_lanes, 256);
}

#[test]
fn block_tasks_taf_approximates_repeats() {
    // Blocks grid-stride: block b sees tasks b, b+64, ... with params
    // (b%8), (b+64)%8 = same value -> constant output stream.
    let mut body = TaskBody::new(1024);
    let region = ApproxRegion::memo_out(2, 8, 0.01).level(HierarchyLevel::Block);
    let rec = approx_block_tasks_opts(
        &spec(),
        1024,
        128,
        64,
        Some(&region),
        &mut body,
        &ExecOptions::default(),
    )
    .unwrap();
    assert!(rec.stats.approx_lanes > 0);
    // Every task's price still exact because repeated params repeat prices.
    for (t, &p) in body.prices.iter().enumerate() {
        assert!((p - (body.params[t] * 2.0 + 1.0)).abs() < 1e-12);
    }
}

#[test]
fn block_tasks_iact_hits_on_repeats() {
    let mut body = TaskBody::new(1024);
    let region = ApproxRegion::memo_in(8, 1e-9).level(HierarchyLevel::Block);
    let rec = approx_block_tasks_opts(
        &spec(),
        1024,
        128,
        64,
        Some(&region),
        &mut body,
        &ExecOptions::default(),
    )
    .unwrap();
    assert!(rec.stats.approx_lanes > 0);
    assert!(body.calls() < 1024);
    for (t, &p) in body.prices.iter().enumerate() {
        assert!((p - (body.params[t] * 2.0 + 1.0)).abs() < 1e-12);
    }
}

#[test]
fn block_tasks_reject_thread_level_memo() {
    let mut body = TaskBody::new(64);
    let region = ApproxRegion::memo_out(2, 8, 0.5); // thread level
    let err = approx_block_tasks_opts(
        &spec(),
        64,
        128,
        16,
        Some(&region),
        &mut body,
        &ExecOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RegionError::Invalid(_)));
}

#[test]
fn block_tasks_taf_cheaper_on_stable_stream() {
    let n = 2048;
    let mut b_acc = TaskBody::new(n);
    b_acc.params.iter_mut().for_each(|p| *p = 4.0);
    let base = approx_block_tasks_opts(
        &spec(),
        n,
        128,
        64,
        None,
        &mut b_acc,
        &ExecOptions::default(),
    )
    .unwrap();

    let mut b_apx = TaskBody::new(n);
    b_apx.params.iter_mut().for_each(|p| *p = 4.0);
    let region = ApproxRegion::memo_out(1, 16, 0.01).level(HierarchyLevel::Block);
    let fast = approx_block_tasks_opts(
        &spec(),
        n,
        128,
        64,
        Some(&region),
        &mut b_apx,
        &ExecOptions::default(),
    )
    .unwrap();
    assert!(fast.timing.cycles < base.timing.cycles);
}
