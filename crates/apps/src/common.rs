//! Shared application plumbing: results, QoI comparison, launch parameters,
//! sweep-scoped prepared inputs, and the [`Benchmark`] trait the harness
//! drives.

use gpu_sim::transfer;
use gpu_sim::{DeviceSpec, KernelRecord, KernelStats, LaunchConfig};
use hpac_core::exec::ExecOptions;
use hpac_core::hash::fnv1a;
use hpac_core::metrics;
use hpac_core::once_map::{Cell, OnceMap};
use hpac_core::region::{ApproxRegion, RegionError};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Launch-shape parameters swept by the paper's design-space exploration
/// (the `num_teams`-derived "Items per Thread" and the block size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchParams {
    /// Approximate loop items per thread (1 = maximum parallelism).
    pub items_per_thread: usize,
    /// Threads per block.
    pub block_size: u32,
}

impl Default for LaunchParams {
    fn default() -> Self {
        LaunchParams {
            items_per_thread: 32,
            block_size: 256,
        }
    }
}

impl LaunchParams {
    pub fn new(items_per_thread: usize, block_size: u32) -> Self {
        LaunchParams {
            items_per_thread,
            block_size,
        }
    }
}

/// A benchmark's quantity of interest.
#[derive(Debug, Clone, PartialEq)]
pub enum QoI {
    /// Continuous outputs, compared with MAPE (paper eq. 1).
    Values(Vec<f64>),
    /// Discrete labels, compared with the misclassification rate (eq. 2).
    Labels(Vec<u32>),
}

impl QoI {
    /// Error of `self` (the approximate run) against `accurate`, as a
    /// fraction (MAPE or MCR depending on the QoI kind), in one pass over
    /// the values. Non-finite values anywhere, and a length other than the
    /// accurate one's, yield `f64::INFINITY` (a destroyed QoI is infinitely
    /// wrong).
    pub fn error_vs(&self, accurate: &QoI) -> f64 {
        if self.len() != accurate.len() {
            return f64::INFINITY;
        }
        match (accurate, self) {
            // A NaN or infinity anywhere makes some MAPE term NaN or +inf;
            // finite inputs give finite non-negative terms. So a non-finite
            // MAPE is exactly the destroyed-QoI case, or an overflowing sum.
            (QoI::Values(a), QoI::Values(p)) => {
                let e = metrics::mape(a, p);
                if e.is_finite() {
                    e
                } else {
                    f64::INFINITY
                }
            }
            (QoI::Labels(a), QoI::Labels(p)) => metrics::mcr(a, p),
            _ => panic!("comparing mismatched QoI kinds"),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            QoI::Values(v) => v.len(),
            QoI::Labels(l) => l.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of one application run (accurate or approximated).
#[derive(Debug, Clone)]
pub struct AppResult {
    pub qoi: QoI,
    /// Modeled GPU kernel time, all launches summed.
    pub kernel_seconds: f64,
    /// Modeled host<->device transfer time.
    pub transfer_seconds: f64,
    /// Modeled host-side time (allocation, setup, reductions).
    pub host_seconds: f64,
    /// Execution statistics merged over all launches.
    pub stats: KernelStats,
    /// Solver iterations executed, for convergence-driven apps (K-Means).
    pub iterations: Option<usize>,
}

impl AppResult {
    /// End-to-end modeled runtime (the paper's default speedup basis).
    pub fn end_to_end_seconds(&self) -> f64 {
        self.kernel_seconds + self.transfer_seconds + self.host_seconds
    }

    /// The timing basis used for speedups: kernel-only when the benchmark
    /// requests it (Blackscholes), end-to-end otherwise.
    pub fn timing_basis_seconds(&self, kernel_only: bool) -> f64 {
        if kernel_only {
            self.kernel_seconds
        } else {
            self.end_to_end_seconds()
        }
    }
}

/// Adds up one run's kernel records and transfer and host time, and hands
/// each of its launches what is left of the run's cost ceiling.
#[derive(Debug, Clone, Default)]
pub struct RunAccumulator {
    opts: ExecOptions,
    kernel_seconds: f64,
    transfer_seconds: f64,
    host_seconds: f64,
    stats: KernelStats,
}

impl RunAccumulator {
    /// An empty run whose launches execute under `opts`.
    pub fn new(opts: &ExecOptions) -> Self {
        RunAccumulator {
            opts: *opts,
            ..Self::default()
        }
    }

    /// Launch one kernel with `f`, which is handed the run's options with
    /// the cost ceiling lowered by the kernel seconds already spent, and
    /// add its record.
    pub fn launch(
        &mut self,
        f: impl FnOnce(&ExecOptions) -> Result<KernelRecord, RegionError>,
    ) -> Result<(), RegionError> {
        let budget = self
            .opts
            .abort_above_seconds
            .map(|c| c - self.kernel_seconds);
        let rec = f(&ExecOptions {
            abort_above_seconds: budget,
            ..self.opts
        })?;
        self.kernel_seconds += rec.timing.seconds;
        self.stats.merge(&rec.stats);
        Ok(())
    }

    /// Add a helper kernel (MiniFE's BLAS kernels), launched without a
    /// ceiling: its seconds, but not its stats, which are the walked ones'.
    pub fn helper_kernel(&mut self, rec: &KernelRecord) {
        self.kernel_seconds += rec.timing.seconds;
    }

    pub fn transfer(&mut self, spec: &DeviceSpec, bytes: u64) {
        self.transfer_seconds += transfer::transfer_seconds(spec, bytes);
    }

    pub fn host(&mut self, seconds: f64) {
        self.host_seconds += seconds;
    }

    pub fn finish(self, qoi: QoI, iterations: Option<usize>) -> AppResult {
        AppResult {
            qoi,
            kernel_seconds: self.kernel_seconds,
            transfer_seconds: self.transfer_seconds,
            host_seconds: self.host_seconds,
            stats: self.stats,
            iterations,
        }
    }
}

/// A per-item memo of pure compute, filled lazily: item `i`'s output is
/// produced at most once and replayed for every later lookup.
///
/// No app uses it: each builds the accurate outputs it reuses together with
/// its prepared inputs (Blackscholes' and Binomial Options' prices per base
/// option, LavaMD's force contributions), so a shared entry is complete and
/// immutable from the start. It stays as the primitive the repo benchmark's
/// layer pass times. Each slot is set once; a racing double-fill computes
/// the same output twice and keeps the first.
pub struct ComputeMemo {
    out_dim: usize,
    slots: Vec<OnceLock<Box<[f64]>>>,
}

impl ComputeMemo {
    /// One slot per item, `out_dim` outputs each.
    pub fn identity(n_items: usize, out_dim: usize) -> Self {
        assert!(out_dim > 0);
        ComputeMemo {
            out_dim,
            slots: (0..n_items).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Produce item `i`'s output into `out`: from its slot when filled, else
    /// by running `compute` and filling the slot.
    pub fn get_or(&self, i: usize, out: &mut [f64], compute: impl FnOnce(&mut [f64])) {
        debug_assert_eq!(out.len(), self.out_dim);
        if let Some(row) = self.slots[i].get() {
            hpac_obs::inc(hpac_obs::CounterId::ComputeMemoHits);
            out.copy_from_slice(row);
            return;
        }
        hpac_obs::inc(hpac_obs::CounterId::ComputeMemoMisses);
        compute(out);
        let _ = self.slots[i].set(out.into());
    }
}

/// Cap on the prepared bytes one [`EvalMemo`] retains, summed over
/// [`Prepared::approx_bytes`]. An entry that would pass it is still built
/// and used by the requests waiting on its build, just not retained: the
/// next request for its key builds it again. The first refusal logs a
/// warning, once per store. Nothing is evicted, so a store that reaches the
/// cap keeps what it holds and builds everything else per request.
/// Correctness never depends on retention.
pub const EVAL_MEMO_BYTE_CAP: usize = 256 << 20;

/// Build an [`EvalMemo`] key from an app tag and the exact parameter bits
/// that determine the prepared state. Keys must uniquely identify
/// {app, dataset, compute}: two runs with equal keys must see bit-identical
/// inputs and produce bit-identical outputs for every item.
pub fn eval_key(app: &str, param_bits: &[u64]) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + param_bits.len());
    key.push(fnv1a(app.bytes()));
    key.extend_from_slice(param_bits);
    key
}

/// State built from parameters alone and never mutated afterwards — an
/// app's generated dataset or assembled matrix together with the accurate
/// outputs its runs reuse, the harness's measured baseline — so one copy
/// can serve every run of a sweep scope.
pub trait Prepared: Any + Send + Sync {
    /// Approximate resident size, for the [`EvalMemo`] byte cap.
    fn approx_bytes(&self) -> usize;
}

impl Prepared for ComputeMemo {
    fn approx_bytes(&self) -> usize {
        self.slots.len() * (std::mem::size_of::<OnceLock<Box<[f64]>>>() + self.out_dim * 8)
    }
}

/// A stored [`Prepared`] value; [`EvalMemo::prepared`] recovers its type.
type Entry = Arc<dyn Any + Send + Sync>;

/// Sweep-scoped store of [`Prepared`] state, shared by every config task of
/// a harness sweep or tuner search — and, while a tuning service holds the
/// scope, by every request it searches: one entry per key, holding an app's
/// immutable inputs together with the memo classed from them, or the
/// baseline measured for a (benchmark, device).
///
/// None of this varies with approximation parameters, so it is built once
/// per scope and replayed across all configs instead of once per config.
/// The entries live in a [`OnceMap`]: concurrent requests for one key build
/// it once while other keys — and builds that themselves ask the store for
/// another key, as a baseline asks for its app's inputs — proceed. There is
/// one lookup per app run and one per baseline selection, so its lock never
/// contends. A build that panics leaves its cell empty, and the next request
/// for the key builds again. Retention stops at [`EVAL_MEMO_BYTE_CAP`].
pub struct EvalMemo {
    entries: OnceMap<Vec<u64>, Entry>,
    bytes: AtomicUsize,
    cap_warned: AtomicBool,
}

impl Default for EvalMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalMemo {
    pub fn new() -> Self {
        EvalMemo {
            entries: OnceMap::new(),
            bytes: AtomicUsize::new(0),
            cap_warned: AtomicBool::new(false),
        }
    }

    /// Fetch the prepared state for `key`, building (and, capacity
    /// permitting, retaining) it on first request.
    pub fn prepared<T: Prepared>(&self, key: &[u64], build: impl FnOnce() -> T) -> Arc<T> {
        let (cell, built) = self.entries.get_or_init(key, || Arc::new(build()));
        let entry: Arc<T> = Arc::clone(cell.get().expect("get_or_init returns a set cell"))
            .downcast()
            .unwrap_or_else(|_| panic!("eval key {key:?} names two prepared types"));
        if built {
            hpac_obs::inc(hpac_obs::CounterId::EvalMemoMisses);
            self.retain_or_release(key, &cell, entry.approx_bytes());
        } else {
            hpac_obs::inc(hpac_obs::CounterId::EvalMemoHits);
        }
        entry
    }

    /// Charge a freshly built `sz`-byte entry to the byte cap, or — when it
    /// does not fit — take its cell back out of the map: requesters already
    /// waiting on the cell still share the build, later ones build again.
    fn retain_or_release(&self, key: &[u64], cell: &Cell<Entry>, sz: usize) {
        let fits = |held: usize| {
            held.checked_add(sz)
                .filter(|&sum| sum <= EVAL_MEMO_BYTE_CAP)
        };
        if self
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fits)
            .is_ok()
        {
            return;
        }
        self.entries.forget(key, cell);
        if !self.cap_warned.swap(true, Ordering::Relaxed) {
            hpac_obs::log_warn(&format!(
                "sweep scope holds {} of {EVAL_MEMO_BYTE_CAP} prepared bytes; a {sz}-byte \
                 entry (and any later overflow) is rebuilt per run instead of retained",
                self.resident_bytes()
            ));
        }
    }

    /// [`EvalMemo::prepared`] for a bare [`ComputeMemo`] (the repo
    /// benchmark's layer pass times its hit path).
    pub fn get_or_build(
        &self,
        key: &[u64],
        build: impl FnOnce() -> ComputeMemo,
    ) -> Arc<ComputeMemo> {
        self.prepared(key, build)
    }

    /// Prepared bytes currently retained.
    pub fn resident_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The live sweep-scoped store and the number of [`EvalMemoScope`] guards
/// holding it.
static EVAL_MEMO_SCOPE: RwLock<Option<(Arc<EvalMemo>, usize)>> = RwLock::new(None);

/// RAII guard for a sweep-scoped [`EvalMemo`]; see [`install_eval_memo`].
#[derive(Debug)]
pub struct EvalMemoScope(());

impl Drop for EvalMemoScope {
    fn drop(&mut self) {
        // The slot is valid at every step, so a poisoned lock is recovered
        // rather than panicking inside drop.
        let mut slot = EVAL_MEMO_SCOPE.write().unwrap_or_else(|e| e.into_inner());
        if let Some((_, guards)) = slot.as_mut() {
            *guards -= 1;
            if *guards == 0 {
                *slot = None;
            }
        }
    }
}

/// Hold a sweep-scoped [`EvalMemo`] for the duration of the returned guard.
/// The first guard installs a fresh store; while any guard is alive, later
/// installs — a tuner search wrapping harness sweeps, an overlapping search
/// on another thread, a tuning service keeping its guard for as long as it
/// lives — share that store, and it is dropped with the last guard,
/// whichever that is. Apps that consult [`current_eval_memo`]
/// behave exactly as before when no scope is installed.
pub fn install_eval_memo() -> EvalMemoScope {
    let mut slot = EVAL_MEMO_SCOPE.write().unwrap_or_else(|e| e.into_inner());
    match slot.as_mut() {
        Some((_, guards)) => *guards += 1,
        None => *slot = Some((Arc::new(EvalMemo::new()), 1)),
    }
    EvalMemoScope(())
}

/// The active sweep-scoped store, if any.
pub fn current_eval_memo() -> Option<Arc<EvalMemo>> {
    let slot = EVAL_MEMO_SCOPE.read().unwrap_or_else(|e| e.into_inner());
    slot.as_ref().map(|(store, _)| Arc::clone(store))
}

/// Prepared state by scope: the active sweep scope's entry for `key()`
/// (built by the first caller that asks, shared by every later one), or a
/// private copy for this caller alone when no scope is installed. Both are
/// built alike.
pub fn scoped_inputs<T: Prepared>(
    key: impl FnOnce() -> Vec<u64>,
    build: impl FnOnce() -> T,
) -> Arc<T> {
    match current_eval_memo() {
        Some(store) => store.prepared(&key(), build),
        None => Arc::new(build()),
    }
}

/// Launch class for a single grid-stride kernel over `n_items`: the packed
/// effective `(n_blocks, block_size)` the launch parameters resolve to.
/// Distinct items-per-thread values that clamp to the same grid execute
/// identically.
pub fn grid_stride_launch_class(n_items: usize, lp: &LaunchParams) -> u64 {
    let lc = LaunchConfig::for_items_per_thread(n_items, lp.block_size, lp.items_per_thread);
    ((lc.n_blocks as u64) << 32) | lc.block_size as u64
}

/// The interface the design-space-exploration harness drives.
///
/// Implementations are plain-data configuration structs; `run` is pure
/// (deterministic given the config and arguments) and internally owns all
/// mutable state, so benchmarks can be swept from parallel threads.
pub trait Benchmark: Send + Sync {
    /// Table 1 benchmark name.
    fn name(&self) -> &'static str;

    /// "MAPE" or "MCR" (Table 1's QoI metric).
    fn error_metric(&self) -> &'static str {
        "MAPE"
    }

    /// Whether speedups use kernel-only timing (true only for Blackscholes,
    /// where 99% of end-to-end time is allocation and transfer — §4.1).
    fn kernel_only_timing(&self) -> bool {
        false
    }

    /// Regions in this benchmark that support block-level decisions only
    /// (Binomial Options' cooperative blocks).
    fn block_level_only(&self) -> bool {
        false
    }

    /// A key identifying the *effective* execution the launch parameters
    /// resolve to (e.g. the clamped grid once items-per-thread exceeds the
    /// problem span). Two launch parameters with equal keys must produce
    /// bit-identical results for every region, which lets the harness answer
    /// a grid point from another launch shape of the same class. `None` (the
    /// default) makes the exact launch shape the class — mandatory for
    /// benchmarks where the launch shape feeds anything beyond a single
    /// grid-stride kernel.
    fn launch_class(&self, _spec: &DeviceSpec, _lp: &LaunchParams) -> Option<u64> {
        None
    }

    /// The benchmark's full parameter identity: an [`eval_key`] over every
    /// field, solver controls included. Two instances with equal keys must
    /// return bit-identical results from every run, which lets a sweep scope
    /// keep what it measured for one — the accurate baseline — for the
    /// other. `None` (the default) opts out: the baseline is measured anew
    /// each time. Implementations destructure `Self` in full, so a new
    /// field fails to compile until it is keyed.
    fn params_key(&self) -> Option<Vec<u64>> {
        None
    }

    /// Execute the benchmark, approximating its designated kernel(s) with
    /// `region` (or accurately when `None`), under default execution
    /// options.
    fn run(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
    ) -> Result<AppResult, RegionError> {
        self.run_opts(spec, region, lp, &ExecOptions::default())
    }

    /// [`Benchmark::run`] with explicit execution options, which flow into
    /// every kernel launch of the application. A cost ceiling bounds this
    /// run's own kernels: each launch gets what is left of it.
    ///
    /// Every approximated launch of a run must use `region` as given (true of
    /// all seven apps; LULESH's two approximated kernels share it): the
    /// harness reads [`AppResult::stats`]' merged decision margin as *the*
    /// interval of thresholds over which this run repeats bit for bit, which
    /// it is only if no launch compared against some other threshold.
    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Mutex;

    #[test]
    fn qoi_mape_roundtrip() {
        let a = QoI::Values(vec![1.0, 2.0]);
        let p = QoI::Values(vec![1.1, 1.8]);
        assert!((p.error_vs(&a) - 0.1).abs() < 1e-12);
        assert_eq!(a.error_vs(&a), 0.0);
    }

    #[test]
    fn qoi_mcr_roundtrip() {
        let a = QoI::Labels(vec![0, 1, 2, 3]);
        let p = QoI::Labels(vec![0, 1, 0, 0]);
        assert!((p.error_vs(&a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn qoi_nan_is_infinite_error() {
        let a = QoI::Values(vec![1.0]);
        let p = QoI::Values(vec![f64::NAN]);
        assert!(p.error_vs(&a).is_infinite());
    }

    #[test]
    fn qoi_length_mismatch_is_infinite_error() {
        let a = QoI::Values(vec![1.0; 4]);
        assert_eq!(QoI::Values(vec![1.0; 3]).error_vs(&a), f64::INFINITY);
        assert_eq!(QoI::Values(vec![f64::NAN; 5]).error_vs(&a), f64::INFINITY);
        let a = QoI::Labels(vec![1; 4]);
        assert_eq!(QoI::Labels(vec![1; 3]).error_vs(&a), f64::INFINITY);
        assert_eq!(QoI::Labels(vec![]).error_vs(&a), f64::INFINITY);
    }

    /// The values a scored output can hold: ordinary finite values, signed
    /// zeros, NaN, infinities, and magnitudes whose differences overflow.
    fn score_value(pick: u32, x: f64) -> f64 {
        match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 1e308,
            6 => -1e308,
            _ => x,
        }
    }

    proptest! {
        #[test]
        fn one_pass_score_matches_the_two_scan_formula(
            outputs in prop::collection::vec(
                prop::collection::vec(((0u32..40, -1e3f64..1e3), (0u32..40, -1e3f64..1e3)), 0..10),
                32..33,
            ),
        ) {
            for pairs in outputs {
                let (a, p): (Vec<f64>, Vec<f64>) = pairs
                    .iter()
                    .map(|&((ka, xa), (kp, xp))| (score_value(ka, xa), score_value(kp, xp)))
                    .unzip();
                // The formula this scorer replaced: scan both outputs for a
                // non-finite value, then take the MAPE.
                let two_scan = if p.iter().chain(&a).any(|v| !v.is_finite()) {
                    f64::INFINITY
                } else {
                    metrics::mape(&a, &p)
                };
                let one_pass = QoI::Values(p.clone()).error_vs(&QoI::Values(a.clone()));
                prop_assert_eq!(one_pass.to_bits(), two_scan.to_bits(), "a {:?}, p {:?}", a, p);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatched QoI")]
    fn qoi_kind_mismatch_panics() {
        let a = QoI::Values(vec![1.0]);
        let p = QoI::Labels(vec![1]);
        let _ = p.error_vs(&a);
    }

    #[test]
    fn accumulator_sums() {
        let spec = DeviceSpec::v100();
        let launch = LaunchConfig::one_item_per_thread(4096, 256);
        let rec = hpac_core::exec::charge_uniform_kernel(
            &spec,
            &launch,
            &gpu_sim::CostProfile::new().flops(8.0),
        )
        .unwrap();
        let s = rec.seconds();
        let ceiling = 10.0 * s;
        let mut acc = RunAccumulator::new(&ExecOptions {
            abort_above_seconds: Some(ceiling),
            ..ExecOptions::default()
        });
        // Each launch is handed what is left of the run's ceiling.
        let mut budgets = Vec::new();
        for _ in 0..2 {
            acc.launch(|o| {
                budgets.push(o.abort_above_seconds);
                Ok(rec)
            })
            .unwrap();
        }
        assert_eq!(budgets, [Some(ceiling), Some(ceiling - s)]);
        // A helper kernel adds its seconds, not its stats.
        acc.helper_kernel(&rec);
        acc.host(0.5);
        acc.transfer(&spec, 1 << 30);
        let r = acc.finish(QoI::Values(vec![]), None);
        assert_eq!(r.kernel_seconds, s + s + s);
        assert_eq!(r.stats.warp_steps, 2 * rec.stats.warp_steps);
        assert!(r.end_to_end_seconds() > 0.5 + r.kernel_seconds);
        assert_eq!(r.iterations, None);
    }

    #[test]
    fn timing_basis_selects_kernel_only() {
        let r = AppResult {
            qoi: QoI::Values(vec![]),
            kernel_seconds: 1.0,
            transfer_seconds: 2.0,
            host_seconds: 3.0,
            stats: KernelStats::default(),
            iterations: None,
        };
        assert_eq!(r.timing_basis_seconds(true), 1.0);
        assert_eq!(r.timing_basis_seconds(false), 6.0);
    }

    #[test]
    fn compute_memo_identity_classes_every_item() {
        let memo = ComputeMemo::identity(3, 2);
        let mut calls = 0;
        for i in 0..3 {
            for _ in 0..2 {
                let mut out = [0.0, 0.0];
                memo.get_or(i, &mut out, |o| {
                    calls += 1;
                    o[0] = i as f64;
                    o[1] = -(i as f64);
                });
                assert_eq!(out, [i as f64, -(i as f64)]);
            }
        }
        assert_eq!(calls, 3, "each item computes once");
    }

    /// The memo scope is process-global; tests that install it take turns.
    static SCOPE_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn eval_memo_interns_by_key_and_scope_nests() {
        let _turn = SCOPE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let store = EvalMemo::new();
        let key_a = eval_key("app", &[1, 2]);
        let key_b = eval_key("app", &[1, 3]);
        let a1 = store.get_or_build(&key_a, || ComputeMemo::identity(4, 1));
        let a2 = store.get_or_build(&key_a, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a1, &a2));
        let b = store.get_or_build(&key_b, || ComputeMemo::identity(2, 1));
        assert!(!Arc::ptr_eq(&a1, &b));
        assert!(store.resident_bytes() > 0);

        // Nested installation reuses the outer store; the inner guard's
        // drop must not tear it down.
        let outer = install_eval_memo();
        let seen = current_eval_memo().expect("scope active");
        {
            let _inner = install_eval_memo();
            assert!(Arc::ptr_eq(
                &seen,
                &current_eval_memo().expect("still active")
            ));
        }
        assert!(
            current_eval_memo().is_some(),
            "inner drop must not clear the outer scope"
        );
        drop(outer);
    }

    #[test]
    fn eval_memo_scope_outlives_its_first_owner() {
        // Two overlapping searches: the one that started first finishes
        // first, and the other must keep the store it has been filling.
        let _turn = SCOPE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let a = install_eval_memo();
        let store = current_eval_memo().expect("scope active");
        let b = install_eval_memo();
        drop(a);
        let kept = current_eval_memo().expect("B still holds the scope");
        assert!(Arc::ptr_eq(&store, &kept));
        drop(b);
        assert!(current_eval_memo().is_none(), "last guard drops the store");
    }

    /// A prepared entry claiming `.0` bytes.
    struct Blob(usize);

    impl Prepared for Blob {
        fn approx_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn prepared_state_is_typed_shared_and_built_once() {
        let store = EvalMemo::new();
        let key = eval_key("app", &[1]);
        let a = store.prepared(&key, || Blob(40));
        let b: Arc<Blob> = store.prepared(&key, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.resident_bytes(), 40, "entries count toward the cap");

        // Eight threads asking for a new key at once, round after round:
        // they meet on the key's cell, one builds, seven wait for it.
        const THREADS: usize = 8;
        let start = std::sync::Barrier::new(THREADS);
        for round in 0..50 {
            let key = eval_key("round", &[round]);
            let builds = AtomicUsize::new(0);
            let ask = || {
                start.wait();
                store.prepared(&key, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Blob(8)
                })
            };
            let got: Vec<Arc<Blob>> = std::thread::scope(|s| {
                let others: Vec<_> = (1..THREADS).map(|_| s.spawn(ask)).collect();
                let mine = ask();
                others
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .chain([mine])
                    .collect()
            });
            assert!(got.iter().all(|g| Arc::ptr_eq(g, &got[0])));
            assert_eq!(builds.load(Ordering::SeqCst), 1, "round {round}");
        }
    }

    /// How long a test waits for something that must happen before it calls
    /// the store stuck; a regression fails here instead of hanging.
    const STUCK: std::time::Duration = std::time::Duration::from_secs(20);

    #[test]
    fn eval_memo_builds_of_two_keys_of_one_store_overlap() {
        use std::sync::mpsc::channel;
        let store = EvalMemo::new();
        let key_a = eval_key("app", &[0]);
        let key_b = eval_key("app", &[1]);
        let (a_is_building, a_began) = channel();
        let (b_has_built, b_done) = channel();
        std::thread::scope(|s| {
            let (store, key_a) = (&store, &key_a);
            // Build A finishes only once build B, in its store, has run.
            let a = s.spawn(move || {
                store.prepared(key_a, || {
                    a_is_building.send(()).unwrap();
                    b_done
                        .recv_timeout(STUCK)
                        .expect("build B waited for build A to finish");
                    Blob(1)
                })
            });
            a_began.recv_timeout(STUCK).expect("build A starts");
            store.prepared(&key_b, || {
                b_has_built.send(()).unwrap();
                Blob(2)
            });
            assert_eq!(a.join().expect("build A completes").0, 1);
        });
    }

    #[test]
    fn eval_memo_build_may_ask_for_another_key_of_its_store() {
        // What a scoped baseline does: its build runs the app, which asks
        // the same store for its inputs.
        let store = Arc::new(EvalMemo::new());
        let key_a = eval_key("app", &[0]);
        let key_b = eval_key("app", &[1]);
        let (done, outcome) = std::sync::mpsc::channel();
        // Not joined: were the inner request to deadlock, the thread would
        // never finish and the test must still fail.
        std::thread::spawn({
            let store = Arc::clone(&store);
            move || {
                let outer = store.prepared(&key_a, || {
                    let inner = store.prepared(&key_b, || Blob(1));
                    Blob(inner.0 + 1)
                });
                done.send(outer.0).unwrap();
            }
        });
        assert_eq!(outcome.recv_timeout(STUCK), Ok(2), "nested request hung");
        assert_eq!(store.resident_bytes(), 3, "both entries retained");
    }

    #[test]
    fn panicking_build_does_not_poison_the_store() {
        let store = EvalMemo::new();
        let key_a = eval_key("app", &[0]);
        let key_b = eval_key("app", &[1]);
        let blew = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.prepared(&key_a, || -> Blob { panic!("generator failed") })
        }));
        assert!(blew.is_err());
        // Both accessors, on the map the panic unwound through.
        store.get_or_build(&key_b, || ComputeMemo::identity(1, 1));
        let retried = store.prepared(&key_a, || Blob(8));
        assert!(Arc::ptr_eq(&retried, &store.prepared(&key_a, || Blob(8))));
    }

    #[test]
    fn byte_cap_refuses_retention_and_says_so_once() {
        let store = EvalMemo::new();
        let big = eval_key("app", &[1]);
        let first = store.prepared(&big, || Blob(EVAL_MEMO_BYTE_CAP + 1));
        assert!(store.cap_warned.load(Ordering::Relaxed));
        assert_eq!(store.resident_bytes(), 0);
        // Built and usable for the requesting run, rebuilt for the next.
        let again = store.prepared(&big, || Blob(EVAL_MEMO_BYTE_CAP + 1));
        assert!(!Arc::ptr_eq(&first, &again));
        // Entries that fit are still retained.
        let small = eval_key("app", &[2]);
        let kept = store.prepared(&small, || Blob(8));
        assert!(Arc::ptr_eq(&kept, &store.prepared(&small, || Blob(8))));
    }

    #[test]
    fn grid_stride_class_collapses_clamped_grids() {
        // 64 and 512 items per thread both clamp to one block here.
        let a = grid_stride_launch_class(1000, &LaunchParams::new(64, 256));
        let b = grid_stride_launch_class(1000, &LaunchParams::new(512, 256));
        let c = grid_stride_launch_class(1000, &LaunchParams::new(1, 256));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_kernel_charges_all_items() {
        use gpu_sim::CostProfile;
        use hpac_core::exec::charge_uniform_kernel;
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::one_item_per_thread(1000, 128);
        let cost = CostProfile::new().flops(10.0);
        let rec = charge_uniform_kernel(&spec, &lc, &cost).unwrap();
        assert_eq!(rec.stats.accurate_lanes, 1000);
        assert!(rec.timing.cycles > 0.0);
    }
}
