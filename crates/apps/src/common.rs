//! Shared application plumbing: results, QoI comparison, launch parameters,
//! compute interning, and the [`Benchmark`] trait the harness drives.

use gpu_sim::transfer::{self, Direction};
use gpu_sim::{CostProfile, DeviceSpec, KernelExec, KernelRecord, KernelStats, LaunchConfig};
use hpac_core::exec::ExecOptions;
use hpac_core::hash::fnv1a;
use hpac_core::metrics;
use hpac_core::region::{ApproxRegion, RegionError};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

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
    /// fraction (MAPE or MCR depending on the QoI kind). Non-finite values
    /// anywhere yield `f64::INFINITY` (a destroyed QoI is infinitely wrong).
    pub fn error_vs(&self, accurate: &QoI) -> f64 {
        match (accurate, self) {
            (QoI::Values(a), QoI::Values(p)) => {
                if p.iter().chain(a.iter()).any(|v| !v.is_finite()) {
                    return f64::INFINITY;
                }
                metrics::mape(a, p)
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

/// Accumulates kernel records and transfer/host time across an
/// application's launches.
#[derive(Debug, Clone, Default)]
pub struct RunAccumulator {
    pub kernel_seconds: f64,
    pub transfer_seconds: f64,
    pub host_seconds: f64,
    pub stats: KernelStats,
}

impl RunAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn kernel(&mut self, rec: &KernelRecord) {
        self.kernel_seconds += rec.timing.seconds;
        self.stats.merge(&rec.stats);
    }

    pub fn transfer(&mut self, spec: &DeviceSpec, bytes: u64, _dir: Direction) {
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

/// Interning cache for pure per-item compute over datasets with duplicated
/// rows (the portfolio generators tile `distinct` base rows `run_len`
/// times).
///
/// Rows are classed by their exact input bit patterns at construction; each
/// class's output is produced at most once and replayed for every later
/// item of the class. Because the region bodies' `compute` is pure in the
/// input row, replaying the cached output is bit-identical to recomputing
/// it — the simulator still *charges* every accurate execution through the
/// body's cost profile, so modeled timing and statistics are untouched;
/// only host wall-clock drops. Outputs live in relaxed atomics (bit
/// patterns) behind an acquire/release filled flag, because configuration
/// tasks on different engine threads share one memo through the
/// [`EvalMemo`]'s prepared inputs and fill and read classes concurrently; a
/// racing double-fill writes the same bits twice.
pub struct ComputeMemo {
    class_of: Vec<u32>,
    n_classes: usize,
    out_dim: usize,
    filled: Vec<AtomicBool>,
    slots: Vec<AtomicU64>,
}

impl ComputeMemo {
    /// Class the items of `rows` (row-major, `dims` scalars each) by exact
    /// bit equality.
    pub fn from_rows(rows: &[f64], dims: usize, out_dim: usize) -> Self {
        assert!(dims > 0 && out_dim > 0);
        // Key the map on the rows where they lie, compared by bit pattern:
        // no per-row Vec and no bits copy of the dataset — interning must
        // stay cheap, in time and footprint, relative to what it elides.
        let mut ids: HashMap<RowBits, u32> = HashMap::new();
        let class_of: Vec<u32> = rows
            .chunks_exact(dims)
            .map(|row| {
                let next = ids.len() as u32;
                *ids.entry(RowBits(row)).or_insert(next)
            })
            .collect();
        let n_classes = ids.len();
        ComputeMemo {
            class_of,
            n_classes,
            out_dim,
            filled: (0..n_classes).map(|_| AtomicBool::new(false)).collect(),
            slots: (0..n_classes * out_dim)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Identity classing: item `i` is its own class, with no row hashing.
    ///
    /// Sound for any compute that is pure in the *item index* over a fixed
    /// dataset — including bodies (LavaMD) that read data beyond their
    /// declared input row, where [`ComputeMemo::from_rows`] classing would
    /// be unsound. Pays off only when the memo outlives a single run (the
    /// sweep-scoped [`EvalMemo`]), since within one run each item computes
    /// once anyway.
    pub fn identity(n_items: usize, out_dim: usize) -> Self {
        assert!(out_dim > 0);
        ComputeMemo {
            class_of: (0..n_items as u32).collect(),
            n_classes: n_items,
            out_dim,
            filled: (0..n_items).map(|_| AtomicBool::new(false)).collect(),
            slots: (0..n_items * out_dim).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Distinct input rows found.
    pub fn classes(&self) -> usize {
        self.n_classes
    }

    /// Produce item `i`'s output into `out`: from the cache when its class
    /// has been computed, else by running `compute` and caching the result.
    pub fn get_or(&self, i: usize, out: &mut [f64], compute: impl FnOnce(&mut [f64])) {
        debug_assert_eq!(out.len(), self.out_dim);
        let c = self.class_of[i] as usize;
        let base = c * self.out_dim;
        if self.filled[c].load(Ordering::Acquire) {
            hpac_obs::inc(hpac_obs::CounterId::ComputeMemoHits);
            for (d, o) in out.iter_mut().enumerate() {
                *o = f64::from_bits(self.slots[base + d].load(Ordering::Relaxed));
            }
            return;
        }
        hpac_obs::inc(hpac_obs::CounterId::ComputeMemoMisses);
        compute(out);
        for (d, o) in out.iter().enumerate() {
            self.slots[base + d].store(o.to_bits(), Ordering::Relaxed);
        }
        self.filled[c].store(true, Ordering::Release);
    }
}

/// A row keyed by its exact bit patterns (`-0.0 != 0.0`, `NaN == NaN`).
struct RowBits<'a>(&'a [f64]);

impl RowBits<'_> {
    fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|v| v.to_bits())
    }
}

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.bits().eq(other.bits())
    }
}

impl Eq for RowBits<'_> {}

impl std::hash::Hash for RowBits<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bits().for_each(|w| state.write_u64(w));
    }
}

const EVAL_MEMO_SHARDS: usize = 16;
/// Cap on resident prepared bytes across one sweep scope. On overflow,
/// entries are still built and used for the requesting run, just not
/// retained — correctness never depends on retention.
const EVAL_MEMO_BYTE_CAP: usize = 256 << 20;

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
/// app's generated dataset or assembled matrix with the [`ComputeMemo`]
/// classed from it, the harness's measured baseline — so one copy can serve
/// every run of a sweep scope.
pub trait Prepared: Any + Send + Sync {
    /// Approximate resident size, for the [`EvalMemo`] byte cap.
    fn approx_bytes(&self) -> usize;
}

impl Prepared for ComputeMemo {
    fn approx_bytes(&self) -> usize {
        self.class_of.len() * 4 + self.n_classes * (1 + self.out_dim * 8)
    }
}

/// A stored [`Prepared`] value; [`EvalMemo::prepared`] recovers its type.
type Entry = Arc<dyn Any + Send + Sync>;

/// One key's slot: set once, by whichever requester builds the entry.
type Cell = Arc<OnceLock<Entry>>;

/// Sweep-scoped store of [`Prepared`] state, shared by every config task of
/// a harness sweep or tuner search — and, while a tuning service holds the
/// scope, by every request it searches: one entry per key, holding an app's
/// immutable inputs together with the memo classed from them, or the
/// baseline measured for a (benchmark, device).
///
/// None of this varies with approximation parameters, so it is built once
/// per scope and replayed across all configs instead of once per config.
/// Striped like `TuningCache`: 16 mutex-guarded shards selected by an fnv1a
/// hash of the key. A shard lock covers only finding or inserting a key's
/// cell; the build runs under the cell, so concurrent requests for one key
/// build it once while other keys of the shard — and builds that themselves
/// ask the store for another key, as a baseline asks for its app's inputs —
/// proceed. A build that panics leaves its cell empty, and the next request
/// for the key builds again.
pub struct EvalMemo {
    shards: Vec<Mutex<HashMap<Vec<u64>, Cell>>>,
    bytes: AtomicUsize,
    cap_warned: AtomicBool,
}

impl Default for EvalMemo {
    fn default() -> Self {
        Self::new()
    }
}

/// Which of a store's shards holds `key`. Public for tests that need two
/// keys on one shard.
pub fn shard_of(key: &[u64]) -> usize {
    (fnv1a(key.iter().flat_map(|w| w.to_le_bytes())) as usize) % EVAL_MEMO_SHARDS
}

impl EvalMemo {
    pub fn new() -> Self {
        EvalMemo {
            shards: (0..EVAL_MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            bytes: AtomicUsize::new(0),
            cap_warned: AtomicBool::new(false),
        }
    }

    /// The shard holding `key`. Cells are inserted and removed whole, so the
    /// map is valid at every step and a poisoned lock is safe to recover.
    fn shard(&self, key: &[u64]) -> MutexGuard<'_, HashMap<Vec<u64>, Cell>> {
        self.shards[shard_of(key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Fetch the prepared state for `key`, building (and, capacity
    /// permitting, retaining) it on first request.
    pub fn prepared<T: Prepared>(&self, key: &[u64], build: impl FnOnce() -> T) -> Arc<T> {
        let cell = {
            let mut map = self.shard(key);
            match map.get(key) {
                Some(cell) => Arc::clone(cell),
                None => Arc::clone(map.entry(key.to_vec()).or_default()),
            }
        };
        let mut built_bytes = None;
        let entry = cell.get_or_init(|| {
            let built = Arc::new(build());
            built_bytes = Some(built.approx_bytes());
            built
        });
        match built_bytes {
            None => hpac_obs::inc(hpac_obs::CounterId::EvalMemoHits),
            Some(sz) => {
                hpac_obs::inc(hpac_obs::CounterId::EvalMemoMisses);
                self.retain_or_release(key, sz);
            }
        }
        Arc::clone(entry)
            .downcast()
            .unwrap_or_else(|_| panic!("eval key {key:?} names two prepared types"))
    }

    /// Charge a freshly built `sz`-byte entry to the byte cap, or — when it
    /// does not fit — take its cell back out of the map: requesters already
    /// waiting on the cell still share the build, later ones build again.
    fn retain_or_release(&self, key: &[u64], sz: usize) {
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
        self.shard(key).remove(key);
        if !self.cap_warned.swap(true, Ordering::Relaxed) {
            hpac_obs::log_warn(&format!(
                "sweep scope holds {} of {EVAL_MEMO_BYTE_CAP} prepared bytes; a {sz}-byte \
                 entry (and any later overflow) is rebuilt per run instead of retained",
                self.resident_bytes()
            ));
        }
    }

    /// [`EvalMemo::prepared`] for a bare [`ComputeMemo`].
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
/// private copy for this caller alone when no scope is installed. `build` is
/// told which, since a memo that only pays off across runs is worth classing
/// only for a shared entry.
pub fn scoped_inputs<T: Prepared>(
    key: impl FnOnce() -> Vec<u64>,
    build: impl FnOnce(bool) -> T,
) -> Arc<T> {
    match current_eval_memo() {
        Some(store) => store.prepared(&key(), || build(true)),
        None => Arc::new(build(false)),
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

/// Charge a uniform, non-approximated kernel (per-item cost `cost`) without
/// functionally iterating items — used for accurate helper kernels whose
/// outputs the app computes host-side (reductions, centroid updates).
pub fn charge_uniform_kernel(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    cost_per_warp_step: &CostProfile,
) -> Result<KernelRecord, RegionError> {
    let mut exec = KernelExec::new(spec, launch, 0)?;
    let wpb = launch.warps_per_block(spec);
    let steps = launch.steps();
    let mut remaining = launch.n_items as i64;
    let full_warp = spec.warp_size as i64;
    'outer: for _s in 0..steps {
        for b in 0..launch.n_blocks {
            for w in 0..wpb {
                if remaining <= 0 {
                    break 'outer;
                }
                let lanes = remaining.min(full_warp) as u32;
                exec.charge(b, w, cost_per_warp_step);
                exec.note_step(lanes, 0, 0, false);
                remaining -= full_warp;
            }
        }
    }
    Ok(exec.finish())
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
    /// bit-identical results for every region, letting the harness dedup
    /// grid points before evaluation. `None` (the default) opts out of
    /// deduplication — mandatory for benchmarks where the launch shape
    /// feeds anything beyond a single grid-stride kernel.
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

    /// [`Benchmark::run`] with explicit execution options — the serialized
    /// TAF ablation and the cost ceiling flow through here into every
    /// kernel launch of the application.
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
    #[should_panic(expected = "mismatched QoI")]
    fn qoi_kind_mismatch_panics() {
        let a = QoI::Values(vec![1.0]);
        let p = QoI::Labels(vec![1]);
        let _ = p.error_vs(&a);
    }

    #[test]
    fn accumulator_sums() {
        let spec = DeviceSpec::v100();
        let mut acc = RunAccumulator::new();
        acc.host(0.5);
        acc.transfer(&spec, 1 << 30, Direction::HostToDevice);
        let r = acc.finish(QoI::Values(vec![]), None);
        assert!(r.end_to_end_seconds() > 0.5);
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
    fn compute_memo_interns_by_exact_bits() {
        let rows = vec![1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0];
        let memo = ComputeMemo::from_rows(&rows, 2, 1);
        assert_eq!(memo.classes(), 2);
        let mut calls = 0;
        let mut got = Vec::new();
        for i in 0..4 {
            let mut out = [0.0];
            memo.get_or(i, &mut out, |o| {
                calls += 1;
                o[0] = rows[i * 2] + 10.0 * rows[i * 2 + 1];
            });
            got.push(out[0]);
        }
        assert_eq!(calls, 2, "each class computes once");
        assert_eq!(got, vec![21.0, 21.0, 43.0, 21.0]);
    }

    #[test]
    fn compute_memo_distinguishes_negative_zero() {
        // Bit-exact classing: -0.0 and 0.0 compare equal but are different
        // inputs to sign-sensitive compute.
        let rows = vec![0.0, -0.0];
        let memo = ComputeMemo::from_rows(&rows, 1, 1);
        assert_eq!(memo.classes(), 2);
    }

    #[test]
    fn compute_memo_identity_classes_every_item() {
        let memo = ComputeMemo::identity(3, 2);
        assert_eq!(memo.classes(), 3);
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

    /// A key on the same shard as `key`.
    fn shard_mate(key: &[u64]) -> Vec<u64> {
        (1..)
            .map(|w| eval_key("mate", &[w]))
            .find(|k| shard_of(k) == shard_of(key))
            .expect("some key shares the shard")
    }

    /// How long a test waits for something that must happen before it calls
    /// the store stuck; a regression fails here instead of hanging.
    const STUCK: std::time::Duration = std::time::Duration::from_secs(20);

    #[test]
    fn eval_memo_builds_of_two_keys_on_one_shard_overlap() {
        use std::sync::mpsc::channel;
        let store = EvalMemo::new();
        let key_a = eval_key("app", &[0]);
        let key_b = shard_mate(&key_a);
        let (a_is_building, a_began) = channel();
        let (b_has_built, b_done) = channel();
        std::thread::scope(|s| {
            let (store, key_a) = (&store, &key_a);
            // Build A finishes only once build B, on its shard, has run.
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
    fn eval_memo_build_may_ask_for_another_key_of_its_shard() {
        // What a scoped baseline does: its build runs the app, which asks
        // the same store for its inputs — 1 time in 16 on the same shard.
        let store = Arc::new(EvalMemo::new());
        let key_a = eval_key("app", &[0]);
        let key_b = shard_mate(&key_a);
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
        let key_b = shard_mate(&key_a);
        let blew = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.prepared(&key_a, || -> Blob { panic!("generator failed") })
        }));
        assert!(blew.is_err());
        // Both accessors, on the shard the panic unwound through.
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
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::one_item_per_thread(1000, 128);
        let cost = CostProfile::new().flops(10.0);
        let rec = charge_uniform_kernel(&spec, &lc, &cost).unwrap();
        assert_eq!(rec.stats.accurate_lanes, 1000);
        assert!(rec.timing.cycles > 0.0);
    }
}
