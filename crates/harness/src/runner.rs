//! Sweep execution: baseline selection and the parallel configuration sweep.
//!
//! Speedup follows the paper's definition: the baseline is the
//! *non-approximated* application at its best launch configuration, and
//! every approximated configuration is compared against that one number.
//! Blackscholes uses kernel-only timing (§4.1); everything else uses
//! end-to-end modeled time including transfers.

use crate::db::Row;
use crate::space::{self, Scale, SweepConfig};
use gpu_sim::{DecisionMargins, DeviceSpec};
use hpac_apps::common::{
    eval_key, install_eval_memo, scoped_inputs, AppResult, Benchmark, LaunchParams, Prepared, QoI,
};
use hpac_core::exec::{engine, ExecOptions};
use hpac_core::region::{FamilyPoint, RegionError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

const QUALITY_CACHE_SHARDS: usize = 8;

/// Output-fingerprint quality cache: error scores keyed by a 128-bit
/// fingerprint of the approximate run's QoI bit patterns. Many grid points
/// produce bit-identical outputs (exact-threshold memoization, herded
/// convergence to the same assignment); their error metric is computed once
/// per baseline and served from here afterwards. Owned by the [`Baseline`],
/// so the (fingerprint → error) mapping is per-baseline by construction.
#[derive(Debug)]
pub struct QualityCache {
    shards: Vec<Mutex<HashMap<(u64, u64), f64>>>,
}

impl Default for QualityCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QualityCache {
    pub fn new() -> Self {
        QualityCache {
            shards: (0..QUALITY_CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// The shard holding `fp`. No caller code runs under the lock and every
    /// update is one whole insert, so the map is valid at every step and a
    /// poisoned lock is safe to recover.
    fn shard(&self, fp: (u64, u64)) -> MutexGuard<'_, HashMap<(u64, u64), f64>> {
        self.shards[(fp.0 as usize) % QUALITY_CACHE_SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The cached error for `fp`, or `compute`'s result (which is then
    /// cached). Returns `(error, was_hit)`. The lock is not held across
    /// `compute`; a racing duplicate computes the same value twice.
    pub fn get_or(&self, fp: (u64, u64), compute: impl FnOnce() -> f64) -> (f64, bool) {
        if let Some(&v) = self.shard(fp).get(&fp) {
            return (v, true);
        }
        let v = compute();
        self.shard(fp).insert(fp, v);
        (v, false)
    }
}

/// 128-bit fingerprint of a QoI's exact bit patterns. Equal outputs always
/// collide; unequal outputs colliding on both halves is vanishingly
/// unlikely. The value lives only in a [`QualityCache`] and is never
/// persisted.
fn qoi_fingerprint(q: &QoI) -> (u64, u64) {
    match q {
        QoI::Values(v) => fingerprint_words(1, v, |x| x.to_bits()),
        QoI::Labels(l) => fingerprint_words(2, l, |&x| u64::from(x)),
    }
}

/// Word `i` feeds lane `i & 3`; each lane keeps two multiply-xor
/// accumulators (distinct odd multipliers), so eight independent chains are
/// in flight instead of two dependent ones — this pass runs once per
/// evaluated config over the whole output. The lanes, the kind tag and the
/// length are folded at the end; every chain and the fold are
/// order-sensitive, so permuted outputs do not collide.
fn fingerprint_words<T>(kind: u64, items: &[T], word: impl Fn(&T) -> u64) -> (u64, u64) {
    const LANES: usize = 4;
    const M1: u64 = 0x100_0000_01b3;
    const M2: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h1 = [
        0xcbf2_9ce4_8422_2325u64,
        0x8422_2325_cbf2_9ce4,
        0x6c62_272e_07bb_0142,
        0x07bb_0142_6c62_272e,
    ];
    let mut h2 = [
        0x2545_f491_4f6c_dd1du64,
        0x4f6c_dd1d_2545_f491,
        0xd6e8_feb8_6659_fd93,
        0x6659_fd93_d6e8_feb8,
    ];
    let mut feed = |lane: usize, w: u64| {
        h1[lane] = (h1[lane] ^ w).wrapping_mul(M1);
        h2[lane] = (h2[lane] ^ w).wrapping_mul(M2);
    };
    let mut chunks = items.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, x) in chunk.iter().enumerate() {
            feed(lane, word(x));
        }
    }
    for (lane, x) in chunks.remainder().iter().enumerate() {
        feed(lane, word(x));
    }
    let fold = |lanes: [u64; LANES], m: u64| {
        [kind, items.len() as u64]
            .into_iter()
            .chain(lanes)
            .fold(0, |h, w| (h ^ w).wrapping_mul(m).rotate_left(29))
    };
    (fold(h1, M1), fold(h2, M2))
}

/// The chosen baseline: launch shape, result, its timing-basis seconds, and
/// the quality cache scoring approximate outputs against it. Cloning shares
/// the result and the cache, so a baseline fetched from a sweep scope costs
/// two reference counts, not a copy of the output.
#[derive(Debug, Clone)]
pub struct Baseline {
    pub lp: LaunchParams,
    pub result: Arc<AppResult>,
    pub seconds: f64,
    pub quality: Arc<QualityCache>,
}

impl Prepared for Baseline {
    /// The output; the quality cache grows by 24 bytes per distinct output
    /// scored and is left out.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<AppResult>()
            + match &self.result.qoi {
                QoI::Values(v) => v.len() * 8,
                QoI::Labels(l) => l.len() * 4,
            }
    }
}

/// Pick the best non-approximated launch over the benchmark's baseline
/// items-per-thread candidates.
pub fn select_baseline(bench: &dyn Benchmark, spec: &DeviceSpec) -> Baseline {
    select_baseline_opts(bench, spec, &ExecOptions::default())
}

/// The sweep-scope key of `bench`'s baseline on `spec`: the benchmark's full
/// parameter identity and the exact bits of every device field — the paper
/// scores every configuration of a (benchmark, platform) against one
/// non-approximated run, and this names that run. `None` when the benchmark
/// declares no [`Benchmark::params_key`].
pub fn baseline_key(bench: &dyn Benchmark, spec: &DeviceSpec) -> Option<Vec<u64>> {
    let mut words = bench.params_key()?;
    words.extend(spec.identity_words());
    Some(eval_key("baseline", &words))
}

/// [`select_baseline`] under explicit execution options.
///
/// Inside a sweep scope the baseline is measured by the first caller that
/// asks for its [`baseline_key`] and shared with every later one — the
/// accurate run is deterministic, so the shared value is the one each caller
/// would have measured, and the executor and thread count in `opts` do not
/// enter the key (they never change a result). A cost ceiling in `opts`
/// could cut the accurate run short, so it bypasses the scope.
pub fn select_baseline_opts(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    opts: &ExecOptions,
) -> Baseline {
    // In full, so a new option has to be classed here as shaping the
    // accurate run or not.
    let ExecOptions {
        serialized_taf: _, // an accurate run has no TAF state machine
        executor: _,
        threads: _,
        abort_above_seconds,
    } = *opts;
    match (abort_above_seconds, baseline_key(bench, spec)) {
        (None, Some(key)) => Baseline::clone(&scoped_inputs(
            || key,
            |_| measure_baseline(bench, spec, opts),
        )),
        _ => measure_baseline(bench, spec, opts),
    }
}

fn measure_baseline(bench: &dyn Benchmark, spec: &DeviceSpec, opts: &ExecOptions) -> Baseline {
    let kernel_only = bench.kernel_only_timing();
    let block = space::block_size_for(bench);
    let candidates = space::baseline_ipts(bench);
    let _span = hpac_obs::span_named(
        hpac_obs::SpanId::BaselineSelect,
        bench.name(),
        candidates.len() as u64,
    );
    let (lp, result, seconds) = candidates
        .into_iter()
        .map(|ipt| {
            let lp = LaunchParams::new(ipt, block);
            let result = bench
                .run_opts(spec, None, &lp, opts)
                .expect("accurate baseline must run");
            let seconds = result.timing_basis_seconds(kernel_only);
            (lp, result, seconds)
        })
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("at least one baseline candidate");
    let quality = Arc::new(QualityCache::new());
    // Pre-seed the baseline's own output at zero error: any approximate
    // configuration that reproduces the accurate output bit-for-bit scores
    // 0.0 without an error-metric pass.
    quality.get_or(qoi_fingerprint(&result.qoi), || 0.0);
    Baseline {
        lp,
        result: Arc::new(result),
        seconds,
        quality,
    }
}

/// A sweep's outcome: result rows plus configurations that were rejected at
/// launch (e.g. AC state exceeding shared memory) with their reasons.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    pub rows: Vec<Row>,
    pub rejected: Vec<(String, String)>,
    pub baseline: Baseline,
}

/// Outcome of one bounded configuration evaluation
/// ([`run_config_bounded`]). `Aborted` is distinct from `Rejected`: a
/// rejected configuration cannot launch at all (a modeling constraint), an
/// aborted one was cut off mid-walk because its modeled cost lower bound
/// already exceeded [`ExecOptions::abort_above_seconds`] — it is provably
/// dominated, not infeasible.
#[derive(Debug, Clone)]
pub enum ConfigOutcome {
    Done(Row),
    /// (label, reason) — the configuration could not launch.
    Rejected(String, String),
    /// The configuration hit the cost ceiling; label of the abandoned run.
    Aborted(String),
}

impl ConfigOutcome {
    /// The sweep view of an outcome: a row, or a `(label, reason)`
    /// rejection — a cost-ceiling abort reads as a rejection here, since a
    /// sweep reports only rows and rejections.
    pub fn into_result(self) -> Result<Row, (String, String)> {
        match self {
            ConfigOutcome::Done(row) => Ok(row),
            ConfigOutcome::Rejected(label, reason) => Err((label, reason)),
            ConfigOutcome::Aborted(label) => {
                Err((label, "aborted: modeled cost exceeds ceiling".to_string()))
            }
        }
    }

    /// This outcome as `cfg`'s own: a canonical duplicate takes its
    /// representative's result under its own label and items-per-thread.
    fn relabelled(&self, cfg: &SweepConfig) -> ConfigOutcome {
        match self {
            ConfigOutcome::Done(row) => ConfigOutcome::Done(Row {
                config: cfg.label.clone(),
                items_per_thread: cfg.lp.items_per_thread,
                ..row.clone()
            }),
            ConfigOutcome::Rejected(_, reason) => {
                ConfigOutcome::Rejected(cfg.label.clone(), reason.clone())
            }
            ConfigOutcome::Aborted(_) => ConfigOutcome::Aborted(cfg.label.clone()),
        }
    }
}

/// Execute one configuration against a prepared baseline under `opts`
/// (executor knob, abort ceiling). Sweeps set no ceiling and so never see
/// [`ConfigOutcome::Aborted`]; the tuner does and matches on it.
pub fn run_config_bounded(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    baseline: &Baseline,
    cfg: &SweepConfig,
    opts: &ExecOptions,
) -> ConfigOutcome {
    evaluate(bench, spec, baseline, cfg, opts).0
}

/// [`run_config_bounded`], plus the points of its family ([`family_key`])
/// the run answers for: the decision margins of a run that finished. A
/// rejected or aborted run made no (or not all of its) comparisons and
/// answers for nobody. The margins hold under `opts` only: a run at another
/// cost ceiling may abort where this one did not.
pub fn evaluate(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    baseline: &Baseline,
    cfg: &SweepConfig,
    opts: &ExecOptions,
) -> (ConfigOutcome, Option<DecisionMargins>) {
    let kernel_only = bench.kernel_only_timing();
    let eval_from = hpac_obs::enabled().then(hpac_obs::now_ns);
    let _span = hpac_obs::span_named(
        hpac_obs::SpanId::ConfigEval,
        bench.name(),
        cfg.lp.items_per_thread as u64,
    );
    // The abort ceiling compares against modeled seconds accumulated since
    // this config's evaluation began (each config runs synchronously on one
    // worker thread, so the thread-local meter is per-config).
    gpu_sim::reset_modeled_seconds();
    let outcome = bench.run_opts(spec, Some(&cfg.region), &cfg.lp, opts);
    let aborted = matches!(outcome, Err(RegionError::CostCeiling(_)));
    if let Some(t0) = eval_from {
        hpac_obs::add(
            hpac_obs::CounterId::ConfigEvalNs,
            hpac_obs::now_ns().saturating_sub(t0),
        );
        hpac_obs::inc(if outcome.is_ok() {
            hpac_obs::CounterId::ConfigsEvaluated
        } else if aborted {
            hpac_obs::CounterId::EarlyAborts
        } else {
            hpac_obs::CounterId::ConfigsRejected
        });
    }
    match outcome {
        Ok(res) => {
            let (err, quality_hit) = baseline.quality.get_or(qoi_fingerprint(&res.qoi), || {
                res.qoi.error_vs(&baseline.result.qoi)
            });
            if quality_hit {
                hpac_obs::inc(hpac_obs::CounterId::QualityCacheHits);
            }
            let seconds = res.timing_basis_seconds(kernel_only);
            let row = Row {
                benchmark: bench.name().to_string(),
                device: spec.name.to_string(),
                technique: cfg.region.technique_name().to_string(),
                config: cfg.label.clone(),
                items_per_thread: cfg.lp.items_per_thread,
                speedup: baseline.seconds / seconds,
                error_pct: err * 100.0,
                approx_fraction: res.stats.approx_fraction(),
                divergent_fraction: res.stats.divergence_fraction(),
                kernel_seconds: res.kernel_seconds,
                end_to_end_seconds: res.end_to_end_seconds(),
                iterations: res.iterations,
            };
            (ConfigOutcome::Done(row), Some(res.stats.margins))
        }
        Err(RegionError::CostCeiling(_)) => (ConfigOutcome::Aborted(cfg.label.clone()), None),
        Err(e) => (
            ConfigOutcome::Rejected(cfg.label.clone(), e.to_string()),
            None,
        ),
    }
}

/// The canonical-execution key of a configuration: region fingerprint plus
/// the benchmark's launch class for the configuration's launch shape. Two
/// configurations with equal keys perform bit-identical executions, so one
/// evaluation serves both. `None` when the benchmark opts out of launch
/// classification.
pub fn canonical_key(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    cfg: &SweepConfig,
) -> Option<Vec<u64>> {
    bench.launch_class(spec, &cfg.lp).map(|class| {
        let mut key = cfg.region.fingerprint_words();
        key.push(class);
        key
    })
}

/// The one canonical-dedup table: execution key ([`canonical_key`]) → the
/// representative `R` admitted for it. A sweep keeps one per plan (`R` = the
/// representative's evaluation slot); the tuner's evaluator keeps one per
/// search (`R` = the representative's label), so duplicates are recognised
/// across batches too.
#[derive(Debug)]
pub struct CanonicalReps<R> {
    seen: HashMap<Vec<u64>, R>,
}

impl<R> Default for CanonicalReps<R> {
    fn default() -> Self {
        CanonicalReps {
            seen: HashMap::new(),
        }
    }
}

impl<R: Clone> CanonicalReps<R> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The representative of `cfg`'s execution, if an equal-key
    /// configuration was admitted before. Otherwise `None`, and `candidate`
    /// (when given) is admitted as the representative of `cfg`'s key; a
    /// caller that will not evaluate `cfg` passes `None` and leaves the key
    /// open. Benchmarks that opt out of launch classification never match
    /// and never register.
    pub fn rep_or_admit(
        &mut self,
        bench: &dyn Benchmark,
        spec: &DeviceSpec,
        cfg: &SweepConfig,
        candidate: Option<R>,
    ) -> Option<R> {
        match self.seen.entry(canonical_key(bench, spec, cfg)?) {
            Entry::Occupied(e) => Some(e.get().clone()),
            Entry::Vacant(e) => {
                if let Some(rep) = candidate {
                    e.insert(rep);
                }
                None
            }
        }
    }
}

/// The family of a configuration: the region fingerprint without the words
/// a run only compares — the threshold and, for TAF, the prediction size
/// ([`ApproxRegion::family`]) — plus the launch class (the exact launch shape
/// where the benchmark declares no classes), with the configuration's point
/// in it. Members of one family run the same execution up to those
/// comparisons, so a finished run of one ([`evaluate`]) answers every member
/// whose point its decision margins cover. `None` for perforation, which
/// compares nothing, and for a region that fails validation: it is refused
/// on its own and never covered.
///
/// [`ApproxRegion::family`]: hpac_core::region::ApproxRegion::family
pub fn family_key(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    cfg: &SweepConfig,
) -> Option<(FamilyPoint, Vec<u64>)> {
    cfg.region.validate().ok()?;
    let (point, mut key) = cfg.region.family()?;
    match bench.launch_class(spec, &cfg.lp) {
        Some(class) => key.extend([1, class]),
        None => key.extend([0, cfg.lp.items_per_thread as u64, cfg.lp.block_size as u64]),
    }
    Some((point, key))
}

/// Group the fresh configurations into families ([`family_key`]), each
/// listing its members' `(point, slot)` in plan order; a configuration
/// without a family is a family of one. Families come longest first, so a
/// long one is not the tail of a round.
fn families(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    fresh: &[&SweepConfig],
) -> Vec<Vec<(Option<FamilyPoint>, usize)>> {
    let mut family_of: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut families: Vec<Vec<(Option<FamilyPoint>, usize)>> = Vec::new();
    for (slot, cfg) in fresh.iter().enumerate() {
        let Some((point, key)) = family_key(bench, spec, cfg) else {
            families.push(vec![(None, slot)]);
            continue;
        };
        let family = *family_of.entry(key).or_insert_with(|| {
            families.push(Vec::new());
            families.len() - 1
        });
        families[family].push((Some(point), slot));
    }
    families.sort_by_key(|family| std::cmp::Reverse(family.len()));
    families
}

/// The one sweep body: baseline → canonical dedup → the fresh configurations
/// as families (one engine task each, or serially on the caller) → every
/// plan entry answered from its representative, in plan order.
///
/// Within a family, a member whose threshold and prediction size lie inside
/// the decision margins of a sibling that ran takes that sibling's outcome:
/// both enter a run only through the comparisons the margins record, so the
/// member's own run would decide each of them the same way and be the same
/// run. Covering is an equivalence — a covered member's run would publish
/// the very margins that cover it — so a family costs one run per distinct
/// run among its members, whatever order they come in.
fn sweep(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    plan: &[SweepConfig],
    opts: &ExecOptions,
    on_engine: bool,
) -> SweepOutcome {
    let _scope = install_eval_memo();
    let baseline = select_baseline_opts(bench, spec, opts);
    let _sweep = hpac_obs::span_named(hpac_obs::SpanId::SweepApp, bench.name(), plan.len() as u64);

    let mut reps = CanonicalReps::new();
    let mut fresh: Vec<&SweepConfig> = Vec::new();
    // Per plan entry, the slot in `fresh` whose evaluation answers it.
    let slots: Vec<usize> = plan
        .iter()
        .map(|cfg| {
            if let Some(slot) = reps.rep_or_admit(bench, spec, cfg, Some(fresh.len())) {
                hpac_obs::inc(hpac_obs::CounterId::ConfigsDeduped);
                return slot;
            }
            fresh.push(cfg);
            fresh.len() - 1
        })
        .collect();

    let families = families(bench, spec, &fresh);
    let eval = |f: usize| -> Vec<ConfigOutcome> {
        // The margins of this family's finished runs, each with the index in
        // `outcomes` of the run that published it.
        let mut published: Vec<(DecisionMargins, usize)> = Vec::new();
        let mut outcomes: Vec<ConfigOutcome> = Vec::with_capacity(families[f].len());
        for &(point, slot) in &families[f] {
            let cfg = fresh[slot];
            let covering = point.and_then(|p| {
                published
                    .iter()
                    .find(|(m, _)| m.covers(p.threshold, p.psize))
            });
            let outcome = match covering {
                Some(&(_, sibling)) => {
                    hpac_obs::inc(hpac_obs::CounterId::ConfigsDeduped);
                    hpac_obs::inc(hpac_obs::CounterId::ConfigsThresholdCovered);
                    outcomes[sibling].relabelled(cfg)
                }
                None => {
                    let (outcome, margin) = evaluate(bench, spec, &baseline, cfg, opts);
                    published.extend(margin.map(|m| (m, outcomes.len())));
                    outcome
                }
            };
            outcomes.push(outcome);
        }
        outcomes
    };
    let per_family: Vec<Vec<ConfigOutcome>> = if on_engine {
        engine().run(families.len(), engine().default_width(), eval)
    } else {
        (0..families.len()).map(eval).collect()
    };
    // Every slot is in exactly one family: sorted by slot, entry `i` is
    // slot `i`'s outcome.
    let mut outcomes: Vec<(usize, ConfigOutcome)> = families
        .iter()
        .flatten()
        .map(|&(_, slot)| slot)
        .zip(per_family.into_iter().flatten())
        .collect();
    outcomes.sort_by_key(|&(slot, _)| slot);

    let mut rows = Vec::with_capacity(plan.len());
    let mut rejected = Vec::new();
    for (cfg, &slot) in plan.iter().zip(&slots) {
        match outcomes[slot].1.relabelled(cfg).into_result() {
            Ok(row) => rows.push(row),
            Err(rej) => rejected.push(rej),
        }
    }
    SweepOutcome {
        rows,
        rejected,
        baseline,
    }
}

/// Run a benchmark's full sweep plan on one device, in parallel across
/// configurations.
///
/// Threshold families are submitted to the shared [`engine`] as one task
/// each. Kernel launches *inside* a configuration go through the same engine,
/// so no pinning is needed: the engine's depth guard runs nested block
/// fan-outs inline on the config task's worker, and the host is never
/// oversubscribed. For intra-kernel parallelism measurements use
/// [`run_sweep_serial`], which keeps the configurations serial so the
/// block executor is the only parallelism in play.
pub fn run_sweep(bench: &dyn Benchmark, spec: &DeviceSpec, scale: Scale) -> SweepOutcome {
    let opts = ExecOptions::default();
    sweep(bench, spec, &space::plan(bench, spec, scale), &opts, true)
}

/// Run a benchmark's full sweep plan on one device with each configuration
/// executed *serially*, under explicit execution options. This is the
/// harness entry for intra-kernel parallelism
/// ([`hpac_core::exec::Executor::ParallelBlocks`]): the configurations run
/// one at a time and each kernel launch fans its blocks out instead.
pub fn run_sweep_serial(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    scale: Scale,
    opts: &ExecOptions,
) -> SweepOutcome {
    sweep(bench, spec, &space::plan(bench, spec, scale), opts, false)
}

/// Run specific configurations, config-parallel like [`run_sweep`] (used by
/// figure generators with bespoke grids, e.g. Fig 8c's extended
/// items-per-thread axis).
pub fn run_configs(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    configs: &[SweepConfig],
) -> SweepOutcome {
    sweep(bench, spec, configs, &ExecOptions::default(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_apps::blackscholes::Blackscholes;
    use hpac_apps::common::LaunchParams;
    use hpac_core::region::ApproxRegion;

    fn tiny_bs() -> Blackscholes {
        Blackscholes {
            n_options: 2048,
            distinct: 16,
            run_len: 16,
            seed: 1,
        }
    }

    #[test]
    fn fingerprint_separates_value_length_kind_and_order() {
        let base: Vec<f64> = (0..11).map(|i| 1.5 * i as f64).collect();
        let fp = |v: &[f64]| qoi_fingerprint(&QoI::Values(v.to_vec()));
        assert_eq!(fp(&base), fp(&base.clone()), "equal outputs collide");

        let mut one_word = base.clone();
        one_word[9] = f64::from_bits(one_word[9].to_bits() ^ 1);
        let mut longer = base.clone();
        longer.push(0.0);
        // Words 1 and 5 share lane 1; words 1 and 2 sit in lanes 1 and 2;
        // words 8 and 10 are in the tail past the last full chunk.
        let swapped = |a: usize, b: usize| {
            let mut v = base.clone();
            v.swap(a, b);
            v
        };
        let variants = [
            one_word,
            longer,
            base[..10].to_vec(),
            swapped(1, 5),
            swapped(1, 2),
            swapped(8, 10),
        ];
        let mut seen = vec![fp(&base)];
        for v in &variants {
            let f = fp(v);
            assert!(!seen.contains(&f), "collision for {v:?}");
            seen.push(f);
        }

        let labels = QoI::Labels(vec![0, 1, 2, 3, 4]);
        let values = QoI::Values([0u64, 1, 2, 3, 4].map(f64::from_bits).to_vec());
        assert_ne!(qoi_fingerprint(&labels), qoi_fingerprint(&values));
    }

    #[test]
    fn quality_cache_scores_through_a_poisoned_shard() {
        let cache = QualityCache::new();
        let fp = (5, 9);
        assert_eq!(cache.get_or(fp, || 0.25), (0.25, false));
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.shard(fp);
                panic!("a scorer died holding the shard");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(cache.shards[5 % QUALITY_CACHE_SHARDS].is_poisoned());
        assert_eq!(cache.get_or(fp, || unreachable!()), (0.25, true));
        let mate = (5 + QUALITY_CACHE_SHARDS as u64, 1);
        assert_eq!(cache.get_or(mate, || 0.5), (0.5, false));
        assert_eq!(cache.get_or(mate, || unreachable!()), (0.5, true));
    }

    #[test]
    fn baseline_is_accurate_and_timed() {
        let bench = tiny_bs();
        let spec = DeviceSpec::v100();
        let b = select_baseline(&bench, &spec);
        assert!(b.seconds > 0.0);
        assert_eq!(b.result.stats.approx_fraction(), 0.0);
    }

    #[test]
    fn run_config_computes_speedup_and_error() {
        let bench = tiny_bs();
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        let cfg = SweepConfig {
            region: ApproxRegion::memo_out(2, 32, 0.9),
            lp: LaunchParams::new(16, 256),
            label: "test".into(),
        };
        let row = run_config_bounded(&bench, &spec, &baseline, &cfg, &ExecOptions::default())
            .into_result()
            .unwrap();
        assert!(row.speedup > 0.0);
        assert!(row.error_pct >= 0.0);
        assert_eq!(row.technique, "TAF");
        assert_eq!(row.device, "V100");
    }

    #[test]
    fn rejected_configs_are_reported() {
        let bench = tiny_bs();
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        // 512-entry private tables cannot fit shared memory.
        let cfg = SweepConfig {
            region: ApproxRegion::memo_in(512, 0.5),
            lp: LaunchParams::new(8, 1024),
            label: "oversized".into(),
        };
        let err = run_config_bounded(&bench, &spec, &baseline, &cfg, &ExecOptions::default())
            .into_result()
            .unwrap_err();
        assert_eq!(err.0, "oversized");
        assert!(err.1.contains("shared memory"), "reason: {}", err.1);
    }
}
