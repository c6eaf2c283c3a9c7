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
use std::sync::Arc;

/// The chosen baseline: launch shape, result, and its timing-basis seconds;
/// every approximate output is scored against its result. Cloning shares
/// the result, so a baseline fetched from a sweep scope costs one reference
/// count, not a copy of the output.
#[derive(Debug, Clone)]
pub struct Baseline {
    pub lp: LaunchParams,
    pub result: Arc<AppResult>,
    pub seconds: f64,
}

impl Prepared for Baseline {
    /// The output.
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
/// would have measured, and the executor in `opts` does not enter the key
/// (it never changes a result). A cost ceiling in `opts` could cut the
/// accurate run short, so it bypasses the scope.
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
        abort_above_seconds,
    } = *opts;
    match (abort_above_seconds, baseline_key(bench, spec)) {
        (None, Some(key)) => Baseline::clone(&scoped_inputs(
            || key,
            || measure_baseline(bench, spec, opts),
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
    Baseline {
        lp,
        result: Arc::new(result),
        seconds,
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
            let err = res.qoi.error_vs(&baseline.result.qoi);
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
/// each; every kernel launch inside a configuration walks its blocks on
/// that task's thread. [`run_sweep_serial`] runs the same plan with no
/// host parallelism at all.
pub fn run_sweep(bench: &dyn Benchmark, spec: &DeviceSpec, scale: Scale) -> SweepOutcome {
    let opts = ExecOptions::default();
    sweep(bench, spec, &space::plan(bench, spec, scale), &opts, true)
}

/// Run a benchmark's full sweep plan on one device with each configuration
/// executed *serially* on the calling thread, under explicit execution
/// options: the single-threaded reference for [`run_sweep`], which returns
/// the same outcome.
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
    fn an_output_identical_to_the_baseline_scores_exactly_zero() {
        let bench = tiny_bs();
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        // Threshold-0 memoization reuses only bit-equal outputs.
        let cfg = SweepConfig {
            region: ApproxRegion::memo_out(2, 8, 0.0),
            lp: baseline.lp,
            label: "exact".into(),
        };
        let (outcome, _) = evaluate(&bench, &spec, &baseline, &cfg, &ExecOptions::default());
        let ConfigOutcome::Done(row) = outcome else {
            panic!("threshold-0 run did not finish: {outcome:?}");
        };
        assert_eq!(row.error_pct.to_bits(), 0.0f64.to_bits());
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
