//! Sweep execution: baseline selection, the one scorer, the ledger that
//! answers configurations, and the parallel configuration sweep.
//!
//! Speedup follows the paper's definition: the baseline is the
//! *non-approximated* application at its best launch configuration, and
//! every approximated configuration is compared against that one number.
//! Blackscholes uses kernel-only timing (§4.1); everything else uses
//! end-to-end modeled time including transfers. [`Baseline::score`] is the
//! only code that applies that rule or compares a run's QoI with the
//! baseline's.

use crate::db::Row;
use crate::space::{self, Scale, SweepConfig};
use gpu_sim::{DecisionMargins, DeviceSpec};
use hpac_apps::common::{
    eval_key, install_eval_memo, scoped_inputs, AppResult, Benchmark, LaunchParams, Prepared, QoI,
};
use hpac_core::exec::{engine, ExecOptions};
use hpac_core::region::{ApproxRegion, RegionError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One accurate run every other run of a (benchmark, platform) is scored
/// against: its launch shape, its result, and its seconds on the
/// benchmark's timing basis. Cloning shares the result, so a baseline
/// fetched from a sweep scope costs one reference count, not a copy of the
/// output.
#[derive(Debug, Clone)]
pub struct Baseline {
    pub lp: LaunchParams,
    pub result: Arc<AppResult>,
    pub seconds: f64,
}

impl Baseline {
    /// The accurate run of `bench` at `lp` under `opts`.
    pub fn measure(
        bench: &dyn Benchmark,
        spec: &DeviceSpec,
        lp: LaunchParams,
        opts: &ExecOptions,
    ) -> Result<Baseline, RegionError> {
        let result = bench.run_opts(spec, None, &lp, opts)?;
        Ok(Baseline {
            lp,
            seconds: result.timing_basis_seconds(bench.kernel_only_timing()),
            result: Arc::new(result),
        })
    }

    /// `res`, the run of `region` (`None`: accurate) at `lp` labelled
    /// `config`, as a row scored against this baseline: the speedup divides
    /// the two runs' seconds on the benchmark's timing basis, and the error
    /// compares their QoIs.
    pub fn score(
        &self,
        bench: &dyn Benchmark,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        config: &str,
        lp: &LaunchParams,
        res: &AppResult,
    ) -> Row {
        Row {
            benchmark: bench.name().to_string(),
            device: spec.name.to_string(),
            technique: region
                .map_or("accurate", ApproxRegion::technique_name)
                .to_string(),
            config: config.to_string(),
            items_per_thread: lp.items_per_thread,
            speedup: self.seconds / res.timing_basis_seconds(bench.kernel_only_timing()),
            error_pct: res.qoi.error_vs(&self.result.qoi) * 100.0,
            approx_fraction: res.stats.approx_fraction(),
            divergent_fraction: res.stats.divergence_fraction(),
            kernel_seconds: res.kernel_seconds,
            end_to_end_seconds: res.end_to_end_seconds(),
            iterations: res.iterations,
        }
    }
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
    let block = space::block_size_for(bench);
    let candidates = space::baseline_ipts(bench);
    let _span = hpac_obs::span_named(
        hpac_obs::SpanId::BaselineSelect,
        bench.name(),
        candidates.len() as u64,
    );
    candidates
        .into_iter()
        .map(|ipt| {
            Baseline::measure(bench, spec, LaunchParams::new(ipt, block), opts)
                .expect("accurate baseline must run")
        })
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("at least one baseline candidate")
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

    /// The row of a run that finished.
    pub fn row(&self) -> Option<&Row> {
        match self {
            ConfigOutcome::Done(row) => Some(row),
            _ => None,
        }
    }

    /// This outcome as `cfg`'s own: a configuration answered by another
    /// one's run takes its result under its own label and items-per-thread.
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

/// [`run_config_bounded`], plus the decision margins of a run that finished:
/// what it publishes to its [`Family`]. A rejected or aborted run made no
/// (or not all of its) comparisons and publishes nothing. The margins hold
/// under `opts` only: a run at another cost ceiling may abort where this one
/// did not.
fn evaluate(
    bench: &dyn Benchmark,
    spec: &DeviceSpec,
    baseline: &Baseline,
    cfg: &SweepConfig,
    opts: &ExecOptions,
) -> (ConfigOutcome, Option<DecisionMargins>) {
    let eval_from = hpac_obs::enabled().then(hpac_obs::now_ns);
    let _span = hpac_obs::span_named(
        hpac_obs::SpanId::ConfigEval,
        bench.name(),
        cfg.lp.items_per_thread as u64,
    );
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
            let row = baseline.score(bench, spec, Some(&cfg.region), &cfg.label, &cfg.lp, &res);
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
/// configurations with equal keys perform bit-identical executions. `None`
/// when the benchmark declares no launch classes. Sweeps and the tuner find
/// such duplicates through [`Ledger::answer`]; this key stays for the
/// benchmark driver's layer pass (`benchmark/src/sweep.rs`), which dedups a
/// plan itself.
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

/// The family of a configuration: the region fingerprint without the words
/// a run only compares — the threshold and, for TAF, the prediction size
/// ([`ApproxRegion::family`]) — plus the launch class (the exact launch shape
/// where the benchmark declares no classes). Perforation compares nothing,
/// so its family is its whole fingerprint. Members of one family run the
/// same execution up to those comparisons; [`Family::answer`] says when one
/// member's run answers another.
///
/// [`ApproxRegion::family`]: hpac_core::region::ApproxRegion::family
fn family_key(bench: &dyn Benchmark, spec: &DeviceSpec, cfg: &SweepConfig) -> Vec<u64> {
    let mut key = match cfg.region.family() {
        Some((_, words)) => words,
        None => cfg.region.fingerprint_words(),
    };
    match bench.launch_class(spec, &cfg.lp) {
        Some(class) => key.extend([1, class]),
        None => key.extend([0, cfg.lp.items_per_thread as u64, cfg.lp.block_size as u64]),
    }
    key
}

/// How a [`Ledger`] answered a configuration. Whether a run finished, was
/// abandoned at the cost ceiling or was refused at launch is its
/// [`ConfigOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// It ran. Charged.
    Run,
    /// A duplicate of the named configuration: the same execution. Free.
    DuplicateOf(String),
    /// Inside the decision margins the named configuration's finished run
    /// published under the same cost ceiling (`None`: no ceiling), so its
    /// own run would have been that run. Charged like a run.
    CoveredBy {
        sibling: String,
        ceiling: Option<f64>,
    },
}

/// One admitted member of a [`Family`].
#[derive(Debug)]
struct Member {
    fingerprint: Vec<u64>,
    label: String,
    /// The margins its finished run published, with the cost ceiling (as
    /// bits) it ran under.
    published: Option<(DecisionMargins, Option<u64>)>,
}

/// The members one family ([`family_key`]) has admitted, in admission
/// order: the one rule that answers a configuration without running it.
#[derive(Debug, Default)]
struct Family(Vec<Member>);

impl Family {
    /// `cfg`'s answer from the members admitted so far, or `None` when it
    /// has to run.
    ///
    /// A member with the same region fingerprint runs the same execution
    /// (one family shares a launch class), so it answers `cfg` whatever its
    /// outcome or ceiling. Otherwise a valid `cfg` takes the outcome of a
    /// member whose run finished under `ceiling` with margins covering its
    /// threshold and prediction size: both enter a run only through the
    /// comparisons the margins record, so `cfg`'s run would decide each of
    /// them the same way and be the same run. A run at another ceiling may
    /// abort where that one did not, and an invalid region is refused on its
    /// own. Covering is an equivalence — a covered member's run would
    /// publish the very margins that cover it — so a family costs one run
    /// per distinct run among its members, whatever order they come in.
    fn answer(&self, cfg: &SweepConfig, ceiling: Option<f64>) -> Option<Answer> {
        let fingerprint = cfg.region.fingerprint_words();
        if let Some(m) = self.0.iter().find(|m| m.fingerprint == fingerprint) {
            return Some(Answer::DuplicateOf(m.label.clone()));
        }
        cfg.region.validate().ok()?;
        let (point, _) = cfg.region.family()?;
        let at = ceiling.map(f64::to_bits);
        let sibling = self.0.iter().find(|m| {
            m.published.is_some_and(|(margins, published_at)| {
                published_at == at && margins.covers(point.threshold, point.psize)
            })
        })?;
        Some(Answer::CoveredBy {
            sibling: sibling.label.clone(),
            ceiling,
        })
    }
}

/// One configuration a [`Ledger`] answered.
#[derive(Debug, Clone)]
pub struct Answered {
    pub config: SweepConfig,
    pub answer: Answer,
    /// Its own outcome, under its own label and items-per-thread, whichever
    /// run it came from.
    pub outcome: ConfigOutcome,
}

/// The configurations of one (benchmark, platform) answered so far, in
/// answer order, and the families they were admitted to: the one loop that
/// answers configurations. A sweep keeps one per family task; the tuner's
/// evaluator keeps one for a whole search, so answers reach across batches.
/// A label names one configuration: a label answered once is not answered
/// again.
pub struct Ledger<'a> {
    bench: &'a dyn Benchmark,
    spec: &'a DeviceSpec,
    baseline: &'a Baseline,
    families: HashMap<Vec<u64>, Family>,
    /// Label → its record in `answered`.
    index: HashMap<String, usize>,
    answered: Vec<Answered>,
}

impl<'a> Ledger<'a> {
    pub fn new(bench: &'a dyn Benchmark, spec: &'a DeviceSpec, baseline: &'a Baseline) -> Self {
        Ledger {
            bench,
            spec,
            baseline,
            families: HashMap::new(),
            index: HashMap::new(),
            answered: Vec::new(),
        }
    }

    /// The baseline every outcome is scored against.
    pub fn baseline(&self) -> &'a Baseline {
        self.baseline
    }

    /// Every answered configuration, in answer order.
    pub fn answered(&self) -> &[Answered] {
        &self.answered
    }

    /// The record of the configuration labelled `label`, once answered.
    pub fn get(&self, label: &str) -> Option<&Answered> {
        self.index.get(label).map(|&i| &self.answered[i])
    }

    /// Answer `configs` under `opts`, skipping labels already answered. A
    /// duplicate of an admitted configuration is free; any other one is
    /// admitted — and charged — while `budget` (`None`: unbounded) lasts,
    /// answered by a sibling's published margins or else run. The runs go
    /// through `evaluate`, as one `engine()` batch when `on_engine`, else
    /// in order on the calling thread, and each finished one publishes its
    /// margins under `opts`' cost ceiling. Margins published in this call
    /// answer only later calls. Records the admitted configurations in
    /// admission order, then the duplicates; returns how many were charged.
    pub fn answer(
        &mut self,
        configs: &[SweepConfig],
        opts: &ExecOptions,
        budget: Option<usize>,
        on_engine: bool,
    ) -> usize {
        let ceiling = opts.abort_above_seconds;
        // Admitted configurations in admission order, each with its answer
        // and, if it runs, the family member its margins publish to; then
        // the duplicates.
        type Pending<'c> = (&'c SweepConfig, Answer, Option<(Vec<u64>, usize)>);
        let mut admitted: Vec<Pending> = Vec::new();
        let mut duplicates: Vec<Pending> = Vec::new();
        for cfg in configs {
            let pending = |p: &Pending| p.0.label == cfg.label;
            if self.index.contains_key(&cfg.label)
                || admitted.iter().any(pending)
                || duplicates.iter().any(pending)
            {
                continue;
            }
            let key = family_key(self.bench, self.spec, cfg);
            let family = self.families.entry(key.clone()).or_default();
            match family.answer(cfg, ceiling) {
                Some(dup @ Answer::DuplicateOf(_)) => duplicates.push((cfg, dup, None)),
                answer if budget.is_none_or(|budget| admitted.len() < budget) => {
                    let runs = answer.is_none().then_some((key, family.0.len()));
                    family.0.push(Member {
                        fingerprint: cfg.region.fingerprint_words(),
                        label: cfg.label.clone(),
                        published: None,
                    });
                    admitted.push((cfg, answer.unwrap_or(Answer::Run), runs));
                }
                _ => {}
            }
        }
        let charged = admitted.len();
        let to_run: Vec<&SweepConfig> = admitted
            .iter()
            .filter(|p| p.2.is_some())
            .map(|p| p.0)
            .collect();
        let (bench, spec, baseline) = (self.bench, self.spec, self.baseline);
        let run = |i: usize| evaluate(bench, spec, baseline, to_run[i], opts);
        let mut ran = if on_engine {
            engine().run(to_run.len(), engine().default_width(), run)
        } else {
            (0..to_run.len()).map(run).collect()
        }
        .into_iter();
        for (cfg, answer, runs) in admitted.into_iter().chain(duplicates) {
            let outcome = match &answer {
                Answer::Run => {
                    let (outcome, margins) = ran.next().expect("one outcome per configuration run");
                    if let (Some(margins), Some((key, member))) = (margins, runs) {
                        let family = self.families.get_mut(&key).expect("admitted");
                        family.0[member].published = Some((margins, ceiling.map(f64::to_bits)));
                    }
                    outcome
                }
                Answer::DuplicateOf(rep) | Answer::CoveredBy { sibling: rep, .. } => {
                    hpac_obs::inc(hpac_obs::CounterId::ConfigsDeduped);
                    if let Answer::CoveredBy { .. } = answer {
                        hpac_obs::inc(hpac_obs::CounterId::ConfigsThresholdCovered);
                    }
                    self.answered[self.index[rep]].outcome.relabelled(cfg)
                }
            };
            self.index.insert(cfg.label.clone(), self.answered.len());
            self.answered.push(Answered {
                config: cfg.clone(),
                answer,
                outcome,
            });
        }
        charged
    }
}

/// The one sweep body: baseline → the plan grouped into families, one
/// engine task each (or serially on the caller), each task answering its
/// members one at a time through a [`Ledger`] of its own, so a member's
/// margins answer the next → the outcomes in plan order. Families come
/// longest first, so a long one is not the tail of a round. A label
/// repeated in the plan is answered once, at its first entry.
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

    // Each family's members as plan indices, in plan order.
    let mut labels = HashSet::new();
    let mut family_of: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut families: Vec<Vec<usize>> = Vec::new();
    for (i, cfg) in plan.iter().enumerate() {
        if !labels.insert(cfg.label.as_str()) {
            continue;
        }
        let family = *family_of
            .entry(family_key(bench, spec, cfg))
            .or_insert_with(|| {
                families.push(Vec::new());
                families.len() - 1
            });
        families[family].push(i);
    }
    families.sort_by_key(|family| std::cmp::Reverse(family.len()));

    let eval = |f: usize| -> Vec<Answered> {
        let mut ledger = Ledger::new(bench, spec, &baseline);
        for &i in &families[f] {
            ledger.answer(std::slice::from_ref(&plan[i]), opts, None, false);
        }
        ledger.answered
    };
    let per_family: Vec<Vec<Answered>> = if on_engine {
        engine().run(families.len(), engine().default_width(), eval)
    } else {
        (0..families.len()).map(eval).collect()
    };
    // Labels are distinct, so a family's records are its members' in order,
    // and every answered plan index is in exactly one family: sorted by
    // index, the outcomes come in plan order.
    let mut outcomes: Vec<(usize, ConfigOutcome)> = families
        .iter()
        .flatten()
        .copied()
        .zip(per_family.into_iter().flatten().map(|a| a.outcome))
        .collect();
    outcomes.sort_by_key(|&(i, _)| i);

    let mut rows = Vec::with_capacity(outcomes.len());
    let mut rejected = Vec::new();
    for (_, outcome) in outcomes {
        match outcome.into_result() {
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
/// Threshold families are submitted to the shared [`engine()`] as one task
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
/// items-per-thread axis). A label names one configuration: a label repeated
/// in `configs` is answered once, at its first entry.
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
    fn a_duplicate_matches_across_ceilings_and_covering_never_does() {
        let bench = tiny_bs();
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        // `hsize = 1` compares an RSD of 0, and no regime runs out of a
        // prediction size this long: the run's margins cover every
        // threshold and every longer prediction size.
        let at = |psize: usize, threshold: f64| SweepConfig {
            region: ApproxRegion::memo_out(1, psize, threshold),
            lp: LaunchParams::new(8, 256),
            label: format!("p={psize} thr={threshold}"),
        };
        let ran = at(1 << 20, 0.3);
        let (outcome, margins) = evaluate(&bench, &spec, &baseline, &ran, &ExecOptions::default());
        assert!(matches!(outcome, ConfigOutcome::Done(_)), "{outcome:?}");
        let margins = margins.expect("a finished run publishes its margins");
        let family = Family(vec![Member {
            fingerprint: ran.region.fingerprint_words(),
            label: ran.label.clone(),
            published: Some((margins, None)),
        }]);

        let (twin, sibling) = (at(1 << 20, 0.3), at(1 << 21, 20.0));
        for ceiling in [None, Some(1.0)] {
            let dup = Answer::DuplicateOf(ran.label.clone());
            assert_eq!(family.answer(&twin, ceiling), Some(dup));
        }
        let covered = Answer::CoveredBy {
            sibling: ran.label.clone(),
            ceiling: None,
        };
        assert_eq!(family.answer(&sibling, None), Some(covered));
        assert_eq!(family.answer(&sibling, Some(1.0)), None);
        // Past `u32::MAX` the region refuses its prediction size: the
        // margins cover it, but an invalid region is never covered.
        let invalid = at(1 << 33, 0.3);
        assert!(margins.covers(0.3, Some(1 << 33)));
        assert_eq!(family.answer(&invalid, None), None);
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
