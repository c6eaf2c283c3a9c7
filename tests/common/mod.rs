//! What the tuning-service test binaries share: a benchmark under
//! observation, quick services over fresh caches, and a plan's bits.

// Each test binary that includes this module uses part of it.
#![allow(dead_code)]

use gpu_sim::DeviceSpec;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::apps::common::{eval_key, AppResult, Benchmark, LaunchParams, QoI};
use hpac_offload::core::exec::ExecOptions;
use hpac_offload::core::region::{ApproxRegion, RegionError};
use hpac_offload::service::TuningService;
use hpac_offload::tuner::{TunedPlan, Tuner, TuningCache};
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hpac_service_it_{tag}_{}", std::process::id()))
}

pub fn fresh_cache(tag: &str) -> TuningCache {
    let cache = TuningCache::new(temp_dir(tag));
    let _ = cache.clear();
    cache
}

pub fn quick_service(cache: &TuningCache, budget_fraction: f64) -> TuningService {
    let mut tuner = Tuner::new().with_scale(hpac_offload::harness::Scale::Quick);
    tuner.budget_fraction = budget_fraction;
    TuningService::new()
        .with_tuner(tuner)
        .with_cache(cache.clone())
}

/// A benchmark under observation: counts its accurate runs (a baseline
/// selection is `baseline_ipts` of them, and a search makes no others) and
/// its approximated ones (one per configuration a search evaluates),
/// panics on the `panic_on`-th accurate one, overwrites one value of the
/// QoI of the approximated run `corrupt_on` names with the value it names,
/// and carries a `tag` in its parameter identity so that instances can be
/// told apart by the evaluation scope — which is process-wide, and which
/// other tests of the same binary hold too — and by the tuning cache.
pub struct Probe<B> {
    pub inner: B,
    pub tag: u64,
    pub accurate_runs: AtomicUsize,
    pub approx_runs: AtomicUsize,
    pub panic_on: Option<usize>,
    pub corrupt_on: Option<(usize, f64)>,
}

impl<B: Benchmark> Probe<B> {
    pub fn new(inner: B, tag: u64) -> Self {
        Probe {
            inner,
            tag,
            accurate_runs: AtomicUsize::new(0),
            approx_runs: AtomicUsize::new(0),
            panic_on: None,
            corrupt_on: None,
        }
    }

    pub fn accurate_runs(&self) -> usize {
        self.accurate_runs.load(Ordering::SeqCst)
    }

    pub fn approx_runs(&self) -> usize {
        self.approx_runs.load(Ordering::SeqCst)
    }
}

impl<B: Benchmark> Benchmark for Probe<B> {
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
        let mut key = self.inner.params_key()?;
        key.extend(eval_key("probe", &[self.tag]));
        Some(key)
    }

    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        let mut corrupt = None;
        if region.is_none() {
            let nth = self.accurate_runs.fetch_add(1, Ordering::SeqCst) + 1;
            if self.panic_on == Some(nth) {
                panic!("injected fault: accurate run {nth} of {}", self.name());
            }
        } else {
            let nth = self.approx_runs.fetch_add(1, Ordering::SeqCst) + 1;
            corrupt = self.corrupt_on.filter(|&(k, _)| k == nth).map(|(_, v)| v);
        }
        let mut result = self.inner.run_opts(spec, region, lp, opts)?;
        if let Some(value) = corrupt {
            match &mut result.qoi {
                QoI::Values(values) => values[0] = value,
                QoI::Labels(_) => panic!("a value fault needs a continuous QoI"),
            }
        }
        Ok(result)
    }
}

pub fn small_bs() -> Blackscholes {
    Blackscholes {
        n_options: 8192,
        distinct: 16,
        run_len: 16,
        seed: 7,
    }
}

/// Everything a search decides, floats by bit pattern.
pub fn plan_bits(p: &TunedPlan) -> impl PartialEq + std::fmt::Debug {
    (
        (p.config.clone(), p.technique.clone(), p.lp, p.baseline_lp),
        (
            p.predicted_speedup.to_bits(),
            p.measured_error_pct.to_bits(),
        ),
        (p.evaluations, p.full_space),
        p.frontier
            .points()
            .iter()
            .map(|q| (q.config.clone(), q.speedup.to_bits(), q.error_pct.to_bits()))
            .collect::<Vec<_>>(),
    )
}
