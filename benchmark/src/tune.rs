//! `tune_cold`: the cold request a user waits on. One closed-loop client
//! submits the `tune` driver's matrix — seven applications on both device
//! models at a 5% bound — to a `TuningService` whose cache was cleared before
//! the round, warm starts off.

use crate::names::LayerMetrics;
use crate::spans::{spanned, SpanLog};
use crate::suite::{self, App};
use crate::workload::{Round, Workload};
use gpu_sim::DeviceSpec;
use hpac_harness::space::Scale;
use hpac_service::{Source, TuneRequest, TuneResponse, TuningService, WarmStart};
use hpac_tuner::{QualityBound, TunedPlan, Tuner, TuningCache};
use std::path::Path;
use std::time::Instant;

pub const BOUND_PCT: f64 = 5.0;

pub fn quick_service(cache: TuningCache) -> TuningService {
    TuningService::new()
        .with_cache(cache)
        .with_tuner(Tuner::new().with_scale(Scale::Quick))
}

/// Fold one answer's provenance into the round.
pub fn account_response(resp: &TuneResponse, round: &mut Round) {
    round.ops += 1;
    round.evals += resp.evals_spent as u64;
    round.ln_speedup_sum += resp.plan.predicted_speedup.ln();
    round.speedups += 1;
    if resp.source.is_searched() {
        round.searched += 1;
        round.budget_frac_sum += resp.plan.budget_fraction_used();
    }
}

/// Re-execute each distinct plan through the apps layer: it must reproduce
/// its predicted speedup and measured error bit for bit. Returns
/// `(checked, failed)`.
pub fn verify_plans<'a>(
    plans: impl Iterator<Item = (&'a TunedPlan, &'a App, &'a DeviceSpec)>,
) -> (u64, u64) {
    let mut seen = std::collections::HashSet::new();
    let (mut checked, mut failed) = (0, 0);
    for (plan, app, device) in plans {
        // The bound a plan answers does not change how it executes.
        if !seen.insert((app.key, device.name, plan.config.clone())) {
            continue;
        }
        checked += 1;
        let reproduced = plan.execute(app.bench.as_ref(), device).is_ok_and(|r| {
            r.speedup.to_bits() == plan.predicted_speedup.to_bits()
                && r.error_pct.to_bits() == plan.measured_error_pct.to_bits()
        });
        if !reproduced {
            eprintln!(
                "check failed: {} on {} does not re-execute to its prediction",
                plan.benchmark, plan.device
            );
            failed += 1;
        }
    }
    (checked, failed)
}

pub struct TuneCold {
    apps: Vec<App>,
    devices: [DeviceSpec; 2],
    cache: TuningCache,
    service: TuningService,
    /// The last round's plans, in request order, for `verify`.
    plans: Vec<TunedPlan>,
}

impl TuneCold {
    pub fn set_up(seed: u64, scratch: &Path) -> Self {
        let cache = TuningCache::new(scratch.join("cache"));
        let mut tune = TuneCold {
            apps: suite::suite(seed),
            devices: DeviceSpec::evaluation_platforms(),
            service: quick_service(cache.clone()),
            cache,
            plans: Vec::new(),
        };
        tune.round(None);
        tune
    }

    fn requests(&self) -> impl Iterator<Item = (&App, &DeviceSpec)> {
        self.devices
            .iter()
            .flat_map(|d| self.apps.iter().map(move |a| (a, d)))
    }

    fn request<'a>(app: &'a App, device: &'a DeviceSpec) -> TuneRequest<'a> {
        TuneRequest::new(app.bench.as_ref(), device, QualityBound::percent(BOUND_PCT))
            .warm_start(WarmStart::Never)
    }
}

impl Workload for TuneCold {
    fn round(&mut self, mut log: Option<&mut SpanLog>) -> Round {
        let mut round = Round::default();
        let mut plans = Vec::with_capacity(self.apps.len() * self.devices.len());
        self.cache.clear().expect("clear the tuning cache");
        let whole = log.as_deref_mut().map(|l| l.enter("round", "bench", "", 0));
        let t_round = Instant::now();
        for (op, (app, device)) in self.requests().enumerate() {
            let resp = spanned(
                log.as_deref_mut(),
                "submit",
                "service",
                app.key,
                op as u64,
                || self.service.submit(Self::request(app, device)),
            );
            account_response(&resp, &mut round);
            if resp.source != (Source::Searched { warm_seeds: 0 }) || !resp.plan.respects_bound() {
                round.failed += 1;
            }
            plans.push(resp.plan);
        }
        round.seconds = t_round.elapsed().as_secs_f64();
        if let (Some(l), Some(id)) = (log, whole) {
            l.exit(id);
        }
        round.digest = suite::combine(plans.iter().map(suite::plan_digest));
        self.plans = plans;
        round
    }

    fn verify(&mut self) -> (u64, u64) {
        verify_plans(
            self.plans
                .iter()
                .zip(self.requests())
                .map(|(p, (a, d))| (p, a, d)),
        )
    }

    fn layer_pass(
        &mut self,
        _untraced: &[Round],
        log: &mut SpanLog,
        out: &mut LayerMetrics,
    ) -> u64 {
        // The search alone, no service and no cache around it.
        let tuner = Tuner::new().with_scale(Scale::Quick);
        let pass = log.enter("search_plan", "bench", "", 0);
        for app in &self.apps {
            let t = Instant::now();
            spanned(Some(&mut *log), "search_plan", "tuner", app.key, 0, || {
                tuner.search_plan(
                    app.bench.as_ref(),
                    &self.devices[0],
                    QualityBound::percent(BOUND_PCT),
                    &[],
                )
            });
            out.set_app("tuner.search_ms", app.key, t.elapsed().as_secs_f64() * 1e3);
        }
        log.exit(pass);

        // The same round through `submit_batch`: request-level fan-out on
        // the engine instead of eval-level fan-out inside each request.
        self.cache.clear().expect("clear the tuning cache");
        let reqs: Vec<TuneRequest> = self.requests().map(|(a, d)| Self::request(a, d)).collect();
        let t = Instant::now();
        let resps = spanned(Some(log), "submit_batch", "service", "", 0, || {
            self.service.submit_batch(&reqs)
        });
        out.set("service.batch_round_s", t.elapsed().as_secs_f64());
        let batch_digest = suite::combine(resps.iter().map(|r| suite::plan_digest(&r.plan)));
        if batch_digest == suite::combine(self.plans.iter().map(suite::plan_digest)) {
            0
        } else {
            eprintln!("check failed: submit_batch and submit plans differ");
            resps.len() as u64
        }
    }
}
