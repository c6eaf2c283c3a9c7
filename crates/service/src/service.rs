//! The concurrent tuning front end.
//!
//! [`TuningService`] is the one door to the tuner for programs that issue
//! many tuning requests — possibly at once, possibly identical. Each
//! [`submit`](TuningService::submit) resolves through three layers, cheapest
//! first:
//!
//! 1. **Cache** — a valid entry in the sharded [`TuningCache`] answers
//!    immediately ([`Source::CacheHit`], zero evaluations).
//! 2. **Coalescing** — identical requests (same benchmark instance, device
//!    fingerprint, and bound) meet on one once-cell of an
//!    [`OnceMap`]: the first to arrive leads and searches, and the others
//!    block on the cell and take the leader's plan instead of searching
//!    again ([`Source::Coalesced`]). Every caller then removes the cell, so
//!    the map holds only searches in flight. With a cache attached, N
//!    concurrent identical requests run *exactly one* search: the leader
//!    stores the entry before it sets the cell, and a leader re-checks the
//!    cache before it searches, so a request that arrives after the cell is
//!    gone finds the entry instead of searching. A leader that panics
//!    leaves the cell empty, and a request blocked on it leads in its place.
//! 3. **Search** — the leader runs [`Tuner::search_plan`], handing it the
//!    re-executable Pareto frontier points of cached *neighboring bounds*
//!    on the same (instance, device) when there are any
//!    ([`Source::Searched`]). A frontier already answers any bound, so the
//!    warm search does not re-measure the neighborhood: it runs the stored
//!    frontier's winner under the requested bound once and, when that run
//!    reproduces the stored speedup and error exactly, answers with it
//!    (one evaluation, [`TunedPlan::verified_seed`]). A winner that does
//!    not reproduce — an edited entry — is counted, warned about once, and
//!    the search re-measures every seed and, if need be, walks the grids.
//!    No evaluation outcome is kept from one request to the next.
//!
//! A cache that cannot be read or written degrades each layer to the next
//! one; it never fails a request (see [`TuningService::submit`]).
//!
//! # Which instance a plan answers
//!
//! A plan is a claim about one instance of a benchmark: its error on other
//! inputs can be anything. Cache hits, coalesced answers and warm-start
//! seeds are therefore all keyed by the request's
//! [`params_key`](hpac_apps::common::Benchmark::params_key), the identity
//! the evaluation scope already keys baselines and inputs by, and each
//! stored plan carries it ([`TunedPlan::instance`]). A benchmark whose
//! `params_key` is `None` has no such identity: its requests search alone,
//! and nothing is looked up, shared or stored for them. The entry's file
//! name holds (benchmark, device, bound) and not the instance, so two
//! instances of one benchmark at one bound take turns at one path: the
//! last to search replaces the other's entry, and the other searches again
//! when next asked. Neither is ever served the other's plan.
//!
//! Entries and in-flight searches are keyed by the bound in basis points,
//! so two bounds closer than 0.01% share a key. Layers 1 and 2 therefore
//! check what they are about to serve against the *request's* bound: a plan
//! measured above it is a miss, the request searches, and its plan replaces
//! the entry.
//!
//! Batches go through [`submit_batch`](TuningService::submit_batch), which
//! admits requests as one batch on the process-wide
//! [`ExecEngine`](hpac_core::exec::ExecEngine) at its default width.
//!
//! # What a service retains
//!
//! The paper scores every configuration of a (benchmark, platform) against
//! one non-approximated baseline, and so does a service: the first request
//! that reaches the search layer takes an evaluation scope
//! ([`install_eval_memo`]) and the service holds it until it is dropped.
//! Every later search finds there what an earlier one built — per
//! (benchmark parameters, device) the measured baseline, and per
//! (benchmark parameters) the prepared inputs with the accurate outputs
//! interned in them — instead of re-running three accurate launches and the
//! input build before its first evaluation. A service that only ever
//! answers cache hits takes no scope and retains nothing. Error scores are
//! not retained: every evaluation scores its own output in one pass.
//!
//! * **For how long:** the service's lifetime. The scope is process-wide
//!   and reference-counted, so sweeps and other services running meanwhile
//!   share the same store, and it is freed with its last holder.
//! * **How much:** retained entries stop at
//!   [`EVAL_MEMO_BYTE_CAP`](hpac_apps::common::EVAL_MEMO_BYTE_CAP)
//!   (256 MiB). Past it an entry is still built and used by the request
//!   that needs it, just not kept (one warning per scope), so a baseline
//!   refused there is measured again by every search that needs it.
//!   Nothing is evicted.
//! * **Results:** retention never changes one. Baselines and inputs are
//!   deterministic functions of their keys — every benchmark field and the
//!   exact bits of every device field — so a retained value is the one the
//!   request would have measured itself, and a service at the cap answers
//!   what a fresh one does.

use crate::request::{Source, TuneRequest, TuneResponse, WarmStart};
use hpac_apps::common::{install_eval_memo, EvalMemoScope};
use hpac_core::exec::engine;
use hpac_core::once_map::OnceMap;
use hpac_tuner::{device_fingerprint, ParetoPoint, TunedPlan, Tuner, TuningCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Identity of a coalescable request: the benchmark instance's
/// [`params_key`](hpac_apps::common::Benchmark::params_key) (whose first word
/// is the app name's hash), the device fingerprint (the device name is
/// hashed into it) and the bound in basis points.
type Key = (Vec<u64>, u64, i64);

#[derive(Debug, Default)]
struct StatsInner {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    searches: AtomicU64,
    warm_starts: AtomicU64,
}

/// A point-in-time snapshot of the service's request accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests submitted.
    pub requests: u64,
    /// Requests answered from the persistent cache.
    pub cache_hits: u64,
    /// Requests that waited on an identical in-flight search.
    pub coalesced: u64,
    /// Searches actually run (cold or warm-started).
    pub searches: u64,
    /// Searches that evaluated at least one cached neighbor seed.
    pub warm_starts: u64,
}

/// The concurrent tuning front end. Cheap to share: all methods take
/// `&self`, and the service is `Sync` — one instance serves every thread.
#[derive(Debug)]
pub struct TuningService {
    tuner: Tuner,
    cache: Option<TuningCache>,
    /// One cell per search in flight, set to the leader's plan and where
    /// it came from (see the module docs).
    inflight: OnceMap<Key, (TunedPlan, Source)>,
    stats: StatsInner,
    /// The evaluation scope, taken by the first request that searches and
    /// held until the service is dropped (see the module docs).
    scope: OnceLock<EvalMemoScope>,
}

impl Default for TuningService {
    fn default() -> Self {
        Self::new()
    }
}

impl TuningService {
    /// A service with the default tuner policy and no persistent cache.
    /// Without a cache, coalescing still works for *overlapping* requests,
    /// but completed answers are not remembered.
    pub fn new() -> Self {
        TuningService {
            tuner: Tuner::new(),
            cache: None,
            inflight: OnceMap::new(),
            stats: StatsInner::default(),
            scope: OnceLock::new(),
        }
    }

    /// Attach a persistent sharded cache (answers survive the process, and
    /// concurrent identical requests are guaranteed exactly one search).
    pub fn with_cache(mut self, cache: TuningCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replace the tuner policy (scale, default budget).
    pub fn with_tuner(mut self, tuner: Tuner) -> Self {
        self.tuner = tuner;
        self
    }

    pub fn cache(&self) -> Option<&TuningCache> {
        self.cache.as_ref()
    }

    /// Request accounting so far.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            searches: self.stats.searches.load(Ordering::Relaxed),
            warm_starts: self.stats.warm_starts.load(Ordering::Relaxed),
        }
    }

    /// Resolve one request: cache, then coalesce, then search.
    ///
    /// Infallible: a cache fault costs time, never the answer. The contract
    /// is *search and serve, warn once per failed store, persist nothing*.
    /// An entry that cannot be read is a miss (a torn or stale one is
    /// deleted) and the request searches; a store that fails — its shard
    /// directory unwritable or not a directory — is reported once through
    /// `hpac_obs::log_warn` and not retried, and the searched plan is served
    /// anyway. The signature stays as it is because `benchmark/` calls it;
    /// `tests/warm_faults.rs` holds both paths to this contract.
    pub fn submit(&self, req: TuneRequest) -> TuneResponse {
        let t0 = Instant::now();
        let bound_bp = (req.bound().max_error_pct * 100.0).round() as i64;
        let _span = hpac_obs::span_named(
            hpac_obs::SpanId::ServiceRequest,
            req.bench().name(),
            bound_bp as u64,
        );
        hpac_obs::inc(hpac_obs::CounterId::ServiceRequests);
        self.stats.requests.fetch_add(1, Ordering::Relaxed);

        let Some(instance) = req.bench().params_key() else {
            // No instance to file a plan under: nothing is looked up,
            // shared or stored.
            let (plan, source) = self.search(&req, None);
            return self.respond(plan, source, t0);
        };
        let key = (instance, device_fingerprint(req.device()), bound_bp);
        let max_error_pct = req.bound().max_error_pct;
        loop {
            if let Some(plan) = self.cache_lookup(&req, &key) {
                return self.respond(plan, Source::CacheHit, t0);
            }
            let (cell, led) = self.inflight.get_or_init(&key, || self.lead(&req, &key));
            self.inflight.forget(&key, &cell);
            let (plan, source) = cell.get().expect("get_or_init returns a set cell");
            if led {
                return self.respond(plan.clone(), *source, t0);
            }
            // The leader's bound shares our key, not necessarily our value:
            // its plan answers us only if it meets ours. Otherwise start
            // over.
            if plan.measured_error_pct <= max_error_pct {
                hpac_obs::inc(hpac_obs::CounterId::ServiceCoalesced);
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                return self.respond(plan.clone(), Source::Coalesced, t0);
            }
        }
    }

    /// The leader's path, run under the key's in-flight cell: the plan for
    /// `req`, and where it came from.
    fn lead(&self, req: &TuneRequest, key: &Key) -> (TunedPlan, Source) {
        // Second-leader guard: between our cache miss and our cell, an
        // earlier leader may have stored its plan and dropped its cell. It
        // stores *before* it sets the cell, so re-checking the cache here
        // is enough for exactly one search per key when a cache is attached.
        if let Some(plan) = self.cache_lookup(req, key) {
            return (plan, Source::CacheHit);
        }
        if self.cache.is_some() {
            hpac_obs::inc(hpac_obs::CounterId::TunerCacheMisses);
        }
        self.search(req, Some(key))
    }

    /// Search for `req`, warm-started from and stored under `key`'s
    /// instance when there is one.
    fn search(&self, req: &TuneRequest, key: Option<&Key>) -> (TunedPlan, Source) {
        let seeds = match (req.warm_start_policy(), key) {
            (WarmStart::Auto, Some(key)) => self.gather_seeds(req, key),
            _ => Vec::new(),
        };
        self.scope.get_or_init(install_eval_memo);
        let plan = self
            .tuner
            .search_plan(req.bench(), req.device(), req.bound(), &seeds);
        self.stats.searches.fetch_add(1, Ordering::Relaxed);
        if !seeds.is_empty() {
            hpac_obs::inc(hpac_obs::CounterId::ServiceWarmStarts);
            self.stats.warm_starts.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(cache), Some((_, fingerprint, _))) = (&self.cache, key) {
            if let Err(e) = cache.store(&plan, *fingerprint) {
                hpac_obs::log_warn(&format!("tuning cache write failed: {e}"));
            }
        }
        let source = Source::Searched {
            warm_seeds: seeds.len(),
        };
        (plan, source)
    }

    /// Resolve a batch of requests concurrently through the engine's worker
    /// pool, at most its default width in flight at once. Responses come
    /// back in request order.
    pub fn submit_batch(&self, reqs: &[TuneRequest]) -> Vec<TuneResponse> {
        engine().run(reqs.len(), engine().default_width(), |i| {
            self.submit(reqs[i])
        })
    }

    /// The cached plan for `key`, if it was tuned on the request's instance
    /// and meets the request's own bound: the key rounds bounds to basis
    /// points, so the entry may have been tuned for one up to half a basis
    /// point looser.
    fn cache_lookup(&self, req: &TuneRequest, key: &Key) -> Option<TunedPlan> {
        let (instance, fingerprint, bound_bp) = key;
        let plan = self
            .cache
            .as_ref()?
            .load(
                req.bench().name(),
                req.device().name,
                *bound_bp as f64 / 100.0,
                *fingerprint,
            )
            .filter(|plan| {
                plan.instance.as_ref() == Some(instance)
                    && plan.measured_error_pct <= req.bound().max_error_pct
            })?;
        hpac_obs::inc(hpac_obs::CounterId::TunerCacheHits);
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Warm-start seeds: every re-executable frontier point of every bound
    /// cached for this (instance, device), nearest bound first,
    /// deduplicated by configuration label, each with the numbers its entry
    /// stored.
    fn gather_seeds(&self, req: &TuneRequest, key: &Key) -> Vec<ParetoPoint> {
        let Some(cache) = &self.cache else {
            return Vec::new();
        };
        let (instance, fingerprint, _) = key;
        let bound_pct = req.bound().max_error_pct;
        let mut neighbors = cache.neighbors(req.bench().name(), req.device().name, *fingerprint);
        neighbors.retain(|plan| plan.instance.as_ref() == Some(instance));
        neighbors.sort_by(|a, b| {
            (a.bound_pct - bound_pct)
                .abs()
                .total_cmp(&(b.bound_pct - bound_pct).abs())
        });
        let mut seen = std::collections::HashSet::new();
        let mut seeds = Vec::new();
        for plan in &neighbors {
            for point in plan.frontier.points() {
                if point.to_config().is_some() && seen.insert(&point.config) {
                    seeds.push(point.clone());
                }
            }
        }
        seeds
    }

    fn respond(&self, plan: TunedPlan, source: Source, t0: Instant) -> TuneResponse {
        let evals_spent = match source {
            Source::Searched { .. } => plan.evaluations,
            _ => 0,
        };
        TuneResponse {
            plan,
            source,
            evals_spent,
            wall_ns: t0.elapsed().as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use hpac_apps::blackscholes::Blackscholes;
    use hpac_harness::space::Scale;
    use hpac_tuner::QualityBound;

    fn quick_service() -> TuningService {
        TuningService::new().with_tuner(Tuner::new().with_scale(Scale::Quick))
    }

    fn temp_cache(tag: &str) -> TuningCache {
        let cache = TuningCache::new(std::env::temp_dir().join(format!("hpac_service_{tag}")));
        let _ = cache.clear();
        cache
    }

    #[test]
    fn search_then_cache_hit() {
        let cache = temp_cache("hit");
        let svc = quick_service().with_cache(cache.clone());
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        let bound = QualityBound::percent(5.0);

        let first = svc.submit(TuneRequest::new(&bench, &device, bound));
        assert_eq!(first.source, Source::Searched { warm_seeds: 0 });
        assert!(first.evals_spent > 0);

        let second = svc.submit(TuneRequest::new(&bench, &device, bound));
        assert_eq!(second.source, Source::CacheHit);
        assert_eq!(second.evals_spent, 0);
        assert_eq!(second.plan.config, first.plan.config);
        assert!(second.plan.from_cache);

        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.searches, 1);
        assert_eq!(stats.cache_hits, 1);

        // The search took the evaluation scope; a service that only ever
        // answers from the cache takes none.
        assert!(svc.scope.get().is_some());
        let hits_only = quick_service().with_cache(cache.clone());
        let hit = hits_only.submit(TuneRequest::new(&bench, &device, bound));
        assert_eq!(hit.source, Source::CacheHit);
        assert!(hits_only.scope.get().is_none());
        let _ = cache.clear();
    }

    #[test]
    fn uncached_service_still_answers() {
        let svc = quick_service();
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        let resp = svc.submit(TuneRequest::new(
            &bench,
            &device,
            QualityBound::percent(5.0),
        ));
        assert!(resp.source.is_searched());
        assert!(resp.plan.respects_bound());
    }

    #[test]
    fn warm_start_from_neighboring_bound() {
        let cache = temp_cache("warm");
        let svc = quick_service().with_cache(cache.clone());
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();

        let cold = svc.submit(TuneRequest::new(
            &bench,
            &device,
            QualityBound::percent(10.0),
        ));
        assert_eq!(cold.source, Source::Searched { warm_seeds: 0 });

        // A different bound on the same (benchmark, device): seeded from
        // the cached neighbor's frontier.
        let warm = svc.submit(TuneRequest::new(
            &bench,
            &device,
            QualityBound::percent(5.0),
        ));
        match warm.source {
            Source::Searched { warm_seeds } => assert!(warm_seeds > 0),
            other => panic!("expected a warm search, got {other:?}"),
        }
        assert!(warm.plan.respects_bound());
        assert_eq!(svc.stats().warm_starts, 1);
        let _ = cache.clear();
    }

    #[test]
    fn warm_start_never_forces_cold_search() {
        let cache = temp_cache("cold_policy");
        let svc = quick_service().with_cache(cache.clone());
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        svc.submit(TuneRequest::new(
            &bench,
            &device,
            QualityBound::percent(10.0),
        ));
        let resp = svc.submit(
            TuneRequest::new(&bench, &device, QualityBound::percent(5.0))
                .warm_start(WarmStart::Never),
        );
        assert_eq!(resp.source, Source::Searched { warm_seeds: 0 });
        let _ = cache.clear();
    }

    #[test]
    fn batch_answers_in_request_order() {
        let cache = temp_cache("batch");
        let svc = quick_service().with_cache(cache.clone());
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        let bounds = [5.0, 8.0, 5.0, 8.0, 5.0];
        let reqs: Vec<TuneRequest> = bounds
            .iter()
            .map(|b| TuneRequest::new(&bench, &device, QualityBound::percent(*b)))
            .collect();
        let resps = svc.submit_batch(&reqs);
        assert_eq!(resps.len(), bounds.len());
        for (resp, bound) in resps.iter().zip(bounds) {
            assert_eq!(resp.plan.bound_pct, bound);
            assert!(resp.plan.respects_bound());
        }
        // 5 requests over 2 distinct keys: exactly 2 searches ran; the
        // duplicates were coalesced or served from cache.
        let stats = svc.stats();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.searches, 2);
        assert_eq!(stats.cache_hits + stats.coalesced, 3);
        let _ = cache.clear();
    }
}
