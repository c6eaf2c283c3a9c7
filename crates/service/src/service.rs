//! The concurrent tuning front end.
//!
//! [`TuningService`] is the one door to the tuner for programs that issue
//! many tuning requests — possibly at once, possibly identical. Each
//! [`submit`](TuningService::submit) resolves through three layers, cheapest
//! first:
//!
//! 1. **Cache** — a valid entry in the sharded [`TuningCache`] answers
//!    immediately ([`Source::CacheHit`], zero evaluations).
//! 2. **Coalescing** — if an identical request (same benchmark, device
//!    fingerprint, and bound) is already searching, this one waits for the
//!    leader's plan instead of searching again ([`Source::Coalesced`]).
//!    With a cache attached, N concurrent identical requests run *exactly
//!    one* search: the leader stores the entry before retiring its
//!    in-flight slot, and a would-be second leader re-checks the cache
//!    right after claiming the slot, so it finds the entry instead of
//!    searching.
//! 3. **Search** — the leader runs [`Tuner::search_plan`], handing it the
//!    re-executable Pareto frontier points of cached *neighboring bounds*
//!    on the same (benchmark, device) when there are any
//!    ([`Source::Searched`]). A frontier already answers any bound, so the
//!    warm search does not re-measure the neighborhood: it runs the stored
//!    frontier's winner under the requested bound once and, when that run
//!    reproduces the stored speedup and error exactly, answers with it
//!    (one evaluation, [`TunedPlan::verified_seed`]). A winner that does
//!    not reproduce — a neighborhood tuned for another instance of the
//!    benchmark, or an edited entry — is counted, warned about once, and
//!    the search re-measures every seed and, if need be, walks the grids.
//!    No evaluation outcome is kept from one request to the next.
//!
//! A cache that cannot be read or written degrades each layer to the next
//! one; it never fails a request (see [`TuningService::submit`]).
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
//! (benchmark parameters, device) the measured baseline with its quality
//! cache, and per (benchmark parameters) the prepared inputs with the
//! accurate outputs interned in them — instead of re-running three accurate
//! launches and the input build before its first evaluation. A service that
//! only ever answers cache hits takes no scope and retains nothing.
//!
//! * **For how long:** the service's lifetime. The scope is process-wide
//!   and reference-counted, so sweeps and other services running meanwhile
//!   share the same store, and it is freed with its last holder.
//! * **How much:** retained entries stop at 256 MiB; past that an entry is
//!   still built and used by the request that needs it, just not kept (one
//!   warning per scope). Nothing is evicted.
//! * **Results:** retention never changes one. Baselines and inputs are
//!   deterministic functions of their keys — every benchmark field and the
//!   exact bits of every device field — so a retained value is the one the
//!   request would have measured itself.
//! * **Known limit:** the *persistent* cache and the coalescing key still
//!   identify a benchmark by its name alone (plus the device fingerprint
//!   and the bound). Two differently sized instances of one benchmark on
//!   one service share cache entries, as they always have; only the
//!   in-memory scope tells them apart. A warm start notices — the other
//!   instance's stored winner does not reproduce, so it re-measures — and
//!   a cache hit does not.

use crate::request::{Source, TuneRequest, TuneResponse, WarmStart};
use hpac_apps::common::{install_eval_memo, EvalMemoScope};
use hpac_core::exec::engine;
use hpac_tuner::{device_fingerprint, ParetoPoint, TunedPlan, Tuner, TuningCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Identity of a coalescable request: same benchmark, same device (by
/// fingerprint, not just name), same bound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    benchmark: String,
    device: String,
    fingerprint: u64,
    bound_bp: i64,
}

impl Key {
    fn new(req: &TuneRequest, fingerprint: u64) -> Self {
        Key {
            benchmark: req.bench().name().to_string(),
            device: req.device().name.to_string(),
            fingerprint,
            bound_bp: (req.bound().max_error_pct * 100.0).round() as i64,
        }
    }
}

/// What waiters on an in-flight search eventually observe.
#[derive(Debug)]
enum WaitState {
    Pending,
    Done(Box<TunedPlan>),
    /// The leader died without publishing (panicked); waiters retry.
    Abandoned,
}

#[derive(Debug)]
struct InFlight {
    state: Mutex<WaitState>,
    cv: Condvar,
}

impl InFlight {
    fn new() -> Self {
        InFlight {
            state: Mutex::new(WaitState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Block until the leader publishes; `None` means it was abandoned.
    fn wait(&self) -> Option<TunedPlan> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*state {
                WaitState::Pending => {
                    state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                WaitState::Done(plan) => return Some((**plan).clone()),
                WaitState::Abandoned => return None,
            }
        }
    }

    fn publish(&self, outcome: WaitState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = outcome;
        self.cv.notify_all();
    }
}

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
    inflight: Mutex<HashMap<Key, Arc<InFlight>>>,
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
            inflight: Mutex::new(HashMap::new()),
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
        let fingerprint = device_fingerprint(req.device());
        let key = Key::new(&req, fingerprint);
        let _span = hpac_obs::span_named(
            hpac_obs::SpanId::ServiceRequest,
            &key.benchmark,
            key.bound_bp as u64,
        );
        hpac_obs::inc(hpac_obs::CounterId::ServiceRequests);
        hpac_obs::inc(hpac_obs::CounterId::TunerRequests);
        self.stats.requests.fetch_add(1, Ordering::Relaxed);

        let max_error_pct = req.bound().max_error_pct;
        let inflight = loop {
            if let Some(plan) = self.cache_lookup(&key, max_error_pct) {
                return self.respond(plan, Source::CacheHit, 0, t0);
            }
            match self.claim_or_join(&key) {
                // We are the leader; go search.
                None => break self.claimed(&key),
                Some(existing) => {
                    // The leader's bound shares our key, not necessarily
                    // our value: its plan answers us only if it meets ours.
                    if let Some(plan) = existing
                        .wait()
                        .filter(|plan| plan.measured_error_pct <= max_error_pct)
                    {
                        hpac_obs::inc(hpac_obs::CounterId::ServiceCoalesced);
                        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                        return self.respond(plan, Source::Coalesced, 0, t0);
                    }
                    // Leader abandoned (panicked) or answered a looser
                    // bound: start over.
                }
            }
        };

        // Second-leader guard: between our cache miss and our claim, a
        // previous leader may have published and retired. It stores to the
        // cache *before* retiring, so re-checking the cache here is enough
        // to guarantee exactly one search per key when a cache is attached.
        if let Some(plan) = self.cache_lookup(&key, max_error_pct) {
            self.retire(&key, &inflight, WaitState::Done(Box::new(plan.clone())));
            return self.respond(plan, Source::CacheHit, 0, t0);
        }
        if self.cache.is_some() {
            hpac_obs::inc(hpac_obs::CounterId::TunerCacheMisses);
        }

        // Leader path. The guard retires the in-flight slot as Abandoned if
        // the search panics, so waiters never deadlock.
        let guard = RetireGuard {
            svc: self,
            key: &key,
            inflight: &inflight,
            done: false,
        };
        let seeds = match req.warm_start_policy() {
            WarmStart::Auto => self.gather_seeds(&key, max_error_pct),
            WarmStart::Never => Vec::new(),
        };
        let tuner = self.request_tuner(&req);
        self.scope.get_or_init(install_eval_memo);
        let plan = tuner.search_plan(req.bench(), req.device(), req.bound(), &seeds);
        self.stats.searches.fetch_add(1, Ordering::Relaxed);
        if !seeds.is_empty() {
            hpac_obs::inc(hpac_obs::CounterId::ServiceWarmStarts);
            self.stats.warm_starts.fetch_add(1, Ordering::Relaxed);
        }

        // Store BEFORE retiring the in-flight slot (see the second-leader
        // guard above — this ordering is what makes "exactly one search"
        // airtight).
        if let Some(cache) = &self.cache {
            if let Err(e) = cache.store(&plan, fingerprint) {
                hpac_obs::log_warn(&format!("tuning cache write failed: {e}"));
            }
        }
        guard.retire(WaitState::Done(Box::new(plan.clone())));
        self.respond(
            plan,
            Source::Searched {
                warm_seeds: seeds.len(),
            },
            0,
            t0,
        )
    }

    /// Resolve a batch of requests concurrently through the engine's worker
    /// pool, at most its default width in flight at once. Responses come
    /// back in request order.
    pub fn submit_batch(&self, reqs: &[TuneRequest]) -> Vec<TuneResponse> {
        engine().run(reqs.len(), engine().default_width(), |i| {
            self.submit(reqs[i])
        })
    }

    /// The cached plan for `key`, if it meets the request's own bound: the
    /// key rounds bounds to basis points, so the entry may have been tuned
    /// for one up to half a basis point looser.
    fn cache_lookup(&self, key: &Key, max_error_pct: f64) -> Option<TunedPlan> {
        let plan = self
            .cache
            .as_ref()?
            .load(
                &key.benchmark,
                &key.device,
                key.bound_bp as f64 / 100.0,
                key.fingerprint,
            )
            .filter(|plan| plan.measured_error_pct <= max_error_pct)?;
        hpac_obs::inc(hpac_obs::CounterId::TunerCacheHits);
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Claim the key's in-flight slot (returning `None` = we lead) or join
    /// an existing one.
    fn claim_or_join(&self, key: &Key) -> Option<Arc<InFlight>> {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(key) {
            Some(existing) => Some(existing.clone()),
            None => {
                map.insert(key.clone(), Arc::new(InFlight::new()));
                None
            }
        }
    }

    fn claimed(&self, key: &Key) -> Arc<InFlight> {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .expect("leader's in-flight slot exists until it retires")
            .clone()
    }

    /// Publish an outcome to waiters and remove the in-flight slot.
    fn retire(&self, key: &Key, inflight: &Arc<InFlight>, outcome: WaitState) {
        inflight.publish(outcome);
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
    }

    /// Warm-start seeds: every re-executable frontier point of every cached
    /// bound for this (benchmark, device), nearest bound first, deduplicated
    /// by configuration label, each with the numbers its entry stored.
    fn gather_seeds(&self, key: &Key, bound_pct: f64) -> Vec<ParetoPoint> {
        let Some(cache) = &self.cache else {
            return Vec::new();
        };
        let mut neighbors = cache.neighbors(&key.benchmark, &key.device, key.fingerprint);
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

    /// The per-request tuner: the service policy with any per-request
    /// budget override.
    fn request_tuner(&self, req: &TuneRequest) -> Tuner {
        Tuner {
            scale: self.tuner.scale,
            budget_fraction: req
                .budget_fraction_override()
                .unwrap_or(self.tuner.budget_fraction),
        }
    }

    fn respond(&self, plan: TunedPlan, source: Source, evals: usize, t0: Instant) -> TuneResponse {
        let evals_spent = match source {
            Source::Searched { .. } => plan.evaluations,
            _ => evals,
        };
        TuneResponse {
            plan,
            source,
            evals_spent,
            wall_ns: t0.elapsed().as_nanos() as u64,
        }
    }
}

/// Retires the leader's in-flight slot exactly once — as `Abandoned` if the
/// search unwinds, so waiters wake up and retry instead of deadlocking.
struct RetireGuard<'a> {
    svc: &'a TuningService,
    key: &'a Key,
    inflight: &'a Arc<InFlight>,
    done: bool,
}

impl RetireGuard<'_> {
    fn retire(mut self, outcome: WaitState) {
        self.done = true;
        self.svc.retire(self.key, self.inflight, outcome);
    }
}

impl Drop for RetireGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.svc
                .retire(self.key, self.inflight, WaitState::Abandoned);
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

    #[test]
    fn per_request_budget_override_caps_evals() {
        let svc = quick_service();
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        let bound = QualityBound::percent(5.0);
        let tiny = svc.submit(
            TuneRequest::new(&bench, &device, bound)
                .budget_fraction(0.001)
                .warm_start(WarmStart::Never),
        );
        let full =
            svc.submit(TuneRequest::new(&bench, &device, bound).warm_start(WarmStart::Never));
        assert!(tiny.evals_spent <= full.evals_spent);
        assert!(tiny.evals_spent <= (tiny.plan.full_space as f64 * 0.001).max(1.0) as usize);
    }
}
