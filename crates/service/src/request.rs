//! The typed request/response vocabulary of the tuning service.
//!
//! A [`TuneRequest`] names *what* the caller wants tuned — benchmark,
//! device, quality bound — plus the one knob the service honors per
//! request: the warm-start policy. The evaluation budget is the service's
//! (`TuningService::with_tuner`), so every request for one key searches
//! alike and may share one answer. A
//! [`TuneResponse`] carries the plan back together with its provenance:
//! where the answer came from ([`Source`]), how many fresh evaluations it
//! cost, and how long the caller waited.

use gpu_sim::DeviceSpec;
use hpac_apps::common::Benchmark;
use hpac_tuner::{QualityBound, TunedPlan};

/// Whether a search may seed itself from cached neighboring bounds on the
/// same (instance, device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStart {
    /// Seed from neighbors when the service has a cache (the default).
    #[default]
    Auto,
    /// Always search cold. Guarantees the deterministic cold-search result,
    /// bit-identical to `Tuner::search_plan(.., &[])`.
    Never,
}

/// A tuning request: benchmark + device + quality bound, with an optional
/// warm-start policy. Built with [`TuneRequest::new`] and the chained
/// setter; submitted to a `TuningService`.
///
/// ```ignore
/// let req = TuneRequest::new(&bench, &device, QualityBound::percent(5.0))
///     .warm_start(WarmStart::Never);
/// let resp = service.submit(req);
/// ```
#[derive(Clone, Copy)]
pub struct TuneRequest<'a> {
    bench: &'a dyn Benchmark,
    device: &'a DeviceSpec,
    bound: QualityBound,
    warm_start: WarmStart,
}

impl<'a> TuneRequest<'a> {
    pub fn new(bench: &'a dyn Benchmark, device: &'a DeviceSpec, bound: QualityBound) -> Self {
        TuneRequest {
            bench,
            device,
            bound,
            warm_start: WarmStart::default(),
        }
    }

    /// Set the warm-start policy for this request.
    pub fn warm_start(mut self, policy: WarmStart) -> Self {
        self.warm_start = policy;
        self
    }

    pub fn bench(&self) -> &'a dyn Benchmark {
        self.bench
    }

    pub fn device(&self) -> &'a DeviceSpec {
        self.device
    }

    pub fn bound(&self) -> QualityBound {
        self.bound
    }

    pub fn warm_start_policy(&self) -> WarmStart {
        self.warm_start
    }
}

impl std::fmt::Debug for TuneRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuneRequest")
            .field("bench", &self.bench.name())
            .field("device", &self.device.name)
            .field("bound_pct", &self.bound.max_error_pct)
            .field("warm_start", &self.warm_start)
            .finish()
    }
}

/// Where a response's plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the persistent cache; zero evaluations spent.
    CacheHit,
    /// An identical request was already in flight; this one waited for the
    /// leader's plan instead of searching again.
    Coalesced,
    /// This request ran the search. `warm_seeds` is the number of cached
    /// neighbor configurations handed to it (0 = cold). A warm search that
    /// verified the stored winner ran one of them
    /// (`TunedPlan::verified_seed`); otherwise it ran them all ahead of the
    /// grid walk.
    Searched { warm_seeds: usize },
}

impl Source {
    pub fn is_coalesced(&self) -> bool {
        matches!(self, Source::Coalesced)
    }

    pub fn is_searched(&self) -> bool {
        matches!(self, Source::Searched { .. })
    }

    /// True for any answer that avoided a fresh full search.
    pub fn is_warm(&self) -> bool {
        match self {
            Source::CacheHit | Source::Coalesced => true,
            Source::Searched { warm_seeds } => *warm_seeds > 0,
        }
    }
}

/// The service's answer: the plan plus its provenance.
#[derive(Debug, Clone)]
pub struct TuneResponse {
    /// The tuned, re-executable plan.
    pub plan: TunedPlan,
    /// Where the plan came from.
    pub source: Source,
    /// Fresh simulator evaluations this request caused (0 for cache hits
    /// and coalesced waiters).
    pub evals_spent: usize,
    /// Wall-clock nanoseconds the caller spent inside `submit`.
    pub wall_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_apps::blackscholes::Blackscholes;

    #[test]
    fn builder_defaults_and_overrides() {
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        let req = TuneRequest::new(&bench, &device, QualityBound::percent(5.0));
        assert_eq!(req.warm_start_policy(), WarmStart::Auto);
        let req = req.warm_start(WarmStart::Never);
        assert_eq!(req.warm_start_policy(), WarmStart::Never);
        assert_eq!(req.bound().max_error_pct, 5.0);
        assert_eq!(req.bench().name(), "Blackscholes");
        let dbg = format!("{req:?}");
        assert!(dbg.contains("Blackscholes") && dbg.contains("V100"));
    }

    #[test]
    fn source_predicates() {
        assert!(Source::CacheHit.is_warm());
        assert!(Source::Coalesced.is_coalesced() && Source::Coalesced.is_warm());
        assert!(Source::Searched { warm_seeds: 0 }.is_searched());
        assert!(!Source::Searched { warm_seeds: 0 }.is_warm());
        assert!(Source::Searched { warm_seeds: 3 }.is_warm());
    }
}
