//! Incremental Pareto frontier over (speedup, QoI error).
//!
//! The offline harness inspects full speedup/error clouds (Fig 6's
//! "highest speedup where error < 10%" query runs over every executed
//! configuration). An online tuner cannot keep clouds around; it keeps only
//! the non-dominated boundary — every point that is fastest for *some*
//! error budget — and answers any quality bound from that curve.

/// One non-dominated configuration on the speedup/error tradeoff curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Speedup over the accurate baseline.
    pub speedup: f64,
    /// QoI error in percent (MAPE × 100 or MCR × 100).
    pub error_pct: f64,
    /// "TAF", "iACT", or "Perfo".
    pub technique: String,
    /// Human-readable parameter description (`SweepConfig::label`).
    pub config: String,
    pub items_per_thread: usize,
    /// The fully parameterized region behind this point, when known.
    /// Frontier points recorded by the search always carry it; it is what
    /// makes a cached frontier *re-executable* — a warm-started search runs
    /// the stored winner among neighboring bounds' points as a concrete
    /// configuration, to check `speedup` and `error_pct` against what it
    /// measures, instead of searching cold.
    pub region: Option<hpac_core::region::ApproxRegion>,
    /// Launch shape for [`ParetoPoint::region`], when known.
    pub lp: Option<hpac_apps::common::LaunchParams>,
}

impl ParetoPoint {
    /// The concrete sweep configuration behind this point, when the point
    /// carries one (points from schema-v1 caches do not).
    pub fn to_config(&self) -> Option<hpac_harness::space::SweepConfig> {
        Some(hpac_harness::space::SweepConfig {
            region: self.region?,
            lp: self.lp?,
            label: self.config.clone(),
        })
    }
}

impl ParetoPoint {
    /// Strict Pareto dominance: at least as good on both objectives and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.speedup >= other.speedup
            && self.error_pct <= other.error_pct
            && (self.speedup > other.speedup || self.error_pct < other.error_pct)
    }

    fn same_coords(&self, other: &ParetoPoint) -> bool {
        self.speedup == other.speedup && self.error_pct == other.error_pct
    }
}

/// The frontier: a set of mutually non-dominated points, kept sorted by
/// error (ascending — and therefore speedup ascending too).
#[derive(Debug, Clone, Default)]
pub struct ParetoFrontier {
    points: Vec<ParetoPoint>,
}

impl ParetoFrontier {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a candidate. Returns `true` if the frontier changed; a
    /// candidate dominated by (or coordinate-equal to) an existing point is
    /// a no-op, and points with non-finite or non-positive coordinates are
    /// rejected outright.
    pub fn insert(&mut self, candidate: ParetoPoint) -> bool {
        if !candidate.speedup.is_finite()
            || !candidate.error_pct.is_finite()
            || candidate.speedup <= 0.0
            || candidate.error_pct < 0.0
        {
            hpac_obs::inc(hpac_obs::CounterId::ParetoRejects);
            return false;
        }
        if self
            .points
            .iter()
            .any(|p| p.dominates(&candidate) || p.same_coords(&candidate))
        {
            hpac_obs::inc(hpac_obs::CounterId::ParetoRejects);
            return false;
        }
        let before = self.points.len();
        self.points.retain(|p| !candidate.dominates(p));
        if hpac_obs::enabled() {
            hpac_obs::add(
                hpac_obs::CounterId::ParetoPrunes,
                (before - self.points.len()) as u64,
            );
            hpac_obs::inc(hpac_obs::CounterId::ParetoInserts);
        }
        let at = self
            .points
            .partition_point(|p| p.error_pct < candidate.error_pct);
        self.points.insert(at, candidate);
        true
    }

    /// The fastest point with error at or below `max_error_pct` — the
    /// tuner's answer to "give me the fastest configuration with ≤ X% error".
    pub fn best_under(&self, max_error_pct: f64) -> Option<&ParetoPoint> {
        // Sorted by error ascending ⇒ speedup ascending: the last feasible
        // point is the fastest feasible one.
        self.points
            .iter()
            .rev()
            .find(|p| p.error_pct <= max_error_pct)
    }

    /// Speedup of the frontier's exact point (error of exactly zero), if
    /// one exists. Since error cannot go below zero, this point dominates
    /// *any* strictly slower candidate whatever that candidate's error
    /// turns out to be — the domination proof behind frontier-aware early
    /// abort. Sorted by error ascending, so only the first point can
    /// qualify.
    pub fn zero_error_speedup(&self) -> Option<f64> {
        self.points
            .first()
            .filter(|p| p.error_pct == 0.0)
            .map(|p| p.speedup)
    }

    /// Points in ascending error order.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(speedup: f64, error_pct: f64) -> ParetoPoint {
        ParetoPoint {
            speedup,
            error_pct,
            technique: "TAF".into(),
            config: format!("s={speedup} e={error_pct}"),
            items_per_thread: 8,
            region: None,
            lp: None,
        }
    }

    #[test]
    fn insert_keeps_non_dominated() {
        let mut f = ParetoFrontier::new();
        assert!(f.insert(pt(1.2, 1.0)));
        assert!(f.insert(pt(2.0, 5.0)));
        assert!(f.insert(pt(1.5, 2.0)));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn dominated_insert_is_noop() {
        let mut f = ParetoFrontier::new();
        assert!(f.insert(pt(2.0, 1.0)));
        assert!(!f.insert(pt(1.5, 2.0)), "slower and less accurate");
        assert!(!f.insert(pt(2.0, 1.0)), "exact duplicate");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn dominating_insert_prunes() {
        let mut f = ParetoFrontier::new();
        f.insert(pt(1.2, 2.0));
        f.insert(pt(1.5, 4.0));
        assert!(f.insert(pt(2.0, 1.0)), "dominates both");
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].speedup, 2.0);
    }

    #[test]
    fn non_finite_and_non_positive_rejected() {
        let mut f = ParetoFrontier::new();
        assert!(!f.insert(pt(f64::INFINITY, 1.0)));
        assert!(!f.insert(pt(1.0, f64::INFINITY)));
        assert!(!f.insert(pt(0.0, 1.0)));
        assert!(!f.insert(pt(1.0, -0.5)));
        assert!(f.is_empty());
    }

    #[test]
    fn best_under_picks_fastest_feasible() {
        let mut f = ParetoFrontier::new();
        f.insert(pt(1.2, 0.5));
        f.insert(pt(1.8, 3.0));
        f.insert(pt(3.0, 9.0));
        assert_eq!(f.best_under(5.0).unwrap().speedup, 1.8);
        assert_eq!(f.best_under(20.0).unwrap().speedup, 3.0);
        assert_eq!(f.best_under(1.0).unwrap().speedup, 1.2);
        assert!(f.best_under(0.1).is_none());
    }

    #[test]
    fn zero_error_speedup_requires_exact_point() {
        let mut f = ParetoFrontier::new();
        assert_eq!(f.zero_error_speedup(), None);
        f.insert(pt(1.8, 3.0));
        assert_eq!(f.zero_error_speedup(), None);
        f.insert(pt(1.4, 0.0));
        assert_eq!(f.zero_error_speedup(), Some(1.4));
        // A faster exact point replaces the slower one.
        f.insert(pt(1.6, 0.0));
        assert_eq!(f.zero_error_speedup(), Some(1.6));
    }

    #[test]
    fn frontier_sorted_by_error() {
        let mut f = ParetoFrontier::new();
        f.insert(pt(3.0, 9.0));
        f.insert(pt(1.2, 0.5));
        f.insert(pt(1.8, 3.0));
        let errs: Vec<f64> = f.points().iter().map(|p| p.error_pct).collect();
        assert_eq!(errs, vec![0.5, 3.0, 9.0]);
    }
}
