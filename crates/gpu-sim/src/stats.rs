//! Execution statistics gathered during a kernel run.
//!
//! These feed the paper's analyses: percent of calculations approximated
//! (Fig 8c's color scale), divergence counts (Fig 11c's motivation), and
//! the cycle breakdown used to explain where speedup comes from.

/// The decision margin of a run's activation threshold: the largest
/// criterion value that passed a `value <= threshold` comparison and the
/// smallest that failed one. Every threshold in `[pass_max, fail_min)` orders
/// each compared value the same way, so a run repeated at any of them makes
/// the same decisions — and, the threshold entering a run nowhere else, is
/// the same run bit for bit.
///
/// The identity is `(−∞, +∞)`; `max`/`min` folding is commutative, so the
/// margin is the same whatever order blocks and kernels merge in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionMargin {
    pub pass_max: f64,
    pub fail_min: f64,
}

impl Default for DecisionMargin {
    fn default() -> Self {
        DecisionMargin {
            pass_max: f64::NEG_INFINITY,
            fail_min: f64::INFINITY,
        }
    }
}

impl DecisionMargin {
    /// Record one comparison's criterion value and outcome. A NaN or `+∞`
    /// value fails at every finite threshold and narrows nothing
    /// (`f64::min` keeps the non-NaN operand).
    #[inline]
    pub fn note(&mut self, value: f64, passed: bool) {
        if passed {
            self.pass_max = self.pass_max.max(value);
        } else {
            self.fail_min = self.fail_min.min(value);
        }
    }

    pub fn merge(&mut self, other: &DecisionMargin) {
        self.pass_max = self.pass_max.max(other.pass_max);
        self.fail_min = self.fail_min.min(other.fail_min);
    }

    /// Would a run at `threshold` decide every recorded comparison the same
    /// way? (Never for a NaN threshold.)
    pub fn covers(&self, threshold: f64) -> bool {
        self.pass_max <= threshold && threshold < self.fail_min
    }
}

/// Counters accumulated over one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Warp-steps executed (a warp processing one grid-stride step).
    pub warp_steps: u64,
    /// Warp-steps where lanes took *both* execution paths (divergent).
    pub divergent_steps: u64,
    /// Lane-level region executions that took the approximate path.
    pub approx_lanes: u64,
    /// Lane-level region executions that took the accurate path.
    pub accurate_lanes: u64,
    /// Lane-level region executions skipped entirely (perforation).
    pub skipped_lanes: u64,
    /// Total 128-byte global-memory transactions charged.
    pub global_txns: u64,
    /// Total issue cycles across all warps (before scheduling).
    pub total_issue_cycles: f64,
    /// Total latency cycles across all warps (before hiding).
    pub total_latency_cycles: f64,
    /// Decision margin of the launch's activation threshold (the identity
    /// for accurate and perforated launches, which compare nothing).
    pub margin: DecisionMargin,
}

impl KernelStats {
    /// Fraction of region executions that were approximated (0..=1).
    /// Skipped (perforated) lanes count as approximated, matching the
    /// paper's "percent of total price calculations that are approximated".
    pub fn approx_fraction(&self) -> f64 {
        let total = self.approx_lanes + self.accurate_lanes + self.skipped_lanes;
        if total == 0 {
            0.0
        } else {
            (self.approx_lanes + self.skipped_lanes) as f64 / total as f64
        }
    }

    /// Fraction of warp-steps that diverged.
    pub fn divergence_fraction(&self) -> f64 {
        if self.warp_steps == 0 {
            0.0
        } else {
            self.divergent_steps as f64 / self.warp_steps as f64
        }
    }

    /// Merge another kernel's stats into this one (multi-kernel apps).
    pub fn merge(&mut self, other: &KernelStats) {
        self.warp_steps += other.warp_steps;
        self.divergent_steps += other.divergent_steps;
        self.approx_lanes += other.approx_lanes;
        self.accurate_lanes += other.accurate_lanes;
        self.skipped_lanes += other.skipped_lanes;
        self.global_txns += other.global_txns;
        self.total_issue_cycles += other.total_issue_cycles;
        self.total_latency_cycles += other.total_latency_cycles;
        self.margin.merge(&other.margin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_fraction_counts_skips() {
        let s = KernelStats {
            approx_lanes: 30,
            accurate_lanes: 50,
            skipped_lanes: 20,
            ..Default::default()
        };
        assert!((s.approx_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = KernelStats::default();
        assert_eq!(s.approx_fraction(), 0.0);
        assert_eq!(s.divergence_fraction(), 0.0);
    }

    #[test]
    fn divergence_fraction() {
        let s = KernelStats {
            warp_steps: 100,
            divergent_steps: 25,
            ..Default::default()
        };
        assert!((s.divergence_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn margin_identity_covers_everything_and_merging_narrows() {
        let mut m = KernelStats::default().margin;
        assert!(m.covers(0.0) && m.covers(f64::MAX));
        assert!(!m.covers(f64::NAN));
        m.note(0.5, true);
        m.note(f64::NAN, false);
        m.note(f64::INFINITY, false);
        assert_eq!((m.pass_max, m.fail_min), (0.5, f64::INFINITY));
        let mut other = DecisionMargin::default();
        other.note(2.0, false);
        other.note(0.25, true);
        m.merge(&other);
        assert_eq!((m.pass_max, m.fail_min), (0.5, 2.0));
        assert!(m.covers(0.5) && m.covers(1.999) && !m.covers(2.0) && !m.covers(0.4));
        let mut merged = KernelStats::default();
        merged.merge(&KernelStats {
            margin: m,
            ..Default::default()
        });
        assert_eq!(merged.margin, m);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = KernelStats {
            warp_steps: 10,
            approx_lanes: 5,
            total_issue_cycles: 100.0,
            ..Default::default()
        };
        let b = KernelStats {
            warp_steps: 7,
            approx_lanes: 2,
            total_issue_cycles: 50.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.warp_steps, 17);
        assert_eq!(a.approx_lanes, 7);
        assert!((a.total_issue_cycles - 150.0).abs() < 1e-12);
    }
}
