//! Execution statistics gathered during a kernel run.
//!
//! These feed the paper's analyses: percent of calculations approximated
//! (Fig 8c's color scale), divergence counts (Fig 11c's motivation), and
//! the cycle breakdown used to explain where speedup comes from.

/// The decision margin of one parameter a run reads only through
/// `value <= parameter` comparisons: the largest compared value that passed
/// and the smallest that failed. Every parameter value in
/// `[pass_max, fail_min)` orders each compared value the same way, so a run
/// repeated at any of them makes the same decisions — and, the parameter
/// entering the run nowhere else, is the same run bit for bit.
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

/// The decision margins of the two parameters an approximated run reads only
/// through comparisons (see [`DecisionMargin`]):
///
/// * `threshold` — the activation threshold, over `criterion <= threshold`
///   (TAF's window RSD, iACT's probe distance);
/// * `psize` — TAF's prediction size, over `d <= psize − 1`, where `d`
///   counts the predictions a state machine's current regime has made (its
///   `approx_left > 0` check). A machine that never entered a regime
///   compares nothing, so iACT, perforation and accurate runs keep the
///   identity.
///
/// A run at any (threshold, psize) that both margins cover decides every
/// comparison the same way, step by step, and so is the same run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecisionMargins {
    pub threshold: DecisionMargin,
    pub psize: DecisionMargin,
}

impl DecisionMargins {
    pub fn merge(&mut self, other: &DecisionMargins) {
        self.threshold.merge(&other.threshold);
        self.psize.merge(&other.psize);
    }

    /// Would a run at `threshold` and `psize` (`None` for techniques without
    /// a prediction size) decide every recorded comparison the same way?
    /// Never for a NaN threshold or a zero `psize`.
    pub fn covers(&self, threshold: f64, psize: Option<usize>) -> bool {
        self.threshold.covers(threshold)
            && psize.is_none_or(|p| {
                p.checked_sub(1)
                    .is_some_and(|c| self.psize.covers(c as f64))
            })
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
    /// Decision margins of the launch's threshold and prediction size (the
    /// identity for accurate and perforated launches, which compare
    /// nothing).
    pub margins: DecisionMargins,
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
        self.margins.merge(&other.margins);
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
        let mut m = KernelStats::default().margins.threshold;
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
        let margins = DecisionMargins {
            threshold: m,
            psize: DecisionMargin {
                pass_max: 3.0,
                fail_min: 4.0,
            },
        };
        let mut merged = KernelStats::default();
        merged.merge(&KernelStats {
            margins,
            ..Default::default()
        });
        assert_eq!(merged.margins, margins);
        // psize is covered through `psize − 1`: [3, 4) holds psize 4 alone.
        assert!(margins.covers(0.5, Some(4)) && margins.covers(1.0, None));
        assert!(!margins.covers(0.5, Some(3)) && !margins.covers(0.5, Some(5)));
        assert!(!margins.covers(2.0, Some(4)));
        let open = DecisionMargins::default();
        assert!(open.covers(0.0, Some(1)) && open.covers(0.0, Some(usize::MAX)));
        assert!(
            !open.covers(0.0, Some(0)),
            "psize 0 is refused, never covered"
        );
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
