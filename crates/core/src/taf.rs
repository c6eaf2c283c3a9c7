//! TAF — Temporal Approximate Function memoization (output memoization),
//! GPU-adapted per §3.1.3.
//!
//! Each state machine watches the stream of outputs produced by *one thread's
//! successive region executions* (the grid-stride iterations of Fig 4d —
//! the relaxed-locality design: no inter-thread dependencies). When the
//! sliding window of the last `hsize` outputs has relative standard
//! deviation below the threshold, the machine enters the *stable regime*:
//! the next `psize` invocations return the last accurately computed output
//! without executing the region. After the prediction phase the window is
//! cleared and the machine re-observes.
//!
//! For regions with multi-dimensional outputs the window tracks a scalar
//! signature (the mean of the output components) while the memoized value
//! retains the full output vector. (CPU-HPAC computes per-component RSDs;
//! the scalar signature keeps per-thread shared-memory state at
//! `hsize + out_dim` scalars instead of `hsize × out_dim`, which is what
//! makes large launches fit the per-block shared-memory budget — see
//! `shared_state` and DESIGN.md.)
//!
//! [`TafPool`] stores all state machines of a kernel launch in flat arrays
//! (structure-of-arrays) so the per-launch allocation cost is a handful of
//! `Vec`s rather than millions of small boxes.
//!
//! The pool reads its two comparison parameters nowhere but in comparisons:
//! the threshold in `rsd <= threshold` and the prediction size in the
//! `approx_left > 0` regime check. It records the decision margin of each
//! ([`TafPool::margins`]), the interval of values that would decide every
//! comparison made so far the same way.

use crate::lane;
use crate::metrics::rsd;
use crate::params::TafParams;
use gpu_sim::{CostProfile, DecisionMargin, DecisionMargins};

/// All TAF state machines for one kernel launch.
#[derive(Debug, Clone)]
pub struct TafPool {
    params: TafParams,
    out_dim: usize,
    /// Ring buffers of window signatures, `n * hsize`.
    window: Vec<f64>,
    /// Valid entries in each window.
    win_len: Vec<u16>,
    /// Ring head of each window.
    win_head: Vec<u16>,
    /// Last accurately computed output vector, `n * out_dim`.
    last: Vec<f64>,
    /// Whether `last` holds a value.
    has_last: Vec<bool>,
    /// Remaining invocations in the current stable regime.
    approx_left: Vec<u32>,
    /// Whether the machine has entered a regime. Until it does its
    /// `approx_left` is 0 at any prediction size; from then on each regime
    /// check compares the regime's predictions so far with `psize`.
    entered: Vec<bool>,
    /// Every window RSD compared against the threshold so far.
    margin: DecisionMargin,
    /// The smallest `approx_left − 1` a passing regime check saw. Every
    /// check folds in `approx_left.wrapping_sub(1)`, branch-free: a failing
    /// one wraps to `u32::MAX`, which no pass reaches (`validate` keeps
    /// `psize` within `u32`), so `u32::MAX` means none passed. A pass at
    /// `approx_left = L` is the comparison `psize − L <= psize − 1`.
    pass_left_m1: u32,
    /// Whether a regime check found an entered machine's regime spent —
    /// the comparison `psize <= psize − 1` failing, first at `d = psize`.
    spent_checked: bool,
}

impl TafPool {
    /// Create `n` state machines for a region with `out_dim` outputs.
    pub fn new(n: usize, out_dim: usize, params: TafParams) -> Self {
        assert!(out_dim > 0, "TAF region must declare outputs");
        TafPool {
            params,
            out_dim,
            window: vec![0.0; n * params.hsize],
            win_len: vec![0; n],
            win_head: vec![0; n],
            last: vec![0.0; n * out_dim],
            has_last: vec![false; n],
            approx_left: vec![0; n],
            entered: vec![false; n],
            margin: DecisionMargin::default(),
            pass_left_m1: u32::MAX,
            spent_checked: false,
        }
    }

    pub fn params(&self) -> &TafParams {
        &self.params
    }

    pub fn len(&self) -> usize {
        self.win_len.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decision margins of the threshold over every full window observed
    /// so far, and of the prediction size over every regime check. A check
    /// in a regime that has made `d` predictions passes `d <= psize − 1`, so
    /// a regime cut short leaves the interval open above; one that ran out
    /// fails `psize <= psize − 1` at its next check, which pins the interval
    /// to this `psize`.
    pub fn margins(&self) -> DecisionMargins {
        let psize = self.params.psize as f64;
        DecisionMargins {
            threshold: self.margin,
            psize: DecisionMargin {
                pass_max: match self.pass_left_m1 {
                    u32::MAX => f64::NEG_INFINITY,
                    left_m1 => psize - 1.0 - f64::from(left_m1),
                },
                fail_min: if self.spent_checked {
                    psize
                } else {
                    f64::INFINITY
                },
            },
        }
    }

    /// The regime check `approx_left > 0` of machine `s`, recorded into
    /// the prediction size's margin (a failure only when `s` has entered a
    /// regime).
    #[inline]
    fn in_regime(&mut self, s: usize) -> bool {
        let left = self.approx_left[s];
        self.pass_left_m1 = self.pass_left_m1.min(left.wrapping_sub(1));
        self.spent_checked |= (left == 0) & self.entered[s];
        left > 0
    }

    /// Does state machine `s` want to take the approximate path? (In the
    /// stable regime, which implies a memoized output.)
    pub fn wants_approx(&mut self, s: usize) -> bool {
        debug_assert!(self.approx_left[s] == 0 || self.has_last[s]);
        self.in_regime(s)
    }

    /// [`TafPool::wants_approx`] of machines `base..base + votes.len()`, into
    /// `votes`: the walk's per-step vote, with the margin folded in
    /// registers and stored once.
    pub fn vote(&mut self, base: usize, votes: &mut [bool]) {
        let range = base..base + votes.len();
        let (left, entered) = (&self.approx_left[range.clone()], &self.entered[range]);
        let (mut pass_left_m1, mut spent) = (self.pass_left_m1, self.spent_checked);
        for ((v, &l), &e) in votes.iter_mut().zip(left).zip(entered) {
            pass_left_m1 = pass_left_m1.min(l.wrapping_sub(1));
            spent |= (l == 0) & e;
            *v = l > 0;
        }
        self.pass_left_m1 = pass_left_m1;
        self.spent_checked = spent;
    }

    /// Can machine `s` be *forced* to approximate by a group decision?
    /// It needs at least one accurately computed output to return.
    pub fn can_approximate(&self, s: usize) -> bool {
        self.has_last[s]
    }

    /// The memoized output of machine `s`.
    pub fn last(&self, s: usize) -> &[f64] {
        &self.last[s * self.out_dim..(s + 1) * self.out_dim]
    }

    /// Record an accurately computed output and update the state machine.
    pub fn observe(&mut self, s: usize, out: &[f64]) {
        debug_assert_eq!(out.len(), self.out_dim);
        lane::copy(
            &mut self.last[s * self.out_dim..(s + 1) * self.out_dim],
            out,
        );
        self.has_last[s] = true;

        let sig = out.iter().sum::<f64>() / self.out_dim as f64;
        let h = self.params.hsize;
        let base = s * h;
        let head = self.win_head[s] as usize;
        self.window[base + head] = sig;
        self.win_head[s] = ((head + 1) % h) as u16;
        self.win_len[s] = (self.win_len[s] + 1).min(h as u16);

        if self.win_len[s] as usize == h {
            let r = rsd(&self.window[base..base + h]);
            let stable = r <= self.params.threshold;
            self.margin.note(r, stable);
            if stable {
                // Enter the stable regime; the window restarts afterwards.
                // `validate` keeps `psize` within `u32`.
                self.approx_left[s] = self.params.psize as u32;
                self.entered[s] = true;
                self.win_len[s] = 0;
                self.win_head[s] = 0;
            }
        }
    }

    /// Consume one prediction from the stable regime (no-op when machine `s`
    /// was forced to approximate outside a regime).
    pub fn note_approx(&mut self, s: usize) {
        if self.in_regime(s) {
            self.approx_left[s] -= 1;
        }
    }

    /// Cycle cost of evaluating the activation criterion for one warp step
    /// (reading the per-lane regime flag from shared memory).
    pub fn activation_cost(&self) -> CostProfile {
        CostProfile::new().flops(1.0).shared_ops(1.0)
    }

    /// Cycle cost of the accurate-path bookkeeping: writing the signature
    /// into the window and (when full) computing the RSD.
    pub fn observe_cost(&self) -> CostProfile {
        CostProfile::new()
            .flops(self.out_dim as f64 + 3.0 * self.params.hsize as f64)
            .shared_ops(2.0 + self.out_dim as f64)
    }

    /// Cycle cost of producing the approximate output (reading the memoized
    /// vector from shared memory).
    pub fn predict_cost(&self) -> CostProfile {
        CostProfile::new().shared_ops(self.out_dim as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(hsize: usize, psize: usize, thresh: f64) -> TafPool {
        TafPool::new(4, 1, TafParams::new(hsize, psize, thresh))
    }

    #[test]
    fn no_approx_before_window_full() {
        let mut p = pool(3, 5, 10.0);
        p.observe(0, &[1.0]);
        p.observe(0, &[1.0]);
        assert!(!p.wants_approx(0));
        p.observe(0, &[1.0]);
        assert!(p.wants_approx(0)); // window full, RSD 0 <= 10
    }

    #[test]
    fn stable_regime_lasts_psize() {
        let mut p = pool(2, 3, 0.5);
        p.observe(0, &[2.0]);
        p.observe(0, &[2.0]);
        assert!(p.wants_approx(0));
        for _ in 0..3 {
            assert!(p.wants_approx(0));
            p.note_approx(0);
        }
        assert!(
            !p.wants_approx(0),
            "regime must end after psize approximations"
        );
    }

    #[test]
    fn window_resets_after_regime() {
        let mut p = pool(2, 1, 0.5);
        p.observe(0, &[2.0]);
        p.observe(0, &[2.0]);
        p.note_approx(0);
        assert!(!p.wants_approx(0));
        // Needs a full fresh window again, not just one more value.
        p.observe(0, &[2.0]);
        assert!(!p.wants_approx(0));
        p.observe(0, &[2.0]);
        assert!(p.wants_approx(0));
    }

    #[test]
    fn unstable_window_never_approximates() {
        let mut p = pool(3, 5, 0.1);
        for v in [1.0, 100.0, 1.0, 100.0, 1.0, 100.0] {
            p.observe(0, &[v]);
            assert!(!p.wants_approx(0));
        }
    }

    #[test]
    fn zero_threshold_requires_exactly_constant() {
        let mut p = pool(2, 5, 0.0);
        p.observe(0, &[3.0]);
        p.observe(0, &[3.0 + 1e-9]);
        assert!(!p.wants_approx(0));
        p.observe(0, &[3.0]);
        p.observe(0, &[3.0]);
        // window = {3+1e-9, 3, 3}? hsize=2 so window = {3, 3}
        assert!(p.wants_approx(0));
    }

    #[test]
    fn margin_brackets_the_threshold_between_observed_rsds() {
        let mut p = pool(2, 1, 0.5);
        assert_eq!(p.margins().threshold, DecisionMargin::default());
        p.observe(0, &[1.0]);
        assert_eq!(
            p.margins().threshold,
            DecisionMargin::default(),
            "window not full"
        );
        p.observe(0, &[4.0]); // RSD of {1, 4} = 1.5 / 2.5 > 0.5
        let unstable = rsd(&[1.0, 4.0]);
        assert_eq!(p.margins().threshold.fail_min, unstable);
        assert_eq!(p.margins().threshold.pass_max, f64::NEG_INFINITY);
        p.observe(1, &[4.0]);
        p.observe(1, &[4.0]); // RSD 0 passes
        assert_eq!(p.margins().threshold.pass_max, 0.0);
        assert!(p.margins().covers(0.5, None) && !p.margins().covers(unstable, None));
        // A NaN signature (0/0 mean) fails every threshold and records nothing.
        let before = p.margins();
        p.observe(2, &[f64::NAN]);
        p.observe(2, &[1.0]);
        assert_eq!(p.margins(), before);
    }

    #[test]
    fn a_machine_that_never_entered_a_regime_records_no_psize_margin() {
        let mut p = pool(2, 3, 0.1);
        for v in [1.0, 100.0, 1.0] {
            p.observe(0, &[v]);
            assert!(!p.wants_approx(0));
            p.note_approx(0); // a forced lane outside any regime
        }
        assert!(p.margins().threshold.fail_min.is_finite());
        assert_eq!(p.margins().psize, DecisionMargin::default());
        assert!(p.margins().covers(0.0, Some(1)) && p.margins().covers(0.0, Some(1 << 40)));
    }

    #[test]
    fn a_range_vote_is_each_machines_vote() {
        let (mut one, mut range) = (pool(1, 2, 0.5), pool(1, 2, 0.5));
        for p in [&mut one, &mut range] {
            p.observe(1, &[2.0]);
            p.observe(2, &[2.0]);
            p.note_approx(2);
            p.note_approx(2); // machine 2's regime is spent, 1's is not
        }
        let each: Vec<bool> = (0..4).map(|s| one.wants_approx(s)).collect();
        let mut votes = [true; 4];
        range.vote(0, &mut votes);
        assert_eq!(votes.to_vec(), each);
        assert_eq!(each, [false, true, false, false]);
        assert_eq!(range.margins(), one.margins());
    }

    #[test]
    fn a_regime_cut_short_leaves_the_psize_interval_open_above() {
        let mut p = pool(1, 8, 0.5);
        p.observe(0, &[2.0]); // regime of 8 predictions
        for _ in 0..3 {
            assert!(p.wants_approx(0));
            p.note_approx(0);
        }
        // The launch ends here: the checks passed at d = 0, 1, 2.
        let m = p.margins().psize;
        assert_eq!((m.pass_max, m.fail_min), (2.0, f64::INFINITY));
        assert!(!p.margins().covers(0.5, Some(2)));
        assert!(p.margins().covers(0.5, Some(3)) && p.margins().covers(0.5, Some(8)));
        assert!(p.margins().covers(0.5, Some(usize::MAX)));
    }

    #[test]
    fn an_expired_regime_pins_the_psize_interval_to_its_own_psize() {
        let mut p = pool(1, 2, 0.5);
        p.observe(1, &[2.0]);
        while p.wants_approx(1) {
            p.note_approx(1);
        }
        // A forced approximation past the end changes nothing but is
        // checked, like the vote that found the regime spent.
        p.note_approx(1);
        let m = p.margins().psize;
        assert_eq!((m.pass_max, m.fail_min), (1.0, 2.0));
        assert!(p.margins().covers(0.5, Some(2)));
        assert!(!p.margins().covers(0.5, Some(1)) && !p.margins().covers(0.5, Some(3)));
        // Other machines' checks widen nothing: still pinned.
        p.observe(2, &[2.0]);
        assert!(p.wants_approx(2));
        assert_eq!(p.margins().psize, m);
    }

    #[test]
    fn last_holds_latest_accurate_output() {
        let mut p = TafPool::new(2, 3, TafParams::new(2, 2, 5.0));
        p.observe(1, &[1.0, 2.0, 3.0]);
        p.observe(1, &[4.0, 5.0, 6.0]);
        assert_eq!(p.last(1), &[4.0, 5.0, 6.0]);
        assert!(p.can_approximate(1));
        assert!(!p.can_approximate(0));
    }

    #[test]
    fn machines_are_independent() {
        let mut p = pool(1, 4, 10.0);
        p.observe(2, &[1.0]);
        assert!(p.wants_approx(2));
        assert!(!p.wants_approx(0));
        assert!(!p.wants_approx(1));
        assert!(!p.wants_approx(3));
    }

    #[test]
    fn note_approx_on_forced_lane_is_noop() {
        let mut p = pool(2, 2, 0.5);
        p.observe(0, &[1.0]);
        // Not in a regime, but has_last -> can be forced by a warp vote.
        assert!(p.can_approximate(0));
        p.note_approx(0);
        assert!(!p.wants_approx(0));
    }

    #[test]
    fn multi_dim_signature_uses_mean() {
        // Outputs whose means are constant but components vary: the scalar
        // signature treats them as stable (documented design choice).
        let mut p = TafPool::new(1, 2, TafParams::new(2, 1, 0.0));
        p.observe(0, &[0.0, 2.0]);
        p.observe(0, &[2.0, 0.0]);
        assert!(p.wants_approx(0));
    }

    #[test]
    fn costs_scale_with_params() {
        let small = pool(1, 1, 0.5);
        let big = TafPool::new(4, 1, TafParams::new(16, 1, 0.5));
        let spec = gpu_sim::DeviceSpec::v100();
        assert!(
            big.observe_cost().issue_cycles(&spec.costs)
                > small.observe_cost().issue_cycles(&spec.costs)
        );
    }
}
