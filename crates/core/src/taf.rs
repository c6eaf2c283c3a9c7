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

use crate::metrics::rsd;
use crate::params::TafParams;
use gpu_sim::{CostProfile, DecisionMargin};

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
    /// Every window RSD compared against the threshold so far.
    margin: DecisionMargin,
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
            margin: DecisionMargin::default(),
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

    /// The decision margin of the threshold over every full window observed
    /// so far — the pool's only use of the threshold is that comparison.
    pub fn margin(&self) -> &DecisionMargin {
        &self.margin
    }

    /// Does state machine `s` want to take the approximate path?
    /// (In the stable regime with a memoized output available.)
    pub fn wants_approx(&self, s: usize) -> bool {
        self.approx_left[s] > 0 && self.has_last[s]
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
        self.last[s * self.out_dim..(s + 1) * self.out_dim].copy_from_slice(out);
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
                self.approx_left[s] = self.params.psize as u32;
                self.win_len[s] = 0;
                self.win_head[s] = 0;
            }
        }
    }

    /// Consume one prediction from the stable regime (no-op when machine `s`
    /// was forced to approximate outside a regime).
    pub fn note_approx(&mut self, s: usize) {
        if self.approx_left[s] > 0 {
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
        assert_eq!(*p.margin(), DecisionMargin::default());
        p.observe(0, &[1.0]);
        assert_eq!(*p.margin(), DecisionMargin::default(), "window not full");
        p.observe(0, &[4.0]); // RSD of {1, 4} = 1.5 / 2.5 > 0.5
        let unstable = rsd(&[1.0, 4.0]);
        assert_eq!(p.margin().fail_min, unstable);
        assert_eq!(p.margin().pass_max, f64::NEG_INFINITY);
        p.observe(1, &[4.0]);
        p.observe(1, &[4.0]); // RSD 0 passes
        assert_eq!(p.margin().pass_max, 0.0);
        assert!(p.margin().covers(0.5) && !p.margin().covers(unstable));
        // A NaN signature (0/0 mean) fails every threshold and records nothing.
        let before = *p.margin();
        p.observe(2, &[f64::NAN]);
        p.observe(2, &[1.0]);
        assert_eq!(*p.margin(), before);
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
