//! Cost memoization for the execution pipeline, shared by every technique
//! policy: `MixMemo` caches the fully composed, device-resolved cost of a
//! warp step per lane mix `(n_acc, n_apx)`. Policies assemble a mix's
//! [`CostProfile`] at most once per launch and replay the precomposed cycle
//! sums on every later step with the same mix, which removes the profile
//! summing and cycle dot products from the hot path without changing a
//! single charged bit.

use gpu_sim::{CostParams, CostProfile, PrecomposedCost};

/// Memo of composed warp-step costs, keyed by the lane mix
/// `(n_acc, n_apx)` of the step (both in `0..=warp_size`).
///
/// Sound exactly when the policy's assembled profile is a pure function of
/// the mix — which holds for every slice policy: activation, decision,
/// search, and body costs depend only on fixed launch/body/params state and
/// on the lane counts in the key. (The serialized-TAF ablation accumulates
/// per-lane in decision order and therefore bypasses the memo.) The cached
/// value is [`PrecomposedCost`], so replaying a hit is two f64 adds per
/// accumulator field instead of a profile sum plus two dot products; the
/// adds are bit-identical to recomputing because `issue_cycles` /
/// `latency_cycles` are deterministic in (profile, params).
pub(crate) struct MixMemo {
    side: usize,
    slots: Vec<Option<PrecomposedCost>>,
    params: CostParams,
    // Plain (non-atomic) tallies: cheaper on the hot path than a gate
    // check, drained to obs counters at arena retirement when tracing is
    // on (`hit_stats`).
    hits: u64,
    misses: u64,
}

impl MixMemo {
    pub fn new(warp_size: u32, params: CostParams) -> Self {
        let side = warp_size as usize + 1;
        MixMemo {
            side,
            slots: vec![None; side * side],
            params,
            hits: 0,
            misses: 0,
        }
    }

    /// The precomposed cost for mix `(n_acc, n_apx)`, building (and
    /// caching) it from `assemble` on first sight of the mix.
    pub fn get_or(
        &mut self,
        n_acc: u32,
        n_apx: u32,
        assemble: impl FnOnce() -> CostProfile,
    ) -> PrecomposedCost {
        let i = n_acc as usize * self.side + n_apx as usize;
        if let Some(c) = self.slots[i] {
            self.hits += 1;
            // A policy's composed cost may read nothing but the lane mix.
            #[cfg(test)]
            assert_eq!(
                assemble().precompose(&self.params),
                c,
                "the cost of mix ({n_acc}, {n_apx}) changed within a launch"
            );
            return c;
        }
        self.misses += 1;
        let c = assemble().precompose(&self.params);
        self.slots[i] = Some(c);
        c
    }

    /// Lookup `(hits, misses)` over the memo's lifetime.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    #[test]
    fn mix_memo_builds_once_and_matches_direct_precompose() {
        let spec = DeviceSpec::v100();
        let mut memo = MixMemo::new(spec.warp_size, spec.costs);
        let profile = CostProfile::new().flops(7.0).barriers(1.0);
        let a = memo.get_or(3, 1, || profile);
        let b = memo.get_or(3, 1, || profile);
        assert_eq!(memo.hit_stats(), (1, 1), "second lookup must hit the cache");
        assert_eq!(a, b);
        assert_eq!(a, profile.precompose(&spec.costs));
        // A different mix is a different slot.
        let c = memo.get_or(1, 3, || CostProfile::new().flops(1.0));
        assert_ne!(a, c);
    }

    /// Under test, every hit re-assembles its mix's cost, so a policy whose
    /// composed cost reads anything but the lane mix fails there.
    #[test]
    #[should_panic(expected = "the cost of mix (3, 1) changed within a launch")]
    fn a_cost_that_reads_more_than_its_mix_fails_on_the_next_hit() {
        let spec = DeviceSpec::v100();
        let mut memo = MixMemo::new(spec.warp_size, spec.costs);
        for flops in [7.0, 8.0] {
            memo.get_or(3, 1, || CostProfile::new().flops(flops));
        }
    }
}
