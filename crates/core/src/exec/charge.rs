//! Charging and accounting for the execution pipeline.
//!
//! Two concerns live here, shared by every technique policy:
//!
//! * **Cost memoization** — [`MixMemo`] caches the fully composed,
//!   device-resolved cost of a warp step per lane mix `(n_acc, n_apx)`.
//!   Policies assemble a mix's [`CostProfile`] at most once per executor
//!   task and replay the precomposed cycle sums on every later step with
//!   the same mix, which removes the profile summing and cycle dot products
//!   from the hot path without changing a single charged bit.
//! * **Output accounting** — [`StoreBuffer`] records buffered `store`
//!   calls when the parallel executor cannot commit them inline, preserving
//!   the exact call order of the sequential walk for later replay.

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

/// One block's buffered `store` calls: items in walk order with their
/// output vectors, replayed through `&mut` body access after the parallel
/// phase joins.
#[derive(Debug, Default)]
pub struct StoreBuffer {
    out_dim: usize,
    items: Vec<usize>,
    data: Vec<f64>,
}

impl StoreBuffer {
    pub fn new(out_dim: usize) -> Self {
        StoreBuffer {
            out_dim,
            items: Vec::new(),
            data: Vec::new(),
        }
    }

    pub fn push(&mut self, item: usize, out: &[f64]) {
        debug_assert_eq!(out.len(), self.out_dim);
        self.items.push(item);
        self.data.extend_from_slice(out);
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Drop the recorded stores, keeping the backing capacity for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
        self.data.clear();
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Apply the buffered stores in the order they were recorded.
    pub fn replay(&self, mut store: impl FnMut(usize, &[f64])) {
        for (k, &item) in self.items.iter().enumerate() {
            store(item, &self.data[k * self.out_dim..(k + 1) * self.out_dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    #[test]
    fn store_buffer_replays_in_order() {
        let mut buf = StoreBuffer::new(2);
        buf.push(5, &[1.0, 2.0]);
        buf.push(3, &[3.0, 4.0]);
        assert_eq!(buf.len(), 2);
        let mut seen = Vec::new();
        buf.replay(|item, out| seen.push((item, out.to_vec())));
        assert_eq!(seen, vec![(5, vec![1.0, 2.0]), (3, vec![3.0, 4.0])]);
    }

    #[test]
    fn mix_memo_builds_once_and_matches_direct_precompose() {
        let spec = DeviceSpec::v100();
        let mut memo = MixMemo::new(spec.warp_size, spec.costs);
        let profile = CostProfile::new().flops(7.0).barriers(1.0);
        let mut builds = 0;
        let a = memo.get_or(3, 1, || {
            builds += 1;
            profile
        });
        let b = memo.get_or(3, 1, || {
            builds += 1;
            profile
        });
        assert_eq!(builds, 1, "second lookup must hit the cache");
        assert_eq!(a, b);
        assert_eq!(a, profile.precompose(&spec.costs));
        // A different mix is a different slot.
        let c = memo.get_or(1, 3, || CostProfile::new().flops(1.0));
        assert_ne!(a, c);
    }
}
