//! iACT — approximate input memoization with warp-shared tables (§3.1.4).
//!
//! Each table caches `(input vector, output vector)` pairs from accurate
//! region executions. A lookup computes the euclidean distance between the
//! query inputs and every cached entry; if the closest entry is within the
//! user threshold, its output is returned and the region is skipped.
//!
//! The GPU adaptation shares tables among the lanes of a warp
//! (`tables_per_warp`), which (1) cuts shared-memory use, (2) lets lanes hit
//! on values computed by their neighbours, and (3) trades synchronization
//! for aggregate table capacity. Access is split into a read phase (all
//! lanes search) and a write phase (one writer per table — the lane whose
//! inputs were *farthest* from any cached entry, i.e. the most novel), with
//! a warp barrier between phases (§3.3). Replacement is round-robin by
//! default; CLOCK is implemented because the paper's footnote 3 reports it
//! made no difference, and we verify that.

use crate::lane;
use crate::params::{IactParams, Replacement};
use gpu_sim::{CostProfile, DecisionMargin, DecisionMargins};

/// Result of probing a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Slot of the closest valid entry, if the table is non-empty.
    pub slot: Option<usize>,
    /// Euclidean distance to that entry (`f64::INFINITY` on empty tables).
    pub distance: f64,
}

impl Probe {
    /// Does this probe satisfy the hit threshold?
    pub fn hit(&self, threshold: f64) -> bool {
        self.slot.is_some() && self.distance <= threshold
    }
}

/// All iACT tables for one kernel launch, stored flat.
#[derive(Debug, Clone)]
pub struct IactPool {
    params: IactParams,
    in_dim: usize,
    out_dim: usize,
    n_tables: usize,
    /// `n_tables * tsize * in_dim`
    inputs: Vec<f64>,
    /// `n_tables * tsize * out_dim`
    outputs: Vec<f64>,
    /// Valid entries per table. Insertion always fills the first empty slot,
    /// so the valid slots of a table form the prefix `0..fill` — the probe
    /// loop walks a contiguous slice instead of testing a validity bit per
    /// slot.
    fill: Vec<u32>,
    /// CLOCK reference bits, `n_tables * tsize`.
    referenced: Vec<bool>,
    /// Per-table round-robin pointer / clock hand.
    hand: Vec<u32>,
    /// Every probe distance compared against the threshold so far.
    margin: DecisionMargin,
}

impl IactPool {
    pub fn new(n_tables: usize, in_dim: usize, out_dim: usize, params: IactParams) -> Self {
        assert!(in_dim > 0, "iACT region must declare inputs");
        assert!(out_dim > 0, "iACT region must declare outputs");
        let slots = n_tables * params.tsize;
        IactPool {
            params,
            in_dim,
            out_dim,
            n_tables,
            inputs: vec![0.0; slots * in_dim],
            outputs: vec![0.0; slots * out_dim],
            fill: vec![0; n_tables],
            referenced: vec![false; slots],
            hand: vec![0; n_tables],
            margin: DecisionMargin::default(),
        }
    }

    pub fn params(&self) -> &IactParams {
        &self.params
    }

    pub fn n_tables(&self) -> usize {
        self.n_tables
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn slot_index(&self, table: usize, slot: usize) -> usize {
        debug_assert!(table < self.n_tables && slot < self.params.tsize);
        table * self.params.tsize + slot
    }

    /// Search `table` for the entry closest to `query` (read phase).
    ///
    /// Valid slots are the prefix `0..fill` (see [`IactPool::fill`]), so the
    /// walk is a branch-free scan over one contiguous slice — this is the
    /// hottest loop of an iACT sweep (every lane, every step).
    pub fn probe(&self, table: usize, query: &[f64]) -> Probe {
        debug_assert_eq!(query.len(), self.in_dim);
        let filled = self.fill[table] as usize;
        let base = table * self.params.tsize * self.in_dim;
        let mut best: Option<usize> = None;
        let mut best_d2 = f64::INFINITY;
        for (slot, entry) in self.inputs[base..base + filled * self.in_dim]
            .chunks_exact(self.in_dim)
            .enumerate()
        {
            let mut d2 = 0.0;
            for (&q, &e) in query.iter().zip(entry) {
                let diff = q - e;
                d2 += diff * diff;
            }
            if d2 < best_d2 {
                best_d2 = d2;
                best = Some(slot);
            }
        }
        Probe {
            slot: best,
            distance: if best.is_some() {
                best_d2.sqrt()
            } else {
                f64::INFINITY
            },
        }
    }

    /// Does `probe` hit at this pool's threshold? The pool's only use of the
    /// threshold: the distance and the outcome go into the decision margin.
    /// A probe of an empty table misses at every threshold and records
    /// nothing.
    pub fn admit(&mut self, probe: &Probe) -> bool {
        let hit = probe.hit(self.params.threshold);
        if probe.slot.is_some() {
            self.margin.note(probe.distance, hit);
        }
        hit
    }

    /// The decision margin of the threshold over every probe admitted or
    /// refused so far (iACT has no prediction size; its margin is the
    /// identity).
    pub fn margins(&self) -> DecisionMargins {
        DecisionMargins {
            threshold: self.margin,
            ..DecisionMargins::default()
        }
    }

    /// The cached output vector of `(table, slot)`.
    pub fn output(&self, table: usize, slot: usize) -> &[f64] {
        let idx = self.slot_index(table, slot);
        &self.outputs[idx * self.out_dim..(idx + 1) * self.out_dim]
    }

    /// Mark a hit for CLOCK replacement (sets the reference bit).
    pub fn touch(&mut self, table: usize, slot: usize) {
        let idx = self.slot_index(table, slot);
        self.referenced[idx] = true;
    }

    /// Choose the victim slot for insertion according to the replacement
    /// policy, advancing the hand.
    fn victim(&mut self, table: usize) -> usize {
        let tsize = self.params.tsize;
        // Empty slots are always preferred; they form the suffix `fill..`.
        let filled = self.fill[table] as usize;
        if filled < tsize {
            return filled;
        }
        match self.params.replacement {
            Replacement::RoundRobin => {
                let slot = self.hand[table] as usize % tsize;
                self.hand[table] = (self.hand[table] + 1) % tsize as u32;
                slot
            }
            Replacement::Clock => {
                // Sweep: clear reference bits until an unreferenced slot is
                // found (bounded by 2 * tsize).
                for _ in 0..2 * tsize {
                    let slot = self.hand[table] as usize % tsize;
                    let idx = self.slot_index(table, slot);
                    self.hand[table] = (self.hand[table] + 1) % tsize as u32;
                    if self.referenced[idx] {
                        self.referenced[idx] = false;
                    } else {
                        return slot;
                    }
                }
                self.hand[table] as usize % tsize
            }
        }
    }

    /// Insert an `(inputs, outputs)` pair (write phase; the runtime selects
    /// one writer per table per step).
    pub fn insert(&mut self, table: usize, inputs: &[f64], outputs: &[f64]) {
        debug_assert_eq!(inputs.len(), self.in_dim);
        debug_assert_eq!(outputs.len(), self.out_dim);
        let slot = self.victim(table);
        let idx = self.slot_index(table, slot);
        lane::copy(
            &mut self.inputs[idx * self.in_dim..(idx + 1) * self.in_dim],
            inputs,
        );
        lane::copy(
            &mut self.outputs[idx * self.out_dim..(idx + 1) * self.out_dim],
            outputs,
        );
        self.fill[table] = self.fill[table].max(slot as u32 + 1);
        self.referenced[idx] = false;
    }

    /// Number of valid entries in `table` (diagnostics and tests).
    pub fn occupancy(&self, table: usize) -> usize {
        self.fill[table] as usize
    }

    /// Cycle cost of the read phase for one warp step: gathering handled by
    /// the body's `input_cost`; this covers the table walk — per lane,
    /// `tsize` entries × `in_dim` components of subtract/multiply/add plus
    /// the shared-memory reads of the entries.
    pub fn search_cost(&self) -> CostProfile {
        let walk = (self.params.tsize * self.in_dim) as f64;
        CostProfile::new().flops(3.0 * walk).shared_ops(walk)
    }

    /// Cycle cost of the write phase: a warp barrier separating phases, the
    /// writer-selection reduction, and one entry write per table.
    pub fn write_phase_cost(&self, lanes_per_table: u32) -> CostProfile {
        let entry = (self.in_dim + self.out_dim) as f64;
        let mut c = CostProfile::new().shared_ops(entry);
        if lanes_per_table > 1 {
            // Shared tables need the barrier and a max-distance reduction.
            c = c
                .barriers(1.0)
                .flops(f64::from(lanes_per_table.ilog2().max(1)));
        }
        c
    }

    /// Cycle cost of returning a memoized output (reading the entry).
    pub fn hit_cost(&self) -> CostProfile {
        CostProfile::new().shared_ops(self.out_dim as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(tsize: usize, replacement: Replacement) -> IactPool {
        let mut p = IactParams::new(tsize, 0.5);
        p.replacement = replacement;
        IactPool::new(2, 2, 1, p)
    }

    #[test]
    fn empty_table_misses() {
        let p = pool(4, Replacement::RoundRobin);
        let probe = p.probe(0, &[1.0, 2.0]);
        assert_eq!(probe.slot, None);
        assert!(probe.distance.is_infinite());
        assert!(!probe.hit(1000.0));
    }

    #[test]
    fn probe_finds_closest() {
        let mut p = pool(4, Replacement::RoundRobin);
        p.insert(0, &[0.0, 0.0], &[10.0]);
        p.insert(0, &[3.0, 4.0], &[20.0]);
        let probe = p.probe(0, &[2.9, 4.1]);
        assert_eq!(probe.slot, Some(1));
        assert!((probe.distance - (0.01f64 + 0.01).sqrt()).abs() < 1e-12);
        assert!(probe.hit(0.5));
        assert_eq!(p.output(0, 1), &[20.0]);
    }

    #[test]
    fn hit_respects_threshold() {
        let mut p = pool(2, Replacement::RoundRobin);
        p.insert(0, &[0.0, 0.0], &[1.0]);
        let probe = p.probe(0, &[1.0, 0.0]);
        assert!(!probe.hit(0.5));
        assert!(probe.hit(1.0));
    }

    #[test]
    fn admit_records_the_margin_and_empty_tables_record_nothing() {
        let mut p = pool(2, Replacement::RoundRobin); // threshold 0.5
        let empty = p.probe(0, &[1.0, 0.0]);
        assert!(!p.admit(&empty));
        assert_eq!(p.margins(), DecisionMargins::default());
        p.insert(0, &[0.0, 0.0], &[1.0]);
        let far = p.probe(0, &[1.0, 0.0]);
        let near = p.probe(0, &[0.25, 0.0]);
        assert!(!p.admit(&far));
        assert!(p.admit(&near));
        let m = p.margins();
        assert_eq!((m.threshold.pass_max, m.threshold.fail_min), (0.25, 1.0));
        assert_eq!(m.psize, DecisionMargin::default());
    }

    #[test]
    fn tables_are_independent() {
        let mut p = pool(2, Replacement::RoundRobin);
        p.insert(0, &[0.0, 0.0], &[1.0]);
        assert_eq!(p.probe(1, &[0.0, 0.0]).slot, None);
        assert_eq!(p.occupancy(0), 1);
        assert_eq!(p.occupancy(1), 0);
    }

    #[test]
    fn round_robin_replaces_in_order() {
        let mut p = pool(2, Replacement::RoundRobin);
        p.insert(0, &[0.0, 0.0], &[0.0]); // slot 0
        p.insert(0, &[1.0, 0.0], &[1.0]); // slot 1
        p.insert(0, &[2.0, 0.0], &[2.0]); // evicts slot 0
        assert_eq!(p.probe(0, &[2.0, 0.0]).slot, Some(0));
        assert_eq!(p.output(0, 0), &[2.0]);
        p.insert(0, &[3.0, 0.0], &[3.0]); // evicts slot 1
        assert_eq!(p.output(0, 1), &[3.0]);
    }

    #[test]
    fn clock_protects_referenced_entries() {
        let mut p = pool(2, Replacement::Clock);
        p.insert(0, &[0.0, 0.0], &[0.0]);
        p.insert(0, &[1.0, 0.0], &[1.0]);
        p.touch(0, 0); // protect slot 0
        p.insert(0, &[2.0, 0.0], &[2.0]);
        // Slot 0 was referenced, so the hand clears its bit and evicts slot 1.
        assert_eq!(p.output(0, 0), &[0.0]);
        assert_eq!(p.output(0, 1), &[2.0]);
    }

    #[test]
    fn empty_slots_fill_before_eviction() {
        let mut p = pool(3, Replacement::RoundRobin);
        p.insert(0, &[0.0, 0.0], &[0.0]);
        p.insert(0, &[1.0, 0.0], &[1.0]);
        assert_eq!(p.occupancy(0), 2);
        p.insert(0, &[2.0, 0.0], &[2.0]);
        assert_eq!(p.occupancy(0), 3);
        // All three distinct values present.
        for v in [0.0, 1.0, 2.0] {
            let probe = p.probe(0, &[v, 0.0]);
            assert_eq!(p.output(0, probe.slot.unwrap()), &[v]);
        }
    }

    #[test]
    fn search_cost_scales_with_table_and_dims() {
        let spec = gpu_sim::DeviceSpec::v100();
        let small = IactPool::new(1, 2, 1, IactParams::new(1, 0.5));
        let big = IactPool::new(1, 8, 1, IactParams::new(8, 0.5));
        assert!(
            big.search_cost().issue_cycles(&spec.costs)
                > small.search_cost().issue_cycles(&spec.costs)
        );
    }

    #[test]
    fn write_phase_barrier_only_when_shared() {
        let p = pool(2, Replacement::RoundRobin);
        assert_eq!(p.write_phase_cost(1).barriers, 0.0);
        assert_eq!(p.write_phase_cost(16).barriers, 1.0);
    }
}
