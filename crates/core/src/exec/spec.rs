//! An executable spec of the paper's Fig 4, one lane at a time: the oracle
//! the walk is differentially tested against. It shares no state machine,
//! slice, arena or cost memo with the runtime and takes the launch geometry
//! from [`LaunchConfig::item_for`] and [`LaunchConfig::tid`] alone. The rest
//! is the paper's: TAF (§3.1.3) per thread (Fig 4d) or per warp (Fig 4c),
//! iACT (§3.1.4), perforation (§3.1.5), the strict majorities of §3.3, and
//! each comparison's decision margin. Costs are checked apart, per lane mix.

use crate::exec::RegionBody;
use crate::params::{IactParams, PerfoKind, PerfoParams, Replacement, TafParams};
use crate::region::{ApproxRegion, Technique};
use crate::HierarchyLevel;
use gpu_sim::{DeviceSpec, KernelStats, LaunchConfig, Schedule};

/// σ/|μ|: 0 for one value, +∞ for a zero mean with spread.
fn rsd(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let sigma = (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt();
    match (values.len() <= 1, mean == 0.0, sigma == 0.0) {
        (true, ..) | (false, true, true) => 0.0,
        (false, true, false) => f64::INFINITY,
        _ => sigma / mean.abs(),
    }
}

/// A TAF machine: `hsize` output means written round-robin since the last
/// regime, the last accurate output, and the predictions the current
/// regime has left (`None` before the first).
#[derive(Clone, Default)]
struct Taf {
    window: Vec<f64>,
    written: usize,
    last: Option<Vec<f64>>,
    left: Option<usize>,
}

impl Taf {
    /// A regime that has made `d` predictions goes on while `d <= psize - 1`.
    fn in_regime(&self, p: &TafParams, stats: &mut KernelStats) -> bool {
        if let Some(left) = self.left {
            stats.margins.psize.note((p.psize - left) as f64, left > 0);
        }
        self.left > Some(0)
    }

    /// Memoize an accurate output and write its mean. A full window within
    /// the threshold opens a regime of `psize` predictions.
    fn observe(&mut self, out: &[f64], p: &TafParams, stats: &mut KernelStats) {
        self.last = Some(out.to_vec());
        self.window.resize(p.hsize, 0.0);
        self.window[self.written % p.hsize] = out.iter().sum::<f64>() / out.len() as f64;
        self.written += 1;
        if self.written >= p.hsize {
            let r = rsd(&self.window);
            stats.margins.threshold.note(r, r <= p.threshold);
            if r <= p.threshold {
                (self.left, self.written) = (Some(p.psize), 0);
            }
        }
    }
}

/// An iACT table of `(inputs, outputs, referenced)` entries, and its hand.
#[derive(Clone, Default)]
struct Table {
    entries: Vec<(Vec<f64>, Vec<f64>, bool)>,
    hand: usize,
}

impl Table {
    /// Slot and euclidean distance of the nearest entry (the first on ties).
    fn nearest(&self, query: &[f64]) -> Option<(usize, f64)> {
        let mut best = (None, f64::INFINITY);
        for (slot, (inputs, _, _)) in self.entries.iter().enumerate() {
            let d2 = (query.iter().zip(inputs)).fold(0.0, |d2, (q, e)| d2 + (q - e) * (q - e));
            if d2 < best.1 {
                best = (Some(slot), d2);
            }
        }
        best.0.map(|slot| (slot, best.1.sqrt()))
    }

    /// Into the first empty slot, else the hand's victim: CLOCK gives a
    /// referenced slot a second chance, round-robin does not.
    fn insert(&mut self, p: &IactParams, inputs: Vec<f64>, outputs: Vec<f64>) {
        if self.entries.len() < p.tsize {
            return self.entries.push((inputs, outputs, false));
        }
        loop {
            let entry = &mut self.entries[self.hand];
            self.hand = (self.hand + 1) % p.tsize;
            if p.replacement == Replacement::RoundRobin || !entry.2 {
                return *entry = (inputs, outputs, false);
            }
            entry.2 = false;
        }
    }
}

/// Small perforation drops the last of every `m` items, large keeps the
/// first; herded keys both on the warp-aligned group `item / warp_size`.
fn skips(p: &PerfoParams, item: usize, warp_size: u32) -> bool {
    let idx = item / if p.herded { warp_size as usize } else { 1 };
    match p.kind {
        PerfoKind::Small { m } => idx % m as usize == m as usize - 1,
        PerfoKind::Large { m } => !idx.is_multiple_of(m as usize),
        PerfoKind::Ini { .. } | PerfoKind::Fini { .. } => false,
    }
}

fn majority(votes: impl Iterator<Item = bool>) -> bool {
    let (yes, all) = votes.fold((0, 0), |(y, a), v| (y + usize::from(v), a + 1));
    2 * yes > all
}

/// Run one launch of `body` under `region` lane by lane: its lane counts,
/// warp steps, divergent steps and margins (every cost field stays zero).
pub(crate) fn run(
    spec: &DeviceSpec,
    launch: &LaunchConfig,
    region: Option<&ApproxRegion>,
    serialized: bool,
    body: &mut dyn RegionBody,
) -> KernelStats {
    let (mut launch, mut lo, n, ws) = (*launch, 0, launch.n_items, spec.warp_size);
    let (technique, mut tables_per_warp) = (region.map(|r| r.technique), 1);
    match technique {
        // ini/fini only move the bounds, and a perforated loop is grid-stride.
        Some(Technique::Perfo(p)) => {
            let at = |fraction: f64| ((n as f64 * fraction).round() as usize).min(n);
            (lo, launch.n_items) = match p.kind {
                PerfoKind::Ini { fraction } => (at(fraction), n - at(fraction)),
                PerfoKind::Fini { fraction } => (0, at(1.0 - fraction)),
                PerfoKind::Small { .. } | PerfoKind::Large { .. } => (0, n),
            };
            launch.schedule = Schedule::GridStride;
        }
        Some(Technique::Iact(p)) => tables_per_warp = p.tables_per_warp.min(ws),
        _ => {}
    }
    let warps = launch.block_size.div_ceil(ws);
    let mut machines = vec![Taf::default(); launch.total_threads()];
    let mut tables = vec![Table::default(); (launch.n_blocks * warps * tables_per_warp) as usize];
    let mut stats = KernelStats::default();
    for block in 0..launch.n_blocks {
        for step in 0.. {
            // Each active lane and its vote (iACT's keeps the query and the
            // nearest entry). Votes change no state, so the whole block votes first.
            let mut lane = |w: u32, lane: u32| {
                let warp = (block * warps + w) as usize;
                let t = (lane / (ws / tables_per_warp)) as usize;
                let tid = launch.tid(spec, block, w, lane);
                let machine = if serialized { warp } else { tid };
                let table = warp * tables_per_warp as usize + t;
                let item = lo + launch.item_for(spec, block, w, lane, step)?;
                let vote = match technique {
                    Some(Technique::Taf(p)) if !serialized => {
                        (machines[machine].in_regime(&p, &mut stats), vec![], None)
                    }
                    Some(Technique::Iact(p)) => {
                        let mut query = vec![0.0; body.in_dim()];
                        body.inputs(item, &mut query);
                        let near = tables[table].nearest(&query);
                        let yes = near.is_some_and(|(_, d)| d <= p.threshold);
                        near.inspect(|&(_, d)| stats.margins.threshold.note(d, yes));
                        (yes, query, near)
                    }
                    _ => (false, vec![], None),
                };
                Some(((item, machine, table, t), vote))
            };
            let lanes: Vec<Vec<_>> = (0..warps)
                .map(|w| (0..ws).filter_map(|l| lane(w, l)).collect())
                .collect();
            if lanes.iter().all(Vec::is_empty) {
                break;
            }
            let block_vote = majority(lanes.iter().flatten().map(|(_, v)| v.0));
            for warp in lanes.into_iter().filter(|w| !w.is_empty()) {
                let group = match region.map(|r| r.level) {
                    _ if serialized => None, // each lane decides alone
                    Some(HierarchyLevel::Warp) => Some(majority(warp.iter().map(|(_, v)| v.0))),
                    Some(HierarchyLevel::Block) => Some(block_vote),
                    _ => None,
                };
                // iACT's writer per table of the warp: the accurate lane farthest from any entry.
                let mut writers = vec![(f64::NEG_INFINITY, None); ws as usize];
                let (mut n_acc, mut n_apx, mut n_skip) = (0, 0, 0);
                for ((item, machine, table, t), (yes, query, near)) in warp {
                    let memo = match technique {
                        Some(Technique::Perfo(p)) if skips(&p, item, ws) => {
                            n_skip += 1;
                            continue;
                        }
                        // A forced lane returns the last output, if any; a prediction spends one.
                        Some(Technique::Taf(p)) => {
                            let m = &mut machines[machine];
                            let approx = match group {
                                _ if serialized => m.in_regime(&p, &mut stats),
                                None => yes,
                                Some(g) => g && m.last.is_some(),
                            };
                            m.left = m.left.map(|left| left - usize::from(approx && left > 0));
                            m.last.clone().filter(|_| approx)
                        }
                        // A forced lane takes the nearest entry at any distance, and runs
                        // accurately when its probe found none (an empty table).
                        Some(Technique::Iact(_)) => {
                            near.filter(|_| group.unwrap_or(yes)).map(|(slot, _)| {
                                let entry = &mut tables[table].entries[slot];
                                entry.2 = true;
                                entry.1.clone()
                            })
                        }
                        _ => None,
                    };
                    if let Some(out) = memo {
                        body.store(item, &out);
                        n_apx += 1;
                        continue;
                    }
                    let mut out = vec![0.0; body.out_dim()];
                    body.compute(item, &mut out);
                    body.store(item, &out);
                    n_acc += 1;
                    if let Some(Technique::Taf(p)) = technique {
                        machines[machine].observe(&out, &p, &mut stats);
                    }
                    let d = near.map_or(f64::INFINITY, |(_, d)| d);
                    if d > writers[t].0 {
                        writers[t] = (d, Some((table, query, out)));
                    }
                }
                if let Some(Technique::Iact(p)) = technique {
                    for (table, query, out) in writers.into_iter().filter_map(|w| w.1) {
                        tables[table].insert(&p, query, out);
                    }
                }
                stats.warp_steps += 1;
                stats.accurate_lanes += n_acc;
                stats.approx_lanes += n_apx;
                stats.skipped_lanes += n_skip;
                stats.divergent_steps += u64::from(n_acc > 0 && n_apx + n_skip > 0);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{approx_parallel_for_opts, ExecOptions, RepeatedLaunch};
    use crate::HierarchyLevel::{Block, Thread, Warp};
    use gpu_sim::CostProfile;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Records each item's `compute` count and stored bits. Inputs hold
    /// exact plateaus of `1 << width` items (windows reach RSD 0, probes
    /// distance 0, votes tie), a wiggle on two items of three, and a few far
    /// inputs, whose squared distance to any near one is infinite. `compute`
    /// also reads `param`, which may change between repeated launches.
    struct Recorder {
        input: Vec<f64>,
        param: f64,
        items: Vec<(Cell<u32>, Option<[u64; 2]>)>,
    }

    impl Recorder {
        fn new(n: usize, seed: u64, width: u32, param: f64) -> Self {
            let input = (0..n).map(|i| {
                let hash = (i as u64).wrapping_mul(seed | 1) >> 7;
                let wiggle = (hash % 13) as f64 * if i % 3 == 0 { 0.0 } else { 0.25 };
                let far = if hash.is_multiple_of(41) { 1e200 } else { 0.0 };
                (i >> width) as f64 + wiggle + far
            });
            let items = (0..n).map(|_| (Cell::new(0), None)).collect();
            Recorder {
                input: input.collect(),
                param,
                items,
            }
        }
    }

    impl RegionBody for Recorder {
        fn in_dim(&self) -> usize {
            1
        }
        fn out_dim(&self) -> usize {
            2
        }
        fn inputs(&self, i: usize, buf: &mut [f64]) {
            buf[0] = self.input[i];
        }
        fn compute(&self, i: usize, out: &mut [f64]) {
            self.items[i].0.set(self.items[i].0.get() + 1);
            let x = self.input[i] + 1.0;
            (out[0], out[1]) = (x.sqrt() * self.param, x.ln() + self.param);
        }
        fn store(&mut self, i: usize, out: &[f64]) {
            self.items[i].1 = Some([out[0].to_bits(), out[1].to_bits()]);
        }
        fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
            CostProfile::new().flops(8.0 * f64::from(lanes))
        }
    }

    /// Every perforation: small and large, herded and naive, ini and fini.
    fn perforations() -> Vec<ApproxRegion> {
        let kinds = [
            PerfoKind::Small { m: 4 },
            PerfoKind::Large { m: 8 },
            PerfoKind::Ini { fraction: 0.25 },
            PerfoKind::Fini { fraction: 0.25 },
        ];
        let herded = |h| kinds.map(|k| ApproxRegion::perfo(k).herded(h));
        [true, false].into_iter().flat_map(herded).collect()
    }

    /// Walk and spec agree on each item's computes and stored bits, and on
    /// every statistic the spec defines (`Debug` prints f64s exactly).
    fn check(
        spec: &DeviceSpec,
        lc: &LaunchConfig,
        (region, serialized_taf): (Option<ApproxRegion>, bool),
        body: impl Fn() -> Recorder,
    ) -> Result<(), TestCaseError> {
        let opts = ExecOptions {
            serialized_taf,
            ..ExecOptions::default()
        };
        let (mut walked, mut specced) = (body(), body());
        let record = approx_parallel_for_opts(spec, lc, region.as_ref(), &mut walked, &opts)
            .expect("every case launches");
        let want = run(spec, lc, region.as_ref(), serialized_taf, &mut specced);
        let mut got = record.stats;
        got.global_txns = 0;
        got.total_issue_cycles = 0.0;
        got.total_latency_cycles = 0.0;
        let case = format!("{lc:?} {region:?} {serialized_taf} warp {}", spec.warp_size);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "stats: {}", case);
        prop_assert!(walked.items == specced.items, "items: {}", case);
        Ok(())
    }

    proptest! {
        /// The walk implements Fig 4 for both schedules, every level and
        /// technique (serialized TAF, CLOCK, herded perforation and fini
        /// included), shared to private iACT tables, and 32- and 64-lane
        /// warps.
        #[test]
        fn walk_matches_fig4_spec(
            n in 1usize..1500,
            blocks in 1u32..7,
            bs_idx in 0usize..5,
            level_idx in 0usize..3,
            seed in 1u64..1_000_000,
            width in 3u32..9,
            knobs in (0usize..3, 0usize..3, 0usize..4),
            sizes in (1usize..4, 1usize..6),
        ) {
            let ((threshold_idx, psize_idx, tables_idx), (hsize, tsize)) = (knobs, sizes);
            let level = [Thread, Warp, Block];
            let threshold = [0.0, 0.05, 0.6][threshold_idx];
            let tables_per_warp = [1, 8, 32, u32::MAX][tables_idx];
            let mut regions = vec![(None, false)];
            for (taf, iact) in [
                (
                    ApproxRegion::memo_out(2, 16, 0.6),
                    ApproxRegion::memo_in(4, 0.6).tables_per_warp(8),
                ),
                (
                    ApproxRegion::memo_out(hsize, [1, 4, 16][psize_idx], threshold),
                    ApproxRegion::memo_in(tsize, threshold).tables_per_warp(tables_per_warp),
                ),
            ] {
                let (taf, iact) = (taf.level(level[level_idx]), iact.level(level[level_idx]));
                regions.extend([(Some(taf), false), (Some(taf), true), (Some(iact), false)]);
                regions.push((Some(iact.replacement(Replacement::Clock)), false));
            }
            regions.extend(perforations().into_iter().map(|r| (Some(r), false)));
            let block_size = [32u32, 48, 64, 96, 128][bs_idx];
            for spec in [DeviceSpec::v100(), DeviceSpec::mi250x()] {
                for schedule in [Schedule::GridStride, Schedule::BlockLocal] {
                    let lc = LaunchConfig { n_items: n, block_size, n_blocks: blocks, schedule };
                    for &case in &regions {
                        check(&spec, &lc, case, || Recorder::new(n, seed, width, 1.0))?;
                    }
                }
            }
        }
    }

    /// A `RepeatedLaunch`'s replayed run of an accurate, perforated or iACT
    /// region computes and stores per item what the spec does.
    #[test]
    fn replays_match_the_spec() {
        let mut regions: Vec<_> = perforations().into_iter().map(Some).collect();
        regions.push(None);
        for (level, tables_per_warp) in [(Thread, 1), (Warp, 8), (Block, 32)] {
            let iact = ApproxRegion::memo_in(3, 0.3)
                .tables_per_warp(tables_per_warp)
                .level(level);
            regions.extend([Some(iact), Some(iact.replacement(Replacement::Clock))]);
        }
        let lc = LaunchConfig::for_items_per_thread(700, 64, 3);
        let opts = ExecOptions::default();
        for spec in [DeviceSpec::v100(), DeviceSpec::mi250x()] {
            for region in &regions {
                let mut handle = RepeatedLaunch::new();
                for param in [1.0, 2.5] {
                    let mut walked = Recorder::new(700, 7, 5, param);
                    let ran = handle.run(&spec, &lc, region.as_ref(), &mut walked, &opts);
                    ran.expect("runs");
                    let mut specced = Recorder::new(700, 7, 5, param);
                    run(&spec, &lc, region.as_ref(), false, &mut specced);
                    assert!(walked.items == specced.items, "{region:?} {param} {spec:?}");
                }
                assert!(handle.replays(), "the second run replayed: {region:?}");
            }
        }
    }
}
