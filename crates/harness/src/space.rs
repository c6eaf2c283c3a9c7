//! The design-space parameter grids of the paper's Table 2.
//!
//! `Scale::Full` reproduces Table 2 exactly (the paper explored 57,288
//! configurations across benchmarks and platforms — budget hours, not
//! minutes). `Scale::Quick` subsamples every axis so a full sweep over all
//! benchmarks and both devices finishes on a laptop; the pruned grids keep
//! the extreme and middle values of each axis so the clouds retain their
//! shape.
//!
//! [`Grid`] is the one encoding of Table 2: per technique, one vector per
//! axis. Everything else derives from it — the sweep [`plan`] enumerates
//! each grid's index space, the tuner walks a grid axis by axis through
//! [`Grid::build`], [`full_space_size`] sums the `Scale::Full` grid sizes,
//! and `figures::table2` renders the axis values (`Grid::axes`).
//! Perforation is two grids because its space is a union, not a product:
//! rate patterns (small/large × m × items-per-thread) and bounds patterns
//! (ini/fini × fraction, always at items-per-thread 1).

use gpu_sim::{DeviceSpec, Vendor};
use hpac_apps::common::{Benchmark, LaunchParams};
use hpac_core::params::PerfoKind;
use hpac_core::region::ApproxRegion;
use hpac_core::HierarchyLevel;
use std::fmt::Display;

/// Sweep resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Pruned grids for CI/laptop runs.
    Quick,
    /// The paper's Table 2 grids.
    Full,
}

/// One point of the design space: a fully parameterized region plus launch
/// shape.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub region: ApproxRegion,
    pub lp: LaunchParams,
    /// Human-readable parameter description for the results database.
    pub label: String,
}

/// The patterns on each perforation grid's kind axis.
const RATE_KINDS: [&str; 2] = ["small", "large"];
const BOUNDS_KINDS: [&str; 2] = ["ini", "fini"];

/// One technique's axis vectors.
#[derive(Debug, Clone)]
enum Kind {
    /// Axes `[hsize, psize, threshold, level, items_per_thread]`.
    Taf {
        hsize: Vec<usize>,
        psize: Vec<usize>,
        threshold: Vec<f64>,
        levels: Vec<HierarchyLevel>,
        items_per_thread: Vec<usize>,
    },
    /// Axes `[tables_per_warp, tsize, threshold, level, items_per_thread]`.
    Iact {
        tables_per_warp: Vec<u32>,
        tsize: Vec<usize>,
        threshold: Vec<f64>,
        levels: Vec<HierarchyLevel>,
        items_per_thread: Vec<usize>,
    },
    /// Axes `[kind (RATE_KINDS), m, items_per_thread]`.
    PerfoRate {
        skip_m: Vec<u32>,
        items_per_thread: Vec<usize>,
    },
    /// Axes `[kind (BOUNDS_KINDS), fraction]`, at items-per-thread 1.
    PerfoBounds { fractions: Vec<f64> },
}

impl Kind {
    /// Plan order: this grid's axes from the outermost loop to the
    /// innermost.
    ///
    /// Sweep rows, and so the seed-0 row digests the benchmark pins, come in
    /// plan order; the tuner's coordinate descent visits axes in grid order,
    /// and its cold trajectories are pinned too. For TAF and iACT the two
    /// orders agree. The perforation grids put the kind first, while the
    /// sweep has always nested the kind inside the rate (`m`, `fraction`):
    /// this table is what lets both pinned orders stand.
    fn nesting(&self) -> &'static [usize] {
        match self {
            Kind::Taf { .. } | Kind::Iact { .. } => &[0, 1, 2, 3, 4],
            Kind::PerfoRate { .. } => &[1, 0, 2],
            Kind::PerfoBounds { .. } => &[1, 0],
        }
    }
}

/// One technique grid for a benchmark on a device: indexable, one index per
/// axis, for the tuner's descent, and enumerable in plan order for the
/// sweep.
#[derive(Debug, Clone)]
pub struct Grid {
    kind: Kind,
    axis_lens: Vec<usize>,
    block_size: u32,
}

/// `full` under `Scale::Full`, `quick` under `Scale::Quick`.
fn at<T>(scale: Scale, full: Vec<T>, quick: Vec<T>) -> Vec<T> {
    match scale {
        Scale::Full => full,
        Scale::Quick => quick,
    }
}

impl Grid {
    /// All technique grids for a benchmark on a device, in plan order (TAF,
    /// iACT, perforation rates, perforation bounds); a grid with an empty
    /// axis is dropped.
    pub fn grids_for(bench: &dyn Benchmark, device: &DeviceSpec, scale: Scale) -> Vec<Grid> {
        let levels = if bench.block_level_only() {
            vec![HierarchyLevel::Block]
        } else {
            vec![HierarchyLevel::Thread, HierarchyLevel::Warp]
        };
        // Table 2's "Items per Thread 8,16,...,512"; perforation starts at 1.
        let items_per_thread = at(scale, vec![8, 16, 32, 64, 128, 256, 512], vec![8, 64, 512]);
        // "Only the AMD platform uses 64 tables per warp" (Table 2): 64
        // tables per warp requires a 64-lane wavefront.
        let mut tables_per_warp = at(scale, vec![1, 2, 16, 32], vec![1, 16, 32]);
        if device.vendor == Vendor::Amd {
            tables_per_warp.push(64);
        }
        tables_per_warp.retain(|&t| t <= device.warp_size);
        let all = [
            Kind::Taf {
                hsize: at(scale, vec![1, 2, 3, 4, 5], vec![1, 3, 5]),
                psize: at(
                    scale,
                    vec![2, 4, 8, 16, 32, 64, 128, 256, 512],
                    vec![4, 32, 512],
                ),
                threshold: at(
                    scale,
                    vec![0.3, 0.6, 0.9, 1.2, 1.5, 3.0, 5.0, 20.0],
                    vec![0.3, 0.9, 1.5, 3.0, 20.0],
                ),
                levels: levels.clone(),
                items_per_thread: items_per_thread.clone(),
            },
            Kind::Iact {
                tables_per_warp,
                tsize: at(scale, vec![1, 2, 4, 8], vec![2, 8]),
                threshold: at(
                    scale,
                    vec![0.1, 0.3, 0.5, 0.7, 0.9, 3.0, 5.0, 20.0],
                    vec![0.1, 0.5, 0.9, 5.0],
                ),
                levels,
                items_per_thread: items_per_thread.clone(),
            },
            Kind::PerfoRate {
                skip_m: at(scale, vec![2, 4, 8, 16, 32, 64], vec![2, 8, 64]),
                items_per_thread: std::iter::once(1).chain(items_per_thread).collect(),
            },
            Kind::PerfoBounds {
                fractions: at(
                    scale,
                    (1..=9).map(|p| p as f64 / 10.0).collect(),
                    vec![0.1, 0.5, 0.9],
                ),
            },
        ];
        let block_size = block_size_for(bench);
        all.into_iter()
            .map(|kind| {
                let mut grid = Grid {
                    kind,
                    axis_lens: Vec::new(),
                    block_size,
                };
                grid.axis_lens = grid.axes().iter().map(|(_, values)| values.len()).collect();
                grid
            })
            .filter(|grid| grid.size() > 0)
            .collect()
    }

    /// Technique label for reporting ("TAF", "iACT", "Perfo").
    pub fn technique(&self) -> &'static str {
        match self.kind {
            Kind::Taf { .. } => "TAF",
            Kind::Iact { .. } => "iACT",
            Kind::PerfoRate { .. } | Kind::PerfoBounds { .. } => "Perfo",
        }
    }

    pub fn axis_count(&self) -> usize {
        self.axis_lens.len()
    }

    pub fn axis_len(&self, axis: usize) -> usize {
        self.axis_lens[axis]
    }

    /// Number of configurations in this grid's product.
    pub fn size(&self) -> usize {
        self.axis_lens.iter().product()
    }

    /// Each axis's Table 2 parameter name and values, in axis order.
    pub(crate) fn axes(&self) -> Vec<(&'static str, Vec<&dyn Display>)> {
        fn show<T: Display>(values: &[T]) -> Vec<&dyn Display> {
            values.iter().map(|v| v as &dyn Display).collect()
        }
        match &self.kind {
            Kind::Taf {
                hsize,
                psize,
                threshold,
                levels,
                items_per_thread,
            } => vec![
                ("hSize", show(hsize)),
                ("pSize", show(psize)),
                ("threshold", show(threshold)),
                ("hierarchy", show(levels)),
                ("items per thread", show(items_per_thread)),
            ],
            Kind::Iact {
                tables_per_warp,
                tsize,
                threshold,
                levels,
                items_per_thread,
            } => vec![
                ("tPerWarp", show(tables_per_warp)),
                ("tSize", show(tsize)),
                ("threshold", show(threshold)),
                ("hierarchy", show(levels)),
                ("items per thread", show(items_per_thread)),
            ],
            Kind::PerfoRate {
                skip_m,
                items_per_thread,
            } => vec![
                ("pattern", show(&RATE_KINDS)),
                ("skip", show(skip_m)),
                ("items per thread", show(items_per_thread)),
            ],
            Kind::PerfoBounds { fractions } => vec![
                ("pattern", show(&BOUNDS_KINDS)),
                ("skip fraction", show(fractions)),
            ],
        }
    }

    /// Materialize the configuration at an index vector (one index per
    /// axis). Panics on out-of-range indices — callers own clamping.
    pub fn build(&self, idx: &[usize]) -> SweepConfig {
        assert_eq!(idx.len(), self.axis_count(), "index arity mismatch");
        let lp = |ipt| LaunchParams::new(ipt, self.block_size);
        match &self.kind {
            Kind::Taf {
                hsize,
                psize,
                threshold,
                levels,
                items_per_thread,
            } => {
                let (h, p, t) = (hsize[idx[0]], psize[idx[1]], threshold[idx[2]]);
                let (lvl, ipt) = (levels[idx[3]], items_per_thread[idx[4]]);
                SweepConfig {
                    region: ApproxRegion::memo_out(h, p, t).level(lvl),
                    lp: lp(ipt),
                    label: format!("h={h} p={p} thr={t} lvl={lvl} ipt={ipt}"),
                }
            }
            Kind::Iact {
                tables_per_warp,
                tsize,
                threshold,
                levels,
                items_per_thread,
            } => {
                let (tpw, ts, t) = (tables_per_warp[idx[0]], tsize[idx[1]], threshold[idx[2]]);
                let (lvl, ipt) = (levels[idx[3]], items_per_thread[idx[4]]);
                SweepConfig {
                    region: ApproxRegion::memo_in(ts, t).tables_per_warp(tpw).level(lvl),
                    lp: lp(ipt),
                    label: format!("ts={ts} thr={t} tpw={tpw} lvl={lvl} ipt={ipt}"),
                }
            }
            Kind::PerfoRate {
                skip_m,
                items_per_thread,
            } => {
                let (m, ipt) = (skip_m[idx[1]], items_per_thread[idx[2]]);
                let kind = [PerfoKind::Small { m }, PerfoKind::Large { m }][idx[0]];
                SweepConfig {
                    region: ApproxRegion::perfo(kind),
                    lp: lp(ipt),
                    label: format!("{}:{m} ipt={ipt}", RATE_KINDS[idx[0]]),
                }
            }
            Kind::PerfoBounds { fractions } => {
                let fraction = fractions[idx[1]];
                let kind = [PerfoKind::Ini { fraction }, PerfoKind::Fini { fraction }][idx[0]];
                SweepConfig {
                    region: ApproxRegion::perfo(kind),
                    lp: lp(1),
                    label: format!("{}:{:.0}% ipt=1", BOUNDS_KINDS[idx[0]], fraction * 100.0),
                }
            }
        }
    }

    /// Every index vector of this grid once, in plan order: an odometer
    /// over [`Kind::nesting`], the innermost axis turning fastest.
    fn plan_indices(&self) -> Vec<Vec<usize>> {
        let mut idx = vec![0; self.axis_count()];
        let mut out = Vec::with_capacity(self.size());
        for _ in 0..self.size() {
            out.push(idx.clone());
            for &axis in self.kind.nesting().iter().rev() {
                idx[axis] += 1;
                if idx[axis] < self.axis_lens[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
        out
    }
}

pub fn block_size_for(bench: &dyn Benchmark) -> u32 {
    // "We use the one value of num_threads that yields the best performance
    // in the non-approximated benchmark" (§4, footnote 4). LULESH and
    // LavaMD use small blocks so the items-per-thread axis stays
    // meaningful at proxy problem sizes.
    match bench.name() {
        "Binomial Options" => 128,
        "LULESH" => 64,
        _ => 256,
    }
}

/// The full sweep plan for one benchmark on one device (Table 2's Cartesian
/// product, per technique): every grid's configurations in plan order.
pub fn plan(bench: &dyn Benchmark, device: &DeviceSpec, scale: Scale) -> Vec<SweepConfig> {
    Grid::grids_for(bench, device, scale)
        .iter()
        .flat_map(|grid| grid.plan_indices().into_iter().map(|idx| grid.build(&idx)))
        .collect()
}

/// Size of the full (paper Table 2) design space for one benchmark on one
/// device — the denominator for an adaptive tuner's evaluation budget.
pub fn full_space_size(bench: &dyn Benchmark, device: &DeviceSpec) -> usize {
    Grid::grids_for(bench, device, Scale::Full)
        .iter()
        .map(Grid::size)
        .sum()
}

/// Items-per-thread candidates used to pick the non-approximated baseline.
pub fn baseline_ipts(bench: &dyn Benchmark) -> Vec<usize> {
    if bench.block_level_only() {
        vec![1, 4, 16]
    } else {
        vec![1, 8, 32]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpac_apps::binomial::BinomialOptions;
    use hpac_apps::blackscholes::Blackscholes;
    use hpac_core::region::Technique;
    use std::collections::HashSet;

    fn technique_configs(
        bench: &dyn Benchmark,
        device: &DeviceSpec,
        scale: Scale,
        technique: &str,
    ) -> Vec<SweepConfig> {
        plan(bench, device, scale)
            .into_iter()
            .filter(|c| c.region.technique_name() == technique)
            .collect()
    }

    #[test]
    fn quick_grids_are_small() {
        let bench = Blackscholes::default();
        let v100 = DeviceSpec::v100();
        let plan = plan(&bench, &v100, Scale::Quick);
        assert!(plan.len() < 700, "quick plan too big: {}", plan.len());
        assert!(plan.len() > 100);
    }

    #[test]
    fn full_taf_grid_matches_table2() {
        let bench = Blackscholes::default();
        let v100 = DeviceSpec::v100();
        let taf = technique_configs(&bench, &v100, Scale::Full, "TAF");
        // 5 hsize * 9 psize * 8 thresh * 2 levels * 7 ipt
        assert_eq!(taf.len(), 5 * 9 * 8 * 2 * 7);
    }

    #[test]
    fn amd_gets_64_tables_per_warp() {
        let bench = Blackscholes::default();
        let has64 = |device: &DeviceSpec| {
            technique_configs(&bench, device, Scale::Full, "iACT")
                .iter()
                .any(|c| c.label.contains("tpw=64"))
        };
        assert!(has64(&DeviceSpec::mi250x()));
        assert!(!has64(&DeviceSpec::v100()));
    }

    #[test]
    fn block_only_benchmarks_use_block_level() {
        let bench = BinomialOptions::default();
        let v100 = DeviceSpec::v100();
        for c in technique_configs(&bench, &v100, Scale::Quick, "TAF") {
            assert_eq!(c.region.level, HierarchyLevel::Block);
        }
    }

    #[test]
    fn all_planned_regions_validate() {
        let bench = Blackscholes::default();
        for device in DeviceSpec::evaluation_platforms() {
            for c in plan(&bench, &device, Scale::Quick) {
                c.region.validate().unwrap_or_else(|e| {
                    panic!("invalid planned config {}: {e}", c.label);
                });
            }
        }
    }

    #[test]
    fn iact_axes_respect_warp_size() {
        let bench = Blackscholes::default();
        let v100 = DeviceSpec::v100();
        for c in technique_configs(&bench, &v100, Scale::Full, "iACT") {
            let Technique::Iact(p) = c.region.technique else {
                unreachable!()
            };
            assert!(p.tables_per_warp <= v100.warp_size, "{}", c.label);
        }
    }

    #[test]
    fn full_space_size_matches_plan() {
        // The enumerator visits every index of every grid exactly once, on
        // both devices and for block-level-only benchmarks.
        let benches: [Box<dyn Benchmark>; 2] = [
            Box::new(Blackscholes::default()),
            Box::new(BinomialOptions::default()),
        ];
        for bench in &benches {
            for device in DeviceSpec::evaluation_platforms() {
                let what = format!("{} on {}", bench.name(), device.name);
                for grid in Grid::grids_for(bench.as_ref(), &device, Scale::Full) {
                    let visits = grid.plan_indices();
                    let distinct: HashSet<&Vec<usize>> = visits.iter().collect();
                    assert_eq!(visits.len(), grid.size(), "{what}");
                    assert_eq!(distinct.len(), grid.size(), "{what}");
                    assert!(visits
                        .iter()
                        .all(|idx| (0..grid.axis_count()).all(|a| idx[a] < grid.axis_len(a))));
                }
                assert_eq!(
                    full_space_size(bench.as_ref(), &device),
                    plan(bench.as_ref(), &device, Scale::Full).len(),
                    "{what}"
                );
            }
        }
        assert!(full_space_size(benches[0].as_ref(), &DeviceSpec::v100()) > 5_000);
    }

    /// The sweep's plan order is pinned: row digests follow it. The fnv1a
    /// of each quick plan's label sequence (one `\n` after each label).
    #[test]
    fn quick_plan_order_is_pinned() {
        let bs = Blackscholes::default();
        let binomial = BinomialOptions::default();
        let cases: [(&dyn Benchmark, DeviceSpec, usize, u64); 4] = [
            (&bs, DeviceSpec::v100(), 444, 0x5435_40a5_7b5b_a9e5),
            (&bs, DeviceSpec::mi250x(), 492, 0x1b74_cdab_461e_9b2d),
            (&binomial, DeviceSpec::v100(), 237, 0x74b8_0617_f33f_6a45),
            (&binomial, DeviceSpec::mi250x(), 261, 0xe7c8_cda8_39d9_1045),
        ];
        for (bench, device, len, digest) in cases {
            let plan = plan(bench, &device, Scale::Quick);
            let got =
                hpac_core::hash::fnv1a(plan.iter().flat_map(|c| c.label.bytes().chain([b'\n'])));
            assert_eq!(plan.len(), len, "{} on {}", bench.name(), device.name);
            assert_eq!(
                got,
                digest,
                "{} on {}: plan order moved",
                bench.name(),
                device.name
            );
        }
    }

    #[test]
    fn perfo_includes_ipt_one() {
        let bench = Blackscholes::default();
        let v100 = DeviceSpec::v100();
        let cfgs = technique_configs(&bench, &v100, Scale::Quick, "Perfo");
        assert!(cfgs.iter().any(|c| c.lp.items_per_thread == 1));
    }

    #[test]
    fn techniques_present() {
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        let grids = Grid::grids_for(&bench, &device, Scale::Quick);
        let names: Vec<&str> = grids.iter().map(|g| g.technique()).collect();
        assert!(names.contains(&"TAF"));
        assert!(names.contains(&"iACT"));
        assert_eq!(names.iter().filter(|n| **n == "Perfo").count(), 2);
    }
}
