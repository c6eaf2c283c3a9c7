//! Golden kernel records: what the walk's decisions cost.
//!
//! The walk's decisions are checked against an executable Fig 4 spec inside
//! `hpac-core`, which leaves costs out. This file pins the rest of one fixed
//! launch's `KernelRecord` per technique and hierarchy level, serialized
//! TAF included: the modeled cycles, seconds, exposed-latency fraction and
//! waves, the global transactions, and the issue and latency cycle totals,
//! every `f64` as bits. A change to the cost model or to how a policy
//! composes a warp step's cost shows here; if it is intended, the failure
//! message prints the new table.

use gpu_sim::{AccessPattern, CostProfile, DeviceSpec, KernelRecord, LaunchConfig};
use hpac_offload::apps::common::{Benchmark, LaunchParams, QoI};
use hpac_offload::apps::minife::MiniFe;
use hpac_offload::core::exec::{approx_parallel_for_opts, ExecOptions, RegionBody};
use hpac_offload::core::hash::fnv1a;
use hpac_offload::core::params::{PerfoKind, Replacement};
use hpac_offload::core::{ApproxRegion, HierarchyLevel};

/// Inputs that mix plateaus (so TAF and iACT approximate) with varying
/// stretches (so lanes disagree and the hierarchy levels matter).
struct Body {
    input: Vec<f64>,
}

impl RegionBody for Body {
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
        let x = self.input[i] + 1.0;
        out[0] = x.sqrt();
        out[1] = x.ln();
    }
    fn store(&mut self, _i: usize, _out: &[f64]) {}
    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(8.0)
            .sfu(2.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 16, AccessPattern::Coalesced)
    }
}

const ITEMS: usize = 3_000;

/// One region per technique and level, and whether it runs serialized TAF.
fn cases() -> Vec<(&'static str, Option<ApproxRegion>, bool)> {
    use HierarchyLevel::{Block, Thread, Warp};
    let taf = ApproxRegion::memo_out(3, 8, 0.3);
    let iact = ApproxRegion::memo_in(4, 0.6).tables_per_warp(8);
    vec![
        ("accurate", None, false),
        ("taf/thread", Some(taf.level(Thread)), false),
        ("taf/warp", Some(taf.level(Warp)), false),
        ("taf/block", Some(taf.level(Block)), false),
        ("taf/serialized", Some(taf), true),
        ("iact/thread", Some(iact.level(Thread)), false),
        ("iact/warp", Some(iact.level(Warp)), false),
        ("iact/block", Some(iact.level(Block)), false),
        (
            "iact/clock",
            Some(iact.replacement(Replacement::Clock)),
            false,
        ),
        (
            "perfo/small",
            Some(ApproxRegion::perfo(PerfoKind::Small { m: 4 })),
            false,
        ),
        (
            "perfo/large-naive",
            Some(ApproxRegion::perfo(PerfoKind::Large { m: 8 }).herded(false)),
            false,
        ),
        (
            "perfo/fini",
            Some(ApproxRegion::perfo(PerfoKind::Fini { fraction: 0.25 })),
            false,
        ),
    ]
}

/// cycles, seconds, exposed-latency fraction (bits), waves, global
/// transactions, issue and latency cycle totals (bits).
fn pinned(r: &KernelRecord) -> [u64; 7] {
    [
        r.timing.cycles.to_bits(),
        r.timing.seconds.to_bits(),
        r.timing.exposed_latency_fraction.to_bits(),
        u64::from(r.timing.waves),
        r.stats.global_txns,
        r.stats.total_issue_cycles.to_bits(),
        r.stats.total_latency_cycles.to_bits(),
    ]
}

// One row per case, in `cases()` order, as `pinned` lays it out.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 7]); 12] = [
    ("accurate", [0x40a0000000000000, 0x3edb323448987031, 0x3fc2800000000000, 0x1, 0x233, 0x40c4880000000000, 0x40e25c0000000000]),
    ("taf/thread", [0x40a2f00000000000, 0x3edc56c28dcaac86, 0x0, 0x1, 0x21f, 0x40c7440000000000, 0x40e0040000000000]),
    ("taf/warp", [0x40a2900000000000, 0x3edc3169954c6e5a, 0x0, 0x1, 0x217, 0x40c7370000000000, 0x40df400000000000]),
    ("taf/block", [0x40a6d00000000000, 0x3eddd8af40388448, 0x0, 0x1, 0x217, 0x40cd750000000000, 0x40df400000000000]),
    ("taf/serialized", [0x40dc444000000000, 0x3efb3c838285f405, 0x3fd510a767f2a099, 0x1, 0xf31, 0x40f8eb1000000000, 0x4115b44000000000]),
    ("iact/thread", [0x40aec00000000000, 0x3ee0779a90a9a970, 0x3fd31f3831f3831f, 0x1, 0x2ef, 0x40d0e00000000000, 0x40f25c0000000000]),
    ("iact/warp", [0x40aed00000000000, 0x3ee07ab7500983f4, 0x3fd2c234f72c234f, 0x1, 0x2ef, 0x40d10f0000000000, 0x40f25c0000000000]),
    ("iact/block", [0x40afe00000000000, 0x3ee0afa0056706b2, 0x3fc999999999999a, 0x1, 0x2ef, 0x40d42e0000000000, 0x40f25c0000000000]),
    ("iact/clock", [0x40aec00000000000, 0x3ee0779a90a9a970, 0x3fd31f3831f3831f, 0x1, 0x2ef, 0x40d0e00000000000, 0x40f25c0000000000]),
    ("perfo/small", [0x40a0080000000000, 0x3edb355107f84ab5, 0x3fd3664cd9933665, 0x1, 0x1a9, 0x40bf5e0000000000, 0x40dbbc0000000000]),
    ("perfo/large-naive", [0x40a0080000000000, 0x3edb355107f84ab5, 0x3fc1d71475c51d71, 0x1, 0x233, 0x40c4b70000000000, 0x40e25c0000000000]),
    ("perfo/fini", [0x4098500000000000, 0x3ed9b364558a72f3, 0x0, 0x1, 0x1a7, 0x40bf270000000000, 0x40dbbc0000000000]),
];

#[test]
fn kernel_records_match_the_golden_table() {
    let spec = DeviceSpec::v100();
    let launch = LaunchConfig::for_items_per_thread(ITEMS, 128, 4);
    let input = (0..ITEMS)
        .map(|i| {
            let wiggle = (((i as u64).wrapping_mul(40_503) >> 7) % 13) as f64;
            (i >> 6) as f64 + if i % 3 == 0 { 0.0 } else { wiggle * 0.25 }
        })
        .collect::<Vec<_>>();
    let got: Vec<(&str, [u64; 7])> = cases()
        .into_iter()
        .map(|(name, region, serialized_taf)| {
            let opts = ExecOptions {
                serialized_taf,
                ..ExecOptions::default()
            };
            let mut body = Body {
                input: input.clone(),
            };
            let record =
                approx_parallel_for_opts(&spec, &launch, region.as_ref(), &mut body, &opts)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, pinned(&record))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, bits)| {
            let cells: Vec<String> = bits.iter().map(|b| format!("{b:#x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    assert!(
        got == GOLDEN,
        "kernel records moved; the table for these sources is:\n{table}"
    );
}

/// A small MiniFE instance on both devices, accurate and under TAF and a
/// small and a large perforation, folded to one digest: each run's kernel
/// and end-to-end seconds, QoI and iteration count, as bits. Three of every
/// four MiniFE launches are its accurate BLAS helper kernels, so this pins
/// how those are charged as well as the approximated SpMV.
#[test]
fn minife_runs_fold_to_the_pinned_digest() {
    const PINNED: u64 = 0x0704_cec1_c8ad_c5ef;
    let app = MiniFe {
        nx: 8,
        max_iters: 12,
        ..MiniFe::default()
    };
    let lp = LaunchParams::new(4, 256);
    let regions = [
        None,
        Some(ApproxRegion::memo_out(2, 8, 0.5)),
        Some(ApproxRegion::perfo(PerfoKind::Small { m: 8 })),
        Some(ApproxRegion::perfo(PerfoKind::Large { m: 2 })),
    ];
    let mut words = Vec::new();
    for spec in [DeviceSpec::v100(), DeviceSpec::mi250x()] {
        for region in &regions {
            let r = app
                .run(&spec, region.as_ref(), &lp)
                .unwrap_or_else(|e| panic!("{region:?}: {e}"));
            words.push(r.kernel_seconds.to_bits());
            words.push(r.end_to_end_seconds().to_bits());
            match &r.qoi {
                QoI::Values(v) => words.extend(v.iter().map(|x| x.to_bits())),
                QoI::Labels(l) => words.extend(l.iter().map(|&x| u64::from(x))),
            }
            words.push(r.iterations.map_or(u64::MAX, |i| i as u64));
        }
    }
    let digest = fnv1a(words.iter().flat_map(|w| w.to_le_bytes()));
    assert_eq!(
        digest, PINNED,
        "MiniFE runs moved: {digest:#018x} against the pinned {PINNED:#018x}"
    );
}
