//! Property-based tests (proptest) on the core data structures and
//! invariants of the HPAC-Offload stack.

use gpu_sim::{AccessPattern, DeviceSpec, LaunchConfig};
use hpac_offload::core::iact::IactPool;
use hpac_offload::core::metrics::{geomean, mape, mcr, rsd, RsdWindow};
use hpac_offload::core::params::{IactParams, PerfoKind, PerfoParams, TafParams};
use hpac_offload::core::perfo;
use hpac_offload::core::taf::TafPool;
use proptest::prelude::*;

proptest! {
    /// Grid-stride item assignment partitions [0, n) exactly: every item
    /// executed once, by exactly one (block, warp, lane, step).
    #[test]
    fn grid_stride_partitions(n in 1usize..20_000, block in 1u32..9, ipt in 1usize..70) {
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::for_items_per_thread(n, block * 32, ipt);
        let mut seen = vec![false; n];
        for b in 0..lc.n_blocks {
            for w in 0..lc.warps_per_block(&spec) {
                for l in 0..spec.warp_size {
                    for s in 0..lc.steps() {
                        if let Some(i) = lc.item_for(&spec, b, w, l, s) {
                            prop_assert!(!seen[i], "item {i} twice");
                            seen[i] = true;
                        }
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// Block-local scheduling also partitions the item space exactly.
    #[test]
    fn block_local_partitions(n in 1usize..8_000, blocks in 1u32..7, bs in 1u32..5) {
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::block_local(n, bs * 32, blocks);
        let mut seen = vec![false; n];
        for b in 0..lc.n_blocks {
            for w in 0..lc.warps_per_block(&spec) {
                for l in 0..spec.warp_size {
                    for s in 0..lc.steps() {
                        if let Some(i) = lc.item_for(&spec, b, w, l, s) {
                            prop_assert!(!seen[i]);
                            seen[i] = true;
                        }
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// Coalescing: transactions are monotone in active lanes and bytes, and
    /// scattered access never beats coalesced.
    #[test]
    fn coalescing_monotone(lanes in 1u32..64, bytes in 1u32..64) {
        use gpu_sim::coalesce::transactions;
        let c = transactions(lanes, bytes, AccessPattern::Coalesced);
        let c_more = transactions(lanes + 1, bytes, AccessPattern::Coalesced);
        let s = transactions(lanes, bytes, AccessPattern::Scattered);
        prop_assert!(c_more >= c);
        prop_assert!(s >= c);
        prop_assert!(c >= 1);
    }

    /// TAF can never approximate more than `psize` invocations per stable
    /// regime and never before observing `hsize` outputs.
    #[test]
    fn taf_regime_bounds(hsize in 1usize..6, psize in 1usize..20, n_obs in 0usize..40) {
        let mut pool = TafPool::new(1, 1, TafParams::new(hsize, psize, 1e9));
        let mut consecutive = 0usize;
        let mut total_approx = 0usize;
        let mut total_accurate = 0usize;
        for i in 0..n_obs {
            if pool.wants_approx(0) {
                pool.note_approx(0);
                consecutive += 1;
                total_approx += 1;
                prop_assert!(consecutive <= psize, "regime exceeded psize");
            } else {
                pool.observe(0, &[i as f64 * 0.0]);
                consecutive = 0;
                total_accurate += 1;
            }
        }
        // Warmup of hsize accurate runs precedes every regime.
        if total_approx > 0 {
            prop_assert!(total_accurate >= hsize);
        }
    }

    /// iACT probe results always satisfy the hit threshold, and occupancy
    /// never exceeds the table size.
    #[test]
    fn iact_probe_invariants(
        entries in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..20),
        q1 in 0.0f64..10.0,
        q2 in 0.0f64..10.0,
        tsize in 1usize..8,
    ) {
        let params = IactParams::new(tsize, 0.75);
        let mut pool = IactPool::new(1, 2, 1, params);
        for (a, b) in &entries {
            pool.insert(0, &[*a, *b], &[a + b]);
            prop_assert!(pool.occupancy(0) <= tsize);
        }
        let probe = pool.probe(0, &[q1, q2]);
        if let Some(slot) = probe.slot {
            // The reported distance matches the stored entry.
            let out = pool.output(0, slot)[0];
            prop_assert!(out.is_finite());
            prop_assert!(probe.distance >= 0.0);
            if probe.hit(params.threshold) {
                prop_assert!(probe.distance <= params.threshold);
            }
        } else {
            prop_assert!(entries.is_empty());
        }
    }

    /// Perforation drop counts match the analytic rate exactly for
    /// item-indexed decisions.
    #[test]
    fn perfo_drop_counts(n in 1usize..5_000, m in 2u32..65) {
        for kind in [PerfoKind::Small { m }, PerfoKind::Large { m }] {
            let params = PerfoParams { kind, herded: false };
            let dropped = (0..n).filter(|&i| perfo::should_skip(&params, i, 0)).count();
            prop_assert_eq!(dropped, perfo::dropped_items(&params, n));
        }
    }

    /// Ini/fini bounds always form a valid non-empty subrange for
    /// fractions below 1.
    #[test]
    fn perfo_bounds_valid(n in 1usize..100_000, frac in 0.01f64..0.95) {
        for kind in [PerfoKind::Ini { fraction: frac }, PerfoKind::Fini { fraction: frac }] {
            let params = PerfoParams { kind, herded: true };
            let (lo, hi) = perfo::bounds(&params, n);
            prop_assert!(lo <= hi);
            prop_assert!(hi <= n);
            let dropped = n - (hi - lo);
            // Rounded drop matches the fraction within one item.
            prop_assert!((dropped as f64 - frac * n as f64).abs() <= 1.0);
        }
    }

    /// MAPE identities: zero on identical inputs, scale-invariant,
    /// symmetric under simultaneous scaling.
    #[test]
    fn mape_identities(v in prop::collection::vec(0.1f64..100.0, 1..50), k in 0.1f64..10.0) {
        prop_assert!(mape(&v, &v) < 1e-12);
        let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
        let direct = mape(&v, &scaled);
        prop_assert!((direct - (k - 1.0).abs()).abs() < 1e-9);
    }

    /// MCR is a metric on label vectors: zero iff equal, at most 1.
    #[test]
    fn mcr_bounds(a in prop::collection::vec(0u32..5, 1..60)) {
        prop_assert_eq!(mcr(&a, &a), 0.0);
        let flipped: Vec<u32> = a.iter().map(|x| x + 1).collect();
        prop_assert_eq!(mcr(&a, &flipped), 1.0);
    }

    /// RSD is scale-invariant (positive scaling) and zero for constants.
    #[test]
    fn rsd_scale_invariant(v in prop::collection::vec(0.5f64..10.0, 2..20), k in 0.1f64..10.0) {
        let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
        prop_assert!((rsd(&v) - rsd(&scaled)).abs() < 1e-9);
        let c = vec![v[0]; v.len()];
        prop_assert!(rsd(&c) < 1e-9);
    }

    /// The sliding window reports the RSD of exactly its last `cap` values.
    #[test]
    fn window_matches_direct_rsd(values in prop::collection::vec(0.1f64..10.0, 1..40), cap in 1usize..8) {
        let mut w = RsdWindow::new(cap);
        for &v in &values {
            w.push(v);
        }
        let tail: Vec<f64> = values.iter().rev().take(cap).copied().collect();
        prop_assert!((w.rsd() - rsd(&tail)).abs() < 1e-9);
    }

    /// Geomean lies between min and max.
    #[test]
    fn geomean_bounds(v in prop::collection::vec(0.1f64..10.0, 1..30)) {
        let g = geomean(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(0.0, f64::max);
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }

    /// Warp majority voting is monotone: adding yes-votes never flips the
    /// group from approx to accurate.
    #[test]
    fn majority_monotone(votes in prop::collection::vec(any::<bool>(), 1..64)) {
        use hpac_offload::core::hierarchy::{warp_decide, HierarchyLevel, WarpDecision};
        let before = warp_decide(HierarchyLevel::Warp, &votes);
        let mut more = votes.clone();
        if let Some(slot) = more.iter_mut().find(|v| !**v) {
            *slot = true;
            let after = warp_decide(HierarchyLevel::Warp, &more);
            if before == WarpDecision::GroupApprox {
                prop_assert_eq!(after, WarpDecision::GroupApprox);
            }
        }
    }

    /// Kernel timing is monotone in per-warp work.
    #[test]
    fn timing_monotone(issue in 1.0f64..10_000.0, latency in 0.0f64..10_000.0) {
        use gpu_sim::cost::WarpCycles;
        use gpu_sim::timing::kernel_time;
        let spec = DeviceSpec::v100();
        let lc = LaunchConfig::one_item_per_thread(64 * 128, 128);
        let blocks =
            vec![vec![WarpCycles { issue, latency }; 4]; 64];
        let bigger =
            vec![vec![WarpCycles { issue: issue * 2.0, latency: latency * 2.0 }; 4]; 64];
        let t1 = kernel_time(&spec, &lc, 0, &blocks);
        let t2 = kernel_time(&spec, &lc, 0, &bigger);
        prop_assert!(t2.cycles >= t1.cycles);
    }
}

// Whole-stack reuse properties: each case runs real application evaluations
// end to end, so the bodies are kept deliberately small.
proptest! {
    /// Sweep-scoped evaluation reuse is invisible in the results: a config
    /// evaluated under an installed [`EvalMemo`] scope — including a second
    /// evaluation served from a warm memo — produces bit-identical speedup,
    /// error, and kernel seconds to a memo-free evaluation, across
    /// techniques, executors, and worker counts.
    #[test]
    fn sweep_scoped_memo_is_bit_identical(
        tech in 0usize..3,
        ipt_idx in 0usize..3,
        exec_idx in 0usize..2,
        threads_idx in 0usize..2,
    ) {
        use hpac_offload::apps::blackscholes::Blackscholes;
        use hpac_offload::apps::common::{install_eval_memo, LaunchParams};
        use hpac_offload::core::exec::{ExecOptions, Executor};
        use hpac_offload::core::region::ApproxRegion;
        use hpac_offload::harness::runner::{run_config_bounded, select_baseline_opts};
        use hpac_offload::harness::SweepConfig;

        let bench = Blackscholes { n_options: 2048, distinct: 16, run_len: 16, seed: 7 };
        let spec = DeviceSpec::v100();
        let region = match tech {
            0 => ApproxRegion::memo_out(2, 32, 0.9),
            1 => ApproxRegion::memo_in(4, 0.5),
            _ => ApproxRegion::perfo(PerfoKind::Small { m: 2 }),
        };
        let executor = [Executor::Sequential, Executor::ParallelBlocks][exec_idx];
        let threads = [None, Some(2usize)][threads_idx];
        let opts = ExecOptions { executor, threads, ..ExecOptions::default() };
        let cfg = SweepConfig {
            region,
            lp: LaunchParams::new([4usize, 16, 64][ipt_idx], 256),
            label: "probe".into(),
        };
        let plain = {
            let baseline = select_baseline_opts(&bench, &spec, &opts);
            run_config_bounded(&bench, &spec, &baseline, &cfg, &opts).into_result().unwrap()
        };
        let scoped = {
            let _scope = install_eval_memo();
            let baseline = select_baseline_opts(&bench, &spec, &opts);
            // First evaluation populates the sweep-scoped memo; the second
            // is served from it. Both must match the memo-free run.
            let warm =
                run_config_bounded(&bench, &spec, &baseline, &cfg, &opts).into_result().unwrap();
            let hot =
                run_config_bounded(&bench, &spec, &baseline, &cfg, &opts).into_result().unwrap();
            prop_assert_eq!(warm.speedup.to_bits(), hot.speedup.to_bits());
            prop_assert_eq!(warm.error_pct.to_bits(), hot.error_pct.to_bits());
            hot
        };
        prop_assert_eq!(plain.speedup.to_bits(), scoped.speedup.to_bits());
        prop_assert_eq!(plain.error_pct.to_bits(), scoped.error_pct.to_bits());
        prop_assert_eq!(plain.kernel_seconds.to_bits(), scoped.kernel_seconds.to_bits());
    }

    /// Frontier-aware early abort never costs a frontier point: every
    /// configuration the tuner abandoned at the cost ceiling, re-run to
    /// completion without a ceiling, is dominated by (or equal to) the
    /// final frontier — inserting it changes nothing.
    #[test]
    fn aborted_configs_never_enter_frontier(seed in 0u64..1_000) {
        use hpac_offload::apps::blackscholes::Blackscholes;
        use hpac_offload::core::exec::ExecOptions;
        use hpac_offload::harness::runner::{run_config_bounded, select_baseline};
        use hpac_offload::harness::Scale;
        use hpac_offload::tuner::search::Evaluator;
        use hpac_offload::tuner::{Grid, ParetoPoint};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let bench = Blackscholes { n_options: 2048, distinct: 16, run_len: 16, seed: 1 };
        let spec = DeviceSpec::v100();
        let baseline = select_baseline(&bench, &spec);
        let mut ev = Evaluator::new(&bench, &spec, &baseline, 60);
        // 20 uniformly sampled points per grid, one batch each: a search
        // with no memory, so the ceiling in force varies from batch to batch.
        for (i, grid) in Grid::grids_for(&bench, &spec, Scale::Quick).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            let configs: Vec<_> = (0..grid.size().min(20))
                .map(|_| {
                    let idx: Vec<usize> = (0..grid.axis_count())
                        .map(|a| rng.gen_range(0..grid.axis_len(a)))
                        .collect();
                    grid.build(&idx)
                })
                .collect();
            ev.eval_batch(&configs);
        }
        let mut frontier = ev.frontier.clone();
        for cfg in &ev.aborted {
            let row = run_config_bounded(&bench, &spec, &baseline, cfg, &ExecOptions::default())
                .into_result()
                .expect("aborted configs are launchable");
            let changed = frontier.insert(ParetoPoint {
                speedup: row.speedup,
                error_pct: row.error_pct,
                technique: row.technique.clone(),
                config: format!("reran {}", cfg.label),
                items_per_thread: row.items_per_thread,
                region: None,
                lp: None,
            });
            prop_assert!(
                !changed,
                "aborted config {} would have entered the frontier \
                 (speedup {}, error {}%)",
                cfg.label, row.speedup, row.error_pct
            );
        }
    }
}
