//! One scorer: a tuned plan re-executes to the very row its sweep made.
//!
//! A sweep scores each configuration against its baseline inside
//! `runner::Ledger::answer`; `TunedPlan::execute` measures the baseline
//! again at the plan's `baseline_lp` and scores a fresh run of the chosen
//! configuration. Both go through `runner::Baseline::score`, so the two rows
//! agree bit for bit on every app's timing basis, kernel-only Blackscholes
//! included.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::binomial::BinomialOptions;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::apps::common::{Benchmark, LaunchParams};
use hpac_offload::apps::kmeans::KMeans;
use hpac_offload::apps::lavamd::LavaMd;
use hpac_offload::apps::leukocyte::Leukocyte;
use hpac_offload::apps::lulesh::Lulesh;
use hpac_offload::apps::minife::MiniFe;
use hpac_offload::core::region::ApproxRegion;
use hpac_offload::harness::runner::run_sweep;
use hpac_offload::harness::{space, Row, Scale};
use hpac_offload::tuner::{ParetoFrontier, TunedPlan};
use std::collections::{BTreeSet, HashMap};

fn apps() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Blackscholes {
            n_options: 4096,
            distinct: 16,
            run_len: 16,
            seed: 7,
        }),
        Box::new(BinomialOptions {
            n_options: 256,
            tree_steps: 64,
            ..BinomialOptions::default()
        }),
        Box::new(LavaMd {
            boxes_per_dim: 3,
            par_per_box: 8,
            ..LavaMd::default()
        }),
        Box::new(KMeans {
            n_points: 512,
            max_iters: 20,
            ..KMeans::default()
        }),
        Box::new(MiniFe {
            nx: 6,
            max_iters: 20,
            ..MiniFe::default()
        }),
        Box::new(Leukocyte {
            n_cells: 4,
            grid: 16,
            iterations: 12,
            ..Leukocyte::default()
        }),
        Box::new(Lulesh {
            edge: 6,
            steps: 4,
            dt: 1.0e-4,
            ..Lulesh::default()
        }),
    ]
}

/// A plan for `region` at `lp`, as the tuner would store it for `row`.
fn plan(
    bench: &dyn Benchmark,
    region: Option<ApproxRegion>,
    lp: LaunchParams,
    baseline_lp: LaunchParams,
    row: &Row,
) -> TunedPlan {
    TunedPlan {
        benchmark: bench.name().to_string(),
        device: row.device.clone(),
        instance: bench.params_key(),
        bound_pct: 100.0,
        region,
        lp,
        technique: row.technique.clone(),
        config: row.config.clone(),
        predicted_speedup: row.speedup,
        measured_error_pct: row.error_pct,
        baseline_lp,
        evaluations: 0,
        full_space: 0,
        from_cache: false,
        verified_seed: false,
        frontier: ParetoFrontier::new(),
    }
}

/// Every number a row carries, as bits.
fn bits(row: &Row) -> ([u64; 6], Option<usize>) {
    let words = [
        row.speedup,
        row.error_pct,
        row.approx_fraction,
        row.divergent_fraction,
        row.kernel_seconds,
        row.end_to_end_seconds,
    ];
    (words.map(f64::to_bits), row.iterations)
}

#[test]
fn execute_reproduces_the_sweep_row_bit_for_bit() {
    let spec = DeviceSpec::v100();
    let mut kernel_only = 0;
    for bench in apps() {
        let bench = bench.as_ref();
        let sweep = run_sweep(bench, &spec, Scale::Quick);
        let configs: HashMap<String, _> = space::plan(bench, &spec, Scale::Quick)
            .into_iter()
            .map(|cfg| (cfg.label.clone(), cfg))
            .collect();
        let mut techniques = BTreeSet::new();
        for row in &sweep.rows {
            if !techniques.insert(row.technique.as_str()) {
                continue;
            }
            let cfg = &configs[&row.config];
            let plan = plan(bench, Some(cfg.region), cfg.lp, sweep.baseline.lp, row);
            let got = plan
                .execute(bench, &spec)
                .expect("a finished row re-executes");
            let what = format!("{} {}", bench.name(), row.config);
            assert_eq!(bits(&got), bits(row), "{what}");
            assert_eq!(got.technique, row.technique, "{what}");
        }
        assert!(techniques.len() >= 2, "{}: {techniques:?}", bench.name());
        if bench.kernel_only_timing() {
            kernel_only += 1;
        }

        let accurate = Row {
            technique: "accurate".into(),
            config: "accurate".into(),
            ..sweep.rows[0].clone()
        };
        let lp = sweep.baseline.lp;
        let got = plan(bench, None, lp, lp, &accurate)
            .execute(bench, &spec)
            .expect("the accurate run re-executes");
        let name = bench.name();
        assert_eq!(got.speedup.to_bits(), 1.0f64.to_bits(), "{name}");
        assert_eq!(got.error_pct.to_bits(), 0.0f64.to_bits(), "{name}");
        assert_eq!(got.technique, "accurate", "{name}");
    }
    assert_eq!(kernel_only, 1, "Blackscholes' kernel-only basis is a case");
}
