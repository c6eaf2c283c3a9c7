//! The workload-independent part of the layer pass: each layer's unit costs,
//! timed from outside through public functions, serially, with the obs gate
//! off. These are the numbers a change to one layer should move first; the
//! README says which end-to-end metric each should then move, and where.

use crate::names::LayerMetrics;
use crate::stats;
use crate::suite;
use gpu_sim::{AccessPattern, BlockAccumulator, CostProfile, DeviceSpec, KernelExec, LaunchConfig};
use hpac_apps::common::{eval_key, ComputeMemo, EvalMemo};
use hpac_core::exec::{
    approx_block_tasks_opts, approx_parallel_for_opts, engine, BlockTaskBody, ExecOptions,
    RegionBody,
};
use hpac_core::params::PerfoKind;
use hpac_core::region::ApproxRegion;
use hpac_harness::runner;
use hpac_harness::space::Scale;
use hpac_tuner::json::Json;
use hpac_tuner::{
    device_fingerprint, ParetoFrontier, ParetoPoint, QualityBound, Tuner, TuningCache,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Seconds `f` takes per call, from `reps` back-to-back calls.
fn per_call(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / f64::from(reps)
}

/// Median seconds of `reps` individually timed calls.
fn median_call(reps: u32, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&secs)
}

const WALK_ITEMS: usize = 1 << 14;

/// The synthetic body of `crates/bench/benches/walk.rs` (copied, not
/// imported): plateau-structured input, a body cheap enough that the walk
/// itself — slice assembly, voting, cost charging — dominates.
struct WalkBody {
    input: Vec<f64>,
    output: Vec<f64>,
}

impl WalkBody {
    fn new() -> Self {
        WalkBody {
            input: (0..WALK_ITEMS)
                .map(|i| ((i >> 6) as f64) + 0.25 * ((i % 3) as f64))
                .collect(),
            output: vec![0.0; WALK_ITEMS],
        }
    }
}

impl RegionBody for WalkBody {
    fn in_dim(&self) -> usize {
        1
    }

    fn out_dim(&self) -> usize {
        1
    }

    fn inputs(&self, i: usize, buf: &mut [f64]) {
        buf[0] = self.input[i];
    }

    fn compute(&self, i: usize, out: &mut [f64]) {
        let x = self.input[i];
        out[0] = (x + 1.0).sqrt() + (x + 2.0).ln();
    }

    fn store(&mut self, i: usize, out: &[f64]) {
        self.output[i] = out[0];
    }

    fn accurate_cost(&self, lanes: u32, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new()
            .flops(20.0)
            .sfu(2.0)
            .global_read(lanes, 8, AccessPattern::Coalesced)
            .global_write(lanes, 8, AccessPattern::Coalesced)
    }
}

/// One cooperative block per task, a few flops each: what is left is the
/// block-task pipeline's own cost.
struct TaskBody {
    output: Vec<f64>,
}

impl BlockTaskBody for TaskBody {
    fn out_dim(&self) -> usize {
        1
    }

    fn compute(&self, task: usize, out: &mut [f64]) {
        out[0] = (task as f64 + 1.0).sqrt();
    }

    fn store(&mut self, task: usize, out: &[f64]) {
        self.output[task] = out[0];
    }

    fn task_cost_per_warp(&self, _spec: &DeviceSpec) -> CostProfile {
        CostProfile::new().flops(20.0)
    }
}

fn gpu_sim(spec: &DeviceSpec, out: &mut LayerMetrics) {
    const CHARGES: u32 = 1_000_000;
    const WARPS: usize = 8;
    let cost = CostProfile::new()
        .flops(20.0)
        .sfu(2.0)
        .global_read(spec.warp_size, 8, AccessPattern::Coalesced)
        .precompose(&spec.costs);
    let mut acc = BlockAccumulator::new(WARPS, spec.costs);
    let mut warp = 0u32;
    let secs = per_call(CHARGES, || {
        acc.charge_precomposed(warp, black_box(&cost));
        warp = (warp + 1) % WARPS as u32;
    });
    black_box(acc.stats());
    out.set("gpu-sim.charge_ns", secs * 1e9);

    // What every launch pays whatever it computes: validate and allocate,
    // fold 64 blocks, run the SM scheduling model.
    const BLOCKS: u32 = 64;
    let launch = LaunchConfig::one_item_per_thread(BLOCKS as usize * 256, 256);
    let block = BlockAccumulator::new(launch.warps_per_block(spec) as usize, spec.costs);
    let secs = per_call(2_000, || {
        let mut exec = KernelExec::new(spec, &launch, 0).expect("valid launch");
        for b in 0..BLOCKS {
            exec.merge_block(b, &block);
        }
        black_box(exec.finish());
    });
    out.set("gpu-sim.launch_fixed_us", secs * 1e6);
}

fn core(spec: &DeviceSpec, out: &mut LayerMetrics) {
    let launch = LaunchConfig::one_item_per_thread(WALK_ITEMS, 256);
    let opts = ExecOptions::default();
    let serialized = ExecOptions {
        serialized_taf: true,
        ..opts
    };
    let cases: [(&str, Option<ApproxRegion>, &ExecOptions); 5] = [
        ("accurate", None, &opts),
        (
            "perfo",
            Some(ApproxRegion::perfo(PerfoKind::Large { m: 8 })),
            &opts,
        ),
        ("taf", Some(ApproxRegion::memo_out(2, 64, 0.5)), &opts),
        (
            "taf_serialized",
            Some(ApproxRegion::memo_out(2, 64, 0.5)),
            &serialized,
        ),
        (
            "iact",
            Some(ApproxRegion::memo_in(4, 0.5).tables_per_warp(16)),
            &opts,
        ),
    ];
    for (name, region, o) in &cases {
        let mut body = WalkBody::new();
        let mut steps = 0;
        let secs = per_call(50, || {
            let rec = approx_parallel_for_opts(spec, &launch, region.as_ref(), &mut body, o)
                .expect("walk case runs");
            steps = rec.stats.warp_steps;
        });
        out.set(
            &format!("core.walk_ns_per_step.{name}"),
            secs * 1e9 / steps as f64,
        );
    }

    let mut tasks = TaskBody {
        output: vec![0.0; 256],
    };
    let secs = per_call(200, || {
        black_box(
            approx_block_tasks_opts(spec, 256, 128, 64, None, &mut tasks, &opts)
                .expect("block tasks run"),
        );
    });
    out.set("core.block_tasks_us", secs * 1e6);

    let width = engine().default_width();
    let secs = per_call(2_000, || {
        black_box(engine().run(64, width, |i| i));
    });
    out.set("core.engine_handoff_us", secs * 1e6);
    let secs = per_call(1_000, || {
        black_box(engine().run_phases(&[13; 5], width, |p, j| p + j));
    });
    out.set("core.engine_phases_us", secs * 1e6);
}

fn apps(seed: u64, spec: &DeviceSpec, out: &mut LayerMetrics) {
    let opts = ExecOptions::default();
    for app in suite::suite(seed) {
        let bench = app.bench.as_ref();
        let lp = runner::select_baseline(bench, spec).lp;
        let secs = median_call(5, || {
            black_box(
                bench
                    .run_opts(spec, None, &lp, &opts)
                    .expect("accurate run"),
            );
        });
        out.set_app("apps.accurate_run_ms", app.key, secs * 1e3);
    }

    const PROBES: u32 = 1_000_000;
    const ITEMS: usize = 4096;
    let memo = ComputeMemo::identity(ITEMS, 1);
    let mut slot = [0.0];
    for i in 0..ITEMS {
        memo.get_or(i, &mut slot, |o| o[0] = i as f64);
    }
    let mut i = 0;
    let secs = per_call(PROBES, || {
        memo.get_or(i, &mut slot, |_| unreachable!("every class is filled"));
        black_box(slot[0]);
        i = (i + 1) % ITEMS;
    });
    out.set("apps.compute_memo_hit_ns", secs * 1e9);

    let store = EvalMemo::new();
    let key = eval_key("benchmark", &[1, 2, 3]);
    store.get_or_build(&key, || ComputeMemo::identity(16, 1));
    let secs = per_call(PROBES, || {
        black_box(store.get_or_build(black_box(&key), || unreachable!("the key is resident")));
    });
    out.set("apps.eval_memo_hit_ns", secs * 1e9);
}

fn tuner(seed: u64, spec: &DeviceSpec, scratch: &Path, out: &mut LayerMetrics) {
    const INSERTS: usize = 10_000;
    let mut rng = suite::Rng::new(seed);
    let points: Vec<ParetoPoint> = (0..INSERTS)
        .map(|i| ParetoPoint {
            speedup: 0.5 + rng.below(1 << 20) as f64 / (1 << 18) as f64,
            error_pct: rng.below(1 << 20) as f64 / (1 << 14) as f64,
            technique: "TAF".to_string(),
            config: format!("synthetic {i}"),
            items_per_thread: 8,
            region: None,
            lp: None,
        })
        .collect();
    let mut frontier = ParetoFrontier::new();
    let t = Instant::now();
    for p in points {
        black_box(frontier.insert(p));
    }
    out.set(
        "tuner.pareto_insert_ns",
        t.elapsed().as_secs_f64() * 1e9 / INSERTS as f64,
    );

    // A real entry: Binomial Options' quick search is the cheapest one that
    // leaves a frontier of several points behind.
    let apps = suite::pick(seed, &["binomial"]);
    let plan = Tuner::new().with_scale(Scale::Quick).search_plan(
        apps[0].bench.as_ref(),
        spec,
        QualityBound::percent(5.0),
        &[],
    );
    let fingerprint = device_fingerprint(spec);
    let cache = TuningCache::new(scratch.join("micro-cache"));
    let entry = |i: usize| {
        let mut p = plan.clone();
        p.bound_pct = 1.0 + i as f64 * 0.25;
        p
    };
    let mut stores = Vec::new();
    let mut fill = |range: std::ops::Range<usize>| {
        for i in range {
            let p = entry(i);
            let t = Instant::now();
            cache.store(&p, fingerprint).expect("store a cache entry");
            stores.push(t.elapsed().as_secs_f64());
        }
    };
    fill(0..8);
    let load = |i: usize| {
        cache
            .load(
                &plan.benchmark,
                &plan.device,
                entry(i).bound_pct,
                fingerprint,
            )
            .expect("entry loads back")
    };
    let mut i = 0;
    let secs = median_call(400, || {
        black_box(load(i % 8));
        i += 1;
    });
    out.set("tuner.cache_load_us", secs * 1e6);
    let neighbors = || cache.neighbors(&plan.benchmark, &plan.device, fingerprint);
    assert_eq!(neighbors().len(), 8);
    let secs = median_call(50, || {
        black_box(neighbors());
    });
    out.set("tuner.cache_neighbors_us.8", secs * 1e6);
    fill(8..64);
    let secs = median_call(20, || {
        black_box(neighbors());
    });
    out.set("tuner.cache_neighbors_us.64", secs * 1e6);
    out.set("tuner.cache_store_us", stats::median(&stores) * 1e6);

    let path = cache
        .store(&entry(0), fingerprint)
        .expect("store a cache entry");
    let text = std::fs::read_to_string(path).expect("read the entry back");
    out.set("tuner.entry_bytes", text.len() as f64);
    let secs = median_call(200, || {
        black_box(Json::parse(black_box(&text)).expect("entry parses"));
    });
    out.set("tuner.json_parse_us", secs * 1e6);
    let tree = Json::parse(&text).expect("entry parses");
    let secs = median_call(200, || {
        black_box(black_box(&tree).render());
    });
    out.set("tuner.json_render_us", secs * 1e6);
}

fn obs(out: &mut LayerMetrics) {
    const SPANS: u32 = 10_000_000;
    assert!(!hpac_obs::enabled(), "the layer pass runs untraced");
    let secs = per_call(SPANS, || {
        black_box(hpac_obs::span(
            hpac_obs::SpanId::KernelWalk,
            black_box(1),
            2,
        ));
    });
    out.set("obs.disabled_span_ns", secs * 1e9);
}

pub fn micro_pass(seed: u64, scratch: &Path, out: &mut LayerMetrics) {
    let spec = DeviceSpec::v100();
    gpu_sim(&spec, out);
    core(&spec, out);
    apps(seed, &spec, out);
    tuner(seed, &spec, scratch, out);
    obs(out);
}
