//! Autotuning quickstart: submit a typed request to the tuning service for
//! the fastest Blackscholes configuration with at most 5% error on a V100,
//! inspect the Pareto frontier it discovered, re-execute the plan, and
//! watch a repeat request hit the persistent cache and a neighboring bound
//! warm-start from it.
//!
//! Run with: `cargo run --release --example autotune`

use gpu_sim::DeviceSpec;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::service::{TuneRequest, TuningService};
use hpac_offload::tuner::{QualityBound, TuningCache};

fn main() {
    let bench = Blackscholes::default();
    let device = DeviceSpec::v100();
    let service = TuningService::new().with_cache(TuningCache::new(TuningCache::default_dir()));
    let bound = QualityBound::percent(5.0);

    // First request: adaptive search over the Table 2 grids (or a cache
    // hit, if you have run this example before — delete the cache dir to
    // watch the search again).
    let resp = service.submit(TuneRequest::new(&bench, &device, bound));
    let plan = &resp.plan;
    println!(
        "tuned {} on {}: {} [{}] -> {:.2}x speedup at {:.3}% error",
        plan.benchmark,
        plan.device,
        plan.technique,
        plan.config,
        plan.predicted_speedup,
        plan.measured_error_pct,
    );
    println!(
        "source: {:?}, {} fresh evaluations of {} configurations, {:.2} ms in submit",
        resp.source,
        resp.evals_spent,
        plan.full_space,
        resp.wall_ns as f64 / 1e6,
    );

    println!("\nPareto frontier (error% -> speedup):");
    for p in plan.frontier.points() {
        println!(
            "  {:>8.3}% -> {:>5.2}x  {} [{}]",
            p.error_pct, p.speedup, p.technique, p.config
        );
    }

    // The plan re-executes through the apps layer.
    let row = plan.execute(&bench, &device).expect("plan executes");
    println!(
        "\nre-executed: {:.2}x speedup at {:.3}% error ({:.3} ms end-to-end)",
        row.speedup,
        row.error_pct,
        row.end_to_end_seconds * 1e3,
    );

    // Second request: served from the persistent cache, zero evaluations.
    let warm = service.submit(TuneRequest::new(&bench, &device, bound));
    println!(
        "\nsecond request: source {:?}, {} evaluations (config {})",
        warm.source, warm.evals_spent, warm.plan.config
    );

    // A different bound on the same (benchmark, device) warm-starts from
    // the cached frontier instead of searching cold: the stored frontier
    // already names the winner under 2%, one run confirms its numbers.
    let neighbor = service.submit(TuneRequest::new(
        &bench,
        &device,
        QualityBound::percent(2.0),
    ));
    println!(
        "2% bound: source {:?}, {} evaluations ({}) -> {:.2}x at {:.3}% error",
        neighbor.source,
        neighbor.evals_spent,
        if neighbor.plan.verified_seed {
            "stored winner verified"
        } else {
            "re-measured"
        },
        neighbor.plan.predicted_speedup,
        neighbor.plan.measured_error_pct,
    );
}
