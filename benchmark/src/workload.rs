//! The protocol every workload follows, and the two kinds of run built on
//! it: the end-to-end run (`--trace 0`: set-up several times, timed rounds,
//! checks) and the traced run (`--trace 1`: a few untraced rounds, the layer
//! pass, one traced round).

use crate::names::LayerMetrics;
use crate::spans::SpanLog;
use crate::stats;
use hpac_obs::CounterId as C;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed rounds a run reports a median over.
const MIN_ROUNDS: usize = 3;

/// What one round of a workload did. Every round of a workload does
/// identical work, so everything here but `seconds` and `lat_ns` repeats.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Wall time of the round's timed section.
    pub seconds: f64,
    /// Configurations (sweeps) or requests (tune, serve) answered.
    pub ops: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// Per-op latency where ops are timed one by one and are alike enough
    /// for a pooled median to mean something (the serving workloads).
    pub lat_ns: Vec<u64>,
    /// Seconds per application, in order (sweeps).
    pub parts: Vec<(&'static str, f64)>,
    /// Natural-log sum and count of the modeled speedups behind
    /// `modeled_speedup_geomean`.
    pub ln_speedup_sum: f64,
    pub speedups: u64,
    /// Fresh evaluations the answers cost (`TuneResponse::evals_spent`).
    pub evals: u64,
    /// Answers that ran a search, and the budget share they used, summed.
    pub searched: u64,
    pub budget_frac_sum: f64,
    /// Digest of everything modeled the round produced.
    pub digest: u64,
}

pub trait Workload {
    /// One round. With a log, the round records a span around each call it
    /// makes into a layer.
    fn round(&mut self, log: Option<&mut SpanLog>) -> Round;

    /// Untimed end-of-run checks; returns `(checked, failed)`.
    fn verify(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// The workload's own part of the layer pass. `untraced` are the rounds
    /// the traced run timed with tracing off. Returns the ops that failed a
    /// check made along the way.
    fn layer_pass(&mut self, untraced: &[Round], log: &mut SpanLog, out: &mut LayerMetrics) -> u64;

    /// Per-layer values, and tables, that come from the traced round itself.
    fn traced_metrics(&mut self, _traced: &Round, _out: &mut LayerMetrics) {}
}

/// Builds a workload: inputs from the seed, caches under `scratch`, and one
/// untimed warm-up round. All of it is set-up time.
pub type SetUp = fn(u64, &Path) -> Box<dyn Workload>;

/// The scratch directory of this process, removed when the value drops.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let dir = crate::manifest::package_dir()
            .join("target")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Result of a run in the shape the contract's last line needs.
#[derive(Debug)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(String, f64)>,
    /// Digest of the modeled results, identical for every round.
    pub digest: u64,
}

fn rounds_for(w: &mut dyn Workload, seconds: f64) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut measured = 0.0;
    while rounds.len() < MIN_ROUNDS || measured < seconds {
        let r = w.round(None);
        measured += r.seconds;
        rounds.push(r);
    }
    rounds
}

fn round_seconds(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().map(|r| r.seconds).collect()
}

/// Every timed op's latency in µs, pooled over the rounds.
pub fn pooled_lat_us(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.lat_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect()
}

/// Median op latency in µs: pooled over rounds where ops are timed one by
/// one; otherwise the median over rounds of round time ÷ ops.
fn lat_p50_us(rounds: &[Round]) -> f64 {
    let pooled = pooled_lat_us(rounds);
    if pooled.is_empty() {
        let per_op: Vec<f64> = rounds
            .iter()
            .map(|r| r.seconds * 1e6 / r.ops.max(1) as f64)
            .collect();
        stats::median(&per_op)
    } else {
        stats::median(&pooled)
    }
}

/// A round whose modeled results differ from the first round's is
/// nondeterminism: all its ops count as failed.
fn count_failures(rounds: &[Round]) -> (u64, u64) {
    let reference = rounds[0].digest;
    let attempted = rounds.iter().map(|r| r.ops).sum();
    let failed = rounds
        .iter()
        .map(|r| {
            if r.digest == reference {
                r.failed
            } else {
                r.ops
            }
        })
        .sum();
    (attempted, failed)
}

/// `--trace 0`: every end-to-end metric.
pub fn run_end_to_end(set_up: SetUp, seed: u64, seconds: f64) -> std::io::Result<RunOutput> {
    let scratch = Scratch::new()?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous instance first: its caches must not help the
        // next set-up, and its memory must not add to the peak.
        drop(workload.take());
        let dir = scratch.path().join(format!("setup-{rep}"));
        let t = Instant::now();
        workload = Some(set_up(seed, &dir));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUP_REPS > 0");

    let rounds = rounds_for(w.as_mut(), seconds);
    let peak_rss_mb = peak_rss_mb();
    let (attempted, failed) = count_failures(&rounds);
    let (checked, check_failed) = w.verify();
    let last = rounds.last().expect("MIN_ROUNDS > 0");

    let metrics = vec![
        ("setup_s".to_string(), stats::median(&setups)),
        (
            "round_s".to_string(),
            stats::median(&round_seconds(&rounds)),
        ),
        ("lat_p50_us".to_string(), lat_p50_us(&rounds)),
        (
            "modeled_speedup_geomean".to_string(),
            stats::geomean_from_ln(last.ln_speedup_sum, last.speedups),
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb),
    ];
    let (q1, q2, q3) = stats::quartiles(&round_seconds(&rounds));
    println!(
        "rounds: {}  round_s q1/median/q3: {q1:.4}/{q2:.4}/{q3:.4}  set-ups: {setups:.3?}",
        rounds.len()
    );
    Ok(RunOutput {
        attempted: attempted + checked,
        failed: failed + check_failed,
        rounds: rounds.len(),
        metrics,
        digest: rounds[0].digest,
    })
}

/// Drain the obs rings on the side while `f` runs, so a traced round never
/// wraps one; returns `f`'s result and the events drained.
fn with_obs_drained<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let drainer = s.spawn(|| {
            let mut events = 0u64;
            while !done.load(Ordering::Acquire) {
                events += hpac_obs::drain_events().len() as u64;
                std::thread::sleep(Duration::from_millis(5));
            }
            events + hpac_obs::drain_events().len() as u64
        });
        let r = f();
        done.store(true, Ordering::Release);
        (r, drainer.join().expect("obs drainer panicked"))
    })
}

/// `--trace 1`: every per-layer metric, the attribution table, and the
/// Chrome trace of the driver's spans.
pub fn run_traced(
    name: &str,
    set_up: SetUp,
    seed: u64,
    seconds: f64,
) -> std::io::Result<RunOutput> {
    let scratch = Scratch::new()?;
    let mut w = set_up(seed, &scratch.path().join("setup-0"));
    let mut out = LayerMetrics::default();
    let width = hpac_core::exec::engine().default_width();

    // Untraced rounds: the reference for tracing overhead, throughput and
    // CPU use. A third of the run's budget; the rest goes to the layer pass.
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let untraced = rounds_for(w.as_mut(), seconds / 3.0);
    let wall = t0.elapsed().as_secs_f64();
    out.set(
        "proc.cpu_util",
        (cpu_seconds() - cpu0) / (wall * width as f64),
    );
    let round_s = stats::median(&round_seconds(&untraced));
    let (attempted, failed) = count_failures(&untraced);

    let mut log = SpanLog::new();
    crate::layers::micro_pass(seed, scratch.path(), &mut out);
    let layer_failed = w.layer_pass(&untraced, &mut log, &mut out);

    // The traced round: obs gate on, driver spans on.
    hpac_obs::set_enabled(true);
    let _ = hpac_obs::drain_events();
    let before = hpac_obs::snapshot();
    let (traced, events) = with_obs_drained(|| w.round(Some(&mut log)));
    let obs = hpac_obs::snapshot().delta_since(&before);
    hpac_obs::set_enabled(false);
    w.traced_metrics(&traced, &mut out);

    let wall_ns = (traced.seconds * 1e9) as u64;
    out.set("gpu-sim.warp_steps", obs.counter(C::WarpSteps) as f64);
    out.set(
        "gpu-sim.kernel_launches",
        obs.counter(C::KernelLaunches) as f64,
    );
    out.set("gpu-sim.global_txns", obs.counter(C::GlobalTxns) as f64);
    out.set(
        "gpu-sim.warp_steps_per_s",
        obs.counter(C::WarpSteps) as f64 / round_s,
    );
    out.set("core.engine_util", obs.utilization(wall_ns, width));
    out.set(
        "core.engine_barrier_wait_frac",
        stats::ratio(obs.counter(C::EngineBarrierWaitNs), wall_ns * width as u64),
    );
    out.set(
        "core.mix_memo_hit_rate",
        obs.mix_memo_hit_rate().unwrap_or(0.0),
    );
    let lanes =
        obs.counter(C::ApproxLanes) + obs.counter(C::AccurateLanes) + obs.counter(C::SkippedLanes);
    out.set(
        "core.approx_lane_frac",
        stats::ratio(
            obs.counter(C::ApproxLanes) + obs.counter(C::SkippedLanes),
            lanes,
        ),
    );
    out.set(
        "core.divergent_step_frac",
        stats::ratio(obs.counter(C::DivergentSteps), obs.counter(C::WarpSteps)),
    );
    out.set(
        "apps.compute_memo_hit_rate",
        obs.compute_memo_hit_rate().unwrap_or(0.0),
    );
    out.set(
        "apps.eval_memo_hit_rate",
        obs.eval_memo_hit_rate().unwrap_or(0.0),
    );
    out.set(
        "harness.quality_cache_hit_rate",
        obs.quality_cache_hit_rate().unwrap_or(0.0),
    );
    out.set(
        "harness.configs_deduped",
        obs.counter(C::ConfigsDeduped) as f64,
    );
    out.set(
        "harness.configs_rejected",
        obs.counter(C::ConfigsRejected) as f64,
    );
    out.set("harness.early_aborts", obs.counter(C::EarlyAborts) as f64);
    out.set(
        "tuner.evals_skipped_frac",
        stats::ratio(
            obs.counter(C::TunerEvalsSkipped),
            obs.counter(C::TunerEvals) + obs.counter(C::TunerEvalsSkipped),
        ),
    );
    out.set(
        "tuner.evals_per_request",
        stats::ratio(traced.evals, traced.ops),
    );
    out.set(
        "tuner.budget_frac_used",
        if traced.searched == 0 {
            0.0
        } else {
            traced.budget_frac_sum / traced.searched as f64
        },
    );
    out.set("obs.trace_overhead_frac", traced.seconds / round_s - 1.0);
    out.set("obs.events", events as f64);
    out.set(
        "obs.dropped_events",
        obs.workers.iter().map(|w| w.dropped).sum::<u64>() as f64,
    );

    let trace_path = crate::manifest::package_dir()
        .join("target")
        .join(format!("trace-{name}.json"));
    std::fs::write(&trace_path, log.chrome_trace())?;
    println!("wrote {} ({} spans)", trace_path.display(), log.spans.len());
    crate::report::print_attribution(&log, &out);

    let dropped = out.get("obs.dropped_events") as u64;
    let digest_moved = traced.digest != untraced[0].digest;
    Ok(RunOutput {
        attempted: attempted + traced.ops,
        // Dropped obs events make the traced counts wrong, and a traced
        // round that models something else than the untraced ones is
        // nondeterminism: either fails the run.
        failed: failed
            + layer_failed
            + if digest_moved {
                traced.ops
            } else {
                traced.failed
            }
            + dropped.min(1),
        rounds: untraced.len(),
        metrics: crate::names::PER_LAYER
            .iter()
            .map(|n| (n.to_string(), out.get(n)))
            .collect(),
        digest: untraced[0].digest,
    })
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is not there.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process, all threads. `/proc`
/// counts them in clock ticks, 100 a second on every Linux this runs on.
fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 12th and 13th of those.
            let rest = s.rsplit_once(')')?.1.to_string();
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(seconds: f64, ops: u64, lat_ns: &[u64], digest: u64) -> Round {
        Round {
            seconds,
            ops,
            lat_ns: lat_ns.to_vec(),
            digest,
            ..Round::default()
        }
    }

    #[test]
    fn lat_p50_pools_timed_ops_or_falls_back_to_round_over_ops() {
        let timed = [
            round(1.0, 3, &[1000, 2000, 9000], 1),
            round(1.0, 2, &[3000, 4000], 1),
        ];
        assert_eq!(lat_p50_us(&timed), 3.0);
        let untimed = [
            round(1.0, 100, &[], 1),
            round(2.0, 100, &[], 1),
            round(4.0, 100, &[], 1),
        ];
        assert_eq!(lat_p50_us(&untimed), 20_000.0);
    }

    #[test]
    fn a_round_with_another_digest_fails_all_its_ops() {
        let mut rounds = vec![round(1.0, 10, &[], 7), round(1.0, 10, &[], 7)];
        rounds[1].failed = 2;
        assert_eq!(count_failures(&rounds), (20, 2));
        rounds.push(round(1.0, 10, &[], 8));
        assert_eq!(count_failures(&rounds), (30, 12));
    }

    #[test]
    fn proc_readers_return_something_plausible() {
        assert!(peak_rss_mb() > 0.5);
        assert!(cpu_seconds() >= 0.0);
    }
}
