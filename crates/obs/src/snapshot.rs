//! Point-in-time metrics: aggregated counters plus per-worker attribution,
//! with delta arithmetic and a human-readable summary table.

use crate::event::{CounterId, N_COUNTERS};
use crate::ring::all_rings;

/// Per-worker counter values at snapshot time.
#[derive(Clone, Debug)]
pub struct WorkerMetrics {
    /// Ring registration index; stable for the process lifetime. Threads
    /// that exit hand their ring on, so one index can cover several
    /// threads of one kind in turn.
    pub worker: u32,
    /// True for engine helper threads (`hpac-pool-*`).
    pub pool_worker: bool,
    /// Events recorded on this ring so far.
    pub events: u64,
    /// Events dropped from a full ring before any drain took them.
    pub dropped: u64,
    counters: Vec<u64>,
}

impl WorkerMetrics {
    pub fn counter(&self, c: CounterId) -> u64 {
        self.counters[c as usize]
    }

    /// Nanoseconds this worker spent doing attributable work: engine tasks
    /// for engine helpers, config evaluations for submitter threads (whose
    /// own batch participation is already inside the eval wall-clock).
    pub fn busy_ns(&self) -> u64 {
        if self.pool_worker {
            self.counter(CounterId::EngineBusyNs)
        } else {
            self.counter(CounterId::ConfigEvalNs)
                .max(self.counter(CounterId::EngineBusyNs))
        }
    }
}

/// Aggregated + per-worker counter values at a point in time.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the trace epoch when this snapshot was taken.
    pub taken_ns: u64,
    totals: Vec<u64>,
    pub workers: Vec<WorkerMetrics>,
}

/// Capture current counter values across all registered rings. Counter
/// reads are relaxed: values are monotone and may trail in-flight
/// increments by a few counts, which delta arithmetic tolerates.
pub fn snapshot() -> MetricsSnapshot {
    let mut totals = vec![0u64; N_COUNTERS];
    let mut workers = Vec::new();
    for r in all_rings() {
        let counters: Vec<u64> = CounterId::ALL.iter().map(|&c| r.counter(c)).collect();
        for (t, v) in totals.iter_mut().zip(&counters) {
            *t += v;
        }
        let (events, dropped) = r.totals();
        workers.push(WorkerMetrics {
            worker: r.worker,
            pool_worker: r.pool_worker,
            events,
            dropped,
            counters,
        });
    }
    MetricsSnapshot {
        taken_ns: crate::now_ns(),
        totals,
        workers,
    }
}

fn rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

impl MetricsSnapshot {
    pub fn counter(&self, c: CounterId) -> u64 {
        self.totals[c as usize]
    }

    /// Counters accumulated since `earlier` (saturating; workers registered
    /// after `earlier` contribute their full value).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut totals = self.totals.clone();
        for (t, e) in totals.iter_mut().zip(&earlier.totals) {
            *t = t.saturating_sub(*e);
        }
        let workers = self
            .workers
            .iter()
            .map(|w| {
                let base = earlier.workers.iter().find(|e| e.worker == w.worker);
                let counters = w
                    .counters
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v.saturating_sub(base.map_or(0, |b| b.counters[i])))
                    .collect();
                WorkerMetrics {
                    worker: w.worker,
                    pool_worker: w.pool_worker,
                    events: w.events.saturating_sub(base.map_or(0, |b| b.events)),
                    dropped: w.dropped.saturating_sub(base.map_or(0, |b| b.dropped)),
                    counters,
                }
            })
            .collect();
        MetricsSnapshot {
            taken_ns: self.taken_ns,
            totals,
            workers,
        }
    }

    /// `MixMemo` hit rate, or `None` if no lookups happened.
    pub fn mix_memo_hit_rate(&self) -> Option<f64> {
        rate(
            self.counter(CounterId::MixMemoHits),
            self.counter(CounterId::MixMemoMisses),
        )
    }

    /// `ComputeMemo` hit rate, or `None` if no lookups happened — as in
    /// every app run, since apps read accurate outputs from their prepared
    /// inputs; the repo benchmark still reports it.
    pub fn compute_memo_hit_rate(&self) -> Option<f64> {
        rate(
            self.counter(CounterId::ComputeMemoHits),
            self.counter(CounterId::ComputeMemoMisses),
        )
    }

    /// Tuner persistent-cache hit rate, or `None` if no requests happened.
    pub fn tuner_cache_hit_rate(&self) -> Option<f64> {
        rate(
            self.counter(CounterId::TunerCacheHits),
            self.counter(CounterId::TunerCacheMisses),
        )
    }

    /// Sweep-scoped `EvalMemo` hit rate, or `None` if no lookups happened.
    pub fn eval_memo_hit_rate(&self) -> Option<f64> {
        rate(
            self.counter(CounterId::EvalMemoHits),
            self.counter(CounterId::EvalMemoMisses),
        )
    }

    /// Retired score-cache hit rate over the retired
    /// [`CounterId::QualityCacheHits`]: `Some(0.0)` once any config was
    /// scored, `None` before. Kept because the benchmark driver reads it;
    /// [`MetricsSnapshot::render_table`] leaves it out.
    pub fn quality_cache_hit_rate(&self) -> Option<f64> {
        rate(
            self.counter(CounterId::QualityCacheHits),
            self.counter(CounterId::ConfigsEvaluated)
                .saturating_sub(self.counter(CounterId::QualityCacheHits)),
        )
    }

    /// Total attributable busy nanoseconds across workers.
    pub fn busy_ns_total(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns()).sum()
    }

    /// Fraction of `width` workers kept busy over `wall_ns` of wall-clock,
    /// clamped to 1.0 (attribution overlaps when a submitter also executes
    /// pool tasks).
    pub fn utilization(&self, wall_ns: u64, width: usize) -> f64 {
        if wall_ns == 0 || width == 0 {
            return 0.0;
        }
        (self.busy_ns_total() as f64 / (wall_ns as f64 * width as f64)).min(1.0)
    }

    /// Human-readable summary: non-zero counters plus one row per worker.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<24} {:>16}", "metric", "value");
        for &c in CounterId::ALL.iter() {
            let v = self.counter(c);
            if v > 0 {
                let _ = writeln!(out, "{:<24} {:>16}", c.name(), v);
            }
        }
        for (label, r) in [
            ("mix_memo_hit_rate", self.mix_memo_hit_rate()),
            ("compute_memo_hit_rate", self.compute_memo_hit_rate()),
            ("tuner_cache_hit_rate", self.tuner_cache_hit_rate()),
            ("eval_memo_hit_rate", self.eval_memo_hit_rate()),
        ] {
            if let Some(r) = r {
                let _ = writeln!(out, "{:<24} {:>15.1}%", label, r * 100.0);
            }
        }
        if !self.workers.is_empty() {
            let _ = writeln!(
                out,
                "{:<8} {:>6} {:>10} {:>14} {:>10} {:>8}",
                "worker", "pool", "tasks", "busy_ms", "events", "dropped"
            );
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "{:<8} {:>6} {:>10} {:>14.3} {:>10} {:>8}",
                    w.worker,
                    if w.pool_worker { "yes" } else { "no" },
                    w.counter(CounterId::EngineTasks),
                    w.busy_ns() as f64 / 1e6,
                    w.events,
                    w.dropped
                );
            }
        }
        out
    }
}
