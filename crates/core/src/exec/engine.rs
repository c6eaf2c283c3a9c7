//! The `ExecEngine`: the stack's host parallelism, which is over
//! *configurations*.
//!
//! The harness's configuration sweeps, the tuner's batched evaluations and
//! the service's request batches submit to this engine; a kernel launch
//! never does — its blocks walk in order on the calling thread (see
//! [`exec`](crate::exec)). The engine fronts `rayon::pool::run`: each batch
//! spawns its helper threads under a thread scope and joins them before it
//! returns. A batch holds a few configuration tasks of milliseconds each,
//! so the tens of microseconds a spawn costs are noise next to the work,
//! and nothing outlives the batch.
//!
//! Nesting is safe by construction: a task already running on the engine
//! that submits again executes the nested batch inline on its own thread.
//! One level of the stack parallelizes, every level below it serializes —
//! no oversubscription.
//!
//! # Worker-count precedence
//!
//! This is the single source of truth for how many threads work a batch
//! ([`ExecEngine::default_width`]):
//!
//! 1. the `HPAC_THREADS` environment variable — must be a non-negative
//!    integer, where `0` means "all available cores"; any other value
//!    aborts with a clear error rather than silently falling back. Values
//!    above the core count are capped to it: fanning a batch wider than
//!    the machine only adds handoff overhead, so the knob never
//!    oversubscribes;
//! 2. else every available core
//!    (`std::thread::available_parallelism()`, read once per process).
//!
//! An unset or empty `HPAC_THREADS` counts as absent. The resolved width
//! is a *cap on threads touching one batch*: a batch of `n` tasks at width
//! `w` spawns `min(n, w) - 1` helpers, since the caller works too.

use rayon::pool;
use std::sync::OnceLock;

/// Handle to the process-wide execution engine.
pub fn engine() -> &'static ExecEngine {
    static ENGINE: ExecEngine = ExecEngine { _priv: () };
    &ENGINE
}

/// The facade over the scoped batches of `rayon::pool`. Obtain it with
/// [`engine`]; there is exactly one per process.
pub struct ExecEngine {
    _priv: (),
}

impl ExecEngine {
    /// Run `n` independent tasks with at most `width` threads (including
    /// the caller, which always participates) and return the results in
    /// task-index order. Called from inside another engine task, the batch
    /// runs inline on the calling thread — the nesting depth guard.
    pub fn run<R, F>(&self, n: usize, width: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if !hpac_obs::enabled() {
            return pool::run(n, width, f);
        }
        if pool::in_task() {
            // Nested submission: runs inline inside the enclosing task, so
            // it is already inside that task's span and busy time.
            hpac_obs::inc(hpac_obs::CounterId::EngineNestedInline);
            return pool::run(n, width, f);
        }
        hpac_obs::inc(hpac_obs::CounterId::EngineBatches);
        hpac_obs::mark(
            hpac_obs::Mark::QueueDepth,
            pool::live_helpers() as u64,
            n as u64,
        );
        let _batch = hpac_obs::span(hpac_obs::SpanId::EngineBatch, n as u64, width as u64);
        pool::run(n, width, |i| {
            let t0 = hpac_obs::now_ns();
            let _task = hpac_obs::span(hpac_obs::SpanId::EngineTask, i as u64, n as u64);
            let r = f(i);
            hpac_obs::inc(hpac_obs::CounterId::EngineTasks);
            hpac_obs::add(
                hpac_obs::CounterId::EngineBusyNs,
                hpac_obs::now_ns().saturating_sub(t0),
            );
            r
        })
    }

    /// The batch width: `HPAC_THREADS` capped at the core count, else every
    /// available core (see the module docs).
    pub fn default_width(&self) -> usize {
        let cores = available_cores();
        match env_threads() {
            Some(0) | None => cores,
            Some(n) => n.min(cores),
        }
    }

    /// Run a sequence of dependent *phases* as one engine submission.
    ///
    /// Phase `p` consists of `sizes[p]` independent tasks; `f(p, j)` runs
    /// task `j` of phase `p`. Tasks of phase `p` only start after every
    /// task of every earlier phase has finished (a barrier), but the
    /// submission as a whole is one batch claiming from one task queue, so
    /// one set of helpers works every phase instead of one per phase.
    /// No library path submits phases; the repo benchmark's layer pass
    /// times this call (`core.engine_phases_us`).
    ///
    /// Deadlock-free by construction: the batch claims tasks in flat index
    /// order, so whichever thread holds the lowest unfinished index has all
    /// earlier phases complete and can always run; everyone else waits on
    /// the phase condvar. Results return per phase, in task order.
    ///
    /// A task that panics still counts as finished, so the tasks waiting on
    /// its phase are released and the submission re-raises the panic once
    /// every task has run, instead of hanging. The progress lock guards
    /// plain counters, so a poisoned one is recovered.
    pub fn run_phases<R, F>(&self, sizes: &[usize], width: usize, f: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        use std::sync::{Condvar, Mutex, PoisonError};

        /// Counts its task finished when dropped, returned or unwound.
        struct Finished<'a> {
            progress: &'a Mutex<Vec<usize>>,
            barrier: &'a Condvar,
            phase: usize,
        }
        impl Drop for Finished<'_> {
            fn drop(&mut self) {
                let mut done = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
                done[self.phase] += 1;
                drop(done);
                self.barrier.notify_all();
            }
        }

        let offsets: Vec<usize> = sizes
            .iter()
            .scan(0usize, |acc, &s| {
                let off = *acc;
                *acc += s;
                Some(off)
            })
            .collect();
        let total: usize = sizes.iter().sum();
        let progress = Mutex::new(vec![0usize; sizes.len()]);
        let barrier = Condvar::new();
        hpac_obs::add(hpac_obs::CounterId::EnginePhases, sizes.len() as u64);

        let mut flat = self
            .run(total, width, |idx| {
                let p = match offsets.binary_search(&idx) {
                    // Equal offsets from empty phases: take the last, the
                    // one whose tasks actually start at this offset.
                    Ok(mut i) => {
                        while i + 1 < offsets.len() && offsets[i + 1] == idx {
                            i += 1;
                        }
                        i
                    }
                    Err(i) => i - 1,
                };
                if p > 0 {
                    let wait_from = hpac_obs::enabled().then(hpac_obs::now_ns);
                    let mut done = progress.lock().unwrap_or_else(PoisonError::into_inner);
                    while !(0..p).all(|q| done[q] == sizes[q]) {
                        done = barrier.wait(done).unwrap_or_else(PoisonError::into_inner);
                    }
                    drop(done);
                    if let Some(t0) = wait_from {
                        hpac_obs::add(
                            hpac_obs::CounterId::EngineBarrierWaitNs,
                            hpac_obs::now_ns().saturating_sub(t0),
                        );
                    }
                }
                let _finished = Finished {
                    progress: &progress,
                    barrier: &barrier,
                    phase: p,
                };
                f(p, idx - offsets[p])
            })
            .into_iter();
        sizes
            .iter()
            .map(|&s| flat.by_ref().take(s).collect())
            .collect()
    }
}

/// Resolved once per process: `available_parallelism` reads the affinity
/// mask and the cgroup files (~12 µs), and every kernel launch asks.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

/// Parse an `HPAC_THREADS` value: a non-negative integer, `0` meaning
/// "all available cores". Empty / whitespace-only means "unset".
pub fn parse_hpac_threads(raw: &str) -> Result<Option<usize>, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    trimmed.parse::<usize>().map(Some).map_err(|_| {
        format!(
            "HPAC_THREADS must be a non-negative integer \
             (0 = all cores, N = N workers); got {trimmed:?}"
        )
    })
}

/// The validated `HPAC_THREADS` environment override. A malformed value
/// aborts with the parse error — a typo must not silently change the
/// width. Read-validate-abort behavior comes from [`crate::env::strict_var`],
/// the helper shared by every `HPAC_*` variable.
fn env_threads() -> Option<usize> {
    crate::env::strict_var("HPAC_THREADS", parse_hpac_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_counts_and_zero() {
        assert_eq!(parse_hpac_threads("0"), Ok(Some(0)));
        assert_eq!(parse_hpac_threads("1"), Ok(Some(1)));
        assert_eq!(parse_hpac_threads(" 8 "), Ok(Some(8)));
    }

    #[test]
    fn parse_treats_empty_as_unset() {
        assert_eq!(parse_hpac_threads(""), Ok(None));
        assert_eq!(parse_hpac_threads("   "), Ok(None));
    }

    #[test]
    fn parse_rejects_garbage_with_clear_error() {
        for bad in ["four", "-2", "1.5", "8x", "0x10"] {
            let err = parse_hpac_threads(bad).unwrap_err();
            assert!(
                err.contains("HPAC_THREADS") && err.contains(bad),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn engine_runs_batches_in_order() {
        let out = engine().run(100, 4, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn a_panicking_phase_task_is_reraised_and_the_engine_keeps_running() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for width in [1, 3] {
            let ran_later = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine().run_phases(&[2, 3], width, |p, j| {
                    if (p, j) == (0, 1) {
                        panic!("phase 0 task 1 dies");
                    }
                    if p == 1 {
                        ran_later.fetch_add(1, Ordering::SeqCst);
                    }
                    (p, j)
                })
            }));
            let payload = caught.expect_err("the task's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"phase 0 task 1 dies"));
            // Fanned out, the later phase was released rather than left
            // waiting; inline, the panic ends the submission on the spot.
            let later = if width == 1 { 0 } else { 3 };
            assert_eq!(ran_later.load(Ordering::SeqCst), later);
            assert_eq!(
                engine().run_phases(&[1, 2], width, |p, j| p + j),
                [vec![0], vec![1, 2]]
            );
            assert_eq!(engine().run(4, width, |i| i), [0, 1, 2, 3]);
        }
    }

    #[test]
    fn run_phases_barriers_between_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        let sizes = [3usize, 0, 5, 1];
        let out = engine().run_phases(&sizes, 4, |p, j| {
            let before: usize = sizes[..p].iter().sum();
            assert!(
                finished.load(Ordering::SeqCst) >= before,
                "phase {p} task {j} started before earlier phases finished"
            );
            finished.fetch_add(1, Ordering::SeqCst);
            (p, j)
        });
        assert_eq!(out.len(), sizes.len());
        for (p, phase) in out.iter().enumerate() {
            assert_eq!(phase.len(), sizes[p]);
            for (j, v) in phase.iter().enumerate() {
                assert_eq!(*v, (p, j));
            }
        }
    }
}
