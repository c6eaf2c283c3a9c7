//! Scoped batches: run `n` independent tasks on the calling thread plus
//! helper threads spawned for this batch alone.
//!
//! A batch is a set of `n` tasks over indices `0..n`:
//!
//! * [`run`] spawns `width - 1` named helpers (`hpac-pool-{k}`) under
//!   [`std::thread::scope`], so tasks may borrow the caller's stack, and
//!   joins each one before it returns;
//! * tasks are claimed one index at a time from a shared atomic cursor, so
//!   load balances across threads regardless of per-task cost;
//! * the calling thread participates, so a width of 1 (a 1-core host)
//!   degrades to plain inline execution with no thread spawned at all;
//! * results land in per-index slots and are returned in index order —
//!   scheduling can never reorder observable output;
//! * a panicking task is caught, the rest of the batch completes (other
//!   tasks may borrow the same environment), and the first payload then
//!   resumes on the calling thread;
//! * submission from *inside* a task runs inline on that thread — the
//!   depth guard that lets nested submissions run without oversubscribing
//!   the host.
//!
//! Helpers are joined explicitly rather than by the scope's implicit join:
//! that one returns before a helper's thread-local destructors have run,
//! so the next batch's helpers would start while the old ones still hold
//! their per-thread allocator arenas and trace rings.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Whether this thread is currently executing a batch task (helper or
    /// participating caller) — the nested-submission depth guard.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Helper threads alive across every batch in the process.
static LIVE_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Is the current thread inside a batch task? Nested [`run`] calls check
/// this and execute inline.
pub fn in_task() -> bool {
    IN_TASK.with(Cell::get)
}

/// Helper threads currently alive, summed over every batch in flight — the
/// queue-pressure signal a submitter sees. Racy by nature; callers use it
/// for observability, not scheduling.
pub fn live_helpers() -> usize {
    LIVE_HELPERS.load(Ordering::Relaxed)
}

/// Run `n` independent tasks with at most `width` threads working on them
/// (including the calling thread) and return the results in index order.
///
/// `width <= 1`, empty batches, and calls from inside a task all execute
/// inline on the caller, in index order.
pub fn run<R, F>(n: usize, width: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = width.min(n);
    if width <= 1 || in_task() {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panic = Mutex::new(None);
    let work = || {
        let prev = IN_TASK.replace(true);
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // Tasks run outside both locks, so a panicking task cannot
            // poison them.
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(r) => *slots[i].lock().expect("result slot poisoned") = Some(r),
                Err(payload) => {
                    panic
                        .lock()
                        .expect("panic slot poisoned")
                        .get_or_insert(payload);
                }
            }
        }
        IN_TASK.set(prev);
    };

    let helpers = width - 1;
    LIVE_HELPERS.fetch_add(helpers, Ordering::Relaxed);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..width)
            .map(|k| {
                std::thread::Builder::new()
                    .name(format!("hpac-pool-{k}"))
                    .spawn_scoped(s, work)
                    .expect("spawn pool helper")
            })
            .collect();
        work();
        for h in handles {
            // Every task runs under `catch_unwind`, so a helper never
            // unwinds; the join waits for its thread-local destructors.
            h.join().expect("pool helper panicked outside a task");
        }
    });
    LIVE_HELPERS.fetch_sub(helpers, Ordering::Relaxed);

    if let Some(payload) = panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("pool task finished without storing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn results_in_index_order() {
        let out = run(1000, 4, |i| i * 3);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn width_one_is_inline() {
        let caller = std::thread::current().id();
        let out = run(100, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn helpers_are_joined_after_their_thread_locals_drop() {
        static DROPPED: AtomicBool = AtomicBool::new(false);
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(50));
                DROPPED.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static SLOW: SlowDrop = const { SlowDrop };
        }
        let caller = std::thread::current().id();
        let touched = AtomicBool::new(false);
        // Two tasks, two threads: whichever task the helper claims, one of
        // them holds the caller until the helper has certainly claimed one.
        run(2, 2, |_| {
            if std::thread::current().id() == caller {
                while !touched.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            } else {
                SLOW.with(|_| ());
                touched.store(true, Ordering::SeqCst);
            }
        });
        assert!(
            DROPPED.load(Ordering::SeqCst),
            "run returned before a helper's thread-local destructors ran"
        );
    }

    #[test]
    fn tasks_can_borrow_environment() {
        let data: Vec<u64> = (0..10_000).collect();
        let out = run(data.len(), 3, |i| data[i] + 1);
        assert_eq!(out[9_999], 10_000);
    }

    #[test]
    fn panic_propagates_after_batch_completes() {
        let completed = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run(32, 4, |i| {
                if i == 7 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(r.is_err());
        // Every non-panicking task still ran (the environment they borrow
        // must stay alive until they do).
        assert_eq!(completed.load(Ordering::Relaxed), 31);
        // The next batch is unaffected.
        let ok = run(8, 4, |i| i);
        assert_eq!(ok, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_run_is_inline() {
        let out = run(4, 4, |o| {
            // From inside a task the guard must be up...
            assert!(in_task());
            // ...so a nested submission runs inline, on this same thread.
            let me = std::thread::current().id();
            let inner = run(16, 4, move |i| {
                assert_eq!(std::thread::current().id(), me);
                i * 2
            });
            o + inner.iter().sum::<usize>()
        });
        for (o, v) in out.iter().enumerate() {
            assert_eq!(*v, o + 240);
        }
    }

    #[test]
    fn concurrent_batches_do_not_interfere() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    s.spawn(move || {
                        let out = run(500, 3, move |i| i as u64 + k);
                        out.iter().enumerate().all(|(i, v)| *v == i as u64 + k)
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().unwrap());
            }
        });
    }
}
