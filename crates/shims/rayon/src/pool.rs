//! The persistent worker pool: spawn-once workers, scoped batch
//! submission, deterministic join order.
//!
//! One [`WorkerPool`] lives for the whole process ([`global`]). Workers are
//! spawned lazily the first time a batch needs them and are never torn
//! down; between batches they block on an empty channel and cost nothing.
//! A batch is a set of `n` independent tasks over indices `0..n`:
//!
//! * tasks are claimed one index at a time from a shared atomic cursor, so
//!   load balances across workers regardless of per-task cost;
//! * the submitting thread participates in its own batch, so a pool with
//!   zero spawned workers (a 1-core host) degrades to plain inline
//!   execution with no handoff at all;
//! * results land in per-index slots and are returned in index order —
//!   scheduling can never reorder observable output ("deterministic join
//!   order");
//! * a panicking task does not tear down a worker: the payload is caught,
//!   the rest of the batch completes (other tasks may borrow the same
//!   environment), and the panic resumes on the submitting thread;
//! * submission from *inside* a pool task runs inline on the owning
//!   thread — the depth guard that lets nested submissions run without
//!   oversubscribing the host.
//!
//! Tasks may borrow the caller's stack (`run` is scoped): safety rests on
//! `run` not returning until every task of the batch has finished, and on
//! no worker invoking the task closure after that point — see the safety
//! notes on [`Batch`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::ThreadId;

/// Upper bound on spawned workers, a guard against absurd width requests
/// (e.g. `HPAC_THREADS=100000`); widths beyond it still work, capped.
pub const MAX_WORKERS: usize = 512;

thread_local! {
    /// Whether this thread is currently executing a pool task (worker or
    /// participating submitter) — the nested-submission depth guard.
    static IN_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the current thread inside a pool task? Nested [`WorkerPool::run`]
/// calls check this and execute inline.
pub fn in_task() -> bool {
    IN_TASK.with(|f| f.get())
}

/// The process-wide pool.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(WorkerPool::new)
}

/// The type-erased task runner a batch shares with the workers. It lives on
/// the submitting thread's stack; the raw pointer in [`Batch`] erases its
/// lifetime, a promise kept by [`WorkerPool::run`] blocking until the batch
/// completes.
type TaskFn<'a> = dyn Fn(usize) + Sync + 'a;

/// One submitted batch: the claim cursor, completion latch, and the first
/// caught panic.
///
/// # Safety
///
/// `run_item` borrows the submitting thread's stack frame. The invariants
/// that make sharing it with detached workers sound:
///
/// 1. exactly `n` claims of the cursor observe an index `< n`, and each
///    bumps `done` exactly once after the task returns or panics;
/// 2. [`WorkerPool::run`] blocks until `done == n`, so the frame outlives
///    every task invocation;
/// 3. once `done == n`, every later cursor claim observes `>= n` (the
///    cursor is monotone), so no worker touches `run_item` again — workers
///    that drain their queue afterwards only read the `Arc`-owned header.
struct Batch {
    n: usize,
    cursor: AtomicUsize,
    run_item: *const TaskFn<'static>,
    done: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

// SAFETY: `run_item` points at a `Sync` closure that outlives every
// invocation (invariants 1–3 above); all other fields are themselves
// thread-safe.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claim and execute tasks until the batch is drained. Runs on workers
    /// and on the submitting thread alike.
    fn work(&self) {
        let prev = IN_TASK.with(|f| f.replace(true));
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            // SAFETY: `i < n`, so the submitting frame is still alive (see
            // the struct-level invariants).
            let run = || unsafe { (*self.run_item)(i) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
                let mut slot = self.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            let mut done = self.done.lock().unwrap();
            *done += 1;
            if *done == self.n {
                self.all_done.notify_all();
            }
        }
        IN_TASK.with(|f| f.set(prev));
    }

    /// Block until every task has finished.
    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while *done < self.n {
            done = self.all_done.wait(done).unwrap();
        }
    }
}

struct Worker {
    sender: Sender<Arc<Batch>>,
    thread_id: ThreadId,
    /// Best-effort "currently working a batch" flag, so dispatch can route
    /// new batches to idle workers first instead of queueing every batch
    /// on the lowest-index workers.
    busy: Arc<AtomicBool>,
}

/// A persistent, growable worker pool. See the module docs.
pub struct WorkerPool {
    workers: Mutex<Vec<Worker>>,
    /// Workers ever spawned — stable over the pool's lifetime; a respawn
    /// bug would show up as this counter exceeding the worker list.
    spawned: AtomicUsize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    pub fn new() -> Self {
        WorkerPool {
            workers: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }
    }

    /// Total workers ever spawned (== current workers; workers never die).
    pub fn spawned_workers(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Workers currently executing a batch — the queue-pressure signal a
    /// submitter sees at dispatch time. Racy by nature (flags flip as
    /// batches finish); callers use it for observability, not scheduling.
    pub fn busy_workers(&self) -> usize {
        self.workers
            .lock()
            .unwrap()
            .iter()
            .filter(|w| w.busy.load(Ordering::Relaxed))
            .count()
    }

    /// Thread ids of the live workers, in worker-index order. The list only
    /// ever grows, and existing entries never change — the "no respawn"
    /// observable.
    pub fn worker_thread_ids(&self) -> Vec<ThreadId> {
        self.workers
            .lock()
            .unwrap()
            .iter()
            .map(|w| w.thread_id)
            .collect()
    }

    /// Run `n` independent tasks with at most `width` threads working on
    /// them (including the calling thread) and return the results in index
    /// order.
    ///
    /// `width <= 1`, empty batches, and calls from inside a pool task all
    /// execute inline on the caller, in index order.
    pub fn run<R, F>(&self, n: usize, width: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let width = width.min(n).min(MAX_WORKERS + 1);
        if n == 0 || width <= 1 || in_task() {
            return (0..n).map(f).collect();
        }

        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        {
            let run_item = |i: usize| {
                let r = f(i);
                *slots[i].lock().unwrap() = Some(r);
            };
            let erased: *const TaskFn<'_> = &run_item;
            // SAFETY: lifetime erasure only; the pointee outlives every
            // dereference (see the `Batch` invariants).
            let erased: *const TaskFn<'static> = unsafe { std::mem::transmute(erased) };
            let batch = Arc::new(Batch {
                n,
                cursor: AtomicUsize::new(0),
                run_item: erased,
                done: Mutex::new(0),
                all_done: Condvar::new(),
                panic: Mutex::new(None),
            });

            self.dispatch(&batch, width - 1);
            batch.work();
            batch.wait();

            let payload = batch.panic.lock().unwrap().take();
            if let Some(payload) = payload {
                resume_unwind(payload);
            }
        }
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("pool task finished without storing a result")
            })
            .collect()
    }

    /// Hand `batch` to `helpers` workers — idle ones first, so concurrent
    /// batches spread over the pool instead of queueing behind each other —
    /// spawning workers that do not exist yet.
    fn dispatch(&self, batch: &Arc<Batch>, helpers: usize) {
        let mut workers = self.workers.lock().unwrap();
        while workers.len() < helpers.min(MAX_WORKERS) {
            let id = workers.len();
            let (tx, rx) = channel::<Arc<Batch>>();
            let busy = Arc::new(AtomicBool::new(false));
            let worker_busy = Arc::clone(&busy);
            let handle = std::thread::Builder::new()
                .name(format!("hpac-pool-{id}"))
                .spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        worker_busy.store(true, Ordering::Relaxed);
                        batch.work();
                        worker_busy.store(false, Ordering::Relaxed);
                    }
                })
                .expect("spawn pool worker");
            workers.push(Worker {
                sender: tx,
                thread_id: handle.thread().id(),
                busy,
            });
            self.spawned.fetch_add(1, Ordering::Relaxed);
        }
        let (idle, occupied): (Vec<&Worker>, Vec<&Worker>) = workers
            .iter()
            .partition(|w| !w.busy.load(Ordering::Relaxed));
        for w in idle.into_iter().chain(occupied).take(helpers) {
            // Workers never drop their receiver, so send cannot fail. A
            // busy worker that receives the batch drains it from its queue
            // later; if the batch finished by then, its claim loop exits
            // immediately.
            w.sender.send(Arc::clone(batch)).expect("pool worker gone");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_in_index_order() {
        let pool = WorkerPool::new();
        let out = pool.run(1000, 4, |i| i * 3);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn width_one_is_inline() {
        let pool = WorkerPool::new();
        let out = pool.run(100, 1, |i| i);
        assert_eq!(out.len(), 100);
        assert_eq!(pool.spawned_workers(), 0);
    }

    #[test]
    fn workers_are_reused_not_respawned() {
        let pool = WorkerPool::new();
        let observed = Mutex::new(HashSet::new());
        for _ in 0..50 {
            let _ = pool.run(64, 4, |i| {
                observed.lock().unwrap().insert(std::thread::current().id());
                i
            });
        }
        // 3 helpers + the caller, never more, across 50 batches.
        assert!(pool.spawned_workers() <= 3);
        let ids = pool.worker_thread_ids();
        let caller = std::thread::current().id();
        for t in observed.lock().unwrap().iter() {
            assert!(
                *t == caller || ids.contains(t),
                "task ran on a thread outside the pool"
            );
        }
    }

    #[test]
    fn tasks_can_borrow_environment() {
        let pool = WorkerPool::new();
        let data: Vec<u64> = (0..10_000).collect();
        let out = pool.run(data.len(), 3, |i| data[i] + 1);
        assert_eq!(out[9_999], 10_000);
    }

    #[test]
    fn panic_propagates_after_batch_completes() {
        let pool = WorkerPool::new();
        let completed = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, 4, |i| {
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
        // The pool survives the panic.
        let ok = pool.run(8, 4, |i| i);
        assert_eq!(ok, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_run_is_inline() {
        let pool = global();
        let out = pool.run(4, 4, |o| {
            // From inside a task the guard must be up...
            assert!(in_task());
            // ...so a nested submission runs inline, on this same thread.
            let me = std::thread::current().id();
            let inner = global().run(16, 4, move |i| {
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
        let pool = global();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    s.spawn(move || {
                        let out = pool.run(500, 3, move |i| i as u64 + k);
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
