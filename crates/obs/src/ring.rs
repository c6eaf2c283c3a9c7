//! Per-worker event rings and the process-wide ring registry.
//!
//! Each thread that records events owns one ring, reached through a
//! thread-local hold. A ring keeps its undrained events behind one plain
//! mutex: the owning thread takes it once per event, and a drain takes it
//! only long enough to swap the buffer out, so the lock is all but
//! uncontended and every event leaves the ring with exactly one drain.
//!
//! The ring keeps the newest [`RING_CAP`] undrained events; when it is full
//! the oldest is dropped and counted rather than blocking the worker.
//!
//! A thread that exits returns its ring to a free list, and the next thread
//! of the same kind (engine helper or not) records into it: engine helpers
//! live for one batch, and a ring per helper ever spawned would grow
//! without bound.

use crate::event::{CounterId, OwnedEvent, Payload, N_COUNTERS};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Undrained events retained per worker.
pub const RING_CAP: usize = 1 << 14;

/// A ring's undrained events and its running totals.
#[derive(Default)]
struct Pending {
    events: VecDeque<OwnedEvent>,
    /// Events recorded so far; the next event's `seq`.
    recorded: u64,
    /// Events dropped from a full ring before any drain took them.
    dropped: u64,
}

pub struct WorkerRing {
    /// Registration order; stable for the process lifetime, and shared by
    /// every thread that records into this ring in turn.
    pub(crate) worker: u32,
    /// Whether the owning threads are engine helpers (`hpac-pool-*`).
    pub(crate) pool_worker: bool,
    pending: Mutex<Pending>,
    counters: [AtomicU64; N_COUNTERS],
}

impl WorkerRing {
    fn new(worker: u32, pool_worker: bool) -> WorkerRing {
        WorkerRing {
            worker,
            pool_worker,
            pending: Mutex::new(Pending::default()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The undrained events, locked. Every update is one whole push, pop or
    /// swap, so a lock poisoned by a panicking holder is safe to recover.
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one event, dropping the oldest undrained one if the ring is
    /// full.
    pub(crate) fn record(&self, payload: Payload, t0_ns: u64, t1_ns: u64, a: u64, b: u64) {
        let mut p = self.pending();
        if p.events.len() == RING_CAP {
            p.events.pop_front();
            p.dropped += 1;
        }
        let seq = p.recorded;
        p.recorded += 1;
        p.events.push_back(OwnedEvent {
            seq,
            worker: self.worker,
            payload,
            t0_ns,
            t1_ns,
            a,
            b,
        });
    }

    pub(crate) fn add(&self, c: CounterId, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn counter(&self, c: CounterId) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Events recorded so far, and how many of them were dropped undrained.
    pub(crate) fn totals(&self) -> (u64, u64) {
        let p = self.pending();
        (p.recorded, p.dropped)
    }

    /// Move every undrained event into `out`.
    pub(crate) fn drain(&self, out: &mut Vec<OwnedEvent>) {
        let events = std::mem::take(&mut self.pending().events);
        out.extend(events);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Every ring ever created, plus the rings whose threads have exited.
pub(crate) struct Registry {
    /// Registration order; a ring's index here is its `worker` id.
    rings: Vec<&'static WorkerRing>,
    /// Rings free for the next thread of their kind, indexed by
    /// `pool_worker`.
    free: [Vec<&'static WorkerRing>; 2],
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    rings: Vec::new(),
    free: [Vec::new(), Vec::new()],
});

/// The ring registry, locked. Every update is one whole `push` or `pop`,
/// so the lists are valid at every step and a lock poisoned by a panicking
/// holder is safe to recover.
pub(crate) fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A free ring of the calling thread's kind, or a new registered one.
/// Rings are leaked intentionally: drains may read them at any time, so
/// they outlive their threads and pass from an exited thread to the next
/// one of its kind. The registry is thus bounded by the number of
/// recording threads alive at once.
fn take_ring() -> &'static WorkerRing {
    let pool_worker = std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("hpac-pool-"));
    let mut reg = registry();
    if let Some(r) = reg.free[pool_worker as usize].pop() {
        return r;
    }
    let r: &'static WorkerRing = Box::leak(Box::new(WorkerRing::new(
        reg.rings.len() as u32,
        pool_worker,
    )));
    reg.rings.push(r);
    r
}

fn release_ring(r: &'static WorkerRing) {
    registry().free[r.pool_worker as usize].push(r);
}

/// A thread's hold on its ring; returns the ring at thread exit.
struct Held(&'static WorkerRing);

impl Drop for Held {
    fn drop(&mut self) {
        release_ring(self.0);
    }
}

thread_local! {
    static TL_RING: Held = Held(take_ring());
}

/// Run `f` on the calling thread's ring, taken on first use. A recording
/// made while the thread's locals are torn down, after its hold is gone,
/// borrows a free ring for the one call instead of panicking.
pub(crate) fn with_ring(f: impl FnOnce(&WorkerRing)) {
    match TL_RING.try_with(|h| h.0) {
        Ok(r) => f(r),
        Err(_) => {
            let r = take_ring();
            f(r);
            release_ring(r);
        }
    }
}

/// Snapshot of the registered rings (order = registration order).
pub(crate) fn all_rings() -> Vec<&'static WorkerRing> {
    registry().rings.clone()
}

/// Drain all rings into a single list ordered by start timestamp.
pub fn drain_events() -> Vec<OwnedEvent> {
    let mut out = Vec::new();
    for r in all_rings() {
        r.drain(&mut out);
    }
    out.sort_by_key(|e| (e.t0_ns, e.worker, e.seq));
    out
}
