//! Per-worker event rings and the process-wide ring registry.
//!
//! Each thread that records events owns exactly one ring, reached through a
//! thread-local hold, so the hot path takes no locks: a record is a
//! handful of relaxed/release stores into slots the owning thread alone
//! writes. Readers (snapshot/flush) run on other threads, so every slot
//! field is an atomic and each slot carries a seqlock-style sequence word —
//! a torn read is detected and discarded, never undefined behavior.
//!
//! The ring keeps the newest [`RING_CAP`] events; when a writer laps the
//! flush cursor the oldest unflushed events are overwritten and counted as
//! dropped rather than blocking the worker.
//!
//! A thread that exits returns its ring to a free list, and the next thread
//! of the same kind (engine helper or not) records into it: engine helpers
//! live for one batch, and a ring per helper ever spawned would grow
//! without bound.

use crate::event::{pack_meta, unpack_meta, CounterId, Kind, OwnedEvent, N_COUNTERS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Events retained per worker. Power of two so the slot index is a mask.
pub const RING_CAP: usize = 1 << 14;

/// Sequence value a slot holds while its owner is mid-write.
const SEQ_BUSY: u64 = u64::MAX;

struct Slot {
    /// `index + 1` once the slot holds event `index`; [`SEQ_BUSY`] mid-write.
    seq: AtomicU64,
    meta: AtomicU64,
    t0: AtomicU64,
    t1: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            t0: AtomicU64::new(0),
            t1: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

pub struct WorkerRing {
    /// Registration order; stable for the process lifetime, and shared by
    /// every thread that records into this ring in turn.
    pub(crate) worker: u32,
    /// Whether the owning threads are engine helpers (`hpac-pool-*`).
    pub(crate) pool_worker: bool,
    /// Next event index; only the owning thread stores.
    head: AtomicU64,
    /// Index up to which events have been drained to a sink.
    flushed: AtomicU64,
    /// Events overwritten before any drain saw them.
    dropped: AtomicU64,
    counters: [AtomicU64; N_COUNTERS],
    slots: Vec<Slot>,
}

impl WorkerRing {
    fn new(worker: u32, pool_worker: bool) -> WorkerRing {
        WorkerRing {
            worker,
            pool_worker,
            head: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            slots: (0..RING_CAP).map(|_| Slot::new()).collect(),
        }
    }

    /// Record one event. Owner thread only.
    pub(crate) fn record(&self, kind: Kind, id: u8, t0: u64, t1: u64, a: u64, b: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAP - 1)];
        // Mark busy so a concurrent reader rejects the slot while fields are
        // in flux, publish fields, then publish the new sequence.
        slot.seq.store(SEQ_BUSY, Ordering::Release);
        slot.meta.store(pack_meta(kind, id), Ordering::Relaxed);
        slot.t0.store(t0, Ordering::Relaxed);
        slot.t1.store(t1, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(h + 1, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    pub(crate) fn add(&self, c: CounterId, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn counter(&self, c: CounterId) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    pub(crate) fn head_seq(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to ring wrap: those a drain already accounted, plus the
    /// backlog the writer has overwritten since the last drain (so a
    /// snapshot reports honest losses even before any sink flush).
    pub(crate) fn dropped(&self) -> u64 {
        let accounted = self.dropped.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let flushed = self.flushed.load(Ordering::Acquire);
        accounted + head.saturating_sub(RING_CAP as u64).saturating_sub(flushed)
    }

    /// Drain every event recorded since the last drain. Events the writer
    /// overwrote before this drain (writer lapped the cursor) are accounted
    /// in `dropped`; events caught mid-write are skipped this round and
    /// picked up by the next drain.
    pub(crate) fn drain(&self, out: &mut Vec<OwnedEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let mut from = self.flushed.load(Ordering::Acquire);
        let oldest = head.saturating_sub(RING_CAP as u64);
        if from < oldest {
            self.dropped.fetch_add(oldest - from, Ordering::Relaxed);
            from = oldest;
        }
        let mut drained_to = from;
        for idx in from..head {
            let slot = &self.slots[(idx as usize) & (RING_CAP - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != idx + 1 {
                // Overwritten (newer seq) or mid-write: stop at the first
                // unreadable event so the cursor never skips past data the
                // writer is still publishing.
                if s1 != SEQ_BUSY && s1 > idx + 1 {
                    // Lapped mid-drain; the events are gone.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    drained_to = idx + 1;
                    continue;
                }
                break;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let t0 = slot.t0.load(Ordering::Relaxed);
            let t1 = slot.t1.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            // Re-validate: if the writer wrapped around and reused the slot
            // while we read, the sequence moved and the fields are torn.
            if slot.seq.load(Ordering::Acquire) != idx + 1 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                drained_to = idx + 1;
                continue;
            }
            if let Some(payload) = unpack_meta(meta) {
                out.push(OwnedEvent {
                    seq: idx,
                    worker: self.worker,
                    payload,
                    t0_ns: t0,
                    t1_ns: t1,
                    a,
                    b,
                });
            }
            drained_to = idx + 1;
        }
        self.flushed.fetch_max(drained_to, Ordering::AcqRel);
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
