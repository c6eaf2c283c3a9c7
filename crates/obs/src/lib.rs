//! `hpac-obs` — structured tracing and metrics for the HPAC stack.
//!
//! Dependency-free, in the spirit of the shim crates. The design contract:
//!
//! - **Disabled is free.** Every recording entry point starts with a branch
//!   on one static `AtomicBool` loaded `Relaxed` ([`enabled`]); nothing else
//!   happens when tracing is off, so instrumented hot paths (the walk
//!   benches) stay within noise of uninstrumented ones.
//! - **No locks on the hot path.** Each recording thread owns a private
//!   ring buffer ([`ring`] module) reached via a thread-local; records are
//!   plain atomic stores, counters are relaxed `fetch_add`s on per-worker
//!   cells. Locks exist only at the edges: taking a ring at a thread's
//!   first record and returning it at thread exit, string interning
//!   (low-frequency names), and sink flushes.
//! - **One diagnostics path.** Library crates report problems through
//!   [`log_warn`], which lands in the trace *and* on stderr; ad-hoc
//!   `eprintln!`/`println!` in library code is a CI failure.
//!
//! Activation: bins call `hpac_core::env::init_trace_from_env`, which reads
//! `HPAC_TRACE=<path>[:jsonl|chrome]` through the stack's one strict
//! env-var helper and, when set, calls [`install_sink`] and flips the gate
//! via [`set_enabled`]. This crate owns only the pure parser
//! ([`parse_hpac_trace`]); the read-validate-abort glue lives in
//! `hpac-core` with every other `HPAC_*` variable. Tests and embedders can
//! flip the gate directly with [`set_enabled`] and inspect metrics
//! in-process via [`snapshot`] without any sink.

#![forbid(unsafe_code)]

mod event;
mod ring;
mod sink;
mod snapshot;

pub use event::{intern, resolve, CounterId, Mark, OwnedEvent, Payload, SpanId, N_COUNTERS};
pub use ring::{drain_events, RING_CAP};
pub use sink::{
    finish, flush, install_sink, parse_hpac_trace, sink_config, FlushStats, SinkConfig, TraceFormat,
};
pub use snapshot::{snapshot, MetricsSnapshot, WorkerMetrics};

use event::Kind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is on. The one branch every instrumentation site pays
/// when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flip the recording gate. Spans already open keep their start timestamp
/// and record on drop regardless, so toggling mid-span loses nothing.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII guard for a timed region; records on drop. Inert (a `None` payload)
/// when tracing was off at creation.
pub struct Span {
    live: Option<(SpanId, u64, u64, u64)>,
}

impl Span {
    /// An inert span, for call sites that need an explicit "off" value.
    pub fn none() -> Span {
        Span { live: None }
    }

    /// A live span starting now. The thread takes its ring first: a ring
    /// passes from an exited thread to the next, and binding it before the
    /// start timestamp keeps the spans of one ring from overlapping.
    fn open(id: SpanId, a: u64, b: u64) -> Span {
        ring::with_ring(|_| {});
        Span {
            live: Some((id, now_ns(), a, b)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, t0, a, b)) = self.live.take() {
            ring::with_ring(|r| r.record(Kind::Span, id as u8, t0, now_ns(), a, b));
        }
    }
}

/// Open a timed span. Free when disabled (one relaxed load + branch).
#[inline]
pub fn span(id: SpanId, a: u64, b: u64) -> Span {
    if !enabled() {
        return Span::none();
    }
    Span::open(id, a, b)
}

/// Open a timed span whose `a` payload is an interned string (app names and
/// the like). The interner lock is only taken when tracing is on.
#[inline]
pub fn span_named(id: SpanId, name: &str, b: u64) -> Span {
    if !enabled() {
        return Span::none();
    }
    Span::open(id, intern(name), b)
}

/// Record an instant event. Free when disabled.
#[inline]
pub fn mark(m: Mark, a: u64, b: u64) {
    if enabled() {
        let t = now_ns();
        ring::with_ring(|r| r.record(Kind::Instant, m as u8, t, t, a, b));
    }
}

/// Add to a counter on the calling worker's ring. Free when disabled.
#[inline]
pub fn add(c: CounterId, n: u64) {
    if enabled() {
        ring::with_ring(|r| r.add(c, n));
    }
}

/// Increment a counter by one. Free when disabled.
#[inline]
pub fn inc(c: CounterId) {
    add(c, 1);
}

/// The single diagnostics path for library crates: the warning always
/// reaches stderr, and when tracing is on it is also recorded as an
/// instant event with the message interned.
pub fn log_warn(msg: &str) {
    if enabled() {
        let t = now_ns();
        let msg_id = intern(msg);
        ring::with_ring(|r| {
            r.record(Kind::Instant, Mark::LogWarn as u8, t, t, msg_id, 0);
            r.add(CounterId::LogWarnings, 1);
        });
    }
    eprintln!("warning: {msg}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Obs state is process-global; unit tests touching it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        set_enabled(false);
        let before = snapshot();
        inc(CounterId::KernelLaunches);
        drop(span(SpanId::KernelWalk, 1, 2));
        mark(Mark::QueueDepth, 3, 4);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter(CounterId::KernelLaunches), 0);
        assert!(delta.workers.iter().all(|w| w.events == 0));
    }

    #[test]
    fn enabled_round_trips_span_and_counter() {
        let _g = locked();
        set_enabled(true);
        let before = snapshot();
        let _ = drain_events();
        add(CounterId::WarpSteps, 7);
        drop(span(SpanId::KernelWalk, 11, 22));
        mark(Mark::SearchPoint, 5, 6);
        set_enabled(false);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter(CounterId::WarpSteps), 7);
        let events = drain_events();
        let walk = events
            .iter()
            .find(|e| e.payload == Payload::Span(SpanId::KernelWalk))
            .expect("walk span drained");
        assert_eq!((walk.a, walk.b), (11, 22));
        assert!(walk.t1_ns >= walk.t0_ns);
        assert!(events
            .iter()
            .any(|e| e.payload == Payload::Instant(Mark::SearchPoint) && e.a == 5 && e.b == 6));
    }

    #[test]
    fn summary_table_renders_kernel_replays() {
        let _g = locked();
        set_enabled(true);
        let before = snapshot();
        add(CounterId::KernelReplays, 3);
        set_enabled(false);
        let table = snapshot().delta_since(&before).render_table();
        let row = table
            .lines()
            .find(|l| l.starts_with("kernel_replays"))
            .expect("kernel_replays row rendered");
        assert!(row.ends_with(" 3"), "{row}");
    }

    #[test]
    fn ring_wrap_keeps_newest_and_counts_dropped() {
        let _g = locked();
        set_enabled(true);
        let before = snapshot();
        let _ = drain_events();
        let n = RING_CAP + 123;
        for i in 0..n {
            mark(Mark::QueueDepth, i as u64, 0);
        }
        set_enabled(false);
        let events: Vec<_> = drain_events()
            .into_iter()
            .filter(|e| e.payload == Payload::Instant(Mark::QueueDepth))
            .collect();
        assert!(events.len() <= RING_CAP);
        // The newest event always survives.
        assert!(events.iter().any(|e| e.a == (n - 1) as u64));
        let delta = snapshot().delta_since(&before);
        assert!(delta.workers.iter().map(|w| w.dropped).sum::<u64>() >= 123);
    }

    #[test]
    fn interner_round_trips() {
        let a = intern("lulesh");
        let b = intern("lulesh");
        assert_eq!(a, b);
        assert_eq!(resolve(a).as_deref(), Some("lulesh"));
        assert_ne!(intern("kmeans"), a);
    }

    #[test]
    fn a_panic_holding_the_obs_locks_leaves_tracing_working() {
        let _g = locked();
        let died = std::thread::spawn(|| {
            let _sink = sink::sink();
            let _interner = event::interner();
            let _registry = ring::registry();
            panic!("a tracer died holding every obs lock");
        })
        .join();
        assert!(died.is_err());
        set_enabled(true);
        let _ = drain_events();
        // A new thread registers its ring through the poisoned registry and
        // interns its name through the poisoned interner.
        std::thread::spawn(|| drop(span_named(SpanId::KernelWalk, "after the panic", 3)))
            .join()
            .unwrap();
        drop(span(SpanId::EngineBatch, 1, 2));
        set_enabled(false);
        assert!(flush().is_ok() && finish().is_ok());
        let _ = sink_config();
        let events = drain_events();
        assert!(events
            .iter()
            .any(|e| e.payload == Payload::Span(SpanId::KernelWalk)
                && resolve(e.a).as_deref() == Some("after the panic")));
        assert!(events
            .iter()
            .any(|e| e.payload == Payload::Span(SpanId::EngineBatch) && (e.a, e.b) == (1, 2)));
    }

    #[test]
    fn parse_hpac_trace_accepts_valid_forms() {
        assert_eq!(parse_hpac_trace("").unwrap(), None);
        assert_eq!(parse_hpac_trace("   ").unwrap(), None);
        let c = parse_hpac_trace("trace.jsonl").unwrap().unwrap();
        assert_eq!(c.format, TraceFormat::Jsonl);
        let c = parse_hpac_trace("trace.json").unwrap().unwrap();
        assert_eq!(c.format, TraceFormat::Chrome);
        let c = parse_hpac_trace("out/trace.bin:chrome").unwrap().unwrap();
        assert_eq!(c.format, TraceFormat::Chrome);
        assert_eq!(c.path, std::path::PathBuf::from("out/trace.bin"));
        let c = parse_hpac_trace("x.json:jsonl").unwrap().unwrap();
        assert_eq!(c.format, TraceFormat::Jsonl);
    }

    #[test]
    fn parse_hpac_trace_rejects_garbage() {
        assert!(parse_hpac_trace("trace.json:protobuf").is_err());
        assert!(parse_hpac_trace(":chrome").is_err());
        assert!(
            parse_hpac_trace("a:b:chrome").is_ok(),
            "path may contain colons"
        );
        assert!(
            parse_hpac_trace("a:b").is_err(),
            "last segment must be a format"
        );
    }

    #[test]
    fn exited_threads_hand_their_rings_on() {
        let _g = locked();
        set_enabled(true);
        let _ = drain_events();
        let before = snapshot().workers.len();
        for i in 0..50 {
            std::thread::spawn(move || drop(span(SpanId::EngineTask, i, 50)))
                .join()
                .unwrap();
        }
        set_enabled(false);
        let grew = snapshot().workers.len() - before;
        assert!(grew <= 1, "50 threads in turn registered {grew} rings");
        let tasks = drain_events()
            .into_iter()
            .filter(|e| e.payload == Payload::Span(SpanId::EngineTask) && e.b == 50)
            .count();
        assert_eq!(tasks, 50);
    }

    #[test]
    fn a_record_during_thread_teardown_lands() {
        struct RecordOnDrop;
        impl Drop for RecordOnDrop {
            fn drop(&mut self) {
                drop(span(SpanId::EngineTask, 7, 0xD0D0));
            }
        }
        thread_local! {
            static LATE: RecordOnDrop = const { RecordOnDrop };
        }
        let _g = locked();
        set_enabled(true);
        let _ = drain_events();
        // `LATE` is touched before the thread's ring is taken, so its
        // destructor runs after the ring's hold is gone.
        std::thread::spawn(|| {
            LATE.with(|_| ());
            inc(CounterId::KernelLaunches);
        })
        .join()
        .unwrap();
        set_enabled(false);
        assert!(drain_events()
            .iter()
            .any(|e| e.payload == Payload::Span(SpanId::EngineTask) && (e.a, e.b) == (7, 0xD0D0)));
    }
}
