//! Event vocabulary: span/counter identities, instant-event marks, and the
//! string interner backing dynamic names (benchmark names, log messages).
//!
//! Identities are fixed enums rather than free-form strings so a recorded
//! event is four `u64` stores on the hot path; anything dynamic goes through
//! [`intern`] once at the call site (always behind the enabled gate).

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Identity of a timed region. `name()` is the stable label used by both
/// sinks; `arg_keys()` documents what the two payload words mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanId {
    /// One `ExecEngine::run` submission. a = tasks, b = width.
    EngineBatch = 0,
    /// One task executed by an engine helper or the submitter. a = task index, b = batch tasks.
    EngineTask = 1,
    /// One kernel grid walk (`exec::walk`). a = blocks, b = modeled warp-steps.
    KernelWalk = 2,
    /// One block-task kernel (`exec::block_tasks`). a = blocks, b = tasks per block.
    BlockTasks = 3,
    /// Baseline (accurate) run selection in the harness. a = interned app name, b = 0.
    BaselineSelect = 4,
    /// One approximate config evaluation. a = interned app name, b = config ordinal.
    ConfigEval = 5,
    /// One full per-app sweep. a = interned app name, b = configs in plan.
    SweepApp = 6,
    /// One technique grid searched within a tune request. a = grid index, b = grid size.
    TunerSearchGrid = 7,
    /// One `TuningService` request, cache lookup through response.
    /// a = interned app name, b = error bound in basis points.
    ServiceRequest = 8,
}

impl SpanId {
    pub const ALL: [SpanId; 9] = [
        SpanId::EngineBatch,
        SpanId::EngineTask,
        SpanId::KernelWalk,
        SpanId::BlockTasks,
        SpanId::BaselineSelect,
        SpanId::ConfigEval,
        SpanId::SweepApp,
        SpanId::TunerSearchGrid,
        SpanId::ServiceRequest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanId::EngineBatch => "engine_batch",
            SpanId::EngineTask => "engine_task",
            SpanId::KernelWalk => "kernel_walk",
            SpanId::BlockTasks => "block_tasks",
            SpanId::BaselineSelect => "baseline_select",
            SpanId::ConfigEval => "config_eval",
            SpanId::SweepApp => "sweep_app",
            SpanId::TunerSearchGrid => "tuner_search_grid",
            SpanId::ServiceRequest => "service_request",
        }
    }

    /// Keys for the two payload words, and whether `a` is an interned string.
    pub fn arg_keys(self) -> (&'static str, &'static str, bool) {
        match self {
            SpanId::EngineBatch => ("tasks", "width", false),
            SpanId::EngineTask => ("task", "of", false),
            SpanId::KernelWalk => ("blocks", "warp_steps", false),
            SpanId::BlockTasks => ("blocks", "tasks_per_block", false),
            SpanId::BaselineSelect => ("app", "b", true),
            SpanId::ConfigEval => ("app", "config", true),
            SpanId::SweepApp => ("app", "configs", true),
            SpanId::TunerSearchGrid => ("grid", "size", false),
            SpanId::ServiceRequest => ("app", "bound_bp", true),
        }
    }

    fn from_u8(v: u8) -> Option<SpanId> {
        SpanId::ALL.get(v as usize).copied()
    }
}

/// Identity of an instant (point-in-time) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Mark {
    /// Engine queue pressure at submit time. a = helper threads alive across
    /// every batch in flight, b = batch tasks.
    QueueDepth = 0,
    /// Tuner search trajectory sample. a = total evaluations, b = frontier size.
    SearchPoint = 1,
    /// Warning routed through [`crate::log_warn`]. a = interned message, b = 0.
    LogWarn = 2,
}

impl Mark {
    pub const ALL: [Mark; 3] = [Mark::QueueDepth, Mark::SearchPoint, Mark::LogWarn];

    pub fn name(self) -> &'static str {
        match self {
            Mark::QueueDepth => "queue_depth",
            Mark::SearchPoint => "search_point",
            Mark::LogWarn => "warning",
        }
    }

    /// Keys for the two payload words, and whether `a` is an interned string.
    pub fn arg_keys(self) -> (&'static str, &'static str, bool) {
        match self {
            Mark::QueueDepth => ("live_helpers", "tasks", false),
            Mark::SearchPoint => ("evaluations", "frontier", false),
            Mark::LogWarn => ("message", "b", true),
        }
    }

    fn from_u8(v: u8) -> Option<Mark> {
        Mark::ALL.get(v as usize).copied()
    }
}

/// Monotonic counters, one cell per id per worker ring. Totals are summed
/// across rings by [`crate::snapshot`]; per-ring values attribute work to
/// specific workers (e.g. `EngineBusyNs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// `ExecEngine::run` submissions (nested inline calls excluded).
    EngineBatches = 0,
    /// Tasks executed on behalf of the engine, attributed to the executing worker.
    EngineTasks,
    /// Nanoseconds spent inside engine tasks, attributed to the executing worker.
    EngineBusyNs,
    /// Submissions that ran inline because the caller was already a pool task.
    EngineNestedInline,
    /// Phases executed by `ExecEngine::run_phases`.
    EnginePhases,
    /// Nanoseconds the `run_phases` submitter spent blocked on phase barriers.
    EngineBarrierWaitNs,
    /// Kernel launches accounted through `gpu_sim::account_kernel`: every
    /// walked launch and every replayed one.
    KernelLaunches,
    /// Modeled warp-steps (slice iterations) across all kernels.
    WarpSteps,
    /// Warp-steps with intra-warp technique divergence.
    DivergentSteps,
    /// Lanes that took an approximate path.
    ApproxLanes,
    /// Lanes that executed accurately.
    AccurateLanes,
    /// Lanes skipped entirely (perforation).
    SkippedLanes,
    /// Modeled global memory transactions.
    GlobalTxns,
    /// `MixMemo` lane-mix cost lookups served from cache.
    MixMemoHits,
    /// `MixMemo` lookups that had to precompose costs.
    MixMemoMisses,
    /// `ComputeMemo` input-row lookups served from cache.
    ComputeMemoHits,
    /// `ComputeMemo` lookups that computed and stored a fresh row.
    ComputeMemoMisses,
    /// Approximate configs fully evaluated by the harness.
    ConfigsEvaluated,
    /// Approximate configs rejected at launch (e.g. shared memory overflow).
    ConfigsRejected,
    /// Nanoseconds spent evaluating configs, attributed to the evaluating worker.
    ConfigEvalNs,
    /// Tune requests submitted to the service.
    TunerRequests,
    /// Tune requests answered from the persistent cache.
    TunerCacheHits,
    /// Tune requests that missed the persistent cache and searched.
    TunerCacheMisses,
    /// Configurations the tuner's evaluator admitted and charged to its
    /// budget (run, or answered by a family sibling's decision margins).
    TunerEvals,
    /// Evaluator requests served from the in-process memo or dropped by budget.
    TunerEvalsSkipped,
    /// Pareto frontier insertions that succeeded.
    ParetoInserts,
    /// Candidate points dominated on arrival.
    ParetoRejects,
    /// Frontier points pruned by a newly inserted dominator.
    ParetoPrunes,
    /// Warnings emitted through `log_warn`.
    LogWarnings,
    /// `TuningService` requests accepted (all provenances).
    ServiceRequests,
    /// Service requests that joined an identical in-flight search.
    ServiceCoalesced,
    /// Service searches warm-started from a neighboring bound's frontier.
    ServiceWarmStarts,
    /// Sweep-scoped `EvalMemo` lookups served from the shared store.
    EvalMemoHits,
    /// `EvalMemo` lookups that built a fresh entry.
    EvalMemoMisses,
    /// Quality-score computations skipped via the output-fingerprint cache.
    QualityCacheHits,
    /// Configs that canonicalized onto an already-submitted evaluation.
    ConfigsDeduped,
    /// Config evaluations aborted once they provably missed the frontier.
    EarlyAborts,
    /// Configs (sweep or tuner) answered by a family sibling whose decision
    /// margins cover their threshold and prediction size (also counted in
    /// `ConfigsDeduped`).
    ConfigsThresholdCovered,
    /// Warm-started searches answered by a stored frontier's winner after
    /// one run that reproduced its stored speedup and error.
    TunerSeedsVerified,
    /// Warm-started searches whose stored winner did not reproduce (the
    /// search then re-measured every seed).
    TunerSeedMismatches,
    /// Launches a `RepeatedLaunch` replayed from its recorded decision
    /// trace instead of walking (also counted in `KernelLaunches`).
    KernelReplays,
}

pub const N_COUNTERS: usize = 41;

impl CounterId {
    pub const ALL: [CounterId; N_COUNTERS] = [
        CounterId::EngineBatches,
        CounterId::EngineTasks,
        CounterId::EngineBusyNs,
        CounterId::EngineNestedInline,
        CounterId::EnginePhases,
        CounterId::EngineBarrierWaitNs,
        CounterId::KernelLaunches,
        CounterId::WarpSteps,
        CounterId::DivergentSteps,
        CounterId::ApproxLanes,
        CounterId::AccurateLanes,
        CounterId::SkippedLanes,
        CounterId::GlobalTxns,
        CounterId::MixMemoHits,
        CounterId::MixMemoMisses,
        CounterId::ComputeMemoHits,
        CounterId::ComputeMemoMisses,
        CounterId::ConfigsEvaluated,
        CounterId::ConfigsRejected,
        CounterId::ConfigEvalNs,
        CounterId::TunerRequests,
        CounterId::TunerCacheHits,
        CounterId::TunerCacheMisses,
        CounterId::TunerEvals,
        CounterId::TunerEvalsSkipped,
        CounterId::ParetoInserts,
        CounterId::ParetoRejects,
        CounterId::ParetoPrunes,
        CounterId::LogWarnings,
        CounterId::ServiceRequests,
        CounterId::ServiceCoalesced,
        CounterId::ServiceWarmStarts,
        CounterId::EvalMemoHits,
        CounterId::EvalMemoMisses,
        CounterId::QualityCacheHits,
        CounterId::ConfigsDeduped,
        CounterId::EarlyAborts,
        CounterId::ConfigsThresholdCovered,
        CounterId::TunerSeedsVerified,
        CounterId::TunerSeedMismatches,
        CounterId::KernelReplays,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CounterId::EngineBatches => "engine_batches",
            CounterId::EngineTasks => "engine_tasks",
            CounterId::EngineBusyNs => "engine_busy_ns",
            CounterId::EngineNestedInline => "engine_nested_inline",
            CounterId::EnginePhases => "engine_phases",
            CounterId::EngineBarrierWaitNs => "engine_barrier_wait_ns",
            CounterId::KernelLaunches => "kernel_launches",
            CounterId::WarpSteps => "warp_steps",
            CounterId::DivergentSteps => "divergent_steps",
            CounterId::ApproxLanes => "approx_lanes",
            CounterId::AccurateLanes => "accurate_lanes",
            CounterId::SkippedLanes => "skipped_lanes",
            CounterId::GlobalTxns => "global_txns",
            CounterId::MixMemoHits => "mix_memo_hits",
            CounterId::MixMemoMisses => "mix_memo_misses",
            CounterId::ComputeMemoHits => "compute_memo_hits",
            CounterId::ComputeMemoMisses => "compute_memo_misses",
            CounterId::ConfigsEvaluated => "configs_evaluated",
            CounterId::ConfigsRejected => "configs_rejected",
            CounterId::ConfigEvalNs => "config_eval_ns",
            CounterId::TunerRequests => "tuner_requests",
            CounterId::TunerCacheHits => "tuner_cache_hits",
            CounterId::TunerCacheMisses => "tuner_cache_misses",
            CounterId::TunerEvals => "tuner_evals",
            CounterId::TunerEvalsSkipped => "tuner_evals_skipped",
            CounterId::ParetoInserts => "pareto_inserts",
            CounterId::ParetoRejects => "pareto_rejects",
            CounterId::ParetoPrunes => "pareto_prunes",
            CounterId::LogWarnings => "log_warnings",
            CounterId::ServiceRequests => "service_requests",
            CounterId::ServiceCoalesced => "service_coalesced",
            CounterId::ServiceWarmStarts => "service_warm_starts",
            CounterId::EvalMemoHits => "eval_memo_hits",
            CounterId::EvalMemoMisses => "eval_memo_misses",
            CounterId::QualityCacheHits => "quality_cache_hits",
            CounterId::ConfigsDeduped => "configs_deduped",
            CounterId::EarlyAborts => "early_aborts",
            CounterId::ConfigsThresholdCovered => "configs_threshold_covered",
            CounterId::TunerSeedsVerified => "tuner_seeds_verified",
            CounterId::TunerSeedMismatches => "tuner_seed_mismatches",
            CounterId::KernelReplays => "kernel_replays",
        }
    }
}

/// Event kind tag packed into the ring slot's meta word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Span = 0,
    Instant = 1,
}

/// A decoded event drained out of a ring, safe to hold after the ring moves on.
#[derive(Clone, Debug)]
pub struct OwnedEvent {
    /// Ring-local sequence number (monotone per worker).
    pub seq: u64,
    /// Worker id of the ring this event was recorded on.
    pub worker: u32,
    pub payload: Payload,
    /// Start timestamp, ns since the process trace epoch.
    pub t0_ns: u64,
    /// End timestamp; equals `t0_ns` for instants.
    pub t1_ns: u64,
    pub a: u64,
    pub b: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    Span(SpanId),
    Instant(Mark),
}

impl Payload {
    pub fn name(self) -> &'static str {
        match self {
            Payload::Span(s) => s.name(),
            Payload::Instant(m) => m.name(),
        }
    }

    pub fn arg_keys(self) -> (&'static str, &'static str, bool) {
        match self {
            Payload::Span(s) => s.arg_keys(),
            Payload::Instant(m) => m.arg_keys(),
        }
    }
}

pub(crate) fn pack_meta(kind: Kind, id: u8) -> u64 {
    ((kind as u64) << 8) | id as u64
}

pub(crate) fn unpack_meta(meta: u64) -> Option<Payload> {
    let id = (meta & 0xff) as u8;
    match meta >> 8 {
        0 => SpanId::from_u8(id).map(Payload::Span),
        1 => Mark::from_u8(id).map(Payload::Instant),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// String interner
// ---------------------------------------------------------------------------

pub(crate) struct Interner {
    strings: Vec<String>,
}

static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();

/// The interner, locked. Every update is one whole `push`, so the list is
/// valid at every step and a lock poisoned by a panicking holder is safe
/// to recover: a panic while tracing must not end the process's tracing.
pub(crate) fn interner() -> MutexGuard<'static, Interner> {
    INTERNER
        .get_or_init(|| {
            Mutex::new(Interner {
                strings: Vec::new(),
            })
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Intern a string, returning a stable id usable as an event payload word.
/// Takes a global lock — call only behind the enabled gate, and only for
/// low-frequency names (apps, grids, log messages), never per warp-step.
pub fn intern(s: &str) -> u64 {
    let mut g = interner();
    if let Some(i) = g.strings.iter().position(|x| x == s) {
        return i as u64;
    }
    g.strings.push(s.to_string());
    (g.strings.len() - 1) as u64
}

/// Resolve an interned id back to its string, if it exists.
pub fn resolve(id: u64) -> Option<String> {
    let g = interner();
    g.strings.get(id as usize).cloned()
}
