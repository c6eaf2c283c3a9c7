//! Integration tests for the `hpac-obs` tracing layer.
//!
//! Covers the concurrency contract (per-worker rings lose nothing and never
//! interleave under an `HPAC_THREADS=4`-style engine width, and concurrent
//! drains never hand out one event twice), the
//! no-observer-effect contract (tracing cannot change sweep outputs by a
//! bit), the sink schemas (JSONL lines and Chrome trace arrays parse and
//! carry the required fields — validated with the tuner's own JSON parser),
//! and the one-diagnostics-path hygiene gate (no stray `println!` /
//! `eprintln!` in library crates).
//!
//! Obs state is process-global, so every test that flips the gate holds
//! [`obs_lock`]; the other root suites never enable tracing and cannot
//! interfere.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::core::exec::{engine, ExecOptions};
use hpac_offload::harness::runner;
use hpac_offload::harness::space::Scale;
use hpac_offload::obs;
use hpac_offload::tuner::json::Json;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A unique temp path per call (no wall-clock dependence; PID + counter).
fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hpac-obs-test-{}-{tag}-{n}.{ext}",
        std::process::id()
    ))
}

fn tiny_bs() -> Blackscholes {
    Blackscholes {
        n_options: 2048,
        distinct: 16,
        run_len: 16,
        seed: 1,
    }
}

/// Tag in the `b` payload word marking spans recorded by this suite, so
/// drained instrumentation events from the code under test never collide.
const TAG: u64 = 0xC0FFEE;

proptest! {
    /// With four threads working one engine batch (the `HPAC_THREADS=4` CI
    /// shape), every task's span is drained exactly once (nothing lost),
    /// and within each worker's ring the spans appear in recording order
    /// with disjoint time ranges (nothing interleaved).
    #[test]
    fn four_worker_rings_neither_lose_nor_interleave(n in 64usize..384, spin in 1u64..48) {
        let _g = obs_lock();
        obs::set_enabled(true);
        let _ = obs::drain_events();
        engine().run(n, 4, |i| {
            let _s = obs::span(obs::SpanId::TunerSearchGrid, i as u64, TAG);
            let mut acc = 0u64;
            for k in 0..(spin * 97) {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            std::hint::black_box(acc);
        });
        obs::set_enabled(false);
        let tagged: Vec<obs::OwnedEvent> = obs::drain_events()
            .into_iter()
            .filter(|e| {
                e.payload == obs::Payload::Span(obs::SpanId::TunerSearchGrid) && e.b == TAG
            })
            .collect();

        // Nothing lost, nothing duplicated.
        prop_assert_eq!(tagged.len(), n);
        let mut seen = vec![false; n];
        for e in &tagged {
            let i = e.a as usize;
            prop_assert!(i < n, "unknown task tag {}", i);
            prop_assert!(!seen[i], "task {} drained twice", i);
            seen[i] = true;
        }

        // Nothing interleaved: a worker finishes (and records) one task's
        // span before opening the next, so per ring the spans are disjoint
        // and ordered.
        let mut by_worker: HashMap<u32, Vec<&obs::OwnedEvent>> = HashMap::new();
        for e in &tagged {
            by_worker.entry(e.worker).or_default().push(e);
        }
        for (worker, mut evs) in by_worker {
            evs.sort_by_key(|e| e.seq);
            for pair in evs.windows(2) {
                prop_assert!(
                    pair[0].seq < pair[1].seq,
                    "worker {}: duplicate ring sequence",
                    worker
                );
                prop_assert!(
                    pair[0].t1_ns <= pair[1].t0_ns,
                    "worker {}: span [{}, {}] interleaves with [{}, {}]",
                    worker,
                    pair[0].t0_ns,
                    pair[0].t1_ns,
                    pair[1].t0_ns,
                    pair[1].t1_ns
                );
            }
            for e in evs {
                prop_assert!(e.t0_ns <= e.t1_ns);
            }
        }
    }
}

/// Enabling tracing must not change what a sweep computes — not by a bit.
#[test]
fn tracing_leaves_sweep_outputs_bit_identical() {
    let _g = obs_lock();
    let bench = tiny_bs();
    let spec = DeviceSpec::v100();
    let opts = ExecOptions::default();

    obs::set_enabled(false);
    let untraced = runner::run_sweep_serial(&bench, &spec, Scale::Quick, &opts);
    obs::set_enabled(true);
    let traced = runner::run_sweep_serial(&bench, &spec, Scale::Quick, &opts);
    obs::set_enabled(false);
    let _ = obs::drain_events();

    assert_eq!(
        untraced.baseline.seconds.to_bits(),
        traced.baseline.seconds.to_bits()
    );
    assert_eq!(untraced.rows.len(), traced.rows.len());
    assert!(!untraced.rows.is_empty());
    for (a, b) in untraced.rows.iter().zip(&traced.rows) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{}", a.config);
        assert_eq!(a.error_pct.to_bits(), b.error_pct.to_bits(), "{}", a.config);
        assert_eq!(
            a.kernel_seconds.to_bits(),
            b.kernel_seconds.to_bits(),
            "{}",
            a.config
        );
    }
}

/// A traced sweep yields non-zero memo hit rates, engine activity (its
/// configurations run as engine tasks), and per-worker attribution in the
/// `MetricsSnapshot`.
#[test]
fn traced_sweep_produces_metrics() {
    let _g = obs_lock();
    let bench = tiny_bs();
    let spec = DeviceSpec::v100();
    obs::set_enabled(true);
    let before = obs::snapshot();
    let _ = runner::run_sweep(&bench, &spec, Scale::Quick);
    obs::set_enabled(false);
    let _ = obs::drain_events();
    let delta = obs::snapshot().delta_since(&before);

    assert!(delta.counter(obs::CounterId::KernelLaunches) > 0);
    assert!(delta.counter(obs::CounterId::WarpSteps) > 0);
    assert!(delta.counter(obs::CounterId::ConfigsEvaluated) > 0);
    let mix = delta.mix_memo_hit_rate().expect("MixMemo was exercised");
    assert!(mix > 0.0, "mix memo hit rate {mix}");
    assert_eq!(
        delta.compute_memo_hit_rate(),
        None,
        "prepared inputs carry their prices: no run looks one up"
    );
    assert!(delta.busy_ns_total() > 0);
    assert!(delta.utilization(delta.taken_ns.max(1), 4) > 0.0);
    let table = delta.render_table();
    assert!(table.contains("kernel_launches"));
    assert!(table.contains("mix_memo_hit_rate"));
    assert!(
        !table.contains("quality_cache_hit_rate"),
        "the retired score cache has no row: {table}"
    );
}

/// Two threads draining while a third records: every event leaves its ring
/// with exactly one drain, and per worker the snapshot's `events` is the
/// sum of what the drains took and what a full ring dropped.
#[test]
fn concurrent_drains_take_each_event_once() {
    const MARKS: usize = 200_000;
    let _g = obs_lock();
    obs::set_enabled(true);
    let _ = obs::drain_events();
    let before = obs::snapshot();
    let writing = AtomicBool::new(true);
    let start = Barrier::new(3);
    let tagged = |events: Vec<obs::OwnedEvent>| -> Vec<obs::OwnedEvent> {
        events
            .into_iter()
            .filter(|e| e.payload == obs::Payload::Instant(obs::Mark::SearchPoint) && e.b == TAG)
            .collect()
    };
    let mut drained: Vec<obs::OwnedEvent> = std::thread::scope(|s| {
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    start.wait();
                    while writing.load(Ordering::Relaxed) {
                        got.extend(tagged(obs::drain_events()));
                    }
                    got
                })
            })
            .collect();
        s.spawn(|| {
            start.wait();
            for i in 0..MARKS {
                obs::mark(obs::Mark::SearchPoint, i as u64, TAG);
            }
            writing.store(false, Ordering::Relaxed);
        });
        drainers
            .into_iter()
            .flat_map(|h| h.join().expect("drainer"))
            .collect()
    });
    drained.extend(tagged(obs::drain_events()));
    obs::set_enabled(false);

    let mut seen = vec![false; MARKS];
    for e in &drained {
        assert!(!seen[e.a as usize], "mark {} drained twice", e.a);
        seen[e.a as usize] = true;
    }
    let writer = drained.first().expect("some marks were drained").worker;
    assert!(drained.iter().all(|e| e.worker == writer));
    let delta = obs::snapshot().delta_since(&before);
    let w = delta
        .workers
        .iter()
        .find(|w| w.worker == writer)
        .expect("the writer's ring");
    assert_eq!(w.events, MARKS as u64);
    assert_eq!(w.events, drained.len() as u64 + w.dropped);
}

/// The three sweep entry points are one body: on a `launch_class`-opted-in
/// app (so one execution recurs under several launch shapes) they return
/// identical rows and rejections in identical order and elide the same
/// configurations — duplicates and those a family sibling's margins cover.
#[test]
fn sweep_entry_points_agree_on_rows_and_dedup() {
    use hpac_offload::apps::kmeans::KMeans;
    use hpac_offload::harness::space;

    let _g = obs_lock();
    let bench = KMeans {
        n_points: 512,
        max_iters: 20,
        ..KMeans::default()
    };
    let spec = DeviceSpec::v100();
    let plan = space::plan(&bench, &spec, Scale::Quick);
    let counted = |sweep: &dyn Fn() -> runner::SweepOutcome| {
        obs::set_enabled(true);
        let before = obs::snapshot();
        let out = sweep();
        obs::set_enabled(false);
        let _ = obs::drain_events();
        let delta = obs::snapshot().delta_since(&before);
        let elided = [
            obs::CounterId::ConfigsDeduped,
            obs::CounterId::ConfigsThresholdCovered,
            obs::CounterId::ConfigsEvaluated,
            obs::CounterId::ConfigsRejected,
        ]
        .map(|c| delta.counter(c));
        (out, elided)
    };
    let (par, par_dups) = counted(&|| runner::run_sweep(&bench, &spec, Scale::Quick));
    let (ser, ser_dups) =
        counted(&|| runner::run_sweep_serial(&bench, &spec, Scale::Quick, &ExecOptions::default()));
    let (cfg, cfg_dups) = counted(&|| runner::run_configs(&bench, &spec, &plan));

    let [deduped, covered, evaluated, refused] = par_dups;
    assert!(covered > 0, "some sibling's margin must cover another");
    assert!(deduped > covered, "the plan must contain duplicates too");
    assert_eq!((par_dups, par_dups), (ser_dups, cfg_dups));
    assert_eq!(par.rows.len() + par.rejected.len(), plan.len());
    // Every plan entry was run, refused at launch, or answered by another's run.
    assert_eq!(evaluated + refused + deduped, plan.len() as u64);
    assert_eq!(par.rows, ser.rows);
    assert_eq!(par.rows, cfg.rows);
    assert_eq!(par.rejected, ser.rejected);
    assert_eq!(par.rejected, cfg.rejected);
}

/// The JSONL sink writes one parseable object per line with the documented
/// fields (validated with the tuner's JSON parser — no external deps).
#[test]
fn jsonl_sink_emits_schema_valid_lines() {
    let _g = obs_lock();
    let path = temp_path("events", "jsonl");
    let cfg = obs::parse_hpac_trace(path.to_str().unwrap())
        .unwrap()
        .unwrap();
    assert_eq!(cfg.format, obs::TraceFormat::Jsonl);
    obs::install_sink(cfg).unwrap();
    let _ = obs::drain_events();

    obs::set_enabled(true);
    let bench = tiny_bs();
    let spec = DeviceSpec::v100();
    let _ = runner::run_sweep_serial(&bench, &spec, Scale::Quick, &ExecOptions::default());
    obs::set_enabled(false);
    let stats = obs::finish().unwrap();
    assert!(stats.events > 0, "sweep recorded no events");

    let text = std::fs::read_to_string(&path).unwrap();
    let mut config_evals = 0usize;
    let mut lines = 0usize;
    for line in text.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let ty = v.get("type").and_then(Json::as_str).expect("type field");
        assert!(ty == "span" || ty == "instant", "unknown type {ty}");
        assert!(v.get("name").and_then(Json::as_str).is_some());
        assert!(v.get("worker").and_then(Json::as_f64).is_some());
        assert!(v.get("seq").and_then(Json::as_f64).is_some());
        let t0 = v.get("t0_ns").and_then(Json::as_f64).expect("t0_ns");
        let t1 = v.get("t1_ns").and_then(Json::as_f64).expect("t1_ns");
        assert!(t1 >= t0);
        assert!(matches!(v.get("args"), Some(Json::Obj(_))), "args object");
        if v.get("name").and_then(Json::as_str) == Some("config_eval") {
            // Interned app names resolve back to strings in the sink.
            let app = v
                .get("args")
                .and_then(|a| a.get("app"))
                .and_then(Json::as_str)
                .expect("config_eval carries the app name");
            assert_eq!(app, "Blackscholes");
            config_evals += 1;
        }
        lines += 1;
    }
    assert_eq!(lines as u64, stats.events);
    assert!(config_evals > 0, "no config_eval spans in the trace");
    let _ = std::fs::remove_file(&path);
}

/// The Chrome sink writes a `chrome://tracing`-loadable JSON array: every
/// element has name/ph/pid/tid/ts, spans are `ph: "X"` with a duration, and
/// thread-name metadata closes the file.
#[test]
fn chrome_sink_emits_loadable_trace() {
    let _g = obs_lock();
    let path = temp_path("trace", "json");
    let raw = format!("{}:chrome", path.display());
    let cfg = obs::parse_hpac_trace(&raw).unwrap().unwrap();
    assert_eq!(cfg.format, obs::TraceFormat::Chrome);
    obs::install_sink(cfg).unwrap();
    let _ = obs::drain_events();

    obs::set_enabled(true);
    let bench = tiny_bs();
    let spec = DeviceSpec::v100();
    let _ = runner::run_sweep_serial(&bench, &spec, Scale::Quick, &ExecOptions::default());
    obs::set_enabled(false);
    obs::finish().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    let Json::Arr(events) = v else {
        panic!("chrome trace must be a JSON array");
    };
    assert!(!events.is_empty());
    let mut complete = 0usize;
    let mut metadata = 0usize;
    for e in &events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph field");
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
        match ph {
            "X" => {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
                complete += 1;
            }
            "i" => {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
            }
            "M" => metadata += 1,
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(complete > 0, "no complete (span) events");
    assert!(metadata > 0, "no thread-name metadata");
    let _ = std::fs::remove_file(&path);
}

/// Exactly one diagnostics path: library crates must not grow ad-hoc
/// `println!` / `eprintln!` calls — warnings go through `obs::log_warn`,
/// whose stderr write in `crates/obs/src/lib.rs` is the single allowed
/// site. Bins, benches, shims, and tests are exempt (printing is their
/// job); comments don't count.
#[test]
fn library_crates_have_no_adhoc_print_macros() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let library_src = [
        "crates/core/src",
        "crates/gpu-sim/src",
        "crates/apps/src",
        "crates/harness/src",
        "crates/tuner/src",
        "crates/obs/src",
        "src",
    ];
    let allowed = root.join("crates/obs/src/lib.rs");

    fn scan(dir: &std::path::Path, allowed: &std::path::Path, offenders: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                scan(&path, allowed, offenders);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("rs") || path == allowed {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source file");
            for (i, line) in text.lines().enumerate() {
                let trimmed = line.trim_start();
                if trimmed.starts_with("//") || trimmed.starts_with('*') {
                    continue;
                }
                if trimmed.contains("println!(") || trimmed.contains("eprintln!(") {
                    offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
                }
            }
        }
    }

    let mut offenders = Vec::new();
    for dir in library_src {
        scan(&root.join(dir), &allowed, &mut offenders);
    }
    assert!(
        offenders.is_empty(),
        "ad-hoc print macros in library crates (route them through hpac_obs::log_warn):\n{}",
        offenders.join("\n")
    );
}
