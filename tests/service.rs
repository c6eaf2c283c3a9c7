//! Cross-crate tests of the tuning service: request coalescing under real
//! thread concurrency, warm-start bound/budget guarantees, what a service
//! retains between requests (and that a panicking benchmark or a non-finite
//! output cannot wedge or mislead it), and crash-atomicity of the sharded
//! cache's write-replace protocol.

mod common;

use common::{fresh_cache, plan_bits, quick_service, small_bs, temp_dir, Probe};
use gpu_sim::DeviceSpec;
use hpac_offload::apps::binomial::BinomialOptions;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::apps::common::{AppResult, Benchmark, LaunchParams};
use hpac_offload::apps::kmeans::KMeans;
use hpac_offload::core::exec::ExecOptions;
use hpac_offload::core::region::{ApproxRegion, RegionError};
use hpac_offload::harness::space::baseline_ipts;
use hpac_offload::service::{Source, TuneRequest, TuneResponse, TuningService, WarmStart};
use hpac_offload::tuner::{
    device_fingerprint, ParetoFrontier, ParetoPoint, QualityBound, TunedPlan, TuningCache,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};

/// A quick-scale service over a fresh cache, with a small search budget so
/// property cases stay fast.
fn small_budget_service(tag: &str) -> (TuningService, TuningCache) {
    let cache = fresh_cache(tag);
    (quick_service(&cache, 0.001), cache)
}

proptest! {
    /// N concurrent identical requests run exactly one search, and every
    /// caller receives a bit-identical plan.
    #[test]
    fn concurrent_identical_requests_search_once(n in 2usize..8, bound_off in 0.0f64..40.0) {
        static SHARED: OnceLock<TuningService> = OnceLock::new();
        let svc = SHARED.get_or_init(|| small_budget_service("coalesce").0);
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        // A distinct bound per case makes the key fresh, forcing a search;
        // duplicate bounds across cases just turn into cache hits, which
        // the assertions below tolerate.
        let bound = QualityBound::percent(30.0 + bound_off);

        let searches_before = svc.stats().searches;
        let barrier = Barrier::new(n);
        let responses: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let barrier = &barrier;
                    let bench = &bench;
                    let device = &device;
                    s.spawn(move || {
                        let req = TuneRequest::new(bench, device, bound)
                            .warm_start(WarmStart::Never);
                        barrier.wait();
                        svc.submit(req)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let searches = svc.stats().searches - searches_before;
        prop_assert!(
            searches <= 1,
            "{n} concurrent identical requests ran {searches} searches"
        );
        let first = &responses[0];
        for resp in &responses {
            prop_assert_eq!(&resp.plan.config, &first.plan.config);
            prop_assert_eq!(
                resp.plan.predicted_speedup.to_bits(),
                first.plan.predicted_speedup.to_bits()
            );
            prop_assert_eq!(
                resp.plan.measured_error_pct.to_bits(),
                first.plan.measured_error_pct.to_bits()
            );
            prop_assert!(resp.plan.respects_bound());
            match resp.source {
                // The one leader (when the key was fresh) searched cold.
                Source::Searched { warm_seeds } => prop_assert_eq!(warm_seeds, 0),
                Source::Coalesced | Source::CacheHit => {
                    prop_assert_eq!(resp.evals_spent, 0);
                }
            }
        }
    }

    /// A warm-started search never violates the quality bound and — when
    /// its seeds contain a feasible winner, i.e. the bound is at or above a
    /// cached neighbor's — never spends more evaluations than the cold
    /// search that produced the neighbor.
    #[test]
    fn warm_start_respects_bound_and_budget(bound_off in 0.001f64..20.0) {
        static SHARED: OnceLock<(TuningService, usize)> = OnceLock::new();
        let (svc, cold_evals) = SHARED.get_or_init(|| {
            // A budget large enough to find a feasible winner (the 0.001
            // coalescing budget is not); only the first case pays for the
            // one cold search — every later case rides the seed fast path.
            let svc = quick_service(&fresh_cache("warm"), 0.01);
            let bench = Blackscholes::default();
            let device = DeviceSpec::v100();
            let cold = svc.submit(
                TuneRequest::new(&bench, &device, QualityBound::percent(5.0))
                    .warm_start(WarmStart::Never),
            );
            assert!(
                cold.plan.predicted_speedup > 1.0,
                "test needs a feasible cold winner"
            );
            let evals = cold.evals_spent;
            (svc, evals)
        });
        let bench = Blackscholes::default();
        let device = DeviceSpec::v100();
        // Bounds looser than the cached 5% neighbor: its winner is already
        // feasible, so the seed fast path must fire.
        let bound = QualityBound::percent(5.0 + bound_off);

        let resp = svc.submit(TuneRequest::new(&bench, &device, bound));
        prop_assert!(
            resp.plan.respects_bound(),
            "warm plan at {}% measured {}%",
            bound.max_error_pct,
            resp.plan.measured_error_pct
        );
        match resp.source {
            Source::Searched { warm_seeds } => {
                prop_assert!(warm_seeds > 0, "seeds existed but were not used");
                prop_assert!(
                    resp.evals_spent <= *cold_evals,
                    "warm spent {} evals, cold spent {cold_evals}",
                    resp.evals_spent
                );
            }
            // A repeated bound value across cases is just a cache hit.
            Source::CacheHit | Source::Coalesced => prop_assert_eq!(resp.evals_spent, 0),
        }
    }
}

fn small_kmeans() -> KMeans {
    KMeans {
        n_points: 512,
        max_iters: 30,
        ..KMeans::default()
    }
}

/// The bound sweep of one (benchmark, device): the four template bounds in
/// ascending order — each after the first warm-starts from those before —
/// then four bounds no cache has seen.
const BOUND_SWEEP: [f64; 8] = [3.0, 5.0, 8.0, 12.0, 5.01, 5.02, 5.03, 5.04];

/// One service answering a whole bound sweep measures each (benchmark,
/// device) baseline once, and answers every request exactly as a service
/// created for that request alone — which measures its own — does.
fn check_bound_sweep_on_one_service<B: Benchmark + Copy>(inner: B, tag: &str) {
    let devices = DeviceSpec::evaluation_platforms();
    let candidates = baseline_ipts(&inner).len();
    let tags = AtomicUsize::new(1);
    let next_tag =
        || (std::process::id() as u64) << 32 | tags.fetch_add(1, Ordering::SeqCst) as u64;

    let retained_cache = fresh_cache(&format!("{tag}_retained"));
    let retained = quick_service(&retained_cache, 0.005);
    let probe = Probe::new(inner, next_tag());
    let lone_cache = fresh_cache(&format!("{tag}_fresh"));

    for (d, device) in devices.iter().enumerate() {
        for bound in BOUND_SWEEP {
            let bound = QualityBound::percent(bound);
            let kept = retained.submit(TuneRequest::new(&probe, device, bound));
            assert_eq!(
                probe.accurate_runs(),
                candidates * (d + 1),
                "{tag}: one baseline per device, whatever the bound"
            );

            // Same persistent cache history, nothing kept in memory. The
            // lone probe is a new instance to the cache, so its history is
            // re-keyed to it first: a re-tagged probe computes bit-identical
            // results, so that is the history it would have made itself.
            // Only this (benchmark, device)'s entries are asked for from
            // here on, and they are written back into a cleared cache: a
            // rename over an existing entry waits on a data flush on ext4
            // (about 80 ms a store), a rename onto a new path does not.
            let lone_probe = Probe::new(inner, next_tag());
            let fingerprint = device_fingerprint(device);
            let history = lone_cache.neighbors(lone_probe.name(), device.name, fingerprint);
            lone_cache.clear().unwrap();
            for mut plan in history {
                plan.instance = lone_probe.params_key();
                lone_cache.store(&plan, fingerprint).unwrap();
            }
            let lone = quick_service(&lone_cache, 0.005).submit(TuneRequest::new(
                &lone_probe,
                device,
                bound,
            ));
            assert_eq!(lone_probe.accurate_runs(), candidates);

            assert_eq!(kept.source, lone.source, "{tag} at {bound:?}");
            assert!(kept.source.is_searched());
            assert_eq!(
                plan_bits(&kept.plan),
                plan_bits(&lone.plan),
                "{tag} at {bound:?}"
            );
            assert!(kept.plan.respects_bound());
        }
    }
    let _ = retained_cache.clear();
    let _ = lone_cache.clear();
}

#[test]
fn bound_sweep_on_one_service_measures_each_baseline_once() {
    check_bound_sweep_on_one_service(small_bs(), "sweep_bs");
    check_bound_sweep_on_one_service(small_kmeans(), "sweep_km");
}

/// A warm request whose stored winner reproduces makes one approximated run,
/// whatever the size of the neighborhood it was seeded from, and answers
/// what the cold search answers.
#[test]
fn verified_warm_request_makes_one_approximated_run() {
    let cache = fresh_cache("verify_one");
    let svc = quick_service(&cache, 0.1);
    let device = DeviceSpec::v100();
    let tag = (std::process::id() as u64) << 32 | 0x7E51;
    let probe = Probe::new(Blackscholes::default(), tag);

    // Two neighbors, one of them searched cold at a looser bound so that
    // its frontier brings other points than the winner.
    let cold = svc.submit(
        TuneRequest::new(&probe, &device, QualityBound::percent(12.0)).warm_start(WarmStart::Never),
    );
    assert!(cold.plan.predicted_speedup > 1.0 && !cold.plan.verified_seed);
    // Configurations a sibling's decision margins answered are charged to
    // the budget but not run.
    assert!((1..=cold.evals_spent).contains(&probe.approx_runs()));
    svc.submit(TuneRequest::new(
        &probe,
        &device,
        QualityBound::percent(5.0),
    ));

    for (i, bound) in [5.01, 5.02, 7.5, 40.0].into_iter().enumerate() {
        let before = probe.approx_runs();
        let warm = svc.submit(TuneRequest::new(
            &probe,
            &device,
            QualityBound::percent(bound),
        ));
        let Source::Searched { warm_seeds } = warm.source else {
            panic!("a never-seen bound searches, got {:?}", warm.source);
        };
        assert!(warm_seeds > 1, "a neighborhood, not one point");
        assert!(warm.plan.verified_seed, "at {bound}%");
        assert_eq!(warm.evals_spent, 1);
        assert_eq!(probe.approx_runs() - before, 1, "at {bound}%");
        assert_eq!(warm.plan.config, cold.plan.config);
        assert_eq!(
            warm.plan.predicted_speedup.to_bits(),
            cold.plan.predicted_speedup.to_bits()
        );
        assert!(warm.plan.respects_bound());
        assert_eq!(svc.stats().warm_starts, 2 + i as u64);
    }
    // One baseline for all six searches, and nothing kept of the runs: the
    // fifth warm request ran its winner again.
    assert_eq!(probe.accurate_runs(), baseline_ipts(&probe).len());
    let _ = cache.clear();
}

/// Cache entries and in-flight searches are keyed by the bound rounded to a
/// basis point. A request is answered from either only by a plan measured
/// within *its* bound, whichever of two bounds sharing a key came first.
#[test]
fn a_hit_meets_the_requests_bound_not_the_entrys() {
    let device = DeviceSpec::v100();
    let bench = Blackscholes::default();
    let fingerprint = device_fingerprint(&device);
    let (loose, tight) = (5.0, 4.996);

    // Looser first. The stored plan claims an error between the two bounds
    // (no real plan of this benchmark lands in a window that narrow).
    let cache = fresh_cache("bound_rounding");
    let svc = quick_service(&cache, 0.1);
    let first = svc.submit(TuneRequest::new(
        &bench,
        &device,
        QualityBound::percent(loose),
    ));
    assert!(first.source.is_searched());
    let mut stored = first.plan.clone();
    stored.measured_error_pct = 4.999;
    cache.store(&stored, fingerprint).unwrap();
    let at_loose = svc.submit(TuneRequest::new(
        &bench,
        &device,
        QualityBound::percent(loose),
    ));
    assert_eq!(at_loose.source, Source::CacheHit);
    assert_eq!(at_loose.plan.measured_error_pct, 4.999);

    let at_tight = svc.submit(TuneRequest::new(
        &bench,
        &device,
        QualityBound::percent(tight),
    ));
    assert!(
        at_tight.source.is_searched(),
        "4.999% measured does not answer a 4.996% request: {:?}",
        at_tight.source
    );
    assert!(at_tight.plan.measured_error_pct <= tight);
    assert_eq!(at_tight.plan.bound_pct, tight);
    // Its plan replaced the entry, and now answers both bounds.
    for bound in [tight, loose] {
        let again = svc.submit(TuneRequest::new(
            &bench,
            &device,
            QualityBound::percent(bound),
        ));
        assert_eq!(again.source, Source::CacheHit, "at {bound}%");
        assert_eq!(again.plan.bound_pct, tight);
        assert!(again.plan.measured_error_pct <= bound);
    }
    assert_eq!(svc.stats().searches, 2);
    let _ = cache.clear();

    // Tighter first: what it stores is within the looser bound too.
    let cache = fresh_cache("bound_rounding_rev");
    let svc = quick_service(&cache, 0.1);
    let first = svc.submit(TuneRequest::new(
        &bench,
        &device,
        QualityBound::percent(tight),
    ));
    assert!(first.source.is_searched());
    let second = svc.submit(TuneRequest::new(
        &bench,
        &device,
        QualityBound::percent(loose),
    ));
    assert_eq!(second.source, Source::CacheHit);
    assert!(second.plan.measured_error_pct <= tight);
    let _ = cache.clear();

    // Both at once, from a cold cache: one may lead and the other wait on
    // it, and each is still answered within its own bound.
    let cache = fresh_cache("bound_rounding_both");
    let svc = quick_service(&cache, 0.1);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for bound in [loose, tight] {
            let (svc, start, bench, device) = (&svc, &start, &bench, &device);
            s.spawn(move || {
                start.wait();
                let resp = svc.submit(TuneRequest::new(
                    bench,
                    device,
                    QualityBound::percent(bound),
                ));
                assert!(resp.plan.measured_error_pct <= bound, "at {bound}%");
            });
        }
    });
    let _ = cache.clear();
}

/// Fault injection: the benchmark panics in the middle of a baseline
/// selection. The request that was searching is abandoned — its caller sees
/// the panic, a concurrent identical request takes over and is answered —
/// the next requests for that key and for a sibling (benchmark, device) whose
/// baseline lives in the same scope succeed, and what they return is what
/// an undisturbed service returns. The instance and budget are ones where
/// the search finds an approximated winner, so that comparison is between
/// two searched plans, not two accurate fallbacks.
#[test]
fn panicking_accurate_run_abandons_one_request_and_wedges_nothing() {
    let cache = fresh_cache("fault");
    let svc = quick_service(&cache, 0.01);
    let device = DeviceSpec::v100();
    let bound = QualityBound::percent(5.0);
    let tag = (std::process::id() as u64) << 32 | 0xFA17;
    let faulty = Probe {
        // The second of the three baseline candidates.
        panic_on: Some(2),
        ..Probe::new(Blackscholes::default(), tag)
    };

    // A sibling device (its own persistent-cache entries, by name) whose
    // baseline key shares the faulty key's store.
    let sibling_device = DeviceSpec {
        name: "V100-sibling",
        sm_count: device.sm_count + 1,
        ..device
    };

    // Two identical requests at once: whichever leads hits the fault.
    let start = Barrier::new(2);
    let outcomes: Vec<std::thread::Result<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    svc.submit(TuneRequest::new(&faulty, &device, bound))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let (answered, abandoned): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(|o| o.is_ok());
    assert_eq!(abandoned.len(), 1, "exactly one request meets the fault");
    let answered = answered
        .into_iter()
        .next()
        .expect("the other is answered")
        .unwrap();
    assert!(
        answered.source.is_searched(),
        "it searched after the leader died"
    );
    assert_eq!(faulty.accurate_runs(), 2 + baseline_ipts(&faulty).len());

    let sibling = svc.submit(TuneRequest::new(&faulty, &sibling_device, bound));
    assert!(sibling.source.is_searched());
    let again = svc.submit(TuneRequest::new(&faulty, &device, bound));
    assert_eq!(again.source, Source::CacheHit);
    // A never-seen bound on the faulted key searches, and finds the baseline.
    let runs_before = faulty.accurate_runs();
    let next = svc.submit(TuneRequest::new(
        &faulty,
        &device,
        QualityBound::percent(5.5),
    ));
    assert!(next.source.is_searched());
    assert_eq!(faulty.accurate_runs(), runs_before, "baseline was retained");

    let clean_cache = fresh_cache("fault_clean");
    let clean = quick_service(&clean_cache, 0.01).submit(TuneRequest::new(
        &Probe::new(Blackscholes::default(), tag + 1),
        &device,
        bound,
    ));
    assert_ne!(answered.plan.technique, "accurate", "a searched winner");
    assert_eq!(plan_bits(&answered.plan), plan_bits(&clean.plan));
    let _ = cache.clear();
    let _ = clean_cache.clear();
}

/// Fault injection: one approximated run of a search returns a QoI holding
/// NaN, +inf or −inf. The search scores it infinitely wrong and goes on:
/// every frontier point and the served plan are finite, the plan meets its
/// bound when run again, and a later request on a sibling device, whose
/// baseline lives in the faulted benchmark's scope, returns what an
/// undisturbed service returns.
#[test]
fn a_non_finite_qoi_is_scored_out_and_disturbs_no_sibling() {
    let device = DeviceSpec::v100();
    let sibling_device = DeviceSpec {
        name: "V100-sibling",
        sm_count: device.sm_count + 1,
        ..device
    };
    let bound = QualityBound::percent(5.0);
    for (i, value) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        let tag = (std::process::id() as u64) << 32 | 0x0BAD_0000 | (i as u64) << 4;
        let cache = fresh_cache(&format!("value_fault_{i}"));
        let svc = quick_service(&cache, 0.1);
        let faulty = Probe {
            corrupt_on: Some((2, value)),
            ..Probe::new(Blackscholes::default(), tag)
        };
        let resp = svc.submit(TuneRequest::new(&faulty, &device, bound));
        assert!(resp.source.is_searched());
        assert!(resp.plan.predicted_speedup > 1.0, "an approximated winner");
        assert!(
            faulty.approx_runs() >= 2,
            "the fault at {value} never fired"
        );

        let plan = &resp.plan;
        assert!(
            plan.predicted_speedup.is_finite() && plan.measured_error_pct.is_finite(),
            "after {value}: served {plan:?}"
        );
        for point in plan.frontier.points() {
            assert!(
                point.speedup.is_finite() && point.error_pct.is_finite(),
                "after {value}: frontier holds {point:?}"
            );
        }
        let rerun = plan
            .execute(&Blackscholes::default(), &device)
            .expect("the served plan re-executes");
        assert!(
            rerun.error_pct <= bound.max_error_pct,
            "after {value}: the plan re-executes at {}% error",
            rerun.error_pct
        );

        let sibling = svc.submit(TuneRequest::new(&faulty, &sibling_device, bound));
        let clean_cache = fresh_cache(&format!("value_fault_clean_{i}"));
        let clean = quick_service(&clean_cache, 0.1).submit(TuneRequest::new(
            &Probe::new(Blackscholes::default(), tag + 1),
            &sibling_device,
            bound,
        ));
        assert_eq!(sibling.source, clean.source, "after {value}");
        assert_eq!(
            plan_bits(&sibling.plan),
            plan_bits(&clean.plan),
            "after {value}"
        );
        let _ = cache.clear();
        let _ = clean_cache.clear();
    }
}

/// A plan with a deliberately wide frontier, so its JSON entry is large
/// enough that a mid-write kill has a real window to tear it.
fn bulky_plan(bound_pct: f64) -> TunedPlan {
    let region = ApproxRegion::memo_out(2, 32, 0.9);
    let lp = LaunchParams::new(16, 256);
    let mut frontier = ParetoFrontier::new();
    for i in 0..512 {
        frontier.insert(ParetoPoint {
            speedup: 1.0 + (i + 1) as f64 * 0.01,
            error_pct: (i + 1) as f64 * 0.01,
            technique: "TAF".into(),
            config: format!("h=2 p=32 thr=0.9 lvl=warp ipt=16 variant={i}"),
            items_per_thread: 16,
            region: Some(region),
            lp: Some(lp),
        });
    }
    assert_eq!(frontier.len(), 512);
    TunedPlan {
        benchmark: "Blackscholes".into(),
        device: "V100".into(),
        instance: None,
        bound_pct,
        region: Some(region),
        lp,
        technique: "TAF".into(),
        config: "h=2 p=32 thr=0.9 lvl=warp ipt=16".into(),
        predicted_speedup: 2.0,
        measured_error_pct: 1.0,
        baseline_lp: LaunchParams::new(8, 256),
        evaluations: 100,
        full_space: 7854,
        from_cache: false,
        verified_seed: false,
        frontier,
    }
}

const TORN_DIR_VAR: &str = "HPAC_TORN_WRITE_DIR";

/// Helper process body for `store_survives_mid_write_kill`: hammer the
/// cache with stores until killed. Ignored in normal runs; the parent test
/// re-executes this binary with `--ignored --exact` and the env var set.
#[test]
#[ignore = "child process body for store_survives_mid_write_kill"]
fn torn_write_child_worker() {
    let Ok(dir) = std::env::var(TORN_DIR_VAR) else {
        return; // invoked directly (e.g. `cargo test -- --ignored`): no-op
    };
    let cache = TuningCache::new(&dir);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut bound = 0usize;
    while std::time::Instant::now() < deadline {
        // Cycle a handful of keys so loads race replacements, not just
        // first writes.
        let plan = bulky_plan((bound % 8 + 1) as f64);
        cache.store(&plan, 42).expect("store");
        bound += 1;
    }
}

/// Kill a writer process mid-store, repeatedly, then verify the cache never
/// exposes a torn entry: every `.json` file present must load as a complete,
/// valid plan. (With plain `fs::write` instead of write-replace, this test
/// reliably finds truncated entries.)
#[test]
fn store_survives_mid_write_kill() {
    let dir = temp_dir("torn");
    let cache = TuningCache::new(&dir);
    let _ = cache.clear();
    let exe = std::env::current_exe().expect("current test binary");

    for round in 0..6 {
        let mut child = std::process::Command::new(&exe)
            .args(["torn_write_child_worker", "--exact", "--ignored"])
            .env(TORN_DIR_VAR, &dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn writer child");
        // Let it get into the write loop, then kill it mid-flight. Vary the
        // delay so the kill lands at different write offsets.
        std::thread::sleep(std::time::Duration::from_millis(120 + 37 * round));
        child.kill().expect("kill writer child");
        let _ = child.wait();
    }

    // Every surviving .json entry must be complete and loadable. A torn
    // write would fail the parse, making load() return None (and delete
    // the file) — caught here because the file existed a moment before.
    let mut entries = 0usize;
    for shard in std::fs::read_dir(&dir).expect("cache dir exists").flatten() {
        if !shard.path().is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(shard.path())
            .expect("shard dir")
            .flatten()
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(stem) = name.strip_suffix("bp.json") else {
                continue; // .tmp debris from killed writers is expected
            };
            let bound_bp: i64 = stem
                .rsplit("__")
                .next()
                .and_then(|s| s.parse().ok())
                .expect("entry name encodes the bound");
            let plan = cache
                .load("Blackscholes", "V100", bound_bp as f64 / 100.0, 42)
                .unwrap_or_else(|| panic!("torn or unloadable entry: {name}"));
            assert_eq!(plan.frontier.len(), 512, "partial frontier in {name}");
            entries += 1;
        }
    }
    assert!(entries > 0, "kill test never observed a completed store");
    let _ = cache.clear();
}

/// The fingerprint in a stored entry is the device's, end to end: a service
/// answer cached on one device spec is never served for a recalibrated one.
#[test]
fn service_cache_keys_on_device_fingerprint() {
    let (svc, cache) = small_budget_service("fingerprint");
    let bench = Blackscholes::default();
    let device = DeviceSpec::v100();
    let bound = QualityBound::percent(5.0);
    let first = svc.submit(TuneRequest::new(&bench, &device, bound));
    assert!(first.source.is_searched());

    let mut recalibrated = device;
    recalibrated.costs.global_txn_cycles *= 1.5;
    assert_ne!(
        device_fingerprint(&device),
        device_fingerprint(&recalibrated)
    );
    let second = svc.submit(TuneRequest::new(&bench, &recalibrated, bound));
    assert!(
        second.source.is_searched(),
        "recalibrated device must not be served the stale entry"
    );
    let _ = cache.clear();
}

/// Binomial Options at the sizes where a plan tuned on one seed's portfolio
/// errs past the bound on others.
fn binomial(seed: u64) -> BinomialOptions {
    BinomialOptions {
        n_options: 1024,
        tree_steps: 96,
        seed,
        ..BinomialOptions::default()
    }
}

/// A plan answers only the instance it was tuned on. Seed 0's plan sits in
/// the cache at the bound every other seed asks for, and on some of them it
/// errs past that bound. Asked one after another and all at once, each
/// other seed searches its own instance cold and is served a plan that
/// meets the bound when run again on it. The instances take turns at the
/// one entry path: seed 0, asked again, searches again.
#[test]
fn no_plan_crosses_instances() {
    let cache = fresh_cache("instances");
    let device = DeviceSpec::v100();
    let bound = QualityBound::percent(5.0);
    let fingerprint = device_fingerprint(&device);
    let tuned = quick_service(&cache, 0.1)
        .submit(TuneRequest::new(&binomial(0), &device, bound))
        .plan;
    assert!(tuned.region.is_some(), "seed 0 tunes an approximated plan");
    let others: Vec<BinomialOptions> = (1001..1005).map(binomial).collect();
    assert!(
        others.iter().any(|bench| {
            tuned.execute(bench, &device).unwrap().error_pct > bound.max_error_pct
        }),
        "seed 0's plan meets the bound on every other seed: nothing to show"
    );

    let check = |bench: &BinomialOptions, resp: &TuneResponse| {
        assert_eq!(
            resp.source,
            Source::Searched { warm_seeds: 0 },
            "seed {}",
            bench.seed
        );
        assert_eq!(
            resp.plan.instance,
            bench.params_key(),
            "seed {}",
            bench.seed
        );
        if resp.plan.region.is_some() {
            let rerun = resp.plan.execute(bench, &device).unwrap();
            assert!(
                rerun.error_pct <= bound.max_error_pct,
                "seed {}: {}% error",
                bench.seed,
                rerun.error_pct
            );
        }
    };
    let svc = quick_service(&cache, 0.1);
    for bench in &others {
        check(bench, &svc.submit(TuneRequest::new(bench, &device, bound)));
    }
    // All at once, from seed 0's entry again.
    cache.store(&tuned, fingerprint).unwrap();
    let svc = quick_service(&cache, 0.1);
    let reqs: Vec<TuneRequest> = others
        .iter()
        .map(|bench| TuneRequest::new(bench, &device, bound))
        .collect();
    for (bench, resp) in others.iter().zip(svc.submit_batch(&reqs)) {
        check(bench, &resp);
    }
    assert_eq!(svc.stats().searches, others.len() as u64);

    let seed0 = binomial(0);
    let again = svc.submit(TuneRequest::new(&seed0, &device, bound));
    assert!(again.source.is_searched(), "the last writer took the entry");
    assert_eq!(plan_bits(&again.plan), plan_bits(&tuned));
    let hit = svc.submit(TuneRequest::new(&seed0, &device, bound));
    assert_eq!(hit.source, Source::CacheHit);
    assert_eq!(hit.plan.instance, seed0.params_key());
    let _ = cache.clear();
}

/// A benchmark that declares no parameter identity.
struct Unkeyed<B>(B);

impl<B: Benchmark> Benchmark for Unkeyed<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn error_metric(&self) -> &'static str {
        self.0.error_metric()
    }

    fn kernel_only_timing(&self) -> bool {
        self.0.kernel_only_timing()
    }

    fn run_opts(
        &self,
        spec: &DeviceSpec,
        region: Option<&ApproxRegion>,
        lp: &LaunchParams,
        opts: &ExecOptions,
    ) -> Result<AppResult, RegionError> {
        self.0.run_opts(spec, region, lp, opts)
    }
}

/// An instance without a `params_key` cannot say which instance a plan
/// answers, so none is shared with it: two identical requests at once both
/// search, and nothing is stored.
#[test]
fn an_unkeyed_instance_is_never_coalesced_or_cached() {
    let (svc, cache) = small_budget_service("unkeyed");
    let bench = Unkeyed(small_bs());
    assert_eq!(bench.params_key(), None);
    let device = DeviceSpec::v100();
    let start = Barrier::new(2);
    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    svc.submit(TuneRequest::new(
                        &bench,
                        &device,
                        QualityBound::percent(5.0),
                    ))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for resp in &responses {
        assert_eq!(resp.source, Source::Searched { warm_seeds: 0 });
        assert_eq!(resp.plan.instance, None);
    }
    let stats = svc.stats();
    assert_eq!(
        (stats.searches, stats.coalesced, stats.cache_hits),
        (2, 0, 0)
    );
    assert!(!cache.dir().exists(), "nothing was stored");
    let _ = cache.clear();
}
