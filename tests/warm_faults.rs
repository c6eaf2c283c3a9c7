//! Fault injection on the cache paths of the tuning service. On the warm
//! path: cached neighbors that claim what was never measured, that cannot be
//! decoded, or whose directory is gone. On the hit path: the requested key's
//! own entry torn, or its shard directory gone. Whatever the cache says, the
//! answer is a plan that re-executes to its own numbers; a claim that does
//! not reproduce is counted and nothing is deleted for it; entries that were
//! not damaged stay on disk; nothing panics.
//!
//! The tests read `hpac-obs` counters, which are process-wide, so this file
//! is its own test binary and its tests take turns.

use gpu_sim::DeviceSpec;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::harness::Scale;
use hpac_offload::obs::{self, CounterId};
use hpac_offload::service::{Source, TuneRequest, TuneResponse, TuningService};
use hpac_offload::tuner::{device_fingerprint, QualityBound, TunedPlan, Tuner, TuningCache};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn bench() -> Blackscholes {
    Blackscholes::default()
}

/// The cold plan every neighborhood below is built from: the 5% search of
/// [`bench`] on V100, a winner at zero error and a faster point past 5%.
fn cold_plan() -> &'static TunedPlan {
    static PLAN: OnceLock<TunedPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let plan = Tuner::new().with_scale(Scale::Quick).search_plan(
            &bench(),
            &DeviceSpec::v100(),
            QualityBound::percent(5.0),
            &[],
        );
        let points = plan.frontier.points();
        assert!(plan.predicted_speedup > 1.0 && points.len() > 1);
        assert!(points.last().unwrap().error_pct > 5.0);
        plan
    })
}

/// A cache holding the cold plan under 5% (the entry the tests damage) and
/// under 8% (its sibling), and the paths of the two entries.
fn neighborhood(tag: &str) -> (TuningCache, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("hpac_warm_faults_{tag}_{}", std::process::id()));
    let cache = TuningCache::new(dir);
    let _ = cache.clear();
    let fingerprint = device_fingerprint(&DeviceSpec::v100());
    let nearest = cache.store(cold_plan(), fingerprint).unwrap();
    let sibling = TunedPlan {
        bound_pct: 8.0,
        ..cold_plan().clone()
    };
    let sibling = cache.store(&sibling, fingerprint).unwrap();
    (cache, nearest, sibling)
}

/// Overwrite, in an entry's text, the coordinates its last frontier point
/// claims.
fn forge_last_point(entry: &Path, speedup: &str, error_pct: &str) {
    let text = std::fs::read_to_string(entry).unwrap();
    let (at, _) = text.match_indices("{\"speedup\":").last().unwrap();
    let rest = &text[at..];
    let tail = &rest[rest.find(",\"technique\"").unwrap()..];
    let forged = format!(
        "{}{{\"speedup\":{speedup},\"error_pct\":{error_pct}{tail}",
        &text[..at]
    );
    std::fs::write(entry, forged).unwrap();
}

struct Observed {
    resp: TuneResponse,
    verified: u64,
    mismatches: u64,
    warnings: u64,
}

/// The bound the warm-path tests ask for: one the cache has not seen, whose
/// nearest neighbor is the 5% entry.
const UNSEEN: f64 = 5.01;

/// Ask a fresh service over `cache` for `bench` on `device` at `bound_pct`,
/// and count what the service reported meanwhile.
fn ask(cache: &TuningCache, bench: &Blackscholes, device: &DeviceSpec, bound_pct: f64) -> Observed {
    let svc = TuningService::new()
        .with_tuner(Tuner::new().with_scale(Scale::Quick))
        .with_cache(cache.clone());
    obs::set_enabled(true);
    let before = obs::snapshot();
    let resp = svc.submit(TuneRequest::new(
        bench,
        device,
        QualityBound::percent(bound_pct),
    ));
    obs::set_enabled(false);
    let _ = obs::drain_events();
    let delta = obs::snapshot().delta_since(&before);

    // Whatever the cache said, the plan is this benchmark's own.
    let report = resp.plan.execute(bench, device).unwrap();
    assert_eq!(
        report.speedup.to_bits(),
        resp.plan.predicted_speedup.to_bits()
    );
    assert_eq!(
        report.error_pct.to_bits(),
        resp.plan.measured_error_pct.to_bits()
    );
    assert!(resp.plan.respects_bound());
    Observed {
        resp,
        verified: delta.counter(CounterId::TunerSeedsVerified),
        mismatches: delta.counter(CounterId::TunerSeedMismatches),
        warnings: delta.counter(CounterId::LogWarnings),
    }
}

fn same_answer(a: &TunedPlan, b: &TunedPlan) {
    assert_eq!(a.config, b.config);
    assert_eq!(a.predicted_speedup.to_bits(), b.predicted_speedup.to_bits());
    assert_eq!(
        a.measured_error_pct.to_bits(),
        b.measured_error_pct.to_bits()
    );
}

#[test]
fn an_undamaged_neighborhood_is_verified() {
    let _turn = turn();
    let (cache, ..) = neighborhood("clean");
    let seen = ask(&cache, &bench(), &DeviceSpec::v100(), UNSEEN);
    assert_eq!((seen.verified, seen.mismatches), (1, 0));
    assert!(seen.resp.plan.verified_seed);
    assert_eq!(seen.resp.evals_spent, 1);
    same_answer(&seen.resp.plan, cold_plan());
    let _ = cache.clear();
}

/// The point the bound rules out, rewritten to claim a billionfold speedup
/// at no error: it is the stored winner, it is run, it measures what it
/// always measured, and the search falls back on its own evaluations.
#[test]
fn a_forged_claim_is_run_found_out_and_not_served() {
    let _turn = turn();
    let (cache, nearest, sibling) = neighborhood("forged");
    forge_last_point(&nearest, "1e9", "0");
    let forged = std::fs::read(&nearest).unwrap();

    let seen = ask(&cache, &bench(), &DeviceSpec::v100(), UNSEEN);
    assert_eq!((seen.verified, seen.mismatches), (0, 1));
    assert!(!seen.resp.plan.verified_seed);
    assert_eq!(
        seen.resp.source,
        Source::Searched {
            warm_seeds: cold_plan().frontier.len()
        }
    );
    assert_eq!(seen.resp.evals_spent, cold_plan().frontier.len());
    same_answer(&seen.resp.plan, cold_plan());
    assert!(seen
        .resp
        .plan
        .frontier
        .points()
        .iter()
        .all(|p| p.speedup < 10.0));

    // Nothing was deleted or repaired, so the next request finds it out too.
    assert_eq!(std::fs::read(&nearest).unwrap(), forged);
    assert!(sibling.exists());
    let svc_entry = cache
        .load(
            "Blackscholes",
            "V100",
            5.01,
            device_fingerprint(&DeviceSpec::v100()),
        )
        .expect("the answer was stored");
    same_answer(&svc_entry, cold_plan());
    let _ = cache.clear();
}

/// The name-only cache key (ROADMAP item 2), seen from the warm path: a
/// neighborhood tuned for another instance of the same benchmark does not
/// reproduce on this one, and the plan served is this instance's.
#[test]
fn a_neighborhood_tuned_for_another_instance_is_found_out() {
    let _turn = turn();
    let (cache, nearest, sibling) = neighborhood("other_instance");
    let smaller = Blackscholes {
        n_options: 16384,
        ..bench()
    };
    let seen = ask(&cache, &smaller, &DeviceSpec::v100(), UNSEEN);
    assert_eq!((seen.verified, seen.mismatches), (0, 1));
    assert!(!seen.resp.plan.verified_seed);
    assert!(seen.resp.source.is_searched());
    assert!(nearest.exists() && sibling.exists());
    let _ = cache.clear();
}

/// Coordinates no run can produce. An infinite one decodes (`1e999` is a
/// number) and the frontier refuses the point; `NaN` is not JSON, so the
/// entry is corrupt and goes the way corrupt entries go. Either way the
/// sibling seeds the request and its winner verifies.
#[test]
fn non_finite_claims_never_reach_the_search() {
    let _turn = turn();
    for (tag, speedup, error_pct, entry_survives) in [
        ("inf", "1e999", "0", true),
        ("neg_inf", "2.5", "-1e999", true),
        ("nan", "NaN", "NaN", false),
    ] {
        let (cache, nearest, sibling) = neighborhood(tag);
        forge_last_point(&nearest, speedup, error_pct);
        let seen = ask(&cache, &bench(), &DeviceSpec::v100(), UNSEEN);
        assert_eq!((seen.verified, seen.mismatches), (1, 0), "{tag}");
        same_answer(&seen.resp.plan, cold_plan());
        assert!(seen
            .resp
            .plan
            .frontier
            .points()
            .iter()
            .all(|p| p.speedup.is_finite() && p.error_pct.is_finite()));
        assert_eq!(nearest.exists(), entry_survives, "{tag}");
        assert!(sibling.exists(), "{tag}");
        let _ = cache.clear();
    }
}

#[test]
fn a_truncated_neighbor_is_dropped_and_its_sibling_seeds_the_request() {
    let _turn = turn();
    let (cache, nearest, sibling) = neighborhood("truncated");
    let text = std::fs::read(&nearest).unwrap();
    std::fs::write(&nearest, &text[..text.len() / 2]).unwrap();

    let seen = ask(&cache, &bench(), &DeviceSpec::v100(), UNSEEN);
    assert_eq!((seen.verified, seen.mismatches), (1, 0));
    assert!(matches!(
        seen.resp.source,
        Source::Searched { warm_seeds } if warm_seeds > 0
    ));
    same_answer(&seen.resp.plan, cold_plan());
    assert!(!nearest.exists(), "a torn entry is not left to be re-read");
    assert!(sibling.exists());
    let _ = cache.clear();
}

/// The shard directory is a file: no neighbor can be listed and no answer
/// stored. The request searches cold, says once that it could not persist,
/// and the next one does the same; other shards are not touched.
#[test]
fn a_shard_that_is_a_file_means_a_cold_search_and_a_warning() {
    let _turn = turn();
    let (cache, nearest, _) = neighborhood("shard_file");
    let fingerprint = device_fingerprint(&DeviceSpec::v100());
    let shard = nearest.parent().unwrap().to_path_buf();
    let elsewhere = (0..)
        .map(|i| TunedPlan {
            benchmark: format!("Other-{i}"),
            ..cold_plan().clone()
        })
        .map(|plan| cache.store(&plan, fingerprint).unwrap())
        .find(|path| path.parent().unwrap() != shard)
        .expect("some name hashes to another shard");
    std::fs::remove_dir_all(&shard).unwrap();
    std::fs::write(&shard, "not a directory").unwrap();

    for _ in 0..2 {
        let seen = ask(&cache, &bench(), &DeviceSpec::v100(), UNSEEN);
        assert_eq!(seen.resp.source, Source::Searched { warm_seeds: 0 });
        assert_eq!((seen.verified, seen.mismatches), (0, 0));
        assert_eq!(seen.warnings, 1, "the failed store is reported");
        same_answer(&seen.resp.plan, cold_plan());
        assert_eq!(seen.resp.evals_spent, cold_plan().evaluations);
    }
    assert!(shard.is_file() && elsewhere.exists());
    let _ = cache.clear();
}

/// The hit path's torn entry: the request's own key is truncated. The load
/// deletes it, the request searches (seeded by the 8% sibling) and stores a
/// whole entry in its place, which the next request hits.
#[test]
fn a_truncated_entry_at_the_requested_key_is_replaced_by_a_search() {
    let _turn = turn();
    let (cache, nearest, sibling) = neighborhood("hit_truncated");
    let text = std::fs::read(&nearest).unwrap();
    std::fs::write(&nearest, &text[..text.len() / 2]).unwrap();

    let seen = ask(&cache, &bench(), &DeviceSpec::v100(), 5.0);
    assert!(seen.resp.source.is_searched(), "{:?}", seen.resp.source);
    assert_eq!((seen.verified, seen.mismatches, seen.warnings), (1, 0, 0));
    same_answer(&seen.resp.plan, cold_plan());
    assert!(sibling.exists());

    let stored = cache
        .load(
            "Blackscholes",
            "V100",
            5.0,
            device_fingerprint(&DeviceSpec::v100()),
        )
        .expect("the search stored a whole entry at the key");
    same_answer(&stored, cold_plan());
    let again = ask(&cache, &bench(), &DeviceSpec::v100(), 5.0);
    assert_eq!(again.resp.source, Source::CacheHit);
    same_answer(&again.resp.plan, cold_plan());
    let _ = cache.clear();
}

/// The hit path's lost shard: the requested key's shard directory is a
/// file. The entry cannot be read, so every request searches cold, is
/// answered, and warns once for the store that fails; nothing is persisted.
/// A key in another shard still hits.
#[test]
fn a_shard_that_is_a_file_turns_hits_into_searches_and_spares_other_shards() {
    let _turn = turn();
    let (cache, nearest, _) = neighborhood("hit_shard_file");
    let shard = nearest.parent().unwrap().to_path_buf();
    // The same device model under another name: its numbers are the cold
    // plan's, and its key hashes to its own shard.
    let twin = ["V100-a", "V100-b", "V100-c", "V100-d", "V100-e"]
        .into_iter()
        .map(|name| DeviceSpec {
            name,
            ..DeviceSpec::v100()
        })
        .find(|twin| {
            let plan = TunedPlan {
                device: twin.name.to_string(),
                ..cold_plan().clone()
            };
            let path = cache.store(&plan, device_fingerprint(twin)).unwrap();
            path.parent().unwrap() != shard
        })
        .expect("some name hashes to another shard");
    std::fs::remove_dir_all(&shard).unwrap();
    std::fs::write(&shard, "not a directory").unwrap();

    for _ in 0..2 {
        let seen = ask(&cache, &bench(), &DeviceSpec::v100(), 5.0);
        assert_eq!(seen.resp.source, Source::Searched { warm_seeds: 0 });
        assert_eq!((seen.verified, seen.mismatches), (0, 0));
        assert_eq!(seen.warnings, 1, "the failed store is reported");
        same_answer(&seen.resp.plan, cold_plan());
        assert_eq!(seen.resp.evals_spent, cold_plan().evaluations);
    }
    assert!(shard.is_file());

    let elsewhere = ask(&cache, &bench(), &twin, 5.0);
    assert_eq!(elsewhere.resp.source, Source::CacheHit);
    assert_eq!(elsewhere.warnings, 0);
    same_answer(&elsewhere.resp.plan, cold_plan());
    let _ = cache.clear();
}
