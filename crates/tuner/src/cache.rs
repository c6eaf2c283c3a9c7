//! The persistent tuning cache: a sharded, lock-striped store safe for
//! concurrent readers and writers.
//!
//! A production tuner is asked the same question many times: "fastest
//! configuration for benchmark B on device D under bound X". The answer
//! only changes when the device changes, so each answer — the chosen plan
//! *and* the whole Pareto frontier behind it — is serialized to one JSON
//! file keyed by (benchmark, device, bound). A stored entry carries a
//! fingerprint of the device spec it was tuned against; loading with a
//! different fingerprint invalidates (deletes) the entry instead of serving
//! a stale plan.
//!
//! # Concurrency
//!
//! The store is built for many simultaneous tuning requests:
//!
//! * **Sharding** — entries hash (by benchmark, device) into
//!   [`N_SHARDS`] subdirectories, so directory scans for one key's
//!   neighbors ([`TuningCache::neighbors`]) touch one small shard, not the
//!   whole cache.
//! * **Lock striping** — in-process writers to the same key serialize on
//!   one of [`N_STRIPES`] process-wide stripe locks indexed by the key
//!   hash; writers to different keys proceed in parallel.
//! * **Atomic write-replace** — [`TuningCache::store`] writes the entry to
//!   a uniquely-named temp file in the same directory and `rename`s it
//!   over the final path. Rename is atomic on POSIX, so a reader opening
//!   the final path always sees a *complete* entry (old or new), never a
//!   torn write — and a process killed mid-store leaves only `.tmp` debris
//!   that no reader ever opens.

use crate::json::Json;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::plan::TunedPlan;
use gpu_sim::DeviceSpec;
use hpac_apps::common::LaunchParams;
use hpac_core::hash::fnv1a;
use hpac_core::params::{PerfoKind, Replacement};
use hpac_core::region::{ApproxRegion, Technique};
use hpac_core::HierarchyLevel;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Format version; bump to invalidate every cached entry on schema change.
/// v2: sharded layout, frontier points carry their region + launch shape.
const CACHE_VERSION: f64 = 2.0;

/// Shard subdirectories under the cache root.
pub const N_SHARDS: u64 = 16;

/// Process-wide stripe locks serializing same-key writers.
const N_STRIPES: usize = 16;

#[allow(clippy::declare_interior_mutable_const)] // repeat-initializer only
const STRIPE_INIT: Mutex<()> = Mutex::new(());
static STRIPES: [Mutex<()>; N_STRIPES] = [STRIPE_INIT; N_STRIPES];

/// Uniquifier for temp file names within the process (the pid distinguishes
/// processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The FNV-1a loop with the prime 2^48 + 0x1b3 where FNV-1a proper
/// ([`hpac_core::hash::fnv1a`]) has 2^40 + 0x1b3. Its full 64-bit values are
/// the device fingerprint persisted in every on-disk entry and the tuner's
/// deterministic search seeds, so swapping in the standard prime would
/// invalidate caches and move search trajectories; it stays for those two.
/// Shard and stripe selection read only low bits, which the two primes
/// agree on, and use the shared `fnv1a`.
pub(crate) fn fnv1a_p48(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

/// Stable fingerprint of everything about a device that affects tuning
/// results. Cached entries from a differently-specced device never load.
pub fn device_fingerprint(spec: &DeviceSpec) -> u64 {
    let c = &spec.costs;
    let canonical = format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:e}|{:e}|{:e}|{:e}|{:e}|{:e}|{:e}|{:e}|{:e}|{:e}|{:e}|{:e}",
        spec.name,
        spec.vendor,
        spec.sm_count,
        spec.warp_size,
        spec.max_threads_per_block,
        spec.max_warps_per_sm,
        spec.max_blocks_per_sm,
        spec.shared_mem_per_block,
        spec.shared_mem_per_sm,
        spec.global_mem_bytes,
        c.flop_cycles,
        c.sfu_cycles,
        c.shared_cycles,
        c.global_txn_cycles,
        c.global_latency_cycles,
        c.barrier_cycles,
        c.atomic_cycles,
        c.block_overhead_cycles,
        c.clock_ghz,
        c.xfer_bandwidth_gbs,
        c.xfer_latency_us,
        c.kernel_launch_us,
    );
    fnv1a_p48(canonical.bytes())
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// A sharded directory of cached tuning results, one JSON file per
/// (benchmark, device, bound) key, grouped into [`N_SHARDS`] subdirectories
/// by (benchmark, device) hash.
#[derive(Debug, Clone)]
pub struct TuningCache {
    dir: PathBuf,
}

impl TuningCache {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TuningCache { dir: dir.into() }
    }

    /// The cache directory: the `HPAC_TUNER_CACHE` environment variable if
    /// set, else `target/tuner-cache`.
    ///
    /// The default lives under `target/` (already the home of generated
    /// artifacts like `target/figures`), which means `cargo clean` wipes
    /// it; point `HPAC_TUNER_CACHE` at a durable directory to keep tuning
    /// results across clean builds. Validation follows the stack-wide
    /// [`hpac_core::env::strict_var`] contract: empty means unset, a
    /// non-unicode value aborts.
    pub fn default_dir() -> PathBuf {
        hpac_core::env::strict_var("HPAC_TUNER_CACHE", hpac_core::env::parse_dir)
            .unwrap_or_else(|| PathBuf::from("target/tuner-cache"))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard/stripe hash of a (benchmark, device) key. Bound-independent on
    /// purpose: every bound for one (benchmark, device) lands in the same
    /// shard, so neighbor enumeration is a single small directory scan.
    fn key_hash(benchmark: &str, device: &str) -> u64 {
        fnv1a(benchmark.bytes().chain("|".bytes()).chain(device.bytes()))
    }

    fn shard_dir(&self, benchmark: &str, device: &str) -> PathBuf {
        self.dir.join(format!(
            "{:02x}",
            Self::key_hash(benchmark, device) % N_SHARDS
        ))
    }

    fn stripe(benchmark: &str, device: &str) -> MutexGuard<'static, ()> {
        let idx = (Self::key_hash(benchmark, device) as usize) % N_STRIPES;
        STRIPES[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn entry_name(benchmark: &str, device: &str, bound_pct: f64) -> String {
        // Bound in basis points keeps the file name integral and unique for
        // any bound expressed to 0.01%.
        let bound_bp = (bound_pct * 100.0).round() as i64;
        format!(
            "{}__{}__{}bp.json",
            sanitize(benchmark),
            sanitize(device),
            bound_bp
        )
    }

    fn key_path(&self, benchmark: &str, device: &str, bound_pct: f64) -> PathBuf {
        self.shard_dir(benchmark, device)
            .join(Self::entry_name(benchmark, device, bound_pct))
    }

    /// Load the cached plan for a key, verifying the device fingerprint.
    /// A missing entry returns `None`; a stale or unreadable entry is
    /// deleted and also returns `None`.
    ///
    /// Reads never take a stripe lock: the file at the final path is always
    /// a complete entry (writers only `rename` onto it), and an open file
    /// handle keeps reading its inode even if a writer replaces the path
    /// mid-read. Only the invalidation *delete* serializes on the stripe,
    /// so it cannot race a concurrent write-replace and delete a fresh
    /// entry.
    pub fn load(
        &self,
        benchmark: &str,
        device: &str,
        bound_pct: f64,
        fingerprint: u64,
    ) -> Option<TunedPlan> {
        let path = self.key_path(benchmark, device, bound_pct);
        let bytes = std::fs::read(&path).ok()?;
        match Json::parse_bytes(&bytes)
            .ok()
            .and_then(|v| plan_from_json(&v, fingerprint))
        {
            Some(mut plan) => {
                plan.from_cache = true;
                Some(plan)
            }
            None => {
                // Stale fingerprint, version bump, or corrupt entry.
                let _g = Self::stripe(benchmark, device);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persist a plan under its (benchmark, device, bound) key, atomically:
    /// the entry is written to a uniquely-named `.tmp` file in the shard
    /// directory and renamed over the final path under the key's stripe
    /// lock. A crash mid-write leaves only temp debris; the final path
    /// never holds a partial entry.
    pub fn store(&self, plan: &TunedPlan, fingerprint: u64) -> io::Result<PathBuf> {
        let shard = self.shard_dir(&plan.benchmark, &plan.device);
        std::fs::create_dir_all(&shard)?;
        let path = self.key_path(&plan.benchmark, &plan.device, plan.bound_pct);
        let tmp = shard.join(format!(
            "{}.{}.{}.tmp",
            Self::entry_name(&plan.benchmark, &plan.device, plan.bound_pct),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, plan_to_json(plan, fingerprint).render())?;
        {
            let _g = Self::stripe(&plan.benchmark, &plan.device);
            std::fs::rename(&tmp, &path)?;
        }
        Ok(path)
    }

    /// Every valid cached plan for (benchmark, device) — any bound — in
    /// ascending bound order. This is the warm-start source: a new bound's
    /// search seeds from the re-executable Pareto frontiers of its
    /// neighbors instead of searching cold. Entries that fail the
    /// fingerprint or version check are skipped (and deleted, as in
    /// [`TuningCache::load`]); `.tmp` debris is ignored.
    pub fn neighbors(&self, benchmark: &str, device: &str, fingerprint: u64) -> Vec<TunedPlan> {
        let shard = self.shard_dir(benchmark, device);
        let prefix = format!("{}__{}__", sanitize(benchmark), sanitize(device));
        let mut plans: Vec<TunedPlan> = Vec::new();
        let Ok(entries) = std::fs::read_dir(&shard) else {
            return plans;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(&prefix) || !name.ends_with(".json") {
                continue;
            }
            let path = entry.path();
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            match Json::parse_bytes(&bytes)
                .ok()
                .and_then(|v| plan_from_json(&v, fingerprint))
            {
                // Sanitization can alias names ("a b" and "a_b"); the
                // entry's own strings are authoritative.
                Some(mut plan) if plan.benchmark == benchmark && plan.device == device => {
                    plan.from_cache = true;
                    plans.push(plan);
                }
                Some(_) => {}
                None => {
                    let _g = Self::stripe(benchmark, device);
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        plans.sort_by(|a, b| a.bound_pct.total_cmp(&b.bound_pct));
        plans
    }

    /// Remove every cached entry.
    pub fn clear(&self) -> io::Result<()> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir)?;
        }
        Ok(())
    }
}

fn level_str(level: HierarchyLevel) -> &'static str {
    match level {
        HierarchyLevel::Thread => "thread",
        HierarchyLevel::Warp => "warp",
        HierarchyLevel::Block => "block",
    }
}

fn level_from_str(s: &str) -> Option<HierarchyLevel> {
    match s {
        "thread" => Some(HierarchyLevel::Thread),
        "warp" => Some(HierarchyLevel::Warp),
        "block" => Some(HierarchyLevel::Block),
        _ => None,
    }
}

/// Serialize a region to JSON. Public (crate-wide) so tests can check the
/// round trip without a cache directory.
pub(crate) fn region_to_json(region: &ApproxRegion) -> Json {
    let mut fields = vec![("level".to_string(), Json::str(level_str(region.level)))];
    match &region.technique {
        Technique::Taf(p) => {
            fields.push(("technique".into(), Json::str("TAF")));
            fields.push(("hsize".into(), Json::num(p.hsize as f64)));
            fields.push(("psize".into(), Json::num(p.psize as f64)));
            fields.push(("threshold".into(), Json::num(p.threshold)));
        }
        Technique::Iact(p) => {
            fields.push(("technique".into(), Json::str("iACT")));
            fields.push(("tsize".into(), Json::num(p.tsize as f64)));
            fields.push(("threshold".into(), Json::num(p.threshold)));
            fields.push((
                "tables_per_warp".into(),
                Json::num(p.tables_per_warp as f64),
            ));
            fields.push((
                "replacement".into(),
                Json::str(match p.replacement {
                    Replacement::RoundRobin => "round_robin",
                    Replacement::Clock => "clock",
                }),
            ));
        }
        Technique::Perfo(p) => {
            fields.push(("technique".into(), Json::str("Perfo")));
            let (kind, value) = match p.kind {
                PerfoKind::Small { m } => ("small", m as f64),
                PerfoKind::Large { m } => ("large", m as f64),
                PerfoKind::Ini { fraction } => ("ini", fraction),
                PerfoKind::Fini { fraction } => ("fini", fraction),
            };
            fields.push(("kind".into(), Json::str(kind)));
            fields.push(("rate".into(), Json::num(value)));
            fields.push(("herded".into(), Json::Bool(p.herded)));
        }
    }
    Json::Obj(fields)
}

pub(crate) fn region_from_json(v: &Json) -> Option<ApproxRegion> {
    let level = level_from_str(v.get("level")?.as_str()?)?;
    let region = match v.get("technique")?.as_str()? {
        "TAF" => ApproxRegion::memo_out(
            v.get("hsize")?.as_usize()?,
            v.get("psize")?.as_usize()?,
            v.get("threshold")?.as_f64()?,
        ),
        "iACT" => {
            let replacement = match v.get("replacement")?.as_str()? {
                "round_robin" => Replacement::RoundRobin,
                "clock" => Replacement::Clock,
                _ => return None,
            };
            ApproxRegion::memo_in(v.get("tsize")?.as_usize()?, v.get("threshold")?.as_f64()?)
                .tables_per_warp(v.get("tables_per_warp")?.as_f64()? as u32)
                .replacement(replacement)
        }
        "Perfo" => {
            let rate = v.get("rate")?.as_f64()?;
            let kind = match v.get("kind")?.as_str()? {
                "small" => PerfoKind::Small { m: rate as u32 },
                "large" => PerfoKind::Large { m: rate as u32 },
                "ini" => PerfoKind::Ini { fraction: rate },
                "fini" => PerfoKind::Fini { fraction: rate },
                _ => return None,
            };
            ApproxRegion::perfo(kind).herded(v.get("herded")?.as_bool()?)
        }
        _ => return None,
    };
    Some(region.level(level))
}

fn lp_to_json(lp: &LaunchParams) -> Json {
    Json::Obj(vec![
        (
            "items_per_thread".into(),
            Json::num(lp.items_per_thread as f64),
        ),
        ("block_size".into(), Json::num(lp.block_size as f64)),
    ])
}

fn lp_from_json(v: &Json) -> Option<LaunchParams> {
    Some(LaunchParams::new(
        v.get("items_per_thread")?.as_usize()?,
        v.get("block_size")?.as_f64()? as u32,
    ))
}

fn frontier_to_json(frontier: &ParetoFrontier) -> Json {
    Json::Arr(
        frontier
            .points()
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("speedup".into(), Json::num(p.speedup)),
                    ("error_pct".into(), Json::num(p.error_pct)),
                    ("technique".into(), Json::str(p.technique.clone())),
                    ("config".into(), Json::str(p.config.clone())),
                    (
                        "items_per_thread".into(),
                        Json::num(p.items_per_thread as f64),
                    ),
                    (
                        "region".into(),
                        p.region.as_ref().map_or(Json::Null, region_to_json),
                    ),
                    ("lp".into(), p.lp.as_ref().map_or(Json::Null, lp_to_json)),
                ])
            })
            .collect(),
    )
}

fn frontier_from_json(v: &Json) -> Option<ParetoFrontier> {
    let mut frontier = ParetoFrontier::new();
    for item in v.as_arr()? {
        let region = match item.get("region")? {
            Json::Null => None,
            r => Some(region_from_json(r)?),
        };
        let lp = match item.get("lp")? {
            Json::Null => None,
            l => Some(lp_from_json(l)?),
        };
        frontier.insert(ParetoPoint {
            speedup: item.get("speedup")?.as_f64()?,
            error_pct: item.get("error_pct")?.as_f64()?,
            technique: item.get("technique")?.as_str()?.to_string(),
            config: item.get("config")?.as_str()?.to_string(),
            items_per_thread: item.get("items_per_thread")?.as_usize()?,
            region,
            lp,
        });
    }
    Some(frontier)
}

fn plan_to_json(plan: &TunedPlan, fingerprint: u64) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::num(CACHE_VERSION)),
        // u64 splits into two 32-bit halves to stay within f64's exact
        // integer range.
        (
            "fingerprint_hi".into(),
            Json::num((fingerprint >> 32) as f64),
        ),
        (
            "fingerprint_lo".into(),
            Json::num((fingerprint & 0xFFFF_FFFF) as f64),
        ),
        ("benchmark".into(), Json::str(plan.benchmark.clone())),
        ("device".into(), Json::str(plan.device.clone())),
        ("bound_pct".into(), Json::num(plan.bound_pct)),
        (
            "region".into(),
            plan.region.as_ref().map_or(Json::Null, region_to_json),
        ),
        ("lp".into(), lp_to_json(&plan.lp)),
        ("technique".into(), Json::str(plan.technique.clone())),
        ("config".into(), Json::str(plan.config.clone())),
        (
            "predicted_speedup".into(),
            Json::num(plan.predicted_speedup),
        ),
        (
            "measured_error_pct".into(),
            Json::num(plan.measured_error_pct),
        ),
        ("baseline_lp".into(), lp_to_json(&plan.baseline_lp)),
        ("evaluations".into(), Json::num(plan.evaluations as f64)),
        ("full_space".into(), Json::num(plan.full_space as f64)),
        ("frontier".into(), frontier_to_json(&plan.frontier)),
    ])
}

fn plan_from_json(v: &Json, expected_fingerprint: u64) -> Option<TunedPlan> {
    if v.get("version")?.as_f64()? != CACHE_VERSION {
        return None;
    }
    let hi = v.get("fingerprint_hi")?.as_f64()? as u64;
    let lo = v.get("fingerprint_lo")?.as_f64()? as u64;
    if (hi << 32) | lo != expected_fingerprint {
        return None;
    }
    let region = match v.get("region")? {
        Json::Null => None,
        r => Some(region_from_json(r)?),
    };
    Some(TunedPlan {
        benchmark: v.get("benchmark")?.as_str()?.to_string(),
        device: v.get("device")?.as_str()?.to_string(),
        bound_pct: v.get("bound_pct")?.as_f64()?,
        region,
        lp: lp_from_json(v.get("lp")?)?,
        technique: v.get("technique")?.as_str()?.to_string(),
        config: v.get("config")?.as_str()?.to_string(),
        predicted_speedup: v.get("predicted_speedup")?.as_f64()?,
        measured_error_pct: v.get("measured_error_pct")?.as_f64()?,
        baseline_lp: lp_from_json(v.get("baseline_lp")?)?,
        evaluations: v.get("evaluations")?.as_usize()?,
        full_space: v.get("full_space")?.as_usize()?,
        from_cache: false,
        verified_seed: false,
        frontier: frontier_from_json(v.get("frontier")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> TunedPlan {
        sample_plan_at(5.0)
    }

    fn sample_plan_at(bound_pct: f64) -> TunedPlan {
        let taf_region = ApproxRegion::memo_out(2, 32, 0.9).level(HierarchyLevel::Warp);
        let mut frontier = ParetoFrontier::new();
        frontier.insert(ParetoPoint {
            speedup: 1.4,
            error_pct: 0.5,
            technique: "TAF".into(),
            config: "h=2 p=32 thr=0.9 lvl=warp ipt=16".into(),
            items_per_thread: 16,
            region: Some(taf_region),
            lp: Some(LaunchParams::new(16, 256)),
        });
        frontier.insert(ParetoPoint {
            speedup: 2.1,
            error_pct: 4.0,
            technique: "Perfo".into(),
            config: "large:8 ipt=16".into(),
            items_per_thread: 16,
            region: Some(ApproxRegion::perfo(PerfoKind::Large { m: 8 })),
            lp: Some(LaunchParams::new(16, 256)),
        });
        TunedPlan {
            benchmark: "Blackscholes".into(),
            device: "V100".into(),
            bound_pct,
            region: Some(taf_region),
            lp: LaunchParams::new(16, 256),
            technique: "TAF".into(),
            config: "h=2 p=32 thr=0.9 lvl=warp ipt=16".into(),
            predicted_speedup: 2.1,
            measured_error_pct: 4.0,
            baseline_lp: LaunchParams::new(8, 256),
            evaluations: 123,
            full_space: 7854,
            from_cache: false,
            verified_seed: false,
            frontier,
        }
    }

    fn temp_cache(tag: &str) -> TuningCache {
        TuningCache::new(std::env::temp_dir().join(format!("hpac_tuner_cache_{tag}")))
    }

    #[test]
    fn store_load_roundtrip() {
        let cache = temp_cache("roundtrip");
        let _ = cache.clear();
        let plan = sample_plan();
        cache.store(&plan, 42).unwrap();
        let loaded = cache.load("Blackscholes", "V100", 5.0, 42).unwrap();
        assert!(loaded.from_cache);
        assert_eq!(loaded.config, plan.config);
        assert_eq!(loaded.region, plan.region);
        assert_eq!(loaded.lp, plan.lp);
        assert_eq!(loaded.evaluations, plan.evaluations);
        assert_eq!(loaded.frontier.len(), plan.frontier.len());
        assert_eq!(loaded.predicted_speedup, plan.predicted_speedup);
        cache.clear().unwrap();
    }

    /// An entry's text is a fixed point of parse → render: the decoder
    /// drops nothing and reorders nothing the writer wrote.
    #[test]
    fn stored_entry_text_survives_parse_and_render() {
        let cache = temp_cache("text_roundtrip");
        let _ = cache.clear();
        let path = cache.store(&sample_plan(), 42).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let tree = Json::parse_bytes(&bytes).unwrap();
        assert_eq!(tree.render().as_bytes(), bytes);
        assert_eq!(tree, plan_to_json(&sample_plan(), 42));
        cache.clear().unwrap();
    }

    #[test]
    fn frontier_points_roundtrip_reexecutable() {
        let cache = temp_cache("reexec");
        let _ = cache.clear();
        let plan = sample_plan();
        cache.store(&plan, 42).unwrap();
        let loaded = cache.load("Blackscholes", "V100", 5.0, 42).unwrap();
        for (orig, back) in plan.frontier.points().iter().zip(loaded.frontier.points()) {
            assert_eq!(orig.region, back.region);
            assert_eq!(orig.lp, back.lp);
            let cfg = back.to_config().expect("search points carry configs");
            assert_eq!(cfg.label, back.config);
            assert_eq!(Some(cfg.region), back.region);
        }
        cache.clear().unwrap();
    }

    #[test]
    fn entries_land_in_shard_subdirectories() {
        let cache = temp_cache("shards");
        let _ = cache.clear();
        let path = cache.store(&sample_plan(), 42).unwrap();
        let shard = path.parent().unwrap();
        assert_eq!(shard.parent().unwrap(), cache.dir());
        let shard_name = shard.file_name().unwrap().to_str().unwrap();
        assert_eq!(shard_name.len(), 2, "two-hex-digit shard dir: {shard_name}");
        assert!(u64::from_str_radix(shard_name, 16).unwrap() < N_SHARDS);
        // Where ("Blackscholes", "V100") has always lived: the shard hash
        // must not move existing on-disk entries.
        assert_eq!(shard_name, "06");
        cache.clear().unwrap();
    }

    #[test]
    fn store_leaves_no_tmp_files_on_success() {
        let cache = temp_cache("tmpclean");
        let _ = cache.clear();
        let path = cache.store(&sample_plan(), 42).unwrap();
        let shard = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(shard)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp debris after clean store");
        cache.clear().unwrap();
    }

    #[test]
    fn fingerprint_mismatch_invalidates() {
        let cache = temp_cache("fingerprint");
        let _ = cache.clear();
        let plan = sample_plan();
        let path = cache.store(&plan, 42).unwrap();
        assert!(cache.load("Blackscholes", "V100", 5.0, 43).is_none());
        assert!(!path.exists(), "stale entry must be deleted");
        cache.clear().unwrap();
    }

    #[test]
    fn corrupt_entry_invalidates() {
        let cache = temp_cache("corrupt");
        let _ = cache.clear();
        let plan = sample_plan();
        let path = cache.store(&plan, 42).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        assert!(cache.load("Blackscholes", "V100", 5.0, 42).is_none());
        assert!(!path.exists());
        cache.clear().unwrap();
    }

    #[test]
    fn missing_entry_is_none() {
        let cache = temp_cache("missing");
        let _ = cache.clear();
        assert!(cache.load("Nope", "V100", 5.0, 42).is_none());
    }

    #[test]
    fn keys_distinguish_bounds_and_devices() {
        let cache = temp_cache("keys");
        let _ = cache.clear();
        let plan = sample_plan();
        cache.store(&plan, 42).unwrap();
        assert!(cache.load("Blackscholes", "V100", 1.0, 42).is_none());
        assert!(cache.load("Blackscholes", "MI250X", 5.0, 42).is_none());
        assert!(cache.load("Blackscholes", "V100", 5.0, 42).is_some());
        cache.clear().unwrap();
    }

    #[test]
    fn neighbors_lists_all_bounds_sorted() {
        let cache = temp_cache("neighbors");
        let _ = cache.clear();
        for bound in [8.0, 2.0, 5.0] {
            cache.store(&sample_plan_at(bound), 42).unwrap();
        }
        // A different benchmark in (likely) another shard must not appear.
        let mut other = sample_plan_at(5.0);
        other.benchmark = "KMeans".into();
        cache.store(&other, 42).unwrap();

        let ns = cache.neighbors("Blackscholes", "V100", 42);
        assert_eq!(
            ns.iter().map(|p| p.bound_pct).collect::<Vec<_>>(),
            vec![2.0, 5.0, 8.0]
        );
        assert!(ns.iter().all(|p| p.from_cache));
        assert!(ns.iter().all(|p| p.benchmark == "Blackscholes"));
        // Wrong fingerprint: nothing survives (and entries are purged).
        assert!(cache.neighbors("Blackscholes", "V100", 43).is_empty());
        assert!(cache.neighbors("Blackscholes", "V100", 42).is_empty());
        cache.clear().unwrap();
    }

    #[test]
    fn concurrent_store_load_never_sees_partial_entries() {
        // Writers replace the same key while readers hammer load(): with
        // atomic write-replace every load must return a complete entry or
        // None — a parse failure would delete the entry, so a full round
        // of None-free loads after the writers join is the strongest
        // signal nothing was ever torn.
        let cache = temp_cache("concurrent");
        let _ = cache.clear();
        cache.store(&sample_plan(), 42).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = cache.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        c.store(&sample_plan(), 42).unwrap();
                    }
                });
            }
            for _ in 0..4 {
                let c = cache.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let plan = c
                            .load("Blackscholes", "V100", 5.0, 42)
                            .expect("entry must never be torn or missing");
                        assert_eq!(plan.frontier.len(), 2);
                    }
                });
            }
        });
        cache.clear().unwrap();
    }

    #[test]
    fn region_json_roundtrips_all_techniques() {
        let regions = [
            ApproxRegion::memo_out(3, 5, 1.5).level(HierarchyLevel::Block),
            ApproxRegion::memo_in(4, 0.5)
                .tables_per_warp(16)
                .level(HierarchyLevel::Warp),
            ApproxRegion::memo_in(2, 0.1).replacement(Replacement::Clock),
            ApproxRegion::perfo(PerfoKind::Small { m: 8 }),
            ApproxRegion::perfo(PerfoKind::Large { m: 4 }).herded(false),
            ApproxRegion::perfo(PerfoKind::Ini { fraction: 0.3 }),
            ApproxRegion::perfo(PerfoKind::Fini { fraction: 0.7 }),
        ];
        for region in regions {
            let json = region_to_json(&region);
            let back = region_from_json(&Json::parse(&json.render()).unwrap()).unwrap();
            assert_eq!(back, region);
        }
    }

    #[test]
    fn device_fingerprints_differ_and_are_stable() {
        let v100 = DeviceSpec::v100();
        let mi = DeviceSpec::mi250x();
        assert_eq!(device_fingerprint(&v100), device_fingerprint(&v100));
        assert_ne!(device_fingerprint(&v100), device_fingerprint(&mi));
        let mut tweaked = v100;
        tweaked.sm_count += 1;
        assert_ne!(device_fingerprint(&v100), device_fingerprint(&tweaked));
        let mut recalibrated = v100;
        recalibrated.costs.global_txn_cycles *= 1.01;
        assert_ne!(device_fingerprint(&v100), device_fingerprint(&recalibrated));
    }
}
