//! The names this driver computes. `BENCHMARK.json` carries the same names
//! with their units, directions and bounds; `Manifest::disagreement` keeps
//! the two lists equal.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 5] = [
    "sweep_memo",
    "sweep_iter",
    "tune_cold",
    "serve_hits",
    "serve_churn",
];

pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "round_s",
    "lat_p50_us",
    "modeled_speedup_geomean",
    "peak_rss_mb",
];

/// Short application keys, Table 1 order; the `<app>` of per-layer names.
#[cfg(test)]
pub const APPS: [&str; 7] = [
    "lulesh",
    "leukocyte",
    "binomial",
    "minife",
    "blackscholes",
    "lavamd",
    "kmeans",
];

pub const PER_LAYER: [&str; 85] = [
    // gpu-sim
    "gpu-sim.charge_ns",
    "gpu-sim.launch_fixed_us",
    "gpu-sim.warp_steps",
    "gpu-sim.kernel_launches",
    "gpu-sim.global_txns",
    "gpu-sim.warp_steps_per_s",
    // core
    "core.walk_ns_per_step.accurate",
    "core.walk_ns_per_step.perfo",
    "core.walk_ns_per_step.taf",
    "core.walk_ns_per_step.taf_serialized",
    "core.walk_ns_per_step.iact",
    "core.block_tasks_us",
    "core.engine_handoff_us",
    "core.engine_phases_us",
    "core.engine_util",
    "core.engine_barrier_wait_frac",
    "core.mix_memo_hit_rate",
    "core.approx_lane_frac",
    "core.divergent_step_frac",
    // apps
    "apps.accurate_run_ms.lulesh",
    "apps.accurate_run_ms.leukocyte",
    "apps.accurate_run_ms.binomial",
    "apps.accurate_run_ms.minife",
    "apps.accurate_run_ms.blackscholes",
    "apps.accurate_run_ms.lavamd",
    "apps.accurate_run_ms.kmeans",
    "apps.compute_memo_hit_ns",
    "apps.eval_memo_hit_ns",
    "apps.compute_memo_hit_rate",
    "apps.eval_memo_hit_rate",
    // harness
    "harness.sweep_s.lulesh",
    "harness.sweep_s.leukocyte",
    "harness.sweep_s.binomial",
    "harness.sweep_s.minife",
    "harness.sweep_s.blackscholes",
    "harness.sweep_s.lavamd",
    "harness.sweep_s.kmeans",
    "harness.round_w1_s",
    "harness.scaling_eff",
    "harness.baseline_ms",
    "harness.plan_us",
    "harness.eval_p50_us.taf",
    "harness.eval_p50_us.iact",
    "harness.eval_p50_us.perfo",
    "harness.eval_p99_us",
    "harness.eval_share.taf",
    "harness.eval_share.iact",
    "harness.eval_share.perfo",
    "harness.quality_metric_us",
    "harness.quality_cache_hit_rate",
    "harness.configs_deduped",
    "harness.configs_rejected",
    "harness.early_aborts",
    // tuner
    "tuner.search_ms.lulesh",
    "tuner.search_ms.leukocyte",
    "tuner.search_ms.binomial",
    "tuner.search_ms.minife",
    "tuner.search_ms.blackscholes",
    "tuner.search_ms.lavamd",
    "tuner.search_ms.kmeans",
    "tuner.evals_per_request",
    "tuner.evals_skipped_frac",
    "tuner.budget_frac_used",
    "tuner.pareto_insert_ns",
    "tuner.cache_store_us",
    "tuner.cache_load_us",
    "tuner.cache_neighbors_us.8",
    "tuner.cache_neighbors_us.64",
    "tuner.json_parse_us",
    "tuner.json_render_us",
    "tuner.entry_bytes",
    // service
    "service.hit_overhead_us",
    "service.lat_tail_us",
    "service.ops_per_s",
    "service.coalesced_frac",
    "service.warm_start_evals",
    "service.warm_shortcircuit_frac",
    "service.searches",
    "service.cache_hits",
    "service.batch_round_s",
    // obs
    "obs.trace_overhead_frac",
    "obs.disabled_span_ns",
    "obs.events",
    "obs.dropped_events",
    // proc
    "proc.cpu_util",
];

/// Per-layer values collected over one traced run. Setting a name the
/// driver does not declare is a bug in the driver, caught on the spot; a
/// declared name never set reads 0, meaning the workload does not exercise
/// it.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<String, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.contains(&name),
            "undeclared per-layer metric {name:?}"
        );
        self.0.insert(name.to_string(), value);
    }

    /// `set` for a per-application name: `<prefix>.<app>`.
    pub fn set_app(&mut self, prefix: &str, app: &str, value: f64) {
        self.set(&format!("{prefix}.{app}"), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_has_its_expanded_names() {
        for prefix in ["apps.accurate_run_ms", "harness.sweep_s", "tuner.search_ms"] {
            for app in APPS {
                assert!(PER_LAYER.contains(&format!("{prefix}.{app}").as_str()));
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = PER_LAYER.iter().chain(&END_TO_END).copied().collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn unset_reads_zero_and_set_reads_back() {
        let mut m = LayerMetrics::default();
        assert_eq!(m.get("obs.events"), 0.0);
        m.set_app("harness.sweep_s", "kmeans", 1.5);
        assert_eq!(m.get("harness.sweep_s.kmeans"), 1.5);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_names_are_refused() {
        LayerMetrics::default().set("service.made_up", 1.0);
    }
}
