//! What a run prints and writes: the contract's result line, the
//! attribution table, and the results file `compare` reads.

use crate::manifest::{Manifest, MetricDef};
use crate::names::LayerMetrics;
use crate::spans::SpanLog;
use crate::workload::RunOutput;
use hpac_tuner::json::Json;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The last line of a single run's standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics`, each metric with its value and unit.
pub fn result_line(run: &RunOutput, defs: &[MetricDef]) -> String {
    let metrics = run
        .metrics
        .iter()
        .map(|(name, value)| {
            let def = defs
                .iter()
                .find(|d| d.name == *name)
                .unwrap_or_else(|| panic!("metric {name:?} is not in BENCHMARK.json"));
            assert!(value.is_finite(), "metric {name} is not a finite number");
            (
                name.clone(),
                obj(vec![
                    ("value", Json::num(*value)),
                    ("unit", Json::str(def.unit.as_str())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::num(run.attempted as f64)),
        ("failed", Json::num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// The line before the result line: what the orchestrated run wants to know
/// beyond the contract's four keys.
pub fn info_line(run: &RunOutput) -> String {
    format!(
        "info: {}",
        obj(vec![
            ("digest", Json::str(format!("{:016x}", run.digest))),
            ("rounds", Json::num(run.rounds as f64)),
        ])
        .render()
    )
}

/// Every metric of a run by name, with its unit.
pub fn print_metrics(run: &RunOutput, defs: &[MetricDef]) {
    for (name, value) in &run.metrics {
        let unit = defs
            .iter()
            .find(|d| d.name == *name)
            .map_or("?", |d| d.unit.as_str());
        println!("  {name:<40} {value:>16.6} {unit}");
    }
}

/// Where the traced passes' time went, from the driver's spans: self time
/// (span minus children) by application and span name. The spans are
/// recorded around calls into public functions, so a row is "time inside
/// that call that no narrower span of ours explains".
pub fn print_attribution(log: &SpanLog, out: &LayerMetrics) {
    let rows = log.self_ns_by_pass_app_name();
    println!("\nattribution, self time of the driver's spans:");
    println!(
        "{:<14} {:<14} {:<18} {:>11} {:>9}",
        "pass", "app", "span", "self [s]", "of pass"
    );
    for ((pass, app, name), ns) in &rows {
        let pass_total: u64 = rows
            .iter()
            .filter(|((p, _, _), _)| p == pass)
            .map(|(_, ns)| ns)
            .sum();
        println!(
            "{:<14} {:<14} {:<18} {:>11.4} {:>8.1}%",
            pass,
            if app.is_empty() { "-" } else { app },
            name,
            *ns as f64 / 1e9,
            *ns as f64 * 100.0 / pass_total.max(1) as f64
        );
    }
    println!(
        "tracing overhead on the round: {:+.1}%",
        out.get("obs.trace_overhead_frac") * 100.0
    );
}

/// One workload's part of the results file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub rounds: Vec<u64>,
    /// Per end-to-end metric, one value per run.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    pub per_layer: Vec<(String, f64)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub commit: String,
    pub seed: u64,
    pub seconds: u64,
    pub host_cores: usize,
    pub engine_width: usize,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self, manifest: &Manifest) -> Json {
        let unit = |defs: &[MetricDef], name: &str| {
            Json::str(
                defs.iter()
                    .find(|d| d.name == name)
                    .map_or("", |d| d.unit.as_str()),
            )
        };
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::num(*x)).collect());
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                obj(vec![
                    ("name", Json::str(w.name.as_str())),
                    ("attempted", Json::num(w.attempted as f64)),
                    ("failed", Json::num(w.failed as f64)),
                    ("digest", Json::str(w.digest.as_str())),
                    (
                        "rounds",
                        nums(&w.rounds.iter().map(|r| *r as f64).collect::<Vec<_>>()),
                    ),
                    (
                        "end_to_end",
                        Json::Obj(
                            w.end_to_end
                                .iter()
                                .map(|(n, runs)| {
                                    (
                                        n.clone(),
                                        obj(vec![
                                            ("unit", unit(&manifest.end_to_end, n)),
                                            ("runs", nums(runs)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "per_layer",
                        Json::Obj(
                            w.per_layer
                                .iter()
                                .map(|(n, v)| {
                                    (
                                        n.clone(),
                                        obj(vec![
                                            ("unit", unit(&manifest.per_layer, n)),
                                            ("value", Json::num(*v)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("commit", Json::str(self.commit.as_str())),
            ("seed", Json::num(self.seed as f64)),
            ("seconds", Json::num(self.seconds as f64)),
            ("host_cores", Json::num(self.host_cores as f64)),
            ("engine_width", Json::num(self.engine_width as f64)),
            ("workloads", Json::Arr(workloads)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Results> {
        let workloads = doc
            .get("workloads")?
            .as_arr()?
            .iter()
            .map(|w| {
                let fields = |key: &str| match w.get(key)? {
                    Json::Obj(f) => Some(f),
                    _ => None,
                };
                Some(WorkloadResult {
                    name: w.get("name")?.as_str()?.to_string(),
                    attempted: w.get("attempted")?.as_f64()? as u64,
                    failed: w.get("failed")?.as_f64()? as u64,
                    digest: w.get("digest")?.as_str()?.to_string(),
                    rounds: w
                        .get("rounds")?
                        .as_arr()?
                        .iter()
                        .filter_map(|r| r.as_f64().map(|r| r as u64))
                        .collect(),
                    end_to_end: fields("end_to_end")?
                        .iter()
                        .map(|(n, m)| {
                            let runs = m.get("runs")?.as_arr()?;
                            Some((n.clone(), runs.iter().filter_map(Json::as_f64).collect()))
                        })
                        .collect::<Option<_>>()?,
                    per_layer: fields("per_layer")?
                        .iter()
                        .map(|(n, m)| Some((n.clone(), m.get("value")?.as_f64()?)))
                        .collect::<Option<_>>()?,
                })
            })
            .collect::<Option<_>>()?;
        Some(Results {
            commit: doc.get("commit")?.as_str()?.to_string(),
            seed: doc.get("seed")?.as_f64()? as u64,
            seconds: doc.get("seconds")?.as_f64()? as u64,
            host_cores: doc.get("host_cores")?.as_usize()?,
            engine_width: doc.get("engine_width")?.as_usize()?,
            workloads,
        })
    }

    pub fn load(path: &std::path::Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&doc).ok_or_else(|| format!("{}: not a results file", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Manifest::load(&path).unwrap()
    }

    #[test]
    fn results_round_trip_through_the_tuner_json() {
        let results = Results {
            commit: "abc1234".into(),
            seed: 7,
            seconds: 12,
            host_cores: 2,
            engine_width: 2,
            workloads: vec![WorkloadResult {
                name: "serve_hits".into(),
                attempted: 480_000,
                failed: 0,
                digest: "00ff00ff00ff00ff".into(),
                rounds: vec![12, 13],
                end_to_end: vec![
                    ("round_s".into(), vec![0.9123456789012345, 0.93]),
                    ("lat_p50_us".into(), vec![23.25, 23.5]),
                ],
                per_layer: vec![("service.hit_overhead_us".into(), 1.0625)],
            }],
        };
        let text = results.to_json(&manifest()).render();
        let back = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = manifest();
        let run = RunOutput {
            attempted: 100,
            failed: 1,
            rounds: 3,
            metrics: vec![("setup_s".into(), 0.8127), ("round_s".into(), 1.25)],
            digest: 0xABCD,
        };
        let doc = Json::parse(&result_line(&run, &m.end_to_end)).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(info_line(&run).contains("000000000000abcd"));
    }
}
