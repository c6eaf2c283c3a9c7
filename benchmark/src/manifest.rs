//! `BENCHMARK.json`: the names, units, directions and bounds every run and
//! every comparison uses. The file is the source of truth; the driver only
//! keeps the list of names it knows how to compute and refuses to start when
//! the two disagree.

use hpac_tuner::json::Json;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// `better` as `BENCHMARK.json` spells it.
    pub fn direction(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The benchmark package's directory: where cargo says the manifest is when
/// it runs the binary, else where it was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `BENCHMARK.json` sits beside the package directory, at the repo root.
pub fn manifest_path() -> PathBuf {
    package_dir().join("..").join("BENCHMARK.json")
}

pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metric_defs(doc: &Json, key: &str, gated: bool) -> Result<Vec<MetricDef>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` must be an array"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("`{key}` entry lacks string `{f}`"))
            };
            let name = field("name")?.to_string();
            if !valid_name(&name) {
                return Err(format!("metric name {name:?} falls outside [A-Za-z0-9_.-]"));
            }
            let higher_is_better = match field("better")? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{name}: `better` is {other:?}")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            if gated != bound.is_some() {
                return Err(format!("{name}: only end-to-end metrics carry a bound"));
            }
            Ok(MetricDef {
                name,
                unit: field("unit")?.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("`workloads` must be an array")?
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(Json::as_str).unwrap_or_default();
                if !valid_name(name) {
                    return Err(format!(
                        "workload name {name:?} falls outside [A-Za-z0-9_.-]"
                    ));
                }
                let why = w.get("why").and_then(Json::as_str).unwrap_or_default();
                Ok((name.to_string(), why.to_string()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_usize)
                .ok_or("`run_seconds` must be a whole number")? as u64,
            workloads,
            end_to_end: metric_defs(&doc, "end_to_end", true)?,
            per_layer: metric_defs(&doc, "per_layer", false)?,
        })
    }

    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Names in the file that the driver does not compute, and names the
    /// driver computes that the file lacks; both empty when they agree.
    pub fn disagreement(&self) -> Vec<String> {
        fn diff(what: &str, file: Vec<&str>, code: &[&str], out: &mut Vec<String>) {
            for n in file.iter().filter(|n| !code.contains(n)) {
                out.push(format!("{what} {n:?} is in BENCHMARK.json only"));
            }
            for n in code.iter().filter(|n| !file.contains(n)) {
                out.push(format!("{what} {n:?} is missing from BENCHMARK.json"));
            }
        }
        fn names(defs: &[MetricDef]) -> Vec<&str> {
            defs.iter().map(|m| m.name.as_str()).collect()
        }
        let mut out = Vec::new();
        diff(
            "workload",
            self.workloads.iter().map(|(n, _)| n.as_str()).collect(),
            &crate::names::WORKLOADS,
            &mut out,
        );
        diff(
            "end-to-end metric",
            names(&self.end_to_end),
            &crate::names::END_TO_END,
            &mut out,
        );
        diff(
            "per-layer metric",
            names(&self.per_layer),
            &crate::names::PER_LAYER,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_checked_against_the_charset() {
        assert!(valid_name("gpu-sim.charge_ns"));
        assert!(valid_name("7apps"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("lat p50"));
        assert!(!valid_name("lat/p50"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn bad_names_and_misplaced_bounds_are_rejected() {
        let doc = |e2e: &str, layer: &str| {
            format!(
                r#"{{"run_seconds": 5, "workloads": [{{"name": "w", "why": "y"}}],
                    "end_to_end": [{e2e}], "per_layer": [{layer}]}}"#
            )
        };
        let good_e2e = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}"#;
        let good_layer = r#"{"name": "obs.events", "unit": "count", "better": "lower"}"#;
        let m = Manifest::parse(&doc(good_e2e, good_layer)).unwrap();
        assert_eq!(m.run_seconds, 5);
        assert_eq!(m.end_to_end[0].bound, Some(0.1));
        assert!(!m.per_layer[0].higher_is_better);
        let bad_name = r#"{"name": "set up", "unit": "s", "better": "lower", "bound": 0.1}"#;
        assert!(Manifest::parse(&doc(bad_name, good_layer))
            .unwrap_err()
            .contains("falls outside"));
        assert!(Manifest::parse(&doc(good_layer, good_layer)).is_err());
        assert!(Manifest::parse(&doc(good_e2e, good_e2e)).is_err());
    }

    /// Every name the driver prints exists in the committed BENCHMARK.json
    /// and vice versa.
    #[test]
    fn committed_manifest_agrees_with_the_driver() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let m = Manifest::load(&path).unwrap();
        assert_eq!(m.disagreement(), Vec::<String>::new());
        assert!(m.end_to_end.iter().any(|d| d.name == "setup_s"));
    }
}
