//! `BENCHMARK.json`: the one place the benchmark's workloads, metrics,
//! bounds and run length are declared. The file is compiled in, so a
//! binary always carries the definition it was built against.

use hmd_util::json::Json;

/// The repository's benchmark definition, verbatim.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// The widest regression bound a metric may carry: a metric that does
/// not repeat within a tenth needs a steadier measurement, not a wider
/// bound.
const MAX_BOUND: f64 = 0.1;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed definition.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Whether `name` is a legal workload or metric name: a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Spec {
    /// The compiled-in definition.
    pub fn load() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }

    /// Parses and validates a definition.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
            .ok_or("BENCHMARK.json: run_seconds must be a whole number in 1..=60")?;
        let workloads = array(&doc, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<Vec<_>, _>>()?;
        let end_to_end = metrics(&doc, "end_to_end", true)?;
        let per_layer = metrics(&doc, "per_layer", false)?;
        let mut names: Vec<&str> = workloads.iter().map(String::as_str).collect();
        names.extend(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()));
        for (i, name) in names.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("BENCHMARK.json: illegal name {name:?}"));
            }
            if names[..i].contains(name) {
                return Err(format!("BENCHMARK.json: name {name:?} is used twice"));
            }
        }
        Ok(Self {
            run_seconds: run_seconds as u64,
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: {key} must be an array"))
}

fn string(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: entry without a string {key}"))
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    array(doc, key)?
        .iter()
        .map(|m| {
            let better = match string(m, "better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => {
                    return Err(format!(
                        "BENCHMARK.json: better must be higher or lower, not {other:?}"
                    ))
                }
            };
            let bound = if bounded {
                let b = m.get("bound").and_then(Json::as_f64);
                Some(b.filter(|b| *b > 0.0 && *b <= MAX_BOUND).ok_or_else(|| {
                    format!("BENCHMARK.json: {key} metric needs a bound in (0, {MAX_BOUND}]")
                })?)
            } else {
                None
            };
            Ok(MetricSpec {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_definition_is_valid() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(spec.per_layer.len() <= 128);
    }

    #[test]
    fn names_are_checked() {
        for good in ["live", "fleet-retrain", "sim.draw_us", "0x", "a_b.c-d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        let dup = r#"{"run_seconds": 5, "workloads": [{"name": "a", "why": ""}],
            "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}"#;
        assert!(Spec::parse(dup).unwrap_err().contains("twice"));
        let wide = dup
            .replace("0.1", "0.3")
            .replace(r#""name": "a", "unit""#, r#""name": "b", "unit""#);
        assert!(Spec::parse(&wide).unwrap_err().contains("bound"));
    }
}
