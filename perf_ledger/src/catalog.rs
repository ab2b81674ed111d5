//! The benchmark contract, `BENCHMARK.json`, compiled in: its workload
//! names, its run length and its metric lists (names, units, direction and
//! regression bounds). The metrics a run prints for the contract are
//! exactly these lists; tests hold every workload to them.

use crate::json::Json;
use crate::Report;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("`{key}` missing"))
        };
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("{key}: metric without `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalog {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("`run_seconds` missing")?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }

    /// Every metric spec, end-to-end first.
    pub fn all(&self) -> impl Iterator<Item = &MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    pub fn spec(&self, name: &str) -> Option<&MetricSpec> {
        self.all().find(|m| m.name == name)
    }

    /// The contract's result line for one run: `correct`, `attempted`,
    /// `failed`, and exactly the end-to-end (untraced) or per-layer
    /// (traced) metrics, each present, finite and in its declared unit.
    pub fn result_line(&self, report: &Report, traced: bool) -> Result<Json, String> {
        let specs = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut selected = Vec::with_capacity(specs.len());
        for spec in specs {
            let m = report
                .metrics
                .iter()
                .find(|m| m.name == spec.name)
                .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
            if m.unit != spec.unit {
                return Err(format!(
                    "metric `{}` measured in {}, declared in {}",
                    m.name, m.unit, spec.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not finite", m.name));
            }
            selected.push(m);
        }
        Ok(report.result(selected))
    }
}

/// The compiled-in contract.
pub fn catalog() -> Catalog {
    Catalog::parse(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json is well-formed")
}
