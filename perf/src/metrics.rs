//! The benchmark's vocabulary. `BENCHMARK.json` at the repository root
//! is the one catalogue — workload names, the measured window, every
//! metric's name, unit, direction and bound — and is compiled into the
//! executable; this module reads it and renders result lines from it.
//!
//! A per-layer *time* is named after the call the harness wraps (the
//! span name is the metric name); a per-layer *count* is a pure function
//! of `--seed`, taken over a fixed number of ops.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde_json::Value;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
pub struct Catalogue {
    /// Length of the measured window, seconds.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Catalogue {
    /// Looks a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    let text = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric has no {k}"))
            .to_owned()
    };
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// The catalogue compiled into this executable.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Catalogue {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json has run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Value::as_array)
                .expect("BENCHMARK.json has workloads")
                .iter()
                .map(|w| {
                    let name = w.get("name").and_then(Value::as_str);
                    name.expect("a workload has a name").to_owned()
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    })
}

/// Span and count names of one `cold_signoff` design.
pub struct ColdNames {
    pub design: &'static str,
    pub load: &'static str,
    pub validate: &'static str,
    pub recognize: &'static str,
    pub layout: &'static str,
    pub extract: &'static str,
    pub everify: &'static str,
    pub graph: &'static str,
    pub constraints: &'static str,
    pub skew: &'static str,
    pub sta: &'static str,
    pub power: &'static str,
    pub serialize: &'static str,
    pub unexplained: &'static str,
    pub cccs: &'static str,
    pub shapes: &'static str,
    pub nets: &'static str,
    pub checks: &'static str,
    pub arcs: &'static str,
}

macro_rules! cold_names {
    ($d:literal) => {
        ColdNames {
            design: $d,
            load: concat!($d, ".ir.load_ms"),
            validate: concat!($d, ".ir.validate_ms"),
            recognize: concat!($d, ".recognize.ms"),
            layout: concat!($d, ".layout.ms"),
            extract: concat!($d, ".extract.ms"),
            everify: concat!($d, ".everify.ms"),
            graph: concat!($d, ".timing.graph_ms"),
            constraints: concat!($d, ".timing.constraints_ms"),
            skew: concat!($d, ".timing.skew_ms"),
            sta: concat!($d, ".timing.sta_ms"),
            power: concat!($d, ".power.ms"),
            serialize: concat!($d, ".signoff.serialize_ms"),
            unexplained: concat!($d, ".core.unexplained_ms"),
            cccs: concat!($d, ".recognize.cccs"),
            shapes: concat!($d, ".layout.shapes"),
            nets: concat!($d, ".extract.nets"),
            checks: concat!($d, ".everify.checks"),
            arcs: concat!($d, ".timing.arcs"),
        }
    };
}

pub const ALU8: ColdNames = cold_names!("alu8");
pub const MAN4: ColdNames = cold_names!("man4");

impl ColdNames {
    /// The layer spans of one replayed op, in Fig 2 order.
    pub fn layer_spans(&self) -> [&'static str; 12] {
        [
            self.load,
            self.validate,
            self.recognize,
            self.layout,
            self.extract,
            self.everify,
            self.graph,
            self.constraints,
            self.skew,
            self.sta,
            self.power,
            self.serialize,
        ]
    }
}

/// `eco_walk` stage rows read from the returned `FlowReport.stages`.
pub const ECO_STAGES: [(&str, &str); 7] = [
    ("recognize", "eco_walk.stage.recognize_ms"),
    ("layout", "eco_walk.stage.layout_ms"),
    ("extract", "eco_walk.stage.extract_ms"),
    ("fingerprint", "eco_walk.stage.fingerprint_ms"),
    ("everify", "eco_walk.stage.everify_ms"),
    ("timing", "eco_walk.stage.timing_ms"),
    ("power", "eco_walk.stage.power_ms"),
];

/// Metric values by name, as collected during a run.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders `values` for `catalogue` as the `metrics` object of the
/// result line, in catalogue order. Panics when a metric has no value:
/// a run that cannot measure what the contract lists must not pass.
pub fn render(catalogue: &[Metric], values: &Values) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|m| {
            let v = values
                .get(m.name.as_str())
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_within_the_contract() {
        let c = catalogue();
        assert!((1..=60).contains(&c.run_seconds));
        assert_eq!(c.workloads, ["cold_signoff", "eco_walk", "serve_eco"]);
        let all: Vec<&Metric> = c.end_to_end.iter().chain(&c.per_layer).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(c.per_layer.len() <= 128 && c.end_to_end.len() <= 16);
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }

    #[test]
    fn render_lists_every_metric_in_catalogue_order() {
        let end_to_end = &catalogue().end_to_end;
        let names: Vec<&'static str> = vec!["op_p10_ms", "setup_s"];
        let listed: Vec<Metric> = end_to_end
            .iter()
            .filter(|m| names.contains(&m.name.as_str()))
            .cloned()
            .collect();
        let values: Values = names.iter().map(|n| (*n, 1.5)).collect();
        let text = render(&listed, &values);
        assert!(text.starts_with("{\"op_p10_ms\":{\"value\":1.5,\"unit\":\"ms\"},"));
        let doc = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
    }
}
