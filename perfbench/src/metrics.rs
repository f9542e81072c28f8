//! Metric names, the result line, provenance and host probes.

use crate::workloads::Kind;
use lrc_json::{json, ToJson, Value};
use lrc_sim::MachineConfig;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "events/s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that are exact for a given seed: the modelled
/// machine's outputs, which a change to the simulator's speed must leave
/// identical.
pub const EXACT: [&str; 1] = ["sim_cycles"];

/// The final stdout line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), json!({ "value": m.value, "unit": m.unit })))
            .collect(),
    );
    json!({ "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics })
        .dump()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The provenance record printed with every result.
pub fn provenance(kind: Kind, seed: u64, traced: bool) -> Value {
    let params = kind.params(seed);
    let config = MachineConfig::paper_default(16).to_json();
    json!({
        "git_commit": lrc_exp::manifest::git_commit(),
        "config_hash": lrc_exp::config_hash(&format!("perfbench/{}", kind.name()), &params, &config),
        "host": lrc_exp::HostFacts::capture().to_json(),
        "workload": kind.name(),
        "seed": seed,
        "threads": kind.threads(),
        "traced": traced,
    })
}

/// Median of a non-empty list.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// (Q1, median, Q3), with the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)` (the median for a single value).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let n = v.len();
    assert!(n > 0, "quartiles of an empty list");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let mid = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (at(0.25), mid, at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name: starts with a letter or digit, then at most 63 more
    /// letters, digits, `_`, `.` or `-`.
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
    fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_grammar() {
        assert!(valid_name("core.ns_per_event.lazy-ext"));
        assert!(
            !valid_name("_x")
                && !valid_name("")
                && !valid_name("a b")
                && !valid_name(&"a".repeat(65))
        );
        assert!(!valid_unit("") && !valid_unit("a b"));
    }

    /// `BENCHMARK.json` names exactly the metrics the runs print, with the
    /// same units, each once.
    #[test]
    fn benchmark_json_matches_printed_metrics() {
        let v =
            lrc_json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), printed(&END_TO_END));
        assert_eq!(listed("per_layer"), printed(&crate::traced::PER_LAYER));
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, Kind::ALL.map(Kind::name));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&crate::traced::PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.extend(&workloads);
        for (name, unit) in END_TO_END.iter().chain(&crate::traced::PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric and workload names are unique");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("run_s", "s", 1.25)]);
        let v = lrc_json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"]["run_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["run_s"]["unit"].as_str(), Some("s"));
    }
}
