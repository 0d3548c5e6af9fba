//! The run result: named metrics checked against `BENCHMARK.json`, and
//! the one-line JSON the benchmark prints last.

use std::fmt::Write as _;

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each. The run is correct when there are
    /// none.
    pub problems: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check; the run is then not correct.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn json_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A metric name as the contract allows it: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `(name, unit)` pairs of one metric list (`end_to_end` or
/// `per_layer`) of a `BENCHMARK.json` text. The file is flat JSON
/// written by hand, so a scan for the list's brackets and the
/// `"name"`/`"unit"` strings inside each object is enough.
pub fn declared(benchmark_json: &str, list: &str) -> Option<Vec<(String, String)>> {
    let key = format!("\"{list}\"");
    let at = benchmark_json.find(&key)? + key.len();
    let rest = &benchmark_json[at..];
    let open = rest.find('[')?;
    let close = open + rest[open..].find(']')?;
    let body = &rest[open + 1..close];
    let field = |obj: &str, k: &str| -> Option<String> {
        let k = format!("\"{k}\"");
        let after = &obj[obj.find(&k)? + k.len()..];
        let start = after.find('"')? + 1;
        let end = start + after[start..].find('"')?;
        Some(after[start..end].to_string())
    };
    body.split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// Checks that `metrics` are exactly the declared list, name for name
/// and unit for unit, each name well formed and used once.
pub fn matches_declared(metrics: &[Metric], declared: &[(String, String)]) -> Result<(), String> {
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) {
            return Err(format!("metric name {:?} is malformed", m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} printed twice", m.name));
        }
        match declared.iter().find(|(n, _)| n == m.name) {
            None => {
                return Err(format!(
                    "metric {} is not declared in BENCHMARK.json",
                    m.name
                ))
            }
            Some((_, unit)) if unit != m.unit => {
                return Err(format!(
                    "metric {} has unit {}, declared {unit}",
                    m.name, m.unit
                ))
            }
            Some(_) => {}
        }
    }
    for (n, _) in declared {
        if !metrics.iter().any(|m| m.name == n) {
            return Err(format!("declared metric {n} was not measured"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("p50_ms"));
        assert!(valid_name("cache.get_ns"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name("p99/ms"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn every_declared_metric_name_is_well_formed_and_unique() {
        let text = benchmark_json();
        let e2e = declared(&text, "end_to_end").expect("end_to_end list");
        let layer = declared(&text, "per_layer").expect("per_layer list");
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let mut all: Vec<&str> = e2e.iter().chain(&layer).map(|(n, _)| n.as_str()).collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "a metric name is declared twice");
    }

    #[test]
    fn the_printed_set_must_equal_the_declared_set() {
        let declared = vec![
            ("a".to_string(), "ms".to_string()),
            ("b".to_string(), "s".to_string()),
        ];
        let m = |name, unit| Metric {
            name,
            value: 1.0,
            unit,
        };
        assert!(matches_declared(&[m("a", "ms"), m("b", "s")], &declared).is_ok());
        assert!(matches_declared(&[m("a", "ms")], &declared).is_err());
        assert!(matches_declared(&[m("a", "ms"), m("b", "ms")], &declared).is_err());
        assert!(matches_declared(&[m("a", "ms"), m("b", "s"), m("c", "s")], &declared).is_err());
        assert!(matches_declared(&[m("a", "ms"), m("a", "ms"), m("b", "s")], &declared).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.put("p50_ms", 1.25, "ms");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "mismatch".into());
        assert!(r.json_line().starts_with("{\"correct\": false"));
    }
}
