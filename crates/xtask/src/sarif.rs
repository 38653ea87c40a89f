//! Hand-rolled SARIF 2.1.0 emission (no serde, like the obs layer's
//! JSON writers).
//!
//! One run, one tool (`xtask-lint`), one reporting descriptor per rule
//! (R1-R15), one `result` per unallowed violation with a physical
//! location (workspace-relative URI + 1-based start line). The output is
//! deterministic: results follow the report's (path, line, rule) order
//! and the rules array follows `Rule::ALL`.

use crate::rules::Rule;
use crate::{json_escape, LintReport};
use serde_json::Value;

/// Render `report` as a SARIF 2.1.0 log with a single run.
pub fn to_sarif(report: &LintReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"xtask-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/broker-net/xtask\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            rule.id(),
            json_escape(rule.describe())
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{\"uri\": \"{}\"}},\n                \"region\": {{\"startLine\": {}}}\n              }}\n            }}\n          ]\n        }}",
            v.rule.id(),
            json_escape(&format!("{}: {}", v.rule.describe(), v.excerpt)),
            json_escape(&v.path),
            v.line
        ));
    }
    if !report.violations.is_empty() {
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Validate that `text` is a well-formed SARIF 2.1.0 log: parses as
/// JSON, carries the right version, and every result has a ruleId,
/// a message, and a physical location with a positive start line.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn check_sarif(text: &str) -> Result<usize, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if doc.get("version").and_then(Value::as_str) != Some("2.1.0") {
        return Err("version is not \"2.1.0\"".into());
    }
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("missing runs array")?;
    if runs.len() != 1 {
        return Err(format!("expected exactly 1 run, found {}", runs.len()));
    }
    let run = &runs[0];
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .ok_or("missing tool.driver")?;
    if driver.get("name").and_then(|n| n.as_str()).is_none() {
        return Err("missing tool.driver.name".into());
    }
    let rule_ids: Vec<&str> = driver
        .get("rules")
        .and_then(Value::as_array)
        .map(|rules| {
            rules
                .iter()
                .filter_map(|r| r.get("id").and_then(Value::as_str))
                .collect()
        })
        .unwrap_or_default();
    let results = run
        .get("results")
        .and_then(Value::as_array)
        .ok_or("missing results array")?;
    for (i, res) in results.iter().enumerate() {
        let rule_id = res
            .get("ruleId")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("result {i}: missing ruleId"))?;
        if !rule_ids.contains(&rule_id) {
            return Err(format!(
                "result {i}: ruleId {rule_id} not declared by driver"
            ));
        }
        res.get("message")
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("result {i}: missing message.text"))?;
        let loc = res
            .get("locations")
            .and_then(|l| l.get(0))
            .and_then(|l| l.get("physicalLocation"))
            .ok_or_else(|| format!("result {i}: missing physicalLocation"))?;
        loc.get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("result {i}: missing artifactLocation.uri"))?;
        let line = loc
            .get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("result {i}: missing region.startLine"))?;
        if line < 1.0 {
            return Err(format!("result {i}: startLine {line} < 1"));
        }
    }
    Ok(results.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn sample_report() -> LintReport {
        LintReport {
            violations: vec![
                Violation {
                    rule: Rule::NoUnwrap,
                    path: "crates/netgraph/src/x.rs".into(),
                    line: 7,
                    excerpt: "x.unwrap()".into(),
                },
                Violation {
                    rule: Rule::NoHashIteration,
                    path: "crates/routing/src/y.rs".into(),
                    line: 12,
                    excerpt: "for k in m.keys() { \"quoted\" }".into(),
                },
            ],
            files_scanned: 2,
            ..LintReport::default()
        }
    }

    #[test]
    fn emitted_sarif_is_well_formed() {
        let sarif = to_sarif(&sample_report());
        let n = check_sarif(&sarif).expect("well-formed");
        assert_eq!(n, 2, "one result per finding");
    }

    #[test]
    fn empty_report_is_well_formed_with_zero_results() {
        let sarif = to_sarif(&LintReport {
            files_scanned: 10,
            ..LintReport::default()
        });
        assert_eq!(check_sarif(&sarif), Ok(0));
    }

    #[test]
    fn results_carry_locations_and_declared_rule_ids() {
        let sarif = to_sarif(&sample_report());
        let doc: Value = serde_json::from_str(&sarif).expect("json");
        let results = doc
            .get("runs")
            .and_then(|r| r.get(0))
            .and_then(|r| r.get("results"))
            .and_then(Value::as_array)
            .expect("results");
        assert_eq!(results[0].get("ruleId").and_then(Value::as_str), Some("R1"));
        assert_eq!(
            results[1]
                .get("locations")
                .and_then(|l| l.get(0))
                .and_then(|l| l.get("physicalLocation"))
                .and_then(|p| p.get("region"))
                .and_then(|r| r.get("startLine"))
                .and_then(Value::as_f64),
            Some(12.0)
        );
    }

    #[test]
    fn check_rejects_corruption() {
        assert!(check_sarif("{").is_err());
        assert!(check_sarif("{\"version\": \"2.0.0\", \"runs\": []}").is_err());
        let sarif = to_sarif(&sample_report()).replace("\"ruleId\": \"R1\"", "\"ruleId\": \"R99\"");
        assert!(check_sarif(&sarif).is_err(), "undeclared ruleId");
    }

    #[test]
    fn check_rejects_malformed_json() {
        // Each malformed fragment sits in an otherwise valid log, so the
        // rejection comes from the JSON syntax alone.
        let good = to_sarif(&sample_report());
        let with_probe = |frag: &str| good.replacen('{', &format!("{{\"probe\": {frag},"), 1);
        assert_eq!(check_sarif(&with_probe("[1, 2]")), Ok(2));
        for bad in [
            "{",
            "[1, 2,]",
            "\"unterminated",
            "[01abc]",
            "\"raw \u{1} control\"",
        ] {
            assert!(check_sarif(&with_probe(bad)).is_err(), "accepted {bad:?}");
        }
        assert!(
            check_sarif(&format!("{good} x")).is_err(),
            "trailing garbage"
        );
    }
}
