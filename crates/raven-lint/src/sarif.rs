//! SARIF 2.1.0 emission, the baseline file, and the rule catalog.
//!
//! The workspace builds offline against a JSON stub, so — like
//! `simbus::span::ChromeTraceBuilder` — the SARIF document is written by
//! hand: one `run`, the full rule catalog under `tool.driver.rules`, and
//! one `result` per finding with a stable `fingerprints` entry. The same
//! fingerprint keys the `--baseline` file: CI records the accepted
//! findings once and fails only on *new* ones, so a PR is annotated with
//! what it introduced rather than everything the tree ever carried.

use crate::rules::Finding;
use serde::{Deserialize, Serialize};

/// One catalog entry, shown by `--list-rules` and embedded in SARIF.
pub struct RuleInfo {
    pub id: &'static str,
    pub name: &'static str,
    pub summary: &'static str,
    pub scope: &'static str,
}

/// The full rule catalog, in report order.
pub fn catalog() -> &'static [RuleInfo] {
    const CATALOG: [RuleInfo; 11] = [
        RuleInfo {
            id: "R1",
            name: "no-wall-clock",
            summary: "wall-clock reads only in allowlisted timing surfaces",
            scope: "all crates",
        },
        RuleInfo {
            id: "R2",
            name: "no-unordered-iteration",
            summary: "HashMap/HashSet forbidden where iteration order can reach an artifact",
            scope: "serialized/merged-result crates",
        },
        RuleInfo {
            id: "R3",
            name: "no-panic-in-hot-path",
            summary: "no unwrap/expect/panic! in any fn reachable from a hot-path entry point",
            scope: "call graph from [rules.hot_path] entry points",
        },
        RuleInfo {
            id: "R4",
            name: "exhaustive-safety-match",
            summary: "no wildcard arms in matches over safety-critical enums",
            scope: "all crates",
        },
        RuleInfo {
            id: "R5",
            name: "doc-code-drift",
            summary: "obs registries and their docs must agree, both directions",
            scope: "simbus::obs vs docs/OBSERVABILITY.md + scoped docs",
        },
        RuleInfo {
            id: "R6",
            name: "unsafe-audit",
            summary: "unsafe only in allowlisted files, each block with a SAFETY comment",
            scope: "all crates",
        },
        RuleInfo {
            id: "R7",
            name: "no-float-eq",
            summary: "no ==/!= against float literals",
            scope: "merged-artifact crates",
        },
        RuleInfo {
            id: "R9",
            name: "rng-stream-discipline",
            summary: "stream_rng/derive_seed labels come from simbus::obs::streams, unique",
            scope: "all crates",
        },
        RuleInfo {
            id: "R10",
            name: "lock-discipline",
            summary: "consistent lock order; no lock held across a call into locking code",
            scope: "all crates",
        },
        RuleInfo {
            id: "R11",
            name: "artifact-schema-drift",
            summary: "serialized-struct fields match golden artifact keys, both directions",
            scope: "[rules.artifact_schema] roots vs results/*.json",
        },
        RuleInfo {
            id: "CONFIG",
            name: "stale-config",
            summary: "every [[allow]] entry matches a finding; every entry point names a fn",
            scope: "raven-lint.toml",
        },
    ];
    &CATALOG
}

/// Looks a rule id up in the catalog.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    catalog().iter().find(|r| r.id == id)
}

/// Stable identity of a finding across line-number churn: rule, path, and
/// the offending snippet. Used for SARIF `fingerprints` and the baseline.
pub fn fingerprint(f: &Finding) -> String {
    format!("{}|{}|{}", f.rule, f.path, f.snippet)
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a SARIF 2.1.0 document (one run, pretty-printed).
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut out = String::with_capacity(4096 + findings.len() * 512);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"raven-lint\",\n");
    out.push_str("          \"informationUri\": \"docs/STATIC_ANALYSIS.md\",\n");
    out.push_str(&format!("          \"version\": \"{}\",\n", esc(env!("CARGO_PKG_VERSION"))));
    out.push_str("          \"rules\": [\n");
    let rules = catalog();
    for (i, r) in rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"name\": \"{}\", \"shortDescription\": \
             {{\"text\": \"{}\"}}, \"properties\": {{\"scope\": \"{}\"}}}}{}\n",
            esc(r.id),
            esc(r.name),
            esc(r.summary),
            esc(r.scope),
            if i + 1 < rules.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let rule_index = rules.iter().position(|r| r.id == f.rule).map(|p| p as i64).unwrap_or(-1);
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": \"[{}] {} — {}\"}}, \"locations\": [{{\
             \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}], \
             \"fingerprints\": {{\"raven/v1\": \"{}\"}}}}{}\n",
            esc(&f.rule),
            rule_index,
            esc(&f.name),
            esc(&f.snippet),
            esc(&f.hint),
            esc(&f.path),
            f.line,
            esc(&fingerprint(f)),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// The `--baseline` file: accepted finding fingerprints.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Baseline {
    pub version: u32,
    pub fingerprints: Vec<String>,
}

impl Baseline {
    /// Captures the given findings as a baseline (sorted, deduped).
    pub fn capture(findings: &[Finding]) -> Baseline {
        let mut fps: Vec<String> = findings.iter().map(fingerprint).collect();
        fps.sort();
        fps.dedup();
        Baseline { version: 1, fingerprints: fps }
    }

    /// Parses a baseline file.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid baseline: {e:?}"))
    }

    /// Renders the baseline as JSON.
    pub fn render(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Splits findings into `(new, suppressed)` relative to this baseline.
    pub fn partition<'a>(&self, findings: &'a [Finding]) -> (Vec<&'a Finding>, usize) {
        let mut fresh = Vec::new();
        let mut suppressed = 0usize;
        for f in findings {
            if self.fingerprints.iter().any(|fp| *fp == fingerprint(f)) {
                suppressed += 1;
            } else {
                fresh.push(f);
            }
        }
        (fresh, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, path: &str, snippet: &str) -> Finding {
        Finding {
            path: path.to_string(),
            line: 7,
            rule: rule.to_string(),
            name: "x".to_string(),
            snippet: snippet.to_string(),
            hint: "fix \"it\"".to_string(),
        }
    }

    #[test]
    fn sarif_is_valid_json_with_expected_shape() {
        let fs = vec![finding("R3", "crates/a/src/lib.rs", "let x = v.unwrap();")];
        let doc = to_sarif(&fs);
        let v = serde_json::value_from_str(&doc).expect("SARIF must parse as JSON");
        assert_eq!(
            v.get("version").and_then(|x| match x {
                serde_json::Value::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("2.1.0")
        );
        let runs = match v.get("runs") {
            Some(serde_json::Value::Seq(r)) => r,
            other => panic!("runs must be an array, got {other:?}"),
        };
        assert_eq!(runs.len(), 1);
        let driver = runs[0].get("tool").and_then(|t| t.get("driver")).expect("tool.driver");
        let rules = match driver.get("rules") {
            Some(serde_json::Value::Seq(r)) => r,
            other => panic!("rules must be an array, got {other:?}"),
        };
        assert_eq!(rules.len(), catalog().len());
        let results = match runs[0].get("results") {
            Some(serde_json::Value::Seq(r)) => r,
            other => panic!("results must be an array, got {other:?}"),
        };
        assert_eq!(results.len(), 1);
        let loc = &results[0].get("locations").and_then(|l| match l {
            serde_json::Value::Seq(s) => s.first(),
            _ => None,
        });
        let line = loc
            .and_then(|l| l.get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .and_then(|r| r.get("startLine"));
        assert!(matches!(line, Some(serde_json::Value::U64(7))), "{line:?}");
    }

    #[test]
    fn sarif_escapes_quotes_and_backslashes() {
        let fs = vec![finding("R1", "a.rs", "let s = \"x\\\\y\";")];
        let doc = to_sarif(&fs);
        assert!(serde_json::value_from_str(&doc).is_ok(), "escaping broke JSON:\n{doc}");
    }

    #[test]
    fn baseline_roundtrip_and_partition() {
        let old = vec![finding("R1", "a.rs", "old line")];
        let base = Baseline::capture(&old);
        let parsed = Baseline::parse(&base.render()).unwrap();
        assert_eq!(parsed.fingerprints, base.fingerprints);
        let now = vec![finding("R1", "a.rs", "old line"), finding("R2", "b.rs", "new line")];
        let (fresh, suppressed) = parsed.partition(&now);
        assert_eq!(suppressed, 1);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].rule, "R2");
    }

    #[test]
    fn catalog_ids_are_unique_and_cover_r1_to_r11() {
        let ids: Vec<&str> = catalog().iter().map(|r| r.id).collect();
        // R8 is retired; the other ids keep their numbers, since baselines
        // and SARIF consumers key on them.
        for n in 1..=11 {
            let id = format!("R{n}");
            assert_eq!(ids.contains(&id.as_str()), n != 8, "{id}");
        }
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
