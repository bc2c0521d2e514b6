//! The committed finding baseline (`lint-baseline.json`).
//!
//! The baseline is a **ratchet**, not a suppression list: it records, per
//! `(rule, file)`, how many findings existed when the rule landed. CI fails
//! when a file *exceeds* its allowance — so new violations are caught even
//! in files with legacy sites — and reports (without failing) when a file
//! drops below it, so the allowance can be ratcheted down. Counts rather
//! than line numbers keep the baseline stable under unrelated edits.
//!
//! JSON is read and quoted by `nashdb-obs`, so this crate has no external
//! dependencies.

use std::collections::BTreeMap;

use nashdb_obs::{parse_json, write_json_string, JsonValue};

use crate::rules::Finding;

/// Baseline schema version.
pub const BASELINE_VERSION: u64 = 1;

/// Allowed finding counts keyed by `(rule, file)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), u64>,
}

/// Baseline parse failure: position (byte offset) and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// Byte offset the parser stopped at.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "baseline parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for BaselineError {}

/// The verdict of checking findings against a baseline.
#[derive(Debug, Default)]
pub struct BaselineOutcome {
    /// Findings in groups that exceed (or are absent from) the baseline.
    /// When a group exceeds its allowance every finding in the group is
    /// listed — counts cannot tell which specific site is new.
    pub over: Vec<Finding>,
    /// `(rule, file, allowed, actual)` for groups now *under* allowance;
    /// the baseline should be regenerated to ratchet down.
    pub stale: Vec<(String, String, u64, u64)>,
}

impl Baseline {
    /// Builds a baseline allowing exactly the given findings.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut entries: BTreeMap<(String, String), u64> = BTreeMap::new();
        for f in findings {
            *entries
                .entry((f.rule.to_owned(), f.file.clone()))
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Number of `(rule, file)` groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no allowances exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Checks findings against the allowances.
    pub fn check(&self, findings: &[Finding]) -> BaselineOutcome {
        let mut groups: BTreeMap<(String, String), Vec<&Finding>> = BTreeMap::new();
        for f in findings {
            groups
                .entry((f.rule.to_owned(), f.file.clone()))
                .or_default()
                .push(f);
        }
        let mut out = BaselineOutcome::default();
        for (key, group) in &groups {
            let allowed = self.entries.get(key).copied().unwrap_or(0);
            let actual = group.len() as u64;
            if actual > allowed {
                out.over.extend(group.iter().map(|f| (*f).clone()));
            } else if actual < allowed {
                out.stale
                    .push((key.0.clone(), key.1.clone(), allowed, actual));
            }
        }
        for (key, &allowed) in &self.entries {
            if !groups.contains_key(key) {
                out.stale.push((key.0.clone(), key.1.clone(), allowed, 0));
            }
        }
        out
    }

    /// Serializes to the committed JSON form (sorted, newline-terminated).
    pub fn to_json_string(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {BASELINE_VERSION},\n"));
        s.push_str("  \"entries\": [\n");
        let mut first = true;
        for ((rule, file), count) in &self.entries {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str("    { \"rule\": ");
            write_json_string(&mut s, rule);
            s.push_str(", \"file\": ");
            write_json_string(&mut s, file);
            s.push_str(&format!(", \"count\": {count} }}"));
        }
        if !first {
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses the committed JSON form. A `(rule, file)` pair listed twice
    /// is an error, not a silent override.
    pub fn from_json_str(raw: &str) -> Result<Baseline, BaselineError> {
        let top = parse_json(raw).map_err(|e| BaselineError {
            at: e.offset,
            message: e.message,
        })?;
        let invalid = |message: String| BaselineError { at: 0, message };
        match top.get("version").and_then(JsonValue::as_u64) {
            Some(BASELINE_VERSION) => {}
            other => {
                return Err(invalid(format!(
                    "unsupported baseline version {other:?} (expected {BASELINE_VERSION})"
                )))
            }
        }
        let list = top
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| invalid("missing \"entries\" array".to_owned()))?;
        let mut entries = BTreeMap::new();
        for v in list {
            let field = |key: &str| v.get(key).and_then(JsonValue::as_str);
            let (Some(rule), Some(file), Some(count)) = (
                field("rule"),
                field("file"),
                v.get("count").and_then(JsonValue::as_u64),
            ) else {
                return Err(invalid(
                    "entry needs string \"rule\", string \"file\", number \"count\"".to_owned(),
                ));
            };
            if entries
                .insert((rule.to_owned(), file.to_owned()), count)
                .is_some()
            {
                return Err(invalid(format!("duplicate entry for {file} [{rule}]")));
            }
        }
        Ok(Baseline { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: usize) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            message: "m".to_owned(),
        }
    }

    #[test]
    fn round_trips() {
        let findings = vec![
            finding("panic-in-lib", "crates/core/src/a.rs", 3),
            finding("panic-in-lib", "crates/core/src/a.rs", 9),
            finding("unchecked-arith-expr", "crates/sim/src/b.rs", 1),
        ];
        let b = Baseline::from_findings(&findings);
        let json = b.to_json_string();
        let parsed = Baseline::from_json_str(&json).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json_string(), json);
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn ratchet_catches_over_and_reports_stale() {
        let b = Baseline::from_findings(&[
            finding("panic-in-lib", "a.rs", 1),
            finding("panic-in-lib", "a.rs", 2),
        ]);
        // Within allowance: clean.
        let ok = b.check(&[
            finding("panic-in-lib", "a.rs", 5),
            finding("panic-in-lib", "a.rs", 9),
        ]);
        assert!(ok.over.is_empty() && ok.stale.is_empty());
        // Exceeds allowance: the whole group is surfaced.
        let over = b.check(&[
            finding("panic-in-lib", "a.rs", 1),
            finding("panic-in-lib", "a.rs", 2),
            finding("panic-in-lib", "a.rs", 3),
        ]);
        assert_eq!(over.over.len(), 3);
        // A different file is never covered by a.rs's allowance.
        let other = b.check(&[finding("panic-in-lib", "b.rs", 1)]);
        assert_eq!(other.over.len(), 1);
        // Under allowance: stale report, no failure.
        let stale = b.check(&[finding("panic-in-lib", "a.rs", 1)]);
        assert!(stale.over.is_empty());
        assert_eq!(
            stale.stale,
            vec![("panic-in-lib".to_owned(), "a.rs".to_owned(), 2, 1)]
        );
        // Fully fixed file: stale with actual 0.
        let gone = b.check(&[]);
        assert_eq!(gone.stale[0].3, 0);
    }

    #[test]
    fn empty_baseline_flags_everything() {
        let b = Baseline::default();
        assert!(b.is_empty());
        let out = b.check(&[finding("panic-in-lib", "x.rs", 1)]);
        assert_eq!(out.over.len(), 1);
    }

    #[test]
    fn duplicated_entry_is_rejected() {
        let raw = r#"{"version": 1, "entries": [
            { "rule": "panic-in-lib", "file": "a.rs", "count": 1 },
            { "rule": "panic-in-lib", "file": "a.rs", "count": 9 }
        ]}"#;
        let err = Baseline::from_json_str(raw).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn non_ascii_path_round_trips() {
        let b = Baseline::from_findings(&[finding("panic-in-lib", "crates/é.rs", 1)]);
        let json = b.to_json_string();
        assert!(json.contains("\"crates/é.rs\""));
        let parsed = Baseline::from_json_str(&json).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn trailing_text_is_rejected() {
        let json = Baseline::default().to_json_string();
        assert!(Baseline::from_json_str(&json).is_ok());
        assert!(Baseline::from_json_str(&format!("{json}garbage")).is_err());
    }

    #[test]
    fn rejects_bad_versions_and_garbage() {
        assert!(Baseline::from_json_str("{\"version\": 99, \"entries\": []}").is_err());
        assert!(Baseline::from_json_str("not json").is_err());
        assert!(Baseline::from_json_str("{\"version\": 1}").is_err());
    }
}
