//! The committed finding baseline (`lint-baseline.json`).
//!
//! The baseline is a **ratchet**, not a suppression list: it records, per
//! `(rule, file)`, how many findings existed when the rule landed. CI fails
//! when a file *exceeds* its allowance — so new violations are caught even
//! in files with legacy sites — and reports (without failing) when a file
//! drops below it, so the allowance can be ratcheted down. Counts rather
//! than line numbers keep the baseline stable under unrelated edits.
//!
//! The JSON subset here is hand-rolled like `nashdb-obs`'s: this crate must
//! stay dependency-free.

use std::collections::BTreeMap;

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
            s.push_str(&format!(
                "    {{ \"rule\": {}, \"file\": {}, \"count\": {count} }}",
                quote(rule),
                quote(file)
            ));
        }
        if !first {
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses the committed JSON form.
    pub fn from_json_str(raw: &str) -> Result<Baseline, BaselineError> {
        let mut p = Parser {
            src: raw.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let top = p.object()?;
        match top.get("version") {
            Some(Value::Number(BASELINE_VERSION)) => {}
            other => {
                return Err(BaselineError {
                    at: 0,
                    message: format!(
                        "unsupported baseline version {other:?} (expected {BASELINE_VERSION})"
                    ),
                })
            }
        }
        let mut entries = BTreeMap::new();
        let Some(Value::Array(list)) = top.get("entries") else {
            return Err(BaselineError {
                at: 0,
                message: "missing \"entries\" array".to_owned(),
            });
        };
        for v in list {
            let Value::Object(obj) = v else {
                return Err(BaselineError {
                    at: 0,
                    message: "entries must be objects".to_owned(),
                });
            };
            let (Some(Value::String(rule)), Some(Value::String(file)), Some(Value::Number(count))) =
                (obj.get("rule"), obj.get("file"), obj.get("count"))
            else {
                return Err(BaselineError {
                    at: 0,
                    message: "entry needs string \"rule\", string \"file\", number \"count\""
                        .to_owned(),
                });
            };
            entries.insert((rule.clone(), file.clone()), *count);
        }
        Ok(Baseline { entries })
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON subset the baseline needs: objects, arrays, strings, unsigned
/// integers.
#[derive(Debug)]
enum Value {
    Object(BTreeMap<String, Value>),
    Array(Vec<Value>),
    String(String),
    Number(u64),
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> BaselineError {
        BaselineError {
            at: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), BaselineError> {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, BaselineError> {
        match self.peek() {
            Some(b'{') => self.object().map(Value::Object),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b) if b.is_ascii_digit() => self.number().map(Value::Number),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Value>, BaselineError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, BaselineError> {
        self.expect(b'[')?;
        let mut list = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(list));
        }
        loop {
            list.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(list));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, BaselineError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.src.get(self.pos).copied() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.src.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        other => {
                            return Err(
                                self.err(&format!("unsupported escape {other:?} in baseline"))
                            )
                        }
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<u64, BaselineError> {
        self.skip_ws();
        let start = self.pos;
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("expected an unsigned integer"))
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
    fn rejects_bad_versions_and_garbage() {
        assert!(Baseline::from_json_str("{\"version\": 99, \"entries\": []}").is_err());
        assert!(Baseline::from_json_str("not json").is_err());
        assert!(Baseline::from_json_str("{\"version\": 1}").is_err());
    }
}
