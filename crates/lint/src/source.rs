//! Per-file context the rules run against: the token stream plus everything
//! that modulates rule applicability — which crate the file belongs to,
//! which lines sit inside `#[cfg(test)]` regions, and which escape
//! directives its comments carry.

use crate::lexer::{lex, Lexed};

/// An escape directive parsed from a comment:
/// `// nashdb-lint: allow(rule-id) -- justification` silences `rule-id` on
/// the directive's line and the line below it (so it works both trailing
/// and as a line of its own above the site);
/// `// nashdb-lint: allow-file(rule-id) -- justification` silences the rule
/// for the whole file (for e.g. a contract-checking module whose entire job is
/// to panic).
///
/// The justification after `--` is mandatory: an escape without one is
/// itself reported, under rule `escape-needs-justification`.
#[derive(Debug, Clone)]
pub struct Escape {
    /// 1-based line of the comment.
    pub line: usize,
    /// The rule id being allowed.
    pub rule: String,
    /// True for `allow-file`.
    pub file_wide: bool,
    /// True when a non-empty justification follows `--`.
    pub justified: bool,
}

/// Inclusive 1-based line ranges.
#[derive(Debug, Default)]
pub struct LineRanges(Vec<(usize, usize)>);

impl LineRanges {
    /// True iff `line` falls in any range.
    pub fn contains(&self, line: usize) -> bool {
        self.0.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// Adds an inclusive range.
    pub fn push(&mut self, start: usize, end: usize) {
        self.0.push((start, end));
    }
}

/// One source file ready for rule checking.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators
    /// (`crates/core/src/routing.rs`).
    pub path: String,
    /// True for binary targets (`src/main.rs`, `src/bin/**`) — CLI entry
    /// points may panic and are exempt from `panic-in-lib`.
    pub is_bin: bool,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Lines inside `#[cfg(test)]` items; rules skip them entirely.
    pub test_lines: LineRanges,
    /// Escape directives found in comments.
    pub escapes: Vec<Escape>,
}

impl SourceFile {
    /// Builds the context for one file.
    pub fn new(path: &str, src: &str) -> SourceFile {
        let path = path.replace('\\', "/");
        let is_bin = path.contains("/src/bin/") || path.ends_with("/src/main.rs");
        let lexed = lex(src);
        let test_lines = find_test_regions(&lexed);
        let escapes = parse_escapes(&lexed);
        SourceFile {
            path,
            is_bin,
            lexed,
            test_lines,
            escapes,
        }
    }

    /// True iff `rule` is escaped at `line` (same-line or line-above
    /// directive, or a file-wide allow).
    pub fn is_escaped(&self, rule: &str, line: usize) -> bool {
        self.escapes
            .iter()
            .any(|e| e.rule == rule && (e.file_wide || e.line == line || e.line + 1 == line))
    }
}

/// Finds `#[cfg(test)]`-gated items and records the line span of each
/// (attribute line through the closing brace or semicolon of the item).
fn find_test_regions(lexed: &Lexed) -> LineRanges {
    let toks = &lexed.tokens;
    let mut ranges = LineRanges::default();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        // Scan the attribute body to its closing `]`, remembering whether it
        // is a cfg(...) mentioning the bare ident `test`.
        let mut j = i + 2;
        let mut depth = 1usize; // the `[`
        let mut is_cfg = false;
        let mut mentions_test = false;
        while j < toks.len() && depth > 0 {
            let t = &toks[j];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
            } else if t.is_ident("cfg") {
                is_cfg = true;
            } else if t.is_ident("test") {
                mentions_test = true;
            }
            j += 1;
        }
        if !(is_cfg && mentions_test) {
            i = j;
            continue;
        }
        // Skip any further attributes, then find the item's extent: the
        // matching `}` of its first brace, or a `;` before any brace.
        let mut k = j;
        while k + 1 < toks.len() && toks[k].is_punct("#") && toks[k + 1].is_punct("[") {
            let mut d = 1usize;
            k += 2;
            while k < toks.len() && d > 0 {
                if toks[k].is_punct("[") {
                    d += 1;
                } else if toks[k].is_punct("]") {
                    d -= 1;
                }
                k += 1;
            }
        }
        let mut end_line = toks.get(k).map_or(attr_line, |t| t.line);
        while k < toks.len() {
            if toks[k].is_punct(";") {
                end_line = toks[k].line;
                k += 1;
                break;
            }
            if toks[k].is_punct("{") {
                let mut d = 1usize;
                k += 1;
                while k < toks.len() && d > 0 {
                    if toks[k].is_punct("{") {
                        d += 1;
                    } else if toks[k].is_punct("}") {
                        d -= 1;
                    }
                    end_line = toks[k].line;
                    k += 1;
                }
                break;
            }
            end_line = toks[k].line;
            k += 1;
        }
        ranges.push(attr_line, end_line);
        i = k;
    }
    ranges
}

/// Parses `nashdb-lint:` directives out of the comment list.
fn parse_escapes(lexed: &Lexed) -> Vec<Escape> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.split("nashdb-lint:").nth(1) else {
            continue;
        };
        let rest = rest.trim_start();
        let file_wide = rest.starts_with("allow-file(");
        let open = if file_wide {
            rest.strip_prefix("allow-file(")
        } else {
            rest.strip_prefix("allow(")
        };
        let Some(open) = open else {
            continue;
        };
        let Some(close) = open.find(')') else {
            continue;
        };
        let rule = open[..close].trim().to_owned();
        let after = open[close + 1..].trim_start();
        let justified = after
            .strip_prefix("--")
            .is_some_and(|j| !j.trim().is_empty());
        out.push(Escape {
            line: c.line,
            rule,
            file_wide,
            justified,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_mod_tests() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.test_lines.contains(1));
        assert!(f.test_lines.contains(2)); // the attribute
        assert!(f.test_lines.contains(4)); // body
        assert!(f.test_lines.contains(5)); // closing brace
        assert!(!f.test_lines.contains(6));
    }

    #[test]
    fn cfg_all_test_and_stacked_attrs_count() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nfn helper() {\n  body();\n}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(f.test_lines.contains(4));
    }

    #[test]
    fn non_test_cfgs_do_not_match() {
        let src = "#[cfg(feature = \"test-utils\")]\nfn not_a_test() {}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.test_lines.contains(2));
    }

    #[test]
    fn escapes_parse_and_require_justification() {
        let src = "\
let a = 1; // nashdb-lint: allow(unchecked-arith-expr) -- validation-only pass
// nashdb-lint: allow(panic-in-lib)
// nashdb-lint: allow-file(panic-in-lib) -- audits exist to panic
";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert_eq!(f.escapes.len(), 3);
        assert!(f.escapes[0].justified && !f.escapes[0].file_wide);
        assert!(!f.escapes[1].justified);
        assert!(f.escapes[2].file_wide && f.escapes[2].justified);
        assert!(f.is_escaped("unchecked-arith-expr", 1));
        assert!(f.is_escaped("unchecked-arith-expr", 2)); // line below
        assert!(f.is_escaped("panic-in-lib", 999)); // file-wide
        assert!(!f.is_escaped("unchecked-arith-expr", 3));
    }

    #[test]
    fn crate_and_bin_classification() {
        let f = SourceFile::new("crates/bench/src/bin/cli.rs", "fn main() {}");
        assert!(f.is_bin);
        let f = SourceFile::new("crates/core/src/routing.rs", "");
        assert!(!f.is_bin);
    }
}
