//! The rule engine: project-specific determinism & safety rules that
//! clippy cannot express, each born from a concrete bug class (see
//! DESIGN.md §11 for the postmortems and the per-rule ledger).
//!
//! | rule id                | catches                                          |
//! |------------------------|--------------------------------------------------|
//! | `unchecked-arith-expr` | data-dependent integer accumulation in loops     |
//! | `panic-in-lib`         | `panic!`/`assert!` in non-test library paths     |
//!
//! Every rule works on the token stream from [`crate::lexer`] — heuristic
//! by design. False positives are handled by the escape contract
//! (`// nashdb-lint: allow(rule-id) -- why`), never by weakening a rule.
//! What needs type resolution (wall-clock reads, raw threads, hash
//! containers, dropped `Result`s) is clippy's half of the gate:
//! `disallowed-methods`/`disallowed-types` in the root `clippy.toml` and
//! `let_underscore_must_use` in `[workspace.lints.clippy]`. Hash order
//! cannot reach an output because no hash container is ever built.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Every rule id the engine can emit, including the meta-rule for escapes
/// lacking a justification.
pub const RULE_IDS: &[&str] = &[
    "unchecked-arith-expr",
    "panic-in-lib",
    "escape-needs-justification",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id from [`RULE_IDS`].
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with the offending construct.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Runs every applicable rule over one file, applies the escape contract,
/// and returns the surviving findings in line order.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    unchecked_arith_expr(file, &mut findings);
    panic_in_lib(file, &mut findings);

    // Escape contract: drop findings covered by a *justified* escape; an
    // unjustified escape is itself a finding (whether or not it covers
    // anything) so "allow with no reason" can never land silently.
    findings.retain(|f| {
        !file.escapes.iter().any(|e| {
            e.justified
                && e.rule == f.rule
                && (e.file_wide || e.line == f.line || e.line + 1 == f.line)
        })
    });
    for e in &file.escapes {
        if !e.justified {
            findings.push(Finding {
                rule: "escape-needs-justification",
                file: file.path.clone(),
                line: e.line,
                message: format!(
                    "escape for `{}` has no justification; write `-- <reason>` after the directive",
                    e.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// True for lines the rules must ignore (inside `#[cfg(test)]` items).
fn in_test(file: &SourceFile, line: usize) -> bool {
    file.test_lines.contains(line)
}

// ---------------------------------------------------------------------------
// Shared token-stream helpers
// ---------------------------------------------------------------------------

/// Collects names whose declared type mentions one of `type_names`:
/// `name: u64`, `name: Vec<u64>`, struct fields, fn params — anything of
/// the shape `name` `:` …type tokens… terminated by `=`, `,`, `;`, `)`,
/// `{`, or `>` at nesting level 0 — plus `name = TypeName::…` initializers
/// and (for numeric types) `name = 0u64`-style suffixed literals.
fn typed_names(toks: &[Token], type_names: &[&str], suffixes: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && i + 1 < toks.len() && toks[i + 1].is_punct(":") {
            let name = &toks[i].text;
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut hit = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") {
                    if angle == 0 {
                        break;
                    }
                    angle -= 1;
                } else if angle == 0
                    && (t.is_punct("=")
                        || t.is_punct(",")
                        || t.is_punct(";")
                        || t.is_punct(")")
                        || t.is_punct("{"))
                {
                    break;
                } else if t.kind == TokenKind::Ident && type_names.contains(&t.text.as_str()) {
                    hit = true;
                }
                j += 1;
            }
            if hit && !out.contains(name) {
                out.push(name.clone());
            }
        }
        // `let [mut] name = u64::MAX` / `let mut acc = 0u64`.
        if toks[i].kind == TokenKind::Ident && i + 1 < toks.len() && toks[i + 1].is_punct("=") {
            let name = &toks[i].text;
            if let Some(t) = toks.get(i + 2) {
                let init_type = t.kind == TokenKind::Ident && type_names.contains(&t.text.as_str());
                let init_suffix =
                    t.kind == TokenKind::Number && suffixes.iter().any(|s| t.text.ends_with(s));
                if (init_type || init_suffix) && !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
        i += 1;
    }
    out
}

/// Scans forward from token `start` to the end of the enclosing statement
/// (a `;`, or a `{`/`}` that leaves the expression) and returns true if any
/// identifier along the way is in `sinks`.
fn statement_mentions(toks: &[Token], start: usize, sinks: &[&str]) -> bool {
    let mut depth = 0i32;
    for t in &toks[start..] {
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                ";" | "{" | "}" if depth == 0 => return false,
                _ => {}
            },
            TokenKind::Ident if sinks.contains(&t.text.as_str()) => return true,
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: unchecked-arith-expr
// ---------------------------------------------------------------------------

/// Primitive integer types: annotation evidence and literal suffixes.
const INTEGER_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Evidence in the same statement that the arithmetic is overflow-aware.
const CHECKED_MARKERS: &[&str] = &[
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "checked_cast",
    "usize_from",
    "saturating_u64",
];

/// One loop body: the token indices of its braces, and the names that
/// cannot accumulate across its iterations — the `for` pattern, cursors a
/// `while x <` header bounds, and every `let` inside the body.
struct LoopBody {
    open: usize,
    close: usize,
    exempt: Vec<String>,
}

/// Finds every `for`/`while`/`loop` body by brace tracking. `for` without
/// an `in` before its brace is an `impl … for` header or an HRTB, not a loop.
fn loop_bodies(toks: &[Token]) -> Vec<LoopBody> {
    let mut out = Vec::new();
    for (i, kw) in toks.iter().enumerate() {
        if !(kw.is_ident("for") || kw.is_ident("while") || kw.is_ident("loop")) {
            continue;
        }
        // The header runs to the first `{` outside parens and brackets.
        let mut depth = 0i32;
        let header_end = (i + 1..toks.len()).find(|&j| {
            match toks[j].text.as_str() {
                _ if toks[j].kind != TokenKind::Punct => {}
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
            depth <= 0 && ["{", ";", "}"].iter().any(|p| toks[j].is_punct(p))
        });
        let Some(open) = header_end.filter(|&j| toks[j].is_punct("{")) else {
            continue;
        };
        let header = &toks[i + 1..open];
        let mut exempt: Vec<&Token> = match kw.text.as_str() {
            "for" => match header.iter().position(|t| t.is_ident("in")) {
                Some(in_at) => header[..in_at].iter().collect(),
                None => continue,
            },
            "while" => {
                let bounded = header
                    .windows(2)
                    .filter(|w| w[1].is_punct("<") || w[1].is_punct("<="));
                bounded.map(|w| &w[0]).collect()
            }
            _ => Vec::new(),
        };
        let mut braces = 0usize;
        let close = (open..toks.len()).find(|&j| {
            braces += usize::from(toks[j].is_punct("{"));
            braces -= usize::from(toks[j].is_punct("}"));
            braces == 0
        });
        let close = close.unwrap_or(toks.len());
        for (k, t) in toks[..close].iter().enumerate().skip(open) {
            if t.is_ident("let") {
                exempt.extend(toks[k + 1..].iter().find(|n| !n.is_ident("mut")));
            }
        }
        let idents = exempt.iter().filter(|t| t.kind == TokenKind::Ident);
        out.push(LoopBody {
            open,
            close,
            exempt: idents.map(|t| t.text.clone()).collect(),
        });
    }
    out
}

/// The root binding of the place expression that ends just before token
/// `end`, with the index of the place's first token: `x`, `x[i]` and `x.f`
/// root at `x`; `self.x` and `self.x[i]` root at the field `x`.
fn place_root(toks: &[Token], end: usize) -> Option<(usize, &str)> {
    let (mut k, mut index_depth, mut want_ident, mut root) = (end, 0usize, true, None);
    while let Some(t) = k.checked_sub(1).map(|p| &toks[p]) {
        if t.is_punct("]") {
            index_depth += 1;
        } else if index_depth > 0 {
            index_depth -= usize::from(t.is_punct("["));
        } else if want_ident && t.kind == TokenKind::Ident {
            if t.text != "self" {
                root = Some(t.text.as_str());
            }
            want_ident = false;
        } else if !want_ident && t.is_punct(".") {
            want_ident = true;
        } else {
            break;
        }
        k -= 1;
    }
    root.filter(|_| !want_ident).map(|name| (k, name))
}

/// For `target = value` with `=` at `eq`: the index of the operator, when
/// `value` is a place rooted at `root`, then `+` or `*` (`x = x + …`).
fn self_assign_op(toks: &[Token], eq: usize, root: &str) -> Option<usize> {
    let place = (eq + 1..toks.len()).find(|&k| !toks[k].is_punct("*"))?;
    let op = (place..toks.len()).find(|&k| [";", "+", "*"].iter().any(|p| toks[k].is_punct(p)))?;
    (!toks[op].is_punct(";") && place_root(toks, op) == Some((place, root))).then_some(op)
}

/// The packing-tally overflow class: `+=`/`*=` (and `x = x + …`) on an
/// integer binding inside a loop body, where a wrap compounds. Integer
/// evidence is an annotation, a suffixed literal initializer or a struct
/// field of this file ([`typed_names`]). Constant steps, loop-local
/// bindings, bounded `while` cursors, statements with a `saturating_*`/
/// `checked_*`/`wrapping_*` marker and the `num` modules are exempt.
fn unchecked_arith_expr(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.path.ends_with("/num.rs") || file.path.contains("/num/") {
        return;
    }
    // Test code is invisible to the rule, as evidence and as a site.
    let lib_tokens = file.lexed.tokens.iter().filter(|t| !in_test(file, t.line));
    let toks = &lib_tokens.cloned().collect::<Vec<Token>>();
    let int_named = typed_names(toks, INTEGER_TYPES, INTEGER_TYPES);
    let loops = loop_bodies(toks);

    for (i, t) in toks.iter().enumerate() {
        let compound = t.is_punct("+=") || t.is_punct("*=");
        if !(compound || t.is_punct("=")) {
            continue;
        }
        let Some((start, root)) = place_root(toks, i) else {
            continue;
        };
        let op_at = if compound {
            i
        } else {
            let declares = toks[..start]
                .last()
                .is_some_and(|p| p.is_ident("let") || p.is_ident("mut"));
            match self_assign_op(toks, i, root) {
                Some(k) if !declares => k,
                _ => continue,
            }
        };
        let op = &toks[op_at].text;
        // A constant step (`pos += 1`) is a cursor, not data-dependent
        // accumulation: it cannot plausibly wrap a 64-bit type.
        let literal_step = op.starts_with('+')
            && toks
                .get(op_at + 1)
                .is_some_and(|n| n.kind == TokenKind::Number)
            && toks
                .get(op_at + 2)
                .is_some_and(|n| [";", ",", "}"].iter().any(|end| n.is_punct(end)));
        let mut enclosing = loops
            .iter()
            .filter(|l| l.open < i && i < l.close)
            .peekable();
        if literal_step
            || enclosing.peek().is_none()
            || enclosing.any(|l| l.exempt.iter().any(|n| n == root))
            || !int_named.iter().any(|n| n == root)
            || statement_mentions(toks, i + 1, CHECKED_MARKERS)
        {
            continue;
        }
        findings.push(Finding {
            rule: "unchecked-arith-expr",
            file: file.path.clone(),
            line: t.line,
            message: format!(
                "unchecked `{op}` on integer `{root}` inside a loop; use `saturating_*`/`checked_*` \
                 (or the `num` helpers) so a hot counter cannot wrap"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: panic-in-lib
// ---------------------------------------------------------------------------

/// Panicking macros clippy's restriction lints miss behind `cfg` or inside
/// other macros.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Library code surfaces failures as typed errors; panics are for tests,
/// binaries, and audit modules (which escape file-wide with justification).
/// `debug_assert*` is exempt — it vanishes in release builds.
fn panic_in_lib(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.is_bin {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && !in_test(file, t.line)
        {
            findings.push(Finding {
                rule: "panic-in-lib",
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{}!` in non-test library code; return a typed error, or escape with a \
                     justification if this is a documented contract violation",
                    t.text
                ),
            });
        }
    }
}
