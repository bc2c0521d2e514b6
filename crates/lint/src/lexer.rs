//! A minimal Rust token scanner.
//!
//! The rule engine needs far less than a real parser: identifiers,
//! punctuation, and string literals, each tagged with a line number, with
//! comments and string *contents* reliably kept out of the token stream
//! (so a `panic!` mentioned in a doc comment never trips a rule).
//! Comments are captured separately because the escape directives the
//! linter honors (the `allow(...)` forms) live in them.
//!
//! The scanner handles the lexical constructs that would otherwise corrupt
//! a naive text scan: nested block comments, raw strings with arbitrary
//! hash fences, byte strings, char literals vs. lifetimes, and numeric
//! suffixes (`0u64`), which rule `unchecked-arith-expr` reads as type
//! evidence.

/// What a token is. The scanner keeps only the classes rules consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`for`, `Vec`, `assert_eq`).
    Ident,
    /// String literal; `text` holds the *contents* (no quotes, escapes raw).
    Str,
    /// Char literal or lifetime (`'a'`, `'static`); contents in `text`.
    Char,
    /// Numeric literal, suffix included (`1_000`, `0u64`, `1.5e-3`).
    Number,
    /// Punctuation. Multi-character operators that rules care about are
    /// fused (`::`, `->`, `=>`, `==`, `!=`, `<=`, `>=`, `+=`, `-=`, `*=`,
    /// `/=`, `%=`, `&&`, `||`, `..`, `..=`); everything else is one char.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Token text (see [`TokenKind`] for what each class stores).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// True iff this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True iff this is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// A comment with the 1-based line it starts on. Line comments keep their
/// text without the `//`; block comments keep everything between the
/// delimiters.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based starting line.
    pub line: usize,
    /// Comment body.
    pub text: String,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order (for escape directives).
    pub comments: Vec<Comment>,
}

/// Operators fused into one token, longest first so maximal munch works.
const FUSED: &[&str] = &[
    "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&&", "||", "..",
];

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking newlines.
    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    /// Consumes `n` bytes that are known not to contain newlines.
    fn bump_n(&mut self, n: usize) {
        self.pos += n;
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Scans `src` into tokens and comments. The scanner never fails: bytes it
/// does not understand become single-char punctuation, which rules ignore.
pub fn lex(src: &str) -> Lexed {
    let mut s = Scanner {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = s.peek(0) {
        let line = s.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                s.bump();
            }
            b'/' if s.peek(1) == Some(b'/') => {
                let start = s.pos + 2;
                while s.peek(0).is_some_and(|c| c != b'\n') {
                    s.bump();
                }
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&s.src[start..s.pos]).into_owned(),
                });
            }
            b'/' if s.peek(1) == Some(b'*') => {
                s.bump_n(2);
                let start = s.pos;
                let mut depth = 1usize;
                let mut end = s.pos;
                while depth > 0 {
                    if s.starts_with("/*") {
                        depth += 1;
                        s.bump_n(2);
                    } else if s.starts_with("*/") {
                        depth -= 1;
                        end = s.pos;
                        s.bump_n(2);
                    } else if s.bump().is_none() {
                        end = s.pos;
                        break;
                    }
                }
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&s.src[start..end]).into_owned(),
                });
            }
            b'"' => {
                s.bump();
                let text = scan_quoted(&mut s, b'"');
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                });
            }
            b'r' | b'b' if raw_fence(&s).is_some() => {
                let (prefix_len, hashes) = raw_fence(&s).unwrap_or((0, 0));
                s.bump_n(prefix_len);
                let close = "\"".to_owned() + &"#".repeat(hashes);
                s.bump(); // the opening quote `raw_fence` validated
                for _ in 0..hashes {
                    s.bump();
                }
                let start = s.pos;
                let mut end = s.src.len();
                while s.peek(0).is_some() {
                    if s.starts_with(&close) {
                        end = s.pos;
                        s.bump();
                        for _ in 0..hashes {
                            s.bump();
                        }
                        break;
                    }
                    s.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::from_utf8_lossy(&s.src[start..end]).into_owned(),
                    line,
                });
            }
            b'b' if s.peek(1) == Some(b'"') => {
                s.bump_n(2);
                let text = scan_quoted(&mut s, b'"');
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`): after the
                // quote, an identifier not followed by a closing quote is a
                // lifetime.
                let is_lifetime =
                    s.peek(1).is_some_and(is_ident_start) && s.peek(1) != Some(b'\\') && {
                        // Find where the identifier run ends.
                        let mut i = 1;
                        while s.peek(i).is_some_and(is_ident_continue) {
                            i += 1;
                        }
                        s.peek(i) != Some(b'\'')
                    };
                s.bump();
                if is_lifetime {
                    let start = s.pos;
                    while s.peek(0).is_some_and(is_ident_continue) {
                        s.bump();
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        text: String::from_utf8_lossy(&s.src[start..s.pos]).into_owned(),
                        line,
                    });
                } else {
                    let text = scan_quoted(&mut s, b'\'');
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        text,
                        line,
                    });
                }
            }
            _ if is_ident_start(b) => {
                let start = s.pos;
                while s.peek(0).is_some_and(is_ident_continue) {
                    s.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: String::from_utf8_lossy(&s.src[start..s.pos]).into_owned(),
                    line,
                });
            }
            _ if b.is_ascii_digit() => {
                let start = s.pos;
                // Digits, underscores, hex/suffix letters, and the dot/exp
                // forms; `1..3` must not swallow the range dots.
                while let Some(c) = s.peek(0) {
                    if c.is_ascii_alphanumeric()
                        || c == b'_'
                        || (c == b'.'
                            && s.peek(1) != Some(b'.')
                            && s.peek(1).is_some_and(|d| d.is_ascii_digit()))
                    {
                        s.bump();
                    } else if (c == b'+' || c == b'-')
                        && matches!(s.src.get(s.pos.wrapping_sub(1)), Some(b'e' | b'E'))
                        && s.src[start..s.pos].contains(&b'.')
                    {
                        s.bump(); // float exponent sign, e.g. 1.5e-3
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Number,
                    text: String::from_utf8_lossy(&s.src[start..s.pos]).into_owned(),
                    line,
                });
            }
            _ => {
                let fused = FUSED.iter().find(|op| s.starts_with(op));
                let text = match fused {
                    Some(op) => {
                        s.bump_n(op.len());
                        (*op).to_owned()
                    }
                    None => {
                        s.bump();
                        (b as char).to_string()
                    }
                };
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    out
}

/// Scans a quoted literal body after the opening delimiter, honoring
/// backslash escapes; returns the raw contents.
fn scan_quoted(s: &mut Scanner<'_>, close: u8) -> String {
    let start = s.pos;
    let mut end = s.src.len();
    while let Some(c) = s.peek(0) {
        if c == b'\\' {
            s.bump();
            s.bump();
            continue;
        }
        if c == close {
            end = s.pos;
            s.bump();
            break;
        }
        s.bump();
    }
    String::from_utf8_lossy(&s.src[start..end.min(s.src.len())]).into_owned()
}

/// If the scanner sits on a raw-string opener (`r"`, `r#"`, `br##"` …),
/// returns `(prefix_len, hash_count)` where `prefix_len` covers the letters
/// and hashes up to but not including the quote.
fn raw_fence(s: &Scanner<'_>) -> Option<(usize, usize)> {
    let mut i = 0;
    if s.peek(i) == Some(b'b') {
        i += 1;
    }
    if s.peek(i) != Some(b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while s.peek(i) == Some(b'#') {
        i += 1;
        hashes += 1;
    }
    (s.peek(i) == Some(b'"')).then_some((i, hashes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let src = r##"
// HashMap in a comment
/* HashMap /* nested */ still comment */
let s = "HashMap in a string";
let r = r#"HashMap raw"#;
let real = HashMap::new();
"##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|i| *i == "HashMap").count(),
            1,
            "only the real code mention counts: {ids:?}"
        );
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("HashMap in a comment"));
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n  c");
        let lines: Vec<(String, usize)> =
            lexed.tokens.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(
            lines,
            vec![
                ("a".to_owned(), 1),
                ("b".to_owned(), 2),
                ("c".to_owned(), 3)
            ]
        );
    }

    #[test]
    fn fused_operators_and_ranges() {
        let toks: Vec<String> = lex("a += b; c..d; e == f; x.wrapping_mul(2)")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text)
            .collect();
        assert!(toks.contains(&"+=".to_owned()));
        assert!(toks.contains(&"..".to_owned()));
        assert!(toks.contains(&"==".to_owned()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let chars: Vec<String> = lexed
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text)
            .collect();
        assert_eq!(chars, vec!["a", "a", "x", "\\n"]);
    }

    #[test]
    fn numeric_suffixes_kept() {
        let nums: Vec<String> = lex("let a = 0u64; let b = 1_000; let c = 1.5e-3; 1..4")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, vec!["0u64", "1_000", "1.5e-3", "1", "4"]);
    }

    #[test]
    fn unterminated_inputs_do_not_loop() {
        for src in ["\"unterminated", "/* open", "r#\"open", "'"] {
            let _ = lex(src); // must terminate
        }
    }
}
