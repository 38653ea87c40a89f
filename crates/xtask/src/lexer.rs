//! Dependency-free Rust token lexer.
//!
//! The substrate for the lint rules: one pass produces a real token
//! stream (identifiers, lifetimes, numeric/string/char literals,
//! punctuation with the common multi-character operators fused) *and*
//! per-line code/comment channels, which `tests/lexer_diff.rs` checks
//! over generated compositions of lexically tricky snippets.
//!
//! This is still deliberately not a full parser — no macro expansion, no
//! precedence — but tokens are enough to make rules like "`.unwrap ()`
//! with a stray space" or "`Ordering::Relaxed` spelled via a `use`
//! rename" visible where substring matching went blind.

use std::fmt;

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, ...).
    Ident,
    /// Lifetime (`'a`, `'static`) — the quote plus the name.
    Lifetime,
    /// Integer literal, including suffixed/prefixed forms (`7u64`, `0xFF`).
    Int,
    /// Float literal (`0.0`, `1e-3`, `2f64`).
    Float,
    /// String literal; `text` is the interior (escapes unprocessed).
    Str,
    /// Raw string literal; `text` is the interior.
    RawStr,
    /// Char literal; `text` is the interior.
    Char,
    /// Punctuation. Common multi-char operators (`::`, `->`, `=>`, `+=`,
    /// `==`, `..=`, ...) are fused into one token; `<<`/`>>` are *not*,
    /// so angle-bracket matching over generics stays possible.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (for literals: the interior, delimiters stripped).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the exact identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the exact punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.text, self.line)
    }
}

/// Per-line code/comment channels: literal interiors dropped, comments
/// blanked to a single space in `code` and captured in `comment`.
#[derive(Debug, Clone, Default)]
pub struct LexedLine {
    /// Source with comments and literal interiors blanked.
    pub code: String,
    /// Concatenated comment text on this line.
    pub comment: String,
}

/// Result of lexing a whole file.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    /// The token stream, in source order.
    pub toks: Vec<Tok>,
    /// Per-line blanking channels.
    pub lines: Vec<LexedLine>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    BlockComment,
    Str,
    RawStr { hashes: usize },
}

/// Multi-character operators fused into single punctuation tokens,
/// longest first. `<<`/`>>` are deliberately absent (generics).
const MULTI_PUNCT: [&str; 16] = [
    "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "..",
];

/// Lex `text` into tokens plus per-line blanked channels.
#[allow(clippy::too_many_lines)]
pub fn lex(text: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let mut mode = Mode::Code;
    let mut block_depth = 0usize;
    // Literal text accumulated across lines for multi-line strings.
    let mut lit = String::new();
    let mut lit_line = 0u32;

    for (li, raw) in text.lines().enumerate() {
        let lineno = (li + 1) as u32;
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut i = 0;

        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match mode {
                Mode::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(&chars[i..].iter().collect::<String>());
                        code.push(' ');
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment;
                        block_depth = 1;
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        mode = Mode::Str;
                        lit.clear();
                        lit_line = lineno;
                        i += 1;
                    }
                    'r' if matches!(next, Some('"' | '#')) && is_raw_string_start(&chars, i) => {
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            code.push('r');
                            code.push('"');
                            mode = Mode::RawStr { hashes };
                            lit.clear();
                            lit_line = lineno;
                            i = j + 1;
                        } else {
                            // `r#ident` or a lone `r#`: treat `r` as the
                            // start of an ordinary identifier.
                            let (tok, len) = lex_ident(&chars, i);
                            code.push_str(&tok);
                            out.toks.push(Tok {
                                kind: TokKind::Ident,
                                text: tok,
                                line: lineno,
                            });
                            i += len;
                        }
                    }
                    '\'' => {
                        if let Some(len) = char_literal_len(&chars, i) {
                            let interior: String = chars[i + 1..i + len - 1].iter().collect();
                            code.push('\'');
                            code.push(' ');
                            code.push('\'');
                            out.toks.push(Tok {
                                kind: TokKind::Char,
                                text: interior,
                                line: lineno,
                            });
                            i += len;
                        } else {
                            // Lifetime: quote plus identifier characters.
                            code.push('\'');
                            let mut j = i + 1;
                            let mut name = String::from("'");
                            while j < chars.len() && is_ident_char(chars[j]) {
                                name.push(chars[j]);
                                code.push(chars[j]);
                                j += 1;
                            }
                            out.toks.push(Tok {
                                kind: TokKind::Lifetime,
                                text: name,
                                line: lineno,
                            });
                            i = j;
                        }
                    }
                    c if c.is_ascii_digit() => {
                        let (tok, len, is_float) = lex_number(&chars, i);
                        code.push_str(&tok);
                        out.toks.push(Tok {
                            kind: if is_float {
                                TokKind::Float
                            } else {
                                TokKind::Int
                            },
                            text: tok,
                            line: lineno,
                        });
                        i += len;
                    }
                    c if is_ident_start(c) => {
                        let (tok, len) = lex_ident(&chars, i);
                        code.push_str(&tok);
                        out.toks.push(Tok {
                            kind: TokKind::Ident,
                            text: tok,
                            line: lineno,
                        });
                        i += len;
                    }
                    c if c.is_whitespace() => {
                        code.push(c);
                        i += 1;
                    }
                    _ => {
                        let rest: String = chars[i..].iter().take(3).collect();
                        let op = MULTI_PUNCT.iter().find(|op| rest.starts_with(**op));
                        let (tok, len) = match op {
                            Some(op) => ((*op).to_string(), op.len()),
                            None => (c.to_string(), 1),
                        };
                        code.push_str(&tok);
                        out.toks.push(Tok {
                            kind: TokKind::Punct,
                            text: tok,
                            line: lineno,
                        });
                        i += len;
                    }
                },
                Mode::BlockComment => {
                    if c == '*' && next == Some('/') {
                        block_depth -= 1;
                        i += 2;
                        if block_depth == 0 {
                            mode = Mode::Code;
                        }
                    } else if c == '/' && next == Some('*') {
                        block_depth += 1;
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                Mode::Str => match c {
                    '\\' => {
                        lit.push(c);
                        if let Some(n) = next {
                            lit.push(n);
                        }
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        out.toks.push(Tok {
                            kind: TokKind::Str,
                            text: std::mem::take(&mut lit),
                            line: lit_line,
                        });
                        mode = Mode::Code;
                        i += 1;
                    }
                    _ => {
                        lit.push(c);
                        i += 1;
                    }
                },
                Mode::RawStr { hashes } => {
                    if c == '"' && closes_raw(&chars, i, hashes) {
                        code.push('"');
                        out.toks.push(Tok {
                            kind: TokKind::RawStr,
                            text: std::mem::take(&mut lit),
                            line: lit_line,
                        });
                        mode = Mode::Code;
                        i += 1 + hashes;
                    } else {
                        lit.push(c);
                        i += 1;
                    }
                }
            }
        }
        if mode == Mode::Str || matches!(mode, Mode::RawStr { .. }) {
            lit.push('\n');
        }
        out.lines.push(LexedLine { code, comment });
    }
    // Unterminated literal at EOF: emit what accumulated so the token
    // stream never silently drops text.
    if !lit.is_empty() {
        let kind = if mode == Mode::Str {
            TokKind::Str
        } else {
            TokKind::RawStr
        };
        out.toks.push(Tok {
            kind,
            text: lit,
            line: lit_line,
        });
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn lex_ident(chars: &[char], i: usize) -> (String, usize) {
    let mut j = i;
    let mut s = String::new();
    while j < chars.len() && is_ident_char(chars[j]) {
        s.push(chars[j]);
        j += 1;
    }
    (s, j - i)
}

/// Lex a numeric literal starting at a digit. Handles `_` separators,
/// radix prefixes, `1.5`, `1e-3`/`2.5E+7` exponents and type suffixes
/// (`7u64`, `2f64`). A trailing `.` followed by a non-digit (method call
/// `1.max(2)`, range `0..n`) is not consumed.
fn lex_number(chars: &[char], i: usize) -> (String, usize, bool) {
    let mut j = i;
    let mut s = String::new();
    let mut is_float = false;
    let radix_prefixed =
        chars[i] == '0' && matches!(chars.get(i + 1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
    let push_word = |s: &mut String, j: &mut usize| {
        while *j < chars.len() && (chars[*j].is_ascii_alphanumeric() || chars[*j] == '_') {
            // An exponent sign only follows e/E in decimal literals.
            let c = chars[*j];
            s.push(c);
            *j += 1;
            if !radix_prefixed
                && (c == 'e' || c == 'E')
                && matches!(chars.get(*j), Some('+' | '-'))
                && chars.get(*j + 1).is_some_and(char::is_ascii_digit)
            {
                s.push(chars[*j]);
                *j += 1;
            }
        }
    };
    push_word(&mut s, &mut j);
    if chars.get(j) == Some(&'.') && chars.get(j + 1).is_some_and(char::is_ascii_digit) {
        is_float = true;
        s.push('.');
        j += 1;
        push_word(&mut s, &mut j);
    }
    if !radix_prefixed
        && (s.contains('e') || s.contains('E') || s.ends_with("f32") || s.ends_with("f64"))
    {
        is_float = true;
    }
    (s, j - i, is_float)
}

/// Whether `r` at `i` starts a raw string (vs. an identifier ending in r).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = chars[i - 1];
    !(prev.is_alphanumeric() || prev == '_')
}

/// Length of a char literal starting at `i` (which holds `'`), or `None`
/// if this is a lifetime.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            let mut j = i + 2;
            if matches!(chars.get(j), Some('x')) {
                j += 2;
            } else if matches!(chars.get(j), Some('u')) {
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
                return Some(j - i + 1);
            }
            j += 1;
            (chars.get(j) == Some(&'\'')).then_some(j - i + 1)
        }
        _ => (chars.get(i + 2) == Some(&'\'')).then_some(3),
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = kinds("let x = a.unwrap();");
        assert_eq!(toks[0], (TokKind::Ident, "let".into()));
        assert_eq!(toks[1], (TokKind::Ident, "x".into()));
        assert_eq!(toks[2], (TokKind::Punct, "=".into()));
        assert_eq!(toks[3], (TokKind::Ident, "a".into()));
        assert_eq!(toks[4], (TokKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokKind::Ident, "unwrap".into()));
    }

    #[test]
    fn multi_char_ops_fused_but_not_shifts() {
        let toks = kinds("a += b::c -> d..=e << f");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["+=", "::", "->", "..=", "<", "<"]);
    }

    #[test]
    fn numbers_int_vs_float() {
        let toks = kinds("0 7u64 0xFF 1.5 1e-3 2f64 1.max(2) 0..n");
        let nums: Vec<(TokKind, &str)> = toks
            .iter()
            .filter(|(k, _)| matches!(k, TokKind::Int | TokKind::Float))
            .map(|(k, t)| (*k, t.as_str()))
            .collect();
        assert_eq!(
            nums,
            vec![
                (TokKind::Int, "0"),
                (TokKind::Int, "7u64"),
                (TokKind::Int, "0xFF"),
                (TokKind::Float, "1.5"),
                (TokKind::Float, "1e-3"),
                (TokKind::Float, "2f64"),
                (TokKind::Int, "1"),
                (TokKind::Int, "2"),
                (TokKind::Int, "0"),
            ]
        );
        // `1.max(2)` keeps `.max` as punct + ident, `0..n` keeps the range.
        assert!(toks.iter().any(|(_, t)| t == "max"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Punct && t == ".."));
    }

    #[test]
    fn strings_tokenized_and_blanked() {
        let f = lex("let s = \"has unwrap() inside\"; call();");
        assert!(f
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("unwrap")));
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("call();"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let f = lex("let s = r#\"x.unwrap()\"#; let c = 'q'; let lt: &'static str = \"\";");
        assert!(f
            .toks
            .iter()
            .any(|t| t.kind == TokKind::RawStr && t.text.contains("unwrap")));
        assert!(f
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "q"));
        assert!(f
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
        assert!(!f.lines[0].code.contains("unwrap"));
    }

    #[test]
    fn multiline_string_single_token() {
        let f = lex("let s = \"line one\nline two\"; done();");
        let strs: Vec<&Tok> = f.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].line, 1);
        assert!(strs[0].text.contains("line one\nline two"));
        assert!(f.toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn comments_captured_per_line() {
        let f = lex("code(); // tail TODO\n/* block\nstill block */ after();");
        assert!(f.lines[0].comment.contains("TODO"));
        assert!(f.lines[1].comment.contains("block"));
        assert!(f.lines[2].code.contains("after();"));
    }

    #[test]
    fn line_numbers_are_one_based() {
        let f = lex("a\nb\nc");
        let lines: Vec<u32> = f.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
