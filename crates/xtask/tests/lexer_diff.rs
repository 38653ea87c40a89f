//! Property tests of the token lexer over generated compositions of
//! lexically tricky Rust.
//!
//! Each unit below is a self-contained snippet (every literal and
//! comment it opens, it closes) together with the per-line code and
//! comment channels and the literal interiors a correct lexer must
//! produce for it. Lexer state must not leak across unit boundaries, so
//! any composition of units lexes to the concatenation of the units'
//! expectations. A blanking bug — a miscounted raw-string hash, a
//! nested comment closed early, a lifetime read as a char literal, an
//! escaped quote that ends its string — moves text between channels and
//! shows up as a mismatch naming the composed source.

use proptest::prelude::*;

use xtask::lexer::{lex, TokKind};

/// A snippet and what lexing it must yield. `{N}` in any field is
/// replaced with the same generated filler word.
struct Unit {
    src: &'static str,
    /// Code channel per line, joined with `\n`.
    code: &'static str,
    /// Comment channel per line, joined with `\n`.
    comment: &'static str,
    /// Interiors of the string, raw-string and char literal tokens.
    literals: &'static [&'static str],
}

const fn unit(
    src: &'static str,
    code: &'static str,
    comment: &'static str,
    literals: &'static [&'static str],
) -> Unit {
    Unit {
        src,
        code,
        comment,
        literals,
    }
}

const UNITS: [Unit; 24] = [
    // Plain code with rule-relevant identifiers.
    unit("let x = m.unwrap();", "let x = m.unwrap();", "", &[]),
    unit(
        "use std::collections::HashMap;",
        "use std::collections::HashMap;",
        "",
        &[],
    ),
    unit(
        "for (k, v) in m.iter() { s += k; }",
        "for (k, v) in m.iter() { s += k; }",
        "",
        &[],
    ),
    unit(
        "let y: f64 = 0.5e-3 + 2f64;",
        "let y: f64 = 0.5e-3 + 2f64;",
        "",
        &[],
    ),
    // Identifiers that almost start raw strings.
    unit(
        "let r = rr; let rx = r#ident_like;",
        "let r = rr; let rx = r#ident_like;",
        "",
        &[],
    ),
    // Strings whose interiors contain marker text and escapes.
    unit(
        "let s = \"{N} unwrap()\";",
        "let s = \"\";",
        "",
        &["{N} unwrap()"],
    ),
    unit(
        "let s = \"esc \\\" quote \\\\ done {N}\";",
        "let s = \"\";",
        "",
        &["esc \\\" quote \\\\ done {N}"],
    ),
    unit(
        "let s = \"a\\\"unwrap()\\\"b\"; next();",
        "let s = \"\"; next();",
        "",
        &["a\\\"unwrap()\\\"b"],
    ),
    unit(
        "let s = r#\"raw unwrap() \"quoted\" {N}\"#;",
        "let s = r\"\";",
        "",
        &["raw unwrap() \"quoted\" {N}"],
    ),
    unit(
        "let s = r\"raw no hash\";",
        "let s = r\"\";",
        "",
        &["raw no hash"],
    ),
    unit(
        "let s = r##\"nested \"# almost\"##; f();",
        "let s = r\"\"; f();",
        "",
        &["nested \"# almost"],
    ),
    // Char literals vs lifetimes.
    unit(
        "let c = 'x'; let e = '\\n'; let u = '\\u{1F600}';",
        "let c = ' '; let e = ' '; let u = ' ';",
        "",
        &["x", "\\n", "\\u{1F600}"],
    ),
    unit(
        "let c = '\\''; let lt: &'a str = x;",
        "let c = ' '; let lt: &'a str = x;",
        "",
        &["\\'"],
    ),
    unit(
        "fn f<'a>(x: &'a str) -> &'static str { x }",
        "fn f<'a>(x: &'a str) -> &'static str { x }",
        "",
        &[],
    ),
    // Comments: line, doc, nested block, multi-line block.
    unit(
        "code(); // tail {N} TODO",
        "code();  ",
        "// tail {N} TODO",
        &[],
    ),
    unit(
        "/// doc comment with unwrap() {N}",
        " ",
        "/// doc comment with unwrap() {N}",
        &[],
    ),
    unit(
        "/* outer /* nested {N} */ still outer */ after();",
        "  after();",
        " outer  nested {N}  still outer ",
        &[],
    ),
    unit(
        "/* spans\nlines {N} */ tail();",
        " \n tail();",
        " spans\nlines {N} ",
        &[],
    ),
    unit(
        "/* a /* b */ c */ d(); /* e\nstill */ f();",
        "  d();  \n f();",
        " a  b  c  e\nstill ",
        &[],
    ),
    // A string spanning two lines.
    unit(
        "let s = \"spans\ntwo lines {N}\"; done();",
        "let s = \"\n\"; done();",
        "\n",
        &["spans\ntwo lines {N}"],
    ),
    // cfg(test) region markers.
    unit("#[cfg(test)]", "#[cfg(test)]", "", &[]),
    unit(
        "mod tests { fn t() { y.unwrap(); } }",
        "mod tests { fn t() { y.unwrap(); } }",
        "",
        &[],
    ),
    // Punctuation soup: fused operators and generics.
    unit(
        "a += b::c -> d..=e << f >> g;",
        "a += b::c -> d..=e << f >> g;",
        "",
        &[],
    ),
    unit(
        "let v: Vec<Vec<u64>> = Vec::new();",
        "let v: Vec<Vec<u64>> = Vec::new();",
        "",
        &[],
    ),
];

/// Deterministic filler word derived from the generated salt, so literal
/// and comment interiors differ across cases without a string strategy.
fn filler(salt: u64) -> String {
    let words = ["", "x", "iter drain", "a(b)c", "retain.keys", "zzz"];
    words[(salt % words.len() as u64) as usize].to_string()
}

/// The composed source and its expected code channel, comment channel
/// (lines joined with `\n`) and literal interiors.
fn compose(picks: &[(usize, u64)]) -> (String, String, String, Vec<String>) {
    let mut src = Vec::new();
    let mut code = Vec::new();
    let mut comment = Vec::new();
    let mut literals = Vec::new();
    for &(idx, salt) in picks {
        let u = &UNITS[idx % UNITS.len()];
        let fill = |s: &str| s.replace("{N}", &filler(salt));
        src.push(fill(u.src));
        code.push(fill(u.code));
        comment.push(fill(u.comment));
        literals.extend(u.literals.iter().map(|l| fill(l)));
    }
    (
        src.join("\n"),
        code.join("\n"),
        comment.join("\n"),
        literals,
    )
}

fn is_literal(kind: TokKind) -> bool {
    matches!(kind, TokKind::Str | TokKind::RawStr | TokKind::Char)
}

proptest! {
    /// Any composition of units lexes to the concatenation of the
    /// units' code channels, comment channels and literal interiors.
    #[test]
    fn compositions_lex_to_concatenated_expectations(
        picks in proptest::collection::vec((0usize..UNITS.len(), 0u64..1000), 0..16)
    ) {
        let (src, code, comment, literals) = compose(&picks);
        let lexed = lex(&src);
        prop_assert_eq!(lexed.lines.len(), src.lines().count(), "line count of:\n{}", src);
        let got_code: Vec<&str> = lexed.lines.iter().map(|l| l.code.as_str()).collect();
        prop_assert_eq!(got_code.join("\n"), code, "code channel of:\n{}", src);
        let got_comment: Vec<&str> = lexed.lines.iter().map(|l| l.comment.as_str()).collect();
        prop_assert_eq!(got_comment.join("\n"), comment, "comment channel of:\n{}", src);
        let got_literals: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| is_literal(t.kind))
            .map(|t| t.text.as_str())
            .collect();
        prop_assert_eq!(got_literals, literals, "literals of:\n{}", src);
    }

    /// Tokens come in line order, and every identifier token appears in
    /// the code channel of its line: the lexer never tokenizes a literal
    /// or comment interior.
    #[test]
    fn idents_lie_in_their_code_line(
        picks in proptest::collection::vec((0usize..UNITS.len(), 0u64..1000), 0..16)
    ) {
        let (src, ..) = compose(&picks);
        let lexed = lex(&src);
        prop_assert!(lexed.toks.windows(2).all(|w| w[0].line <= w[1].line));
        for t in lexed.toks.iter().filter(|t| t.kind == TokKind::Ident) {
            let line = &lexed.lines[t.line as usize - 1].code;
            prop_assert!(
                line.contains(t.text.as_str()),
                "ident `{}` from line {} missing from code channel `{}` of:\n{}",
                t.text, t.line, line, src
            );
        }
    }
}

/// An unterminated string at end of file still yields its text as one
/// literal token, and the code channel keeps only the opening quote.
#[test]
fn unterminated_string_at_eof_keeps_its_text() {
    let lexed = lex("let s = \"unterminated");
    assert_eq!(lexed.lines.len(), 1);
    assert_eq!(lexed.lines[0].code, "let s = \"");
    let literals: Vec<&str> = lexed
        .toks
        .iter()
        .filter(|t| is_literal(t.kind))
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(literals, ["unterminated\n"]);
}
