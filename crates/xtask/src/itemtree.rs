//! Brace-aware item tree over the token stream.
//!
//! Walks the [`crate::lexer`] output once and recovers the shape the
//! rules need: which lines sit inside `#[cfg(test)]` regions (the
//! attribute line through the matching close brace, inclusive), every
//! `fn` with its body token span, every `struct`/`enum` declaration
//! with visibility and lifetime-parameter flags, and every `impl` block
//! with its trait and self-type names. Still not a parser — no expressions, no
//! resolution — but enough structure for per-item rules (R10, R12) that
//! line-based scanning could never express.

use crate::lexer::{LexedFile, Tok, TokKind};

/// A `fn` item (free function, method, or nested fn — the list is flat).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index span `(open, close)` of the body braces, if any
    /// (trait-method declarations end in `;` and have no body).
    pub body: Option<(usize, usize)>,
}

/// A `struct` or `enum` declaration.
#[derive(Debug, Clone)]
pub struct TypeDecl {
    /// Type name.
    pub name: String,
    /// 1-based line of the declaring keyword.
    pub line: u32,
    /// Bare `pub` (restricted `pub(crate)` etc. does not count).
    pub is_pub: bool,
    /// Whether the generic parameter list contains a lifetime — borrowing
    /// views are validated through their owners, so R12 exempts them.
    pub has_lifetime: bool,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// `Some(trait)` for `impl Trait for Type`, `None` for inherent.
    pub trait_name: Option<String>,
    /// Last path segment of the self type (`Foo` in `impl Foo<'_>`).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token-index span `(open, close)` of the body braces.
    pub body: Option<(usize, usize)>,
    /// Whether the body declares a bare-`pub` `fn new`.
    pub has_pub_fn_new: bool,
}

/// A `mod` or `trait` item span (recorded for region bookkeeping).
#[derive(Debug, Clone)]
pub struct ScopeItem {
    /// Item name.
    pub name: String,
    /// 1-based line of the keyword.
    pub line: u32,
}

/// The item tree for one file.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// Per-line (0-based index, 1-based line): inside `#[cfg(test)]`.
    pub in_cfg_test: Vec<bool>,
    /// Every `fn`, flat, in source order.
    pub fns: Vec<FnItem>,
    /// Every `struct`/`enum` declaration.
    pub types: Vec<TypeDecl>,
    /// Every `impl` block.
    pub impls: Vec<ImplBlock>,
    /// `mod` and `trait` items (names + lines).
    pub scopes: Vec<ScopeItem>,
    /// For each token index holding `(`/`[`/`{`: the index of its match.
    pub close_of: Vec<Option<usize>>,
}

impl ItemTree {
    /// Whether 1-based `line` is inside a `#[cfg(test)]` region.
    pub fn line_in_test(&self, line: u32) -> bool {
        self.in_cfg_test
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }
}

/// Token texts that precede type-position `fn`/`impl` (`-> impl Trait`,
/// `f: fn(u32)`) rather than item-position keywords.
const TYPE_POSITION_PREV: [&str; 11] = [":", "(", "<", ",", "&", "->", "=", "|", "[", "+", ".."];

fn item_position(toks: &[Tok], i: usize) -> bool {
    match i.checked_sub(1).map(|p| &toks[p]) {
        None => true,
        Some(prev) => {
            !(prev.kind == TokKind::Punct && TYPE_POSITION_PREV.contains(&prev.text.as_str()))
        }
    }
}

/// Build the item tree for one lexed file.
#[allow(clippy::too_many_lines)]
pub fn build(file: &LexedFile) -> ItemTree {
    let toks = &file.toks;
    let n_lines = file.lines.len();
    let mut tree = ItemTree {
        in_cfg_test: vec![false; n_lines],
        close_of: vec![None; toks.len()],
        ..ItemTree::default()
    };

    // Delimiter matching: one stack per delimiter class.
    let mut stacks: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        let class = match t.text.as_str() {
            "(" | ")" => 0,
            "[" | "]" => 1,
            "{" | "}" => 2,
            _ => continue,
        };
        if matches!(t.text.as_str(), "(" | "[" | "{") {
            stacks[class].push(i);
        } else if let Some(open) = stacks[class].pop() {
            tree.close_of[open] = Some(i);
        }
    }

    // cfg(test) regions. Scanner-compatible: the
    // attribute arms a pending flag; the next `{` (whatever item it
    // belongs to) opens the region, which spans the attribute line
    // through the line of the matching close brace. If no `{` follows,
    // the region runs to end of file.
    let mut pending_test: Option<u32> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("#") {
            // `#[...]` or inner `#![...]`.
            let mut j = i + 1;
            let inner = toks.get(j).is_some_and(|t| t.is_punct("!"));
            if inner {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("[")) {
                if let Some(close) = tree.close_of[j] {
                    let body = &toks[j + 1..close];
                    if attr_is_cfg_test(body) {
                        if inner {
                            tree.in_cfg_test.iter_mut().for_each(|b| *b = true);
                        } else {
                            pending_test = Some(t.line);
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
        }
        if t.is_punct("{") {
            if let Some(from) = pending_test.take() {
                let end_line = tree.close_of[i].map_or(u32::MAX, |c| toks[c].line);
                mark(&mut tree.in_cfg_test, from, end_line);
            }
        }
        i += 1;
    }
    if let Some(from) = pending_test {
        mark(&mut tree.in_cfg_test, from, u32::MAX);
    }

    // Items.
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !item_position(toks, i) {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                let name = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map_or_else(String::new, |n| n.text.clone());
                let body = find_body(toks, &tree.close_of, i + 1);
                tree.fns.push(FnItem {
                    name,
                    line: t.line,
                    body,
                });
            }
            "struct" | "enum" => {
                if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    tree.types.push(TypeDecl {
                        name: name_tok.text.clone(),
                        line: t.line,
                        is_pub: is_bare_pub(toks, &tree.close_of, i),
                        has_lifetime: generics_have_lifetime(toks, i + 2),
                    });
                }
            }
            "impl" => {
                let blk = parse_impl(toks, &tree.close_of, i);
                if let Some(blk) = blk {
                    tree.impls.push(blk);
                }
            }
            "mod" | "trait" => {
                if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    tree.scopes.push(ScopeItem {
                        name: name_tok.text.clone(),
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    tree
}

fn mark(lines: &mut [bool], from_line: u32, to_line: u32) {
    let a = (from_line as usize).saturating_sub(1);
    let b = (to_line as usize).min(lines.len());
    for b in lines.iter_mut().take(b).skip(a) {
        *b = true;
    }
}

fn attr_is_cfg_test(body: &[Tok]) -> bool {
    body.len() >= 4
        && body[0].is_ident("cfg")
        && body[1].is_punct("(")
        && body.iter().any(|t| t.is_ident("test"))
        && !body.iter().any(|t| t.is_ident("not"))
}

/// From just past an item keyword, find the `{` opening its body (or
/// `None` if a `;` terminates first). Parens/brackets are skipped as
/// groups so default expressions and where-clause bounds don't confuse
/// the search.
fn find_body(toks: &[Tok], close_of: &[Option<usize>], mut i: usize) -> Option<(usize, usize)> {
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => {
                    i = close_of[i].map_or(toks.len(), |c| c + 1);
                    continue;
                }
                "{" => return close_of[i].map(|c| (i, c)),
                ";" => return None,
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Whether the item keyword at `i` is preceded by a bare `pub`
/// (restricted `pub(crate)`/`pub(super)` does not count).
fn is_bare_pub(toks: &[Tok], _close_of: &[Option<usize>], i: usize) -> bool {
    i.checked_sub(1)
        .map(|p| toks[p].is_ident("pub"))
        .unwrap_or(false)
}

/// Whether the generic list starting at `i` (if it is `<`) binds a
/// lifetime parameter.
fn generics_have_lifetime(toks: &[Tok], i: usize) -> bool {
    if !toks.get(i).is_some_and(|t| t.is_punct("<")) {
        return false;
    }
    let mut depth = 0i32;
    for t in &toks[i..] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Lifetime {
            return true;
        }
    }
    false
}

/// Parse `impl [<...>] [Trait for] Type [where ...] { ... }` starting at
/// the `impl` keyword.
fn parse_impl(toks: &[Tok], close_of: &[Option<usize>], kw: usize) -> Option<ImplBlock> {
    let mut i = kw + 1;
    // Skip generic parameters on the impl itself.
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "<" if toks[i].kind == TokKind::Punct => depth += 1,
                ">" if toks[i].kind == TokKind::Punct => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Walk the header, remembering the last depth-0 path ident before
    // `for` / `where` / `{`.
    let mut first: Option<String> = None;
    let mut second: Option<String> = None;
    let mut saw_for = false;
    let mut saw_where = false;
    let mut depth = 0i32;
    let mut body = None;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "{" if depth <= 0 => {
                    body = close_of[i].map(|c| (i, c));
                    break;
                }
                ";" => break,
                _ => {}
            },
            TokKind::Ident if depth <= 0 && !saw_where => match t.text.as_str() {
                "for" => saw_for = true,
                "where" => saw_where = true,
                "dyn" | "mut" | "const" => {}
                _ => {
                    if saw_for {
                        second = Some(t.text.clone());
                    } else {
                        first = Some(t.text.clone());
                    }
                }
            },
            _ => {}
        }
        i += 1;
    }
    let (trait_name, type_name) = if saw_for {
        (first, second?)
    } else {
        (None, first?)
    };
    let has_pub_fn_new = body.is_some_and(|(a, b)| body_has_pub_fn_new(toks, a, b));
    Some(ImplBlock {
        trait_name,
        type_name,
        line: toks[kw].line,
        body,
        has_pub_fn_new,
    })
}

fn body_has_pub_fn_new(toks: &[Tok], open: usize, close: usize) -> bool {
    for i in open..close.saturating_sub(1) {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident("new")) {
            // Look back past `const`/`unsafe` for a bare `pub`.
            let mut j = i;
            while j > open {
                j -= 1;
                match toks[j].text.as_str() {
                    "const" | "unsafe" | "async" => continue,
                    "pub" => return toks[j].kind == TokKind::Ident,
                    _ => break,
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree_of(src: &str) -> ItemTree {
        build(&lex(src))
    }

    #[test]
    fn cfg_test_region_runs_from_attribute_to_closing_brace() {
        let src = "\
fn lib_code() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn more_lib() {}
";
        let tree = tree_of(src);
        assert_eq!(tree.in_cfg_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn fns_with_bodies_and_without() {
        let src = "\
pub fn free(x: u32) -> u32 { x }
trait T {
    fn required(&self);
    fn provided(&self) { body(); }
}
";
        let tree = tree_of(src);
        let names: Vec<(&str, bool)> = tree
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.body.is_some()))
            .collect();
        assert_eq!(
            names,
            vec![("free", true), ("required", false), ("provided", true)]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let tree = tree_of("type F = fn(u32) -> u32;\nfn real() {}\n");
        assert_eq!(tree.fns.len(), 1);
        assert_eq!(tree.fns[0].name, "real");
    }

    #[test]
    fn type_decls_visibility_and_lifetimes() {
        let src = "\
pub struct Owned { x: u32 }
pub(crate) struct Internal;
struct Private;
pub struct View<'a> { inner: &'a u32 }
pub enum Kind { A, B }
";
        let tree = tree_of(src);
        let got: Vec<(&str, bool, bool)> = tree
            .types
            .iter()
            .map(|t| (t.name.as_str(), t.is_pub, t.has_lifetime))
            .collect();
        assert_eq!(
            got,
            vec![
                ("Owned", true, false),
                ("Internal", false, false),
                ("Private", false, false),
                ("View", true, true),
                ("Kind", true, false),
            ]
        );
    }

    #[test]
    fn impl_inherent_vs_trait() {
        let src = "\
pub struct Foo;
impl Foo {
    pub fn new() -> Self { Foo }
}
impl Validate for Foo {
    fn audit(&self) -> AuditReport { AuditReport::new(\"Foo\") }
}
impl<'a> Display for Bar<'a> {
    fn fmt(&self) {}
}
";
        let tree = tree_of(src);
        let got: Vec<(Option<&str>, &str, bool)> = tree
            .impls
            .iter()
            .map(|b| {
                (
                    b.trait_name.as_deref(),
                    b.type_name.as_str(),
                    b.has_pub_fn_new,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (None, "Foo", true),
                (Some("Validate"), "Foo", false),
                (Some("Display"), "Bar", false),
            ]
        );
    }

    #[test]
    fn impl_trait_in_return_position_is_not_an_impl_block() {
        let tree = tree_of("pub fn iter() -> impl Iterator<Item = u32> { 0..3 }\n");
        assert!(tree.impls.is_empty());
        assert_eq!(tree.fns.len(), 1);
    }

    #[test]
    fn pub_crate_fn_new_is_not_a_public_constructor() {
        let src = "\
pub struct Foo;
impl Foo {
    pub(crate) fn new() -> Self { Foo }
}
";
        let tree = tree_of(src);
        assert!(!tree.impls[0].has_pub_fn_new);
    }

    #[test]
    fn nested_generics_do_not_break_matching() {
        let src = "pub struct Deep { m: Vec<Vec<(u32, u32)>> }\npub fn after() {}\n";
        let tree = tree_of(src);
        assert_eq!(tree.types.len(), 1);
        assert_eq!(tree.fns.len(), 1);
    }
}
