//! The rules xtask still checks itself, and per-file checking.
//!
//! These are the rules clippy and rustc cannot express by type. R5 reads
//! comments, which the compiler never sees. R9-R11 are semantic rules
//! over the item tree: no `HashMap`/`HashSet` iteration in product
//! library code, f64 reductions in threaded paths confined to the
//! blessed chunk-ordered reducers in `netgraph::par`, and
//! `Ordering::Relaxed` confined to the observability layer. R12 is a
//! workspace rule (every pub constructor-bearing product type needs a
//! `Validate` impl) checked by [`crate::symbols::SymbolTable`] after all
//! files are absorbed. R15 confines topological-sort machinery
//! (identifiers spelling out toposort / Kahn / in-degree bookkeeping) to
//! the dependency-DAG planner in `crates/routing/src/plan.rs`: ad-hoc
//! `Vec`-based toposorts elsewhere fork the scheduling logic whose cut
//! safety the plan certificate audits.
//!
//! The other rule ids are enforced by the toolchain (DESIGN.md §6b):
//! R1/R4 by clippy lints denied at the product library roots, R3 by the
//! workspace `unsafe_code` and `missing_docs` lints, R6-R8, R13 and R14
//! by `clippy.toml` bans, and R2 by the vendored `rand`, which has no
//! unseeded entry points.

use std::collections::BTreeSet;

use crate::itemtree::{self, ItemTree};
use crate::lexer::{self, Tok, TokKind};
use crate::Violation;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `TODO` / `FIXME` comments must reference an issue (`#123`).
    TodoNeedsIssue,
    /// No iteration over `HashMap`/`HashSet` in product library code:
    /// hash iteration order is nondeterministic and must never reach a
    /// result, a trace, or an RNG consumption order. Use `BTreeMap` /
    /// `BTreeSet` (sorted iteration) or collect-and-sort.
    NoHashIteration,
    /// Float accumulation (`+=`, `.sum()`, `.fold(0.0, ..)`) in a
    /// function that touches the parallel machinery must go through the
    /// blessed chunk-ordered reducers (`par::map_reduce`, `par::sum_f64`)
    /// so merge order is fixed by chunk index, not scheduling.
    UnorderedFloatMerge,
    /// `Ordering::Relaxed` confined to `netgraph/src/obs.rs`: product
    /// code synchronizing on relaxed atomics is a determinism hazard;
    /// the observability counters are the one sanctioned use.
    NoRelaxedOrdering,
    /// Every `pub` constructor-bearing product type must have an
    /// `impl Validate` somewhere in the workspace, so the certificate
    /// chain (`debug_validate`) covers it.
    ValidateCoverage,
    /// No ad-hoc topological-sort machinery in product library code
    /// outside `crates/routing/src/plan.rs`: identifiers spelling out
    /// toposort/Kahn/in-degree bookkeeping mark a second DAG scheduler
    /// next to the planner, whose every intermediate cut is
    /// certificate-checked. Forks of that logic get none of the
    /// safety audit.
    NoAdhocToposort,
}

impl Rule {
    /// Every rule, in id order (used by the report sort and `--explain`
    /// listings).
    pub const ALL: [Rule; 6] = [
        Rule::TodoNeedsIssue,
        Rule::NoHashIteration,
        Rule::UnorderedFloatMerge,
        Rule::NoRelaxedOrdering,
        Rule::ValidateCoverage,
        Rule::NoAdhocToposort,
    ];

    /// Short stable identifier (`R5`, `R9`..`R12`, `R15`) used in reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::TodoNeedsIssue => "R5",
            Rule::NoHashIteration => "R9",
            Rule::UnorderedFloatMerge => "R10",
            Rule::NoRelaxedOrdering => "R11",
            Rule::ValidateCoverage => "R12",
            Rule::NoAdhocToposort => "R15",
        }
    }

    /// Parse an `R#` identifier.
    pub fn from_id(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line description for reports.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::TodoNeedsIssue => "TODO/FIXME must reference an issue (#N)",
            Rule::NoHashIteration => {
                "no HashMap/HashSet iteration in library code (use BTreeMap/BTreeSet or sort first)"
            }
            Rule::UnorderedFloatMerge => {
                "float reductions in threaded paths must use par::map_reduce / par::sum_f64"
            }
            Rule::NoRelaxedOrdering => {
                "Ordering::Relaxed is confined to netgraph/src/obs.rs (use SeqCst elsewhere)"
            }
            Rule::ValidateCoverage => {
                "pub constructor-bearing product types need an impl Validate certificate"
            }
            Rule::NoAdhocToposort => {
                "no ad-hoc toposort/Kahn machinery outside routing/src/plan.rs (use ReconfigPlan)"
            }
        }
    }

    /// Long-form rationale for `xtask lint --explain RN`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::TodoNeedsIssue => {
                "R5 TodoNeedsIssue\n\
                 TODO/FIXME comments rot unless they cite a tracking issue.\n\
                 Fix: write TODO(#123): ... or resolve the debt on the spot."
            }
            Rule::NoHashIteration => {
                "R9 NoHashIteration\n\
                 Iterating a HashMap/HashSet (.iter()/.keys()/.values()/\n\
                 .drain()/.retain()/for-in) visits entries in RandomState\n\
                 order: different per process, per build, per insertion\n\
                 history. Any such order that reaches a result, a trace, an\n\
                 RNG consumption sequence, or a tie-break silently breaks the\n\
                 bit-identical-across-threads guarantee the evaluators are\n\
                 tested for. Product library code iterates BTreeMap/BTreeSet\n\
                 (sorted, deterministic) or sorts collected keys explicitly.\n\
                 Membership-only hash use would be safe in principle, but the\n\
                 iteration forms above are banned outright — the fix pass in\n\
                 this repo converted every such container to BTree and dropped\n\
                 the compensating sort-after-collect calls.\n\
                 Fix: switch the container to BTreeMap/BTreeSet, or collect\n\
                 keys and sort before iterating."
            }
            Rule::UnorderedFloatMerge => {
                "R10 UnorderedFloatMerge\n\
                 f64 addition is not associative: merging per-chunk partials\n\
                 in scheduling order makes results differ across thread\n\
                 counts. Any function that touches the parallel machinery\n\
                 (par::map_chunks/par::map_auto/thread::spawn) must route float\n\
                 accumulation through the blessed reducers in netgraph::par —\n\
                 map_reduce folds partials in chunk-index order, sum_f64 is a\n\
                 fixed left fold — rather than += / .sum::<f64>() / .fold(0.0)\n\
                 over results whose order the scheduler picks. Accumulation\n\
                 *inside* the per-chunk closure is fine (chunk-local, ordered).\n\
                 Fix: replace the merge loop with par::map_reduce(items, ...)\n\
                 or par::sum_f64(&partials)."
            }
            Rule::NoRelaxedOrdering => {
                "R11 NoRelaxedOrdering\n\
                 Ordering::Relaxed gives no happens-before edges; product code\n\
                 synchronizing on relaxed atomics can observe torn protocol\n\
                 state, and auditing every such site is harder than banning\n\
                 them. The obs-layer counters (monotonic, merge-only metrics)\n\
                 are the one place relaxed semantics are provably safe, so\n\
                 netgraph/src/obs.rs is exempt.\n\
                 Fix: use Ordering::SeqCst — every non-obs atomic in this\n\
                 workspace is off the hot path by design."
            }
            Rule::ValidateCoverage => {
                "R12 ValidateCoverage\n\
                 The certificate chain (netgraph::Validate + debug_validate)\n\
                 only audits types that implement it. A new pub type with a\n\
                 pub constructor but no impl Validate silently opts out of\n\
                 every structural invariant check in debug/test builds. The\n\
                 symbol table cross-references every pub owned type in the\n\
                 product crates against impl Validate blocks anywhere in the\n\
                 workspace; borrowing views (lifetime-parameterized) are\n\
                 exempt because they are validated through their owners.\n\
                 Fix: implement Validate with real invariants (not an empty\n\
                 report) next to the type, and call debug_validate in its\n\
                 constructor or mutation points."
            }
            Rule::NoAdhocToposort => {
                "R15 NoAdhocToposort\n\
                 A dependency DAG scheduled by a hand-rolled Vec toposort is\n\
                 a reconfiguration plan without the safety net: the planner\n\
                 in crates/routing/src/plan.rs is the one place Kahn layering\n\
                 lives, because every cut of every order it emits is checked\n\
                 by the plan certificate (acyclicity, per-prefix invariant\n\
                 validation, step-set/config-diff equality) and its parallel\n\
                 execution is pinned bit-identical across thread counts. The\n\
                 rule matches identifiers that spell the machinery out —\n\
                 toposort / topo_sort / topological_sort / topo_order / kahn\n\
                 (as a substring) and in_degree / indegree (exact) — in\n\
                 product library code outside the planner file. Comments may\n\
                 say Kahn freely; the lexer never sees them.\n\
                 Fix: model the work as ReconfigPlan steps (or build the DAG\n\
                 and call its layers()/execute())."
            }
        }
    }
}

/// The five crates whose library code carries the product-only rules.
pub const PRODUCT_CRATES: [&str; 5] = ["netgraph", "topology", "brokerset", "routing", "economics"];

/// Whether a workspace-relative path is product library code: `src/` of
/// a product crate or of the root `broker-net` facade, minus binaries,
/// tests, benches and examples. R9-R12 and R15 apply only there; R5
/// applies everywhere.
pub fn is_product_lib(path: &str) -> bool {
    let excluded = ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| path.starts_with(d) || path.contains(&format!("/{d}")))
        || path.contains("src/bin/")
        || path.ends_with("src/main.rs");
    !excluded
        && (path.starts_with("src/")
            || PRODUCT_CRATES
                .iter()
                .any(|c| path.starts_with(&format!("crates/{c}/src/"))))
}

/// Per-file analysis output: the violations plus the item tree (the
/// workspace pass feeds the tree to the symbol table for R12).
pub struct FileAnalysis {
    /// Violations found in this file (every rule but the workspace-level R12).
    pub violations: Vec<Violation>,
    /// The file's item tree.
    pub tree: ItemTree,
}

/// Run every per-file rule over one file, keeping the item tree.
pub fn analyze_file(path: &str, text: &str) -> FileAnalysis {
    let lexed = lexer::lex(text);
    let tree = itemtree::build(&lexed);
    let raw_lines: Vec<&str> = text.lines().collect();
    let toks = &lexed.toks;

    let mut out: Vec<Violation> = Vec::new();
    // One violation per (rule, line).
    let mut seen: BTreeSet<(&'static str, u32)> = BTreeSet::new();
    let mut push = |rule: Rule, line: u32| {
        if seen.insert((rule.id(), line)) {
            out.push(Violation {
                rule,
                path: path.to_string(),
                line: line as usize,
                excerpt: raw_lines
                    .get(line as usize - 1)
                    .copied()
                    .unwrap_or_default()
                    .trim()
                    .chars()
                    .take(120)
                    .collect(),
            });
        }
    };

    let product = is_product_lib(path);

    // --- Token-scan rules (R11, R15), product library code only. ---
    for t in toks {
        if !product || t.kind != TokKind::Ident || tree.line_in_test(t.line) {
            continue;
        }

        // R11: relaxed atomics are an obs-layer privilege.
        if path != "crates/netgraph/src/obs.rs" && t.text == "Relaxed" {
            push(Rule::NoRelaxedOrdering, t.line);
        }

        // R15: topological-sort machinery is a planner privilege. The
        // marker substrings catch `toposort`, `kahn_layers`,
        // `topo_order` and friends wherever they appear in an
        // identifier; the in-degree spellings match exactly so that
        // e.g. `min_degree` stays clean.
        if path != "crates/routing/src/plan.rs" {
            let lower = t.text.to_ascii_lowercase();
            let spelled = [
                "toposort",
                "topo_sort",
                "topological_sort",
                "topo_order",
                "kahn",
            ]
            .iter()
            .any(|m| lower.contains(m))
                || lower == "in_degree"
                || lower == "indegree";
            if spelled {
                push(Rule::NoAdhocToposort, t.line);
            }
        }
    }

    // --- R5: deferred-work markers need an issue reference (`#123`). ---
    for (idx, line) in lexed.lines.iter().enumerate() {
        let comment = &line.comment;
        if (comment.contains("TODO") || comment.contains("FIXME")) && !has_issue_ref(comment) {
            push(Rule::TodoNeedsIssue, (idx + 1) as u32);
        }
    }

    // --- R9: HashMap/HashSet iteration in product library code. ---
    if product {
        let marked = hash_marked_names(toks, &tree);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || tree.line_in_test(t.line) {
                continue;
            }
            // `name.iter()` / `self.field.drain(..)` / ...
            if ITER_METHODS.contains(&t.text.as_str())
                && i.checked_sub(1).is_some_and(|p| toks[p].is_punct("."))
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                if let Some(recv) = i.checked_sub(2).map(|p| &toks[p]) {
                    if recv.kind == TokKind::Ident
                        && (marked.contains(&recv.text) || HASH_TYPES.contains(&recv.text.as_str()))
                    {
                        push(Rule::NoHashIteration, t.line);
                    }
                }
            }
            // `for pat in <expr over a hash container> {`
            if t.text == "for" && for_loop_iterates_hash(toks, i, &marked) {
                push(Rule::NoHashIteration, t.line);
            }
        }
    }

    // --- R10: float reductions in threaded merge paths. ---
    if product && path != "crates/netgraph/src/par.rs" {
        check_float_merges(&tree, toks, &mut push);
    }

    FileAnalysis {
        violations: out,
        tree,
    }
}

/// Iteration-establishing methods on hash containers.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Names bound (via let, annotation, field or param declaration) to a
/// `HashMap`/`HashSet` type anywhere in the file. Deliberately
/// flow-insensitive: a name that is ever hash-typed is treated as
/// hash-typed everywhere, which can only over-report.
fn hash_marked_names(toks: &[Tok], tree: &ItemTree) -> BTreeSet<String> {
    marked_names(toks, &HASH_TYPES, false, &|line| tree.line_in_test(line))
}

/// Shared marker for R9/R10: names whose declared type or initializer
/// *directly* mentions one of `targets` (or, when `match_float_literals`
/// is set, a float literal — R10). Direct evidence only: `let n =
/// map.len()` does not inherit `map`'s mark, so derived scalars never
/// over-report. Marks do flow through `for`-loop patterns (`for (c, p)
/// in acc.iter_mut().zip(..)` marks `c` when `acc` is marked), which is
/// where merge loops actually bind their accumulators. Tokens inside
/// `#[cfg(test)]` regions are ignored so test fixtures can't mark
/// product names.
fn marked_names(
    toks: &[Tok],
    targets: &[&str],
    match_float_literals: bool,
    in_test: &dyn Fn(u32) -> bool,
) -> BTreeSet<String> {
    let mut marked: BTreeSet<String> = BTreeSet::new();
    let direct = |t: &Tok, _: &BTreeSet<String>| {
        (t.kind == TokKind::Ident && targets.contains(&t.text.as_str()))
            || (match_float_literals && t.kind == TokKind::Float)
    };
    let direct_or_marked = |t: &Tok, marked: &BTreeSet<String>| {
        (t.kind == TokKind::Ident
            && (targets.contains(&t.text.as_str()) || marked.contains(&t.text)))
            || (match_float_literals && t.kind == TokKind::Float)
    };
    // Iterate to a fixpoint so `for (a, b) in marked_expr` propagation
    // chains; the repo's nesting depth makes 4 rounds plenty.
    for _ in 0..4 {
        let before = marked.len();
        for (i, t) in toks.iter().enumerate() {
            if in_test(t.line) {
                continue;
            }
            // `name : <type...>` — struct fields, fn params, annotated lets,
            // struct-literal fields (`failed_edges: HashSet::new()`).
            if t.kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct(":"))
                && span_mentions(toks, i + 2, &direct, &marked)
            {
                marked.insert(t.text.clone());
            }
            // `let [mut] name = <expr...> ;` (un-annotated: the annotated
            // form is handled above and takes precedence by not matching
            // here — after `name` comes `:`, not `=`).
            if t.is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = toks.get(j).filter(|n| n.kind == TokKind::Ident) {
                    if toks.get(j + 1).is_some_and(|n| n.is_punct("="))
                        && span_mentions(toks, j + 2, &direct, &marked)
                    {
                        marked.insert(name.text.clone());
                    }
                }
            }
            // `for <pat> in <expr> {` — propagate from a marked expr to the
            // pattern bindings.
            if t.is_ident("for") {
                if let Some((pat_names, expr_marked)) =
                    for_loop_parts(toks, i, &direct_or_marked, &marked)
                {
                    if expr_marked {
                        for n in pat_names {
                            marked.insert(n);
                        }
                    }
                }
            }
        }
        if marked.len() == before {
            break;
        }
    }
    marked
}

/// Whether the token span starting at `start` (up to a shallow
/// terminator) mentions a target per `mentions`.
fn span_mentions(
    toks: &[Tok],
    start: usize,
    mentions: &dyn Fn(&Tok, &BTreeSet<String>) -> bool,
    marked: &BTreeSet<String>,
) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().skip(start).take(64) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                "," | ";" | "=" | "{" | "}" | "|" if depth == 0 => return false,
                _ => {}
            }
        } else if mentions(t, marked) {
            return true;
        }
    }
    false
}

/// Decompose `for <pat> in <expr> {` at the `for` keyword: returns the
/// pattern binding names and whether the expr mentions a marked name.
fn for_loop_parts(
    toks: &[Tok],
    for_idx: usize,
    mentions: &dyn Fn(&Tok, &BTreeSet<String>) -> bool,
    marked: &BTreeSet<String>,
) -> Option<(Vec<String>, bool)> {
    // Find `in` at delimiter depth 0 within a short window.
    let mut depth = 0i32;
    let mut in_idx = None;
    for (off, t) in toks.iter().enumerate().skip(for_idx + 1).take(24) {
        match t.text.as_str() {
            "(" | "[" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokKind::Punct => depth -= 1,
            "in" if t.kind == TokKind::Ident && depth == 0 => {
                in_idx = Some(off);
                break;
            }
            "{" | ";" if t.kind == TokKind::Punct && depth == 0 => return None,
            _ => {}
        }
    }
    let in_idx = in_idx?;
    let pat_names: Vec<String> = toks[for_idx + 1..in_idx]
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
        .map(|t| t.text.clone())
        .collect();
    let mut expr_marked = false;
    let mut depth = 0i32;
    for t in toks.iter().skip(in_idx + 1).take(64) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
        } else if mentions(t, marked) {
            expr_marked = true;
        }
    }
    Some((pat_names, expr_marked))
}

/// R9 helper: does the `for` loop at `for_idx` iterate a hash container?
fn for_loop_iterates_hash(toks: &[Tok], for_idx: usize, marked: &BTreeSet<String>) -> bool {
    let mentions = |t: &Tok, marked: &BTreeSet<String>| {
        t.kind == TokKind::Ident
            && (HASH_TYPES.contains(&t.text.as_str()) || marked.contains(&t.text))
    };
    for_loop_parts(toks, for_idx, &mentions, marked).is_some_and(|(_, hit)| hit)
}

/// Calls whose argument spans are exempt from R10: chunk-local
/// accumulation inside the blessed reducers is deterministic.
const BLESSED_REDUCERS: [&str; 4] = ["map_chunks", "map_auto", "map_reduce", "sum_f64"];

/// R10: fire on float accumulation outside blessed-reducer argument
/// spans, in any fn whose body touches the parallel machinery.
fn check_float_merges(tree: &ItemTree, toks: &[Tok], mut push: impl FnMut(Rule, u32)) {
    // close -> open inversion for subscript base resolution.
    let mut open_of: Vec<Option<usize>> = vec![None; toks.len()];
    for (open, close) in tree.close_of.iter().enumerate() {
        if let Some(close) = close {
            open_of[*close] = Some(open);
        }
    }
    for f in &tree.fns {
        let Some((a, b)) = f.body else { continue };
        let body = &toks[a..=b];
        if !has_par_usage(body) {
            continue;
        }
        let floats = marked_names(body, &["f64", "f32"], true, &|line| tree.line_in_test(line));
        let blessed = blessed_spans(toks, &tree.close_of, a, b);
        let mut i = a;
        while i <= b {
            if let Some(&(_, end)) = blessed.iter().find(|(s, e)| *s <= i && i <= *e) {
                i = end + 1;
                continue;
            }
            let t = &toks[i];
            if tree.line_in_test(t.line) {
                i += 1;
                continue;
            }
            match t.kind {
                TokKind::Punct
                    if (t.text == "+=" || t.text == "-=")
                        && assign_base(toks, &open_of, i)
                            .is_some_and(|base| floats.contains(base)) =>
                {
                    push(Rule::UnorderedFloatMerge, t.line);
                }
                // `.sum::<f64>()`
                TokKind::Ident
                    if t.text == "sum"
                        && i.checked_sub(1).is_some_and(|p| toks[p].is_punct("."))
                        && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && toks.get(i + 2).is_some_and(|n| n.is_punct("<"))
                        && toks
                            .get(i + 3)
                            .is_some_and(|n| n.is_ident("f64") || n.is_ident("f32")) =>
                {
                    push(Rule::UnorderedFloatMerge, t.line);
                }
                // `.fold(0.0, ..)`
                TokKind::Ident
                    if t.text == "fold"
                        && i.checked_sub(1).is_some_and(|p| toks[p].is_punct("."))
                        && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                        && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Float) =>
                {
                    push(Rule::UnorderedFloatMerge, t.line);
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Whether a fn body references the parallel machinery.
fn has_par_usage(body: &[Tok]) -> bool {
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if BLESSED_REDUCERS.contains(&t.text.as_str()) {
            return true;
        }
        let follows = |a: &str, b: &str| {
            body.get(i + 1).is_some_and(|n| n.is_punct(a))
                && body.get(i + 2).is_some_and(|n| n.is_ident(b))
        };
        if t.text == "thread" && (follows("::", "spawn") || follows("::", "scope")) {
            return true;
        }
    }
    false
}

/// Argument spans of blessed reducer calls inside `[a, b]`, as absolute
/// token index ranges.
fn blessed_spans(
    toks: &[Tok],
    close_of: &[Option<usize>],
    a: usize,
    b: usize,
) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in a..=b {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_blessed = BLESSED_REDUCERS.contains(&t.text.as_str());
        if is_blessed && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            if let Some(close) = close_of[i + 1] {
                spans.push((i + 1, close));
            }
        }
    }
    spans
}

/// Resolve the base name of an assignment target at the `+=`/`-=` token:
/// `x +=`, `*x +=`, `x[i] +=`, `self.x +=` all resolve to `x`.
fn assign_base<'t>(toks: &'t [Tok], open_of: &[Option<usize>], op: usize) -> Option<&'t str> {
    let mut j = op.checked_sub(1)?;
    if toks[j].is_punct("]") {
        j = open_of[j]?.checked_sub(1)?;
    }
    let t = &toks[j];
    (t.kind == TokKind::Ident).then_some(t.text.as_str())
}

/// A TODO is acceptable when it cites an issue number like `#123`.
fn has_issue_ref(comment: &str) -> bool {
    let bytes = comment.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'#' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_file(path: &str, text: &str) -> Vec<Violation> {
        analyze_file(path, text).violations
    }

    #[test]
    fn product_library_paths() {
        for path in [
            "crates/netgraph/src/graph.rs",
            "crates/economics/src/shapley.rs",
            "src/lib.rs",
            "src/proto.rs",
        ] {
            assert!(is_product_lib(path), "{path}");
        }
        for path in [
            "src/bin/broker_cli.rs",
            "crates/netgraph/tests/csr.rs",
            "tests/cli.rs",
            "benches/coverage.rs",
            "examples/quickstart.rs",
            "crates/xtask/src/rules.rs",
            "crates/xtask/src/main.rs",
            "crates/bench/src/lib.rs",
        ] {
            assert!(!is_product_lib(path), "{path}");
        }
    }
    #[test]
    fn r5_requires_issue_ref() {
        let v = check_file("crates/netgraph/src/x.rs", "// TODO: fix this\n");
        assert!(v.iter().any(|v| v.rule == Rule::TodoNeedsIssue));
        let v = check_file("crates/netgraph/src/x.rs", "// TODO(#42): fix this\n");
        assert!(v.iter().all(|v| v.rule != Rule::TodoNeedsIssue));
        // A marker inside a string is code, not a comment -> no violation.
        let v = check_file("crates/netgraph/src/x.rs", "let s = \"TODO later\";\n");
        assert!(v.iter().all(|v| v.rule != Rule::TodoNeedsIssue));
    }

    #[test]
    fn r9_flags_hash_iteration_forms() {
        // Direct method iteration over a field declared as HashMap.
        let src = "\
pub struct M { degraded: HashMap<(u32, u32), usize> }
impl M {
    fn sweep(&mut self) {
        self.degraded.retain(|_, v| *v > 0);
        for (k, v) in self.degraded.iter() { use_it(k, v); }
    }
}
";
        let v = check_file("crates/routing/src/x.rs", src);
        assert_eq!(
            v.iter().filter(|v| v.rule == Rule::NoHashIteration).count(),
            2,
            "{v:?}"
        );

        // `for x in &set` where set is a let-bound HashSet.
        let src = "\
fn f() {
    let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for x in &seen { g(x); }
}
";
        let v = check_file("crates/netgraph/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == Rule::NoHashIteration));

        // `.keys().collect()` on an inferred-let HashMap.
        let src = "\
fn f() {
    let m = std::collections::HashMap::new();
    let ks: Vec<u32> = m.keys().copied().collect();
}
";
        let v = check_file("crates/brokerset/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == Rule::NoHashIteration));
    }

    #[test]
    fn r9_exempts_membership_tests_btree_and_test_code() {
        // Membership-only use (insert/contains/get) does not fire.
        let src = "\
fn f() {
    let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
    seen.insert(3);
    if seen.contains(&3) { g(); }
    let v = seen.len();
}
";
        let v = check_file("crates/netgraph/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoHashIteration), "{v:?}");

        // BTree iteration is the sanctioned pattern.
        let src = "\
fn f() {
    let mut m: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    for (k, v) in m.iter() { g(k, v); }
}
";
        let v = check_file("crates/routing/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoHashIteration));

        // Test code and non-product files may iterate hashes.
        let src = "\
#[cfg(test)]
mod t {
    fn f() {
        let m: HashMap<u32, u32> = HashMap::new();
        for k in m.keys() { g(k); }
    }
}
";
        let v = check_file("crates/routing/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoHashIteration));
        let src = "fn f(m: &HashMap<u32, u32>) { for k in m.keys() { g(k); } }";
        let v = check_file("crates/xtask/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoHashIteration));
    }

    #[test]
    fn r10_flags_unblessed_float_merges() {
        // Merge loop after a map_chunks fan-out: the classic bug.
        let src = "\
pub fn betweenness(threads: usize) -> Vec<f64> {
    let mut acc = vec![0.0f64; 10];
    let partials = par::map_chunks(&seeds, 64, threads, |chunk| work(chunk));
    for part in partials {
        for (c, p) in acc.iter_mut().zip(part) {
            *c += p;
        }
    }
    acc
}
";
        let v = check_file("crates/netgraph/src/x.rs", src);
        assert!(
            v.iter().any(|v| v.rule == Rule::UnorderedFloatMerge),
            "{v:?}"
        );

        // `.sum::<f64>()` in a fn that uses par::map_auto.
        let src = "\
pub fn conn(threads: usize) -> f64 {
    let fractions: Vec<f64> = par::map_auto(&nodes, threads, |n| frac(n));
    fractions.iter().sum::<f64>() / fractions.len() as f64
}
";
        let v = check_file("crates/routing/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == Rule::UnorderedFloatMerge));
    }

    #[test]
    fn r10_exempts_blessed_reducers_and_serial_fns() {
        // The same merge expressed through map_reduce: clean.
        let src = "\
pub fn betweenness(threads: usize) -> Vec<f64> {
    par::map_reduce(&seeds, 64, threads, |chunk| work(chunk), vec![0.0f64; 10], |mut acc, part| {
        for (c, p) in acc.iter_mut().zip(part) { *c += p; }
        acc
    })
}
";
        let v = check_file("crates/netgraph/src/x.rs", src);
        assert!(
            v.iter().all(|v| v.rule != Rule::UnorderedFloatMerge),
            "{v:?}"
        );

        // sum via the blessed helper: clean.
        let src = "\
pub fn conn(threads: usize) -> f64 {
    let fractions: Vec<f64> = par::map_auto(&nodes, threads, |n| frac(n));
    par::sum_f64(&fractions) / fractions.len() as f64
}
";
        let v = check_file("crates/routing/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::UnorderedFloatMerge));

        // A fully serial fn may accumulate floats freely.
        let src = "\
pub fn mean(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for x in xs { total += x; }
    total / xs.len() as f64
}
";
        let v = check_file("crates/netgraph/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::UnorderedFloatMerge));

        // Integer accumulation in a threaded fn is order-safe.
        let src = "\
pub fn count(threads: usize) -> u64 {
    let parts = par::map_auto(&nodes, threads, |n| hits(n));
    let mut total = 0u64;
    for p in parts { total += p; }
    total
}
";
        let v = check_file("crates/netgraph/src/x.rs", src);
        assert!(
            v.iter().all(|v| v.rule != Rule::UnorderedFloatMerge),
            "{v:?}"
        );
    }

    #[test]
    fn r11_confines_relaxed_to_obs() {
        let src = "let x = counter.fetch_add(1, Ordering::Relaxed);";
        let v = check_file("crates/netgraph/src/par.rs", src);
        assert!(v.iter().any(|v| v.rule == Rule::NoRelaxedOrdering));
        let v = check_file("crates/netgraph/src/obs.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoRelaxedOrdering));
        let v = check_file("crates/xtask/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoRelaxedOrdering));
        let src = "#[cfg(test)]\nmod t { fn f() { c.load(Ordering::Relaxed); } }";
        let v = check_file("crates/netgraph/src/par.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoRelaxedOrdering));
        // SeqCst is always fine.
        let src = "let x = counter.fetch_add(1, Ordering::SeqCst);";
        let v = check_file("crates/netgraph/src/par.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoRelaxedOrdering));
    }

    #[test]
    fn r15_confines_toposort_machinery_to_the_planner() {
        // Spelled-out toposort machinery in product library code fires —
        // including substring hits inside longer identifiers.
        for src in [
            "pub fn order(dag: &Dag) -> Vec<usize> { toposort(dag) }",
            "pub fn order(dag: &Dag) -> Vec<usize> { kahn_layers(dag) }",
            "pub fn order(dag: &Dag) -> Vec<usize> { topo_sort(dag) }",
            "pub fn f() { let topo_order: Vec<usize> = Vec::new(); }",
            "pub fn f(g: &Dag) { let in_degree = vec![0u32; g.n()]; }",
            "pub fn f(g: &Dag) { let indegree = vec![0u32; g.n()]; }",
        ] {
            let v = check_file("crates/brokerset/src/x.rs", src);
            assert!(v.iter().any(|v| v.rule == Rule::NoAdhocToposort), "{src}");
            // The planner owns the machinery.
            let v = check_file("crates/routing/src/plan.rs", src);
            assert!(v.iter().all(|v| v.rule != Rule::NoAdhocToposort), "{src}");
        }
        // The in-degree spellings are exact: `min_degree`/`indeg` stay
        // clean (the topology validator's independent Kahn audit uses
        // `indeg`, and the IXP baseline filters on `min_degree`).
        for src in [
            "pub fn ixp(net: &Internet, min_degree: usize) -> usize { min_degree }",
            "pub fn f(g: &Dag) { let mut indeg = vec![0u32; g.n()]; drop(indeg); }",
        ] {
            let v = check_file("crates/brokerset/src/x.rs", src);
            assert!(v.iter().all(|v| v.rule != Rule::NoAdhocToposort), "{src}");
        }
        // Comments may say Kahn freely — the lexer never sees them.
        let src = "// Kahn's algorithm would be wrong here.\npub fn f() {}\n";
        let v = check_file("crates/topology/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoAdhocToposort));
        // Tests, bins and support crates are out of scope.
        let src = "fn main() { let order = toposort(&dag); }";
        for path in [
            "crates/routing/tests/plan_props.rs",
            "src/bin/cli.rs",
            "crates/xtask/src/x.rs",
        ] {
            let v = check_file(path, src);
            assert!(v.iter().all(|v| v.rule != Rule::NoAdhocToposort), "{path}");
        }
        // #[cfg(test)] modules inside product libs are exempt too.
        let src = "#[cfg(test)]\nmod t { fn f() { toposort(&dag); } }";
        let v = check_file("crates/routing/src/chaos.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::NoAdhocToposort));
    }

    #[test]
    fn rule_ids_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
            assert!(!r.describe().is_empty());
            assert!(r.explain().starts_with(r.id()));
        }
        assert_eq!(Rule::from_id("R99"), None);
        assert_eq!(Rule::from_id("R0"), None);
        // The toolchain enforces these ids; xtask has no rule for them.
        for id in ["R1", "R2", "R3", "R4", "R6", "R7", "R8", "R13", "R14"] {
            assert_eq!(Rule::from_id(id), None, "{id}");
        }
    }
}
