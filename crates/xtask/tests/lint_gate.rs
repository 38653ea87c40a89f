//! The lint gate itself, run as part of the ordinary test suite:
//!
//! 1. the shipped tree is clean under xtask's own rules (R5, R9-R12, R15);
//! 2. the `#[expect(clippy::…)]` exceptions in product library code stay
//!    under a ceiling, and no `#[allow]` silences a lint that carries a
//!    rule;
//! 3. a seeded violation of each xtask rule makes `xtask lint` exit
//!    nonzero;
//! 4. a seeded violation of each rule enforced by lint configuration (R1,
//!    R3, R4, R6-R8, R13, R14) makes `cargo clippy` fail and names its
//!    rule;
//! 5. the binary exits quietly when its reader closes stdout early.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::lexer::{lex, Tok, TokKind};
use xtask::rules::{is_product_lib, PRODUCT_CRATES};
use xtask::{find_workspace_root, lint_workspace, workspace_rs_files};

/// The number of `#[expect(clippy::…)]` exception attributes in product
/// library code. When one goes, lower this; raising it is a
/// review-visible change here. (Landed at 15: the files that own a banned
/// item — traverse.rs, obs.rs (two), par.rs, msbfs.rs, nodeset.rs and
/// src/proto.rs — the generator's `WeightedIndex` helper in internet.rs,
/// the two independent certificate BFSes in brokerset, the two
/// coalition-mask word ops in economics, and the three economics
/// unit-test modules whose games are defined by popcount.)
const EXPECT_CEILING: usize = 15;

/// The lints that carry a rule, and the one that reports a stale
/// `#[expect]`. An `allow` of one would hide a violation from both clippy
/// and the ceiling above, so none may appear anywhere.
const RULE_LINTS: [&str; 9] = [
    "disallowed_types",
    "disallowed_methods",
    "unwrap_used",
    "expect_used",
    "print_stdout",
    "print_stderr",
    "dbg_macro",
    "missing_docs",
    "unfulfilled_lint_expectations",
];

fn repo_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root above xtask")
}

/// A fresh scratch directory keyed on the process and the test, so
/// concurrent runs and tests never share one.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-{test}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn shipped_tree_is_clean() {
    let report = lint_workspace(&repo_root()).expect("lint run");
    assert!(
        report.is_clean(),
        "lint violations in the shipped tree:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "scanned a real tree");
}

/// Each `#[level(…)]` / `#![level(…)]` attribute in `toks`: its line
/// and the identifiers between its parentheses.
fn lint_attrs<'t>(toks: &'t [Tok], level: &str) -> Vec<(u32, Vec<&'t str>)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate().skip(1) {
        if toks[i - 1].is_punct("[")
            && t.is_ident(level)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let idents = toks[i + 2..]
                .iter()
                .take_while(|a| !a.is_punct(")"))
                .filter(|a| a.kind == TokKind::Ident)
                .map(|a| a.text.as_str())
                .collect();
            out.push((t.line, idents));
        }
    }
    out
}

#[test]
fn lint_exceptions_never_grow() {
    let root = repo_root();
    let mut expects = Vec::new();
    let mut allows = Vec::new();
    for rel in workspace_rs_files(&root).expect("walk workspace") {
        let text = std::fs::read_to_string(root.join(&rel)).expect("read source");
        let toks = lex(&text).toks;
        if is_product_lib(&rel) {
            for (line, idents) in lint_attrs(&toks, "expect") {
                if idents.contains(&"clippy") {
                    expects.push(format!("{rel}:{line}"));
                }
            }
        }
        for (line, idents) in lint_attrs(&toks, "allow") {
            if idents.iter().any(|i| RULE_LINTS.contains(i)) {
                allows.push(format!("{rel}:{line}"));
            }
        }
    }
    assert!(
        allows.is_empty(),
        "a rule's lint is silenced with allow; use #[expect(…, reason = \"…\")] at the site:\n{}",
        allows.join("\n")
    );
    assert!(
        expects.len() <= EXPECT_CEILING,
        "{} expect(clippy::…) exceptions in product library code (ceiling {EXPECT_CEILING}): \
         fix new violations instead of excepting them:\n{}",
        expects.len(),
        expects.join("\n")
    );
}

/// The `#![deny(…)]` attributes of a crate root, as written.
fn deny_attrs(text: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in text.lines() {
        inside |= line.starts_with("#![deny(");
        if inside {
            out.push_str(line);
            out.push('\n');
            inside = !line.ends_with(")]");
        }
    }
    out
}

/// The `[workspace.lints.*]` tables of a manifest, as written.
fn workspace_lint_tables(manifest: &str) -> String {
    let mut out = String::new();
    let mut keep = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints.");
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// One violation per ban and per denied lint of the rules enforced by
/// lint configuration, as `(rule, statement)`. Every `clippy.toml` entry
/// has its own seed, so dropping any one ban fails the test below and
/// names that rule.
const CLIPPY_SEEDS: [(&str, &str); 22] = [
    ("R1", "let _ = x.unwrap();"),
    ("R1", "let _ = x.expect(\"seeded\");"),
    ("R3", "let _ = unsafe { std::ptr::read(&x) };"),
    ("R4", "println!(\"seeded\");"),
    ("R4", "eprintln!(\"seeded\");"),
    ("R6", "let _ = std::collections::VecDeque::<u32>::new();"),
    ("R7", "let _ = 7u32.count_ones();"),
    ("R7", "let _ = 7u32.trailing_zeros();"),
    ("R7", "let _ = 7u32.leading_zeros();"),
    ("R7", "let _ = 7u64.count_ones();"),
    ("R7", "let _ = 7u64.trailing_zeros();"),
    ("R7", "let _ = 7u64.leading_zeros();"),
    ("R7", "let _ = 7usize.count_ones();"),
    ("R7", "let _ = 7usize.trailing_zeros();"),
    ("R7", "let _ = 7usize.leading_zeros();"),
    ("R8", "let _ = std::time::Instant::now();"),
    ("R13", "let _ = std::thread::spawn(|| ());"),
    ("R13", "std::thread::scope(|_| ());"),
    ("R13", "let _ = std::thread::Builder::new();"),
    ("R14", "let _ = std::net::TcpListener::bind(\"\");"),
    ("R14", "let _ = std::net::TcpStream::connect(\"\");"),
    ("R14", "let _ = std::net::UdpSocket::bind(\"\");"),
];

/// A temp crate with the repo's own `clippy.toml`, workspace lint tables
/// and product-root deny attributes, seeded with one violation per
/// moved ban or lint and no `//!` header, must fail `cargo clippy -D
/// warnings` (as `ci.sh` runs it) with every seed named by its rule.
#[test]
fn seeded_violations_fail_clippy() {
    let root = repo_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let roots: Vec<String> = PRODUCT_CRATES
        .iter()
        .map(|c| format!("crates/{c}/src/lib.rs"))
        .chain(["src/lib.rs".to_string()])
        .collect();
    let deny = deny_attrs(&read(&roots[0]));
    assert!(!deny.is_empty(), "{} has no #![deny(…)]", roots[0]);
    for r in &roots {
        assert_eq!(
            deny_attrs(&read(r)),
            deny,
            "{r} and {} deny differently",
            roots[0]
        );
    }

    let dir = scratch_dir("seeded_violations_fail_clippy");
    std::fs::create_dir_all(dir.join("src")).expect("mkdir");
    std::fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"seeded\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             [lints]\nworkspace = true\n\n[workspace]\n\n{}",
            workspace_lint_tables(&read("Cargo.toml"))
        ),
    )
    .expect("manifest");
    std::fs::write(dir.join("clippy.toml"), read("clippy.toml")).expect("clippy.toml");
    // No `//!` header: the missing crate docs are R3's second half.
    let mut lib = format!("{deny}/// Seeded.\npub fn seeded(x: Option<u32>) {{\n");
    for (_, stmt) in CLIPPY_SEEDS {
        lib.push_str(&format!("    {stmt}\n"));
    }
    lib.push_str("}\n");
    std::fs::write(dir.join("src/lib.rs"), lib).expect("seeded source");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--", "-D", "warnings"])
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("run cargo clippy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "this gate needs `cargo clippy`:\n{stderr}"
    );
    assert!(!out.status.success(), "seeded crate passed clippy");

    // Clippy notes each ban's and each deny's reason, which starts with
    // the rule id; the manifest forbids `unsafe_code` without one.
    let mut missing = Vec::new();
    for (k, (rule, _)) in CLIPPY_SEEDS.iter().enumerate() {
        if CLIPPY_SEEDS[..k].iter().any(|(r, _)| r == rule) {
            continue;
        }
        let needle = if *rule == "R3" {
            "usage of an `unsafe` block".to_string()
        } else {
            format!("= note: {rule}:")
        };
        let seeds = CLIPPY_SEEDS.iter().filter(|(r, _)| r == rule).count();
        let named = stderr.matches(&needle).count();
        if named < seeds {
            missing.push(format!("{rule}: {named} of {seeds} seeds named"));
        }
    }
    if !stderr.contains("missing documentation for the crate") {
        missing.push("R3 (crate root without a //! header)".into());
    }
    assert!(
        missing.is_empty(),
        "clippy did not name these seeds:\n{}\n\nclippy said:\n{stderr}",
        missing.join("\n")
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Build a miniature workspace containing one seeded violation per xtask
/// rule and check the binary reports them and exits nonzero.
#[test]
fn seeded_violations_fail_the_binary() {
    let dir = scratch_dir("seeded_violations_fail_the_binary");
    let src = dir.join("crates/netgraph/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    // lib.rs violates R5: a deferred-work marker with no issue reference.
    std::fs::write(
        src.join("lib.rs"),
        "//! Seeded.\npub fn f(x: u32) -> u32 {\n    // TODO make this lazy\n    x\n}\n",
    )
    .expect("seeded source");

    // det.rs violates the determinism rules: R9 (hash iteration), R10
    // (float sum in a thread-spawning fn), R11 (Relaxed outside obs.rs),
    // R12 (pub constructor-bearing type without a Validate impl) and R15
    // (an ad-hoc toposort outside crates/routing/src/plan.rs).
    std::fs::write(
        src.join("det.rs"),
        "use std::collections::HashMap;\n\
         use std::sync::atomic::Ordering;\n\
         \n\
         pub struct Widget {\n\
             n: u32,\n\
         }\n\
         \n\
         impl Widget {\n\
             pub fn new(n: u32) -> Self {\n\
                 Widget { n }\n\
             }\n\
         }\n\
         \n\
         pub fn iterate(m: &HashMap<u32, u32>) -> u32 {\n\
             let mut s = 0;\n\
             for (k, v) in m.iter() {\n\
                 s += k + v;\n\
             }\n\
             s\n\
         }\n\
         \n\
         pub fn merge(xs: &[f64]) -> f64 {\n\
             let h = std::thread::spawn(|| ());\n\
             drop(h);\n\
             xs.iter().sum::<f64>()\n\
         }\n\
         \n\
         pub fn relaxed() -> Ordering {\n\
             Ordering::Relaxed\n\
         }\n\
         \n\
         pub fn schedule(dag: &[Vec<usize>]) -> Vec<usize> {\n\
             let mut in_degree = vec![0usize; dag.len()];\n\
             drop(&mut in_degree);\n\
             toposort(dag)\n\
         }\n",
    )
    .expect("seeded determinism source");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "seeded tree must fail the lint, got:\n{stdout}"
    );
    for rule in ["R5", "R9", "R10", "R11", "R12", "R15"] {
        // Word-boundary match: `R1` must not be satisfied by `R10`.
        let hit = stdout.lines().any(|l| {
            l.split(|c: char| !c.is_ascii_alphanumeric())
                .any(|w| w == rule)
        });
        assert!(hit, "{rule} missing from:\n{stdout}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A clean miniature workspace exits zero.
#[test]
fn clean_tree_passes_the_binary() {
    let dir = scratch_dir("clean_tree_passes_the_binary");
    let src = dir.join("crates/netgraph/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    std::fs::write(
        src.join("lib.rs"),
        "//! A tidy crate.\n\n/// Doubles.\npub fn f(x: u32) -> u32 {\n    x * 2\n}\n",
    )
    .expect("clean source");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask binary");
    assert!(
        out.status.success(),
        "clean tree must pass:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // An argument xtask does not know is a usage error, not a no-op.
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--json", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask binary");
    assert_eq!(out.status.code(), Some(2), "unknown flag accepted");

    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that stops early (`xtask lint --explain R9 | head -1`) closes
/// the pipe under xtask's output, and xtask ends quietly instead of
/// panicking on the failed write.
#[test]
fn closed_stdout_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--explain", "R9"])
        .stdout(writer)
        .output()
        .expect("run xtask binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
