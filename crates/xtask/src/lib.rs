//! Repo-specific static analysis for the broker-net workspace.
//!
//! `cargo run -p xtask -- lint` scans every workspace `.rs` file (the
//! vendored dependency stand-ins under `vendor/` are exempt) and enforces
//! the correctness rules the reproduction chain relies on:
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | R1   | library code of the product crates | no `.unwrap()` / `.expect(` — use the crate error types |
//! | R2   | everywhere outside `#[cfg(test)]`  | no non-seeded RNG (`thread_rng`, `rand::random`) |
//! | R3   | crate roots | `#![forbid(unsafe_code)]` present and a `//!` doc header first |
//! | R4   | library code of the product crates | no `println!` / `print!` / `dbg!` (output belongs to the bin/bench layer) |
//! | R5   | all comments | `TODO`/`FIXME` must cite an issue (`#123`) |
//! | R6   | library code of the product crates | no ad-hoc `VecDeque` BFS — traversal goes through `netgraph::traverse` (deliberately independent validators are allowlisted) |
//! | R7   | library code of the product crates | no hand-rolled word-manipulation loops (`count_ones` / `trailing_zeros` / `leading_zeros`) outside `netgraph/src/{msbfs,nodeset,obs}.rs` — consumers use `LaneSet` / `Wavefront` / `NodeSet` |
//! | R8   | library code of the product crates | no `std::time::Instant` outside `netgraph/src/obs.rs` — timing goes through the `span!` observability macro |
//! | R9   | library code of the product crates | no `HashMap`/`HashSet` iteration — `BTreeMap`/`BTreeSet` or sorted keys, so no RandomState order reaches a result |
//! | R10  | library code of the product crates | float reductions in threaded paths confined to the blessed chunk-ordered reducers (`par::map_reduce`, `par::sum_f64`) |
//! | R11  | library code of the product crates | `Ordering::Relaxed` confined to `netgraph/src/obs.rs` — everything else uses `SeqCst` |
//! | R12  | workspace symbol table | every pub constructor-bearing product type carries an `impl Validate` certificate |
//! | R13  | library code of the product crates | no `thread::spawn` / `thread::scope` / `thread::Builder` outside `netgraph/src/par.rs` — parallelism goes through the `netgraph::par` executor |
//! | R14  | product library code AND binaries | no raw socket types (`TcpListener` / `TcpStream` / `UdpSocket`) outside `src/proto.rs` — all wire I/O goes through the framed `proto::Listener` / `proto::Conn` |
//! | R15  | library code of the product crates | no ad-hoc toposort/Kahn machinery (`toposort` / `topo_sort` / `topo_order` / `kahn` / `in_degree` identifiers) outside `crates/routing/src/plan.rs` — DAG scheduling goes through the certificate-checked `ReconfigPlan` |
//!
//! Existing violations are burned down, not bulk-suppressed: each one
//! needs an entry in `crates/xtask/lint.allow` (`rule|path|substring`),
//! and the test suite asserts the entry count never grows.
//!
//! The pipeline is a token lexer ([`lexer`]) feeding a brace-aware item
//! tree ([`itemtree`]: `#[cfg(test)]` regions, fn bodies, type
//! declarations, impl blocks) and a cross-file symbol
//! table ([`symbols`]). It is still not rustc: no macro expansion, no
//! type inference — rules are written so the approximations over-report
//! on patterns we ban anyway rather than under-report on ones we allow.
//! Reports render as text, stable JSON (`--json`), or SARIF 2.1.0
//! (`--sarif PATH`); `sarif-check` parses SARIF with the workspace
//! `serde_json`.
#![forbid(unsafe_code)]

pub mod allowlist;
pub mod itemtree;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod symbols;

use std::fmt;
use std::path::{Path, PathBuf};

pub use allowlist::Allowlist;
pub use rules::{FileClass, Rule};

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path,
            self.line,
            self.rule.id(),
            self.excerpt
        )
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist (these fail the run).
    pub violations: Vec<Violation>,
    /// Violations suppressed by allowlist entries.
    pub allowed: Vec<Violation>,
    /// Allowlist entries that matched nothing (candidates for deletion).
    pub stale_allows: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the tree is clean (no unallowed violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the report as a JSON object (std-only writer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"excerpt\": \"{}\"}}",
                v.rule.id(),
                json_escape(&v.path),
                v.line,
                json_escape(&v.excerpt)
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"allowed\": {},\n  \"stale_allows\": {},\n  \"files_scanned\": {}\n}}\n",
            self.allowed.len(),
            self.stale_allows.len(),
            self.files_scanned
        ));
        out
    }
}

impl netgraph::Validate for LintReport {
    /// Internal-consistency audit of a lint run: violations carry sane
    /// coordinates (known rule ids, non-empty relative paths, 1-based
    /// lines), nothing is double-reported as both failing and allowed,
    /// and a non-trivial workspace actually got scanned.
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("xtask::LintReport");
        let malformed = self
            .violations
            .iter()
            .chain(&self.allowed)
            .filter(|v| {
                v.line == 0
                    || v.path.is_empty()
                    || Path::new(&v.path).is_absolute()
                    || crate::rules::Rule::from_id(v.rule.id()).is_none()
            })
            .count();
        rep.check("lint.violations-well-formed", malformed == 0, || {
            format!("{malformed} violations with bad rule/path/line")
        });
        let doubled = self
            .violations
            .iter()
            .filter(|v| {
                self.allowed
                    .iter()
                    .any(|a| a.rule == v.rule && a.path == v.path && a.line == v.line)
            })
            .count();
        rep.check("lint.no-double-report", doubled == 0, || {
            format!("{doubled} violations both failing and allowed")
        });
        rep.check("lint.scanned-something", self.files_scanned > 0, || {
            "a lint run that scanned zero files proves nothing".into()
        });
        rep
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            '\t' => vec!['\\', 't'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collect every lintable `.rs` file under `root`, workspace-relative.
///
/// Skips `vendor/` (external API stand-ins with their own conventions),
/// `target/`, and hidden directories.
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Run every lint rule over the workspace at `root`, applying the
/// allowlist at `crates/xtask/lint.allow` (when present).
///
/// # Errors
///
/// I/O failures while reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let allow_path = root.join("crates/xtask/lint.allow");
    let allowlist = if allow_path.exists() {
        Allowlist::parse(&std::fs::read_to_string(&allow_path)?)
    } else {
        Allowlist::default()
    };
    lint_workspace_with(root, &allowlist)
}

/// [`lint_workspace`] with an explicit allowlist (test hook).
///
/// Two phases: a per-file pass (R1-R11, R13-R15) that also folds every file's
/// item tree into the workspace symbol table, then the symbol-table
/// pass (R12: pub constructor-bearing product types without a
/// `Validate` impl). Violations are reported in (path, line, rule)
/// order so `--json` and SARIF output are stable across platforms and
/// directory-walk order.
///
/// # Errors
///
/// I/O failures while reading the tree.
fn lint_workspace_with(root: &Path, allowlist: &Allowlist) -> std::io::Result<LintReport> {
    let files = collect_rs_files(root)?;
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    let mut matched_allows = vec![false; allowlist.len()];
    let mut table = symbols::SymbolTable::default();
    let mut route =
        |report: &mut LintReport, violation: Violation| match allowlist.matches(&violation) {
            Some(idx) => {
                matched_allows[idx] = true;
                report.allowed.push(violation);
            }
            None => report.violations.push(violation),
        };
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        let analysis = rules::analyze_file(rel, &text);
        let lines: Vec<&str> = text.lines().collect();
        table.absorb(
            rel,
            &analysis.tree,
            &lines,
            rules::classify(rel) == FileClass::ProductLib,
        );
        for violation in analysis.violations {
            route(&mut report, violation);
        }
    }
    for site in table.unvalidated_ctor_types() {
        route(
            &mut report,
            Violation {
                rule: Rule::ValidateCoverage,
                path: site.path.clone(),
                line: site.line as usize,
                excerpt: site.excerpt.clone(),
            },
        );
    }
    for (idx, hit) in matched_allows.iter().enumerate() {
        if !hit {
            report.stale_allows.push(allowlist.entry_text(idx));
        }
    }
    let sort_key = |v: &Violation| {
        let rule_idx = Rule::ALL.iter().position(|r| *r == v.rule).unwrap_or(0);
        (v.path.clone(), v.line, rule_idx)
    };
    report.violations.sort_by_key(sort_key);
    report.allowed.sort_by_key(sort_key);
    netgraph::validate::debug_validate(&report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Validate;

    #[test]
    fn lint_report_audit_flags_corruption() {
        let mut report = LintReport {
            files_scanned: 3,
            ..LintReport::default()
        };
        assert!(report.audit().is_ok());
        let v = Violation {
            rule: rules::Rule::NoUnwrap,
            path: String::new(),
            line: 0,
            excerpt: "x.unwrap()".into(),
        };
        report.violations.push(v.clone());
        let rep = report.audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "lint.violations-well-formed"),
            "{rep}"
        );
        report.violations[0].path = "src/lib.rs".into();
        report.violations[0].line = 4;
        report.allowed.push(report.violations[0].clone());
        let rep = report.audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "lint.no-double-report"),
            "{rep}"
        );
    }

    #[test]
    fn finds_own_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above xtask");
        assert!(root.join("crates/xtask/Cargo.toml").exists());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn collect_skips_vendor_and_target() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above xtask");
        let files = collect_rs_files(&root).expect("walk workspace");
        assert!(files.iter().any(|f| f.starts_with("crates/netgraph/src/")));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.contains("target/")));
    }
}
