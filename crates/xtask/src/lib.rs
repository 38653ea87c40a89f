//! Repo-specific static analysis for the broker-net workspace.
//!
//! `cargo run -p xtask -- lint` scans every workspace `.rs` file (the
//! vendored dependency stand-ins under `vendor/` are exempt) and enforces
//! the correctness rules that clippy and rustc cannot check by type:
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | R5   | all comments | `TODO`/`FIXME` must cite an issue (`#123`) |
//! | R9   | library code of the product crates | no `HashMap`/`HashSet` iteration — `BTreeMap`/`BTreeSet` or sorted keys, so no RandomState order reaches a result |
//! | R10  | library code of the product crates | float reductions in threaded paths confined to the blessed chunk-ordered reducers (`par::map_reduce`, `par::sum_f64`) |
//! | R11  | library code of the product crates | `Ordering::Relaxed` confined to `netgraph/src/obs.rs` — everything else uses `SeqCst` |
//! | R12  | workspace symbol table | every pub constructor-bearing product type carries an `impl Validate` certificate |
//! | R15  | library code of the product crates | no ad-hoc toposort/Kahn machinery (`toposort` / `topo_sort` / `topo_order` / `kahn` / `in_degree` identifiers) outside `crates/routing/src/plan.rs` — DAG scheduling goes through the certificate-checked `ReconfigPlan` |
//!
//! The other rule ids (R1-R4, R6-R8, R13, R14) are enforced by lint
//! configuration: `clippy.toml` bans, clippy lints denied at the product
//! library roots, and workspace rustc lints. DESIGN.md §6b has the whole
//! table and where each rule lives.
//!
//! The pipeline is a token lexer ([`lexer`]) feeding a brace-aware item
//! tree ([`itemtree`]: `#[cfg(test)]` regions, fn bodies, type
//! declarations, impl blocks) and a cross-file symbol
//! table ([`symbols`]). It is still not rustc: no macro expansion, no
//! type inference — rules are written so the approximations over-report
//! on patterns we ban anyway rather than under-report on ones we allow.

pub mod itemtree;
pub mod lexer;
pub mod rules;
pub mod symbols;

use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::Rule;

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
    /// Violations found (any one fails the run).
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the tree is clean (no violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl netgraph::Validate for LintReport {
    /// Internal-consistency audit of a lint run: violations carry sane
    /// coordinates (known rule ids, non-empty relative paths, 1-based
    /// lines), and a non-trivial workspace actually got scanned.
    fn audit(&self) -> netgraph::AuditReport {
        let mut rep = netgraph::AuditReport::new("xtask::LintReport");
        let malformed = self
            .violations
            .iter()
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
        rep.check("lint.scanned-something", self.files_scanned > 0, || {
            "a lint run that scanned zero files proves nothing".into()
        });
        rep
    }
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
///
/// # Errors
///
/// I/O failures while walking the tree.
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<String>> {
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

/// Run every lint rule over the workspace at `root`.
///
/// Two phases: a per-file pass (every rule but R12) that also folds every
/// file's item tree into the workspace symbol table, then the
/// symbol-table pass (R12: pub constructor-bearing product types without
/// a `Validate` impl). Violations are reported in (path, line, rule)
/// order, so the report is stable across platforms and directory-walk
/// order.
///
/// # Errors
///
/// I/O failures while reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let files = workspace_rs_files(root)?;
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    let mut table = symbols::SymbolTable::default();
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        let analysis = rules::analyze_file(rel, &text);
        let lines: Vec<&str> = text.lines().collect();
        table.absorb(rel, &analysis.tree, &lines, rules::is_product_lib(rel));
        report.violations.extend(analysis.violations);
    }
    for site in table.unvalidated_ctor_types() {
        report.violations.push(Violation {
            rule: Rule::ValidateCoverage,
            path: site.path.clone(),
            line: site.line as usize,
            excerpt: site.excerpt.clone(),
        });
    }
    report.violations.sort_by_key(|v| {
        let rule_idx = Rule::ALL.iter().position(|r| *r == v.rule).unwrap_or(0);
        (v.path.clone(), v.line, rule_idx)
    });
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
        report.violations.push(Violation {
            rule: rules::Rule::TodoNeedsIssue,
            path: String::new(),
            line: 0,
            excerpt: "// TODO later".into(),
        });
        let rep = report.audit();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.invariant == "lint.violations-well-formed"),
            "{rep}"
        );
        report.violations[0].path = "src/lib.rs".into();
        report.violations[0].line = 4;
        assert!(report.audit().is_ok());
    }

    #[test]
    fn finds_own_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above xtask");
        assert!(root.join("crates/xtask/Cargo.toml").exists());
    }

    #[test]
    fn collect_skips_vendor_and_target() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above xtask");
        let files = workspace_rs_files(&root).expect("walk workspace");
        assert!(files.iter().any(|f| f.starts_with("crates/netgraph/src/")));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.contains("target/")));
    }
}
