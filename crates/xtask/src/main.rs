//! CLI entry point: `cargo run -p xtask -- lint [--root <dir>]`.

use std::path::Path;
use std::process::ExitCode;

use xtask::rules::Rule;
use xtask::{find_workspace_root, lint_workspace};

const USAGE: &str = "\
usage: cargo run -p xtask -- <command>

commands:
  lint [--root <dir>]
        run the repo-specific static analysis (R5, R9-R12, R15)
  lint --explain RN
        print the rationale and fix guidance for one of those rules
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["lint"] => run_lint(None),
        ["lint", "--root", root] => run_lint(Some(root.into())),
        ["lint", "--explain", rule] => run_explain(rule),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_explain(rule: &str) -> ExitCode {
    match Rule::from_id(rule) {
        Some(rule) => {
            println!("{}", rule.explain());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("xtask: --explain needs one of xtask's rule ids:");
            for r in Rule::ALL {
                eprintln!("  {:<4} {}", r.id(), r.describe());
            }
            eprintln!("clippy and rustc enforce the other ids (DESIGN.md §6b)");
            ExitCode::from(2)
        }
    }
}

fn run_lint(root: Option<std::path::PathBuf>) -> ExitCode {
    let root = match root {
        Some(r) => r,
        None => {
            let here = Path::new(env!("CARGO_MANIFEST_DIR"));
            match find_workspace_root(here) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "xtask: cannot locate workspace root above {}",
                        here.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: lint failed: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &report.violations {
        println!("{v}");
        println!("  {}", v.rule.describe());
    }
    println!(
        "xtask lint: {} file(s), {} violation(s)",
        report.files_scanned,
        report.violations.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
