//! End-to-end test of the `broker_cli` binary: generate → stats →
//! select → eval → export (plus chaos, evolve, index and plan), through
//! the real executable.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_broker_cli"))
}

/// A fresh directory for one test, keyed on the pid plus the test name:
/// tests run in parallel and each deletes its directory when it finishes.
fn tmpdir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("broker-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = tmpdir("full_cli_workflow");
    let snap = dir.join("net.json");
    let dot = dir.join("net.dot");

    // generate
    let out = cli()
        .args(["generate", "tiny", "7", snap.to_str().unwrap()])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(snap.exists());

    // stats
    let out = cli()
        .args(["stats", snap.to_str().unwrap()])
        .output()
        .expect("spawn stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ASes:"), "stats output: {text}");

    // select
    let out = cli()
        .args(["select", snap.to_str().unwrap(), "maxsg", "20"])
        .output()
        .expect("spawn select");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("20 brokers selected by maxsg"), "{text}");

    // eval
    let out = cli()
        .args(["eval", snap.to_str().unwrap(), "greedy", "40"])
        .output()
        .expect("spawn eval");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("saturated E2E connectivity"), "{text}");
    assert!(text.contains("l = 3:"), "{text}");

    // export with highlighted brokers
    let out = cli()
        .args([
            "export",
            snap.to_str().unwrap(),
            dot.to_str().unwrap(),
            "10",
        ])
        .output()
        .expect("spawn export");
    assert!(out.status.success());
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("graph topology {"));
    assert!(dot_text.contains("fillcolor=gold"));

    // chaos drill with its self-validating certificate
    let out = cli()
        .args(["chaos", snap.to_str().unwrap(), "maxsg", "30"])
        .output()
        .expect("spawn chaos");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chaos drill over"), "{text}");
    assert!(text.contains("all invariants hold"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evolve_reports_swaps_and_records_stream() {
    let dir = tmpdir("evolve_reports_swaps_and_records_stream");
    let snap = dir.join("evolving.json");
    let rec = dir.join("evolve-record.json");
    assert!(cli()
        .args(["generate", "tiny", "7", snap.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    let out = cli()
        .args([
            "evolve",
            snap.to_str().unwrap(),
            "6",
            "40",
            "13",
            "--record",
            rec.to_str().unwrap(),
        ])
        .output()
        .expect("spawn evolve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("epoch  0:"), "{text}");
    assert!(text.contains("epoch  6:"), "{text}");
    assert!(text.contains("ledger:"), "{text}");
    assert!(text.contains("all invariants hold"), "{text}");

    // The --record blob holds the replayable stream and one report per
    // epoch.
    let blob: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&rec).unwrap()).expect("record parses");
    assert_eq!(blob["seed"].as_u64(), Some(13));
    assert_eq!(blob["reports"].as_array().map(|a| a.len()), Some(6));
    assert!(blob["stream"].as_object().is_some(), "stream missing");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_build_and_query_roundtrip() {
    let dir = tmpdir("index_build_and_query_roundtrip");
    let snap = dir.join("idx-net.json");
    let idx = dir.join("net.bri");
    assert!(cli()
        .args(["generate", "tiny", "7", snap.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    // build: precompute and persist the BRI2 blob.
    let out = cli()
        .args([
            "index",
            "build",
            snap.to_str().unwrap(),
            "maxsg",
            "20",
            idx.to_str().unwrap(),
        ])
        .output()
        .expect("spawn index build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("20-broker"), "{text}");
    assert!(text.contains("digest"), "{text}");
    assert!(idx.exists());

    // query: a vertex can always stitch to itself within any bound.
    let out = cli()
        .args(["index", "query", idx.to_str().unwrap(), "5", "5", "3"])
        .output()
        .expect("spawn index query");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stitch 5 -> 5"), "{text}");

    // Out-of-range endpoints are a clean miss, not a crash.
    let out = cli()
        .args(["index", "query", idx.to_str().unwrap(), "0", "999999", "6"])
        .output()
        .expect("spawn index query miss");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no dominated stitch"), "{text}");

    // Unknown subcommand and missing operands are usage errors.
    let out = cli().args(["index", "frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown index subcommand"));
    let out = cli()
        .args(["index", "query", idx.to_str().unwrap(), "1", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing hop bound"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_round_trips_with_certificate_and_rejects_malformed_args() {
    let dir = tmpdir("plan_round_trips_with_certificate_and_rejects_malformed_args");
    let snap = dir.join("plan-net.json");
    assert!(cli()
        .args(["generate", "tiny", "7", snap.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    // A 40 -> 50 broker reconfiguration: summary, antichain schedule,
    // execution trace and a passing certificate.
    let out = cli()
        .args(["plan", snap.to_str().unwrap(), "maxsg", "40", "50"])
        .output()
        .expect("spawn plan");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("plan 40 -> 50 brokers (maxsg)"), "{text}");
    assert!(text.contains("antichain 0:"), "{text}");
    assert!(text.contains("activate("), "{text}");
    assert!(text.contains("cut states\nvalidated"), "{text}");
    assert!(text.contains("certificate:"), "{text}");
    assert!(!text.contains("FAIL"), "{text}");

    // The same budgets twice is an empty plan — still a valid,
    // certified reconfiguration.
    let out = cli()
        .args(["plan", snap.to_str().unwrap(), "maxsg", "40", "40"])
        .output()
        .expect("spawn no-op plan");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 steps"), "{text}");

    // Malformed invocations are usage errors: exit code 2 exactly.
    let out = cli()
        .args(["plan", snap.to_str().unwrap(), "maxsg", "40"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing k_to"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    let out = cli()
        .args(["plan", snap.to_str().unwrap(), "magic", "40", "50"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));

    let out = cli()
        .args(["plan", snap.to_str().unwrap(), "maxsg", "forty", "50"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad k"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_input() {
    // Unknown command.
    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");

    // Unknown algorithm on a real snapshot.
    let dir = tmpdir("cli_rejects_bad_input");
    let snap = dir.join("n.json");
    assert!(cli()
        .args(["generate", "tiny", "1", snap.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    let out = cli()
        .args(["select", snap.to_str().unwrap(), "magic", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));

    // Missing snapshot.
    let out = cli()
        .args(["stats", "/definitely/missing.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A --record flag with no path is a usage error: exit code 2
    // exactly, with the usage text on stderr.
    let out = cli()
        .args(["evolve", snap.to_str().unwrap(), "4", "20", "--record"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--record expects a file path"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    // Non-numeric epoch count: usage error as well.
    let out = cli()
        .args(["evolve", snap.to_str().unwrap(), "soon", "20"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad epoch count"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot that fails its audit is an error line and exit 2 from every
/// command that loads it, never a panic.
#[test]
fn cli_rejects_a_damaged_snapshot() {
    let dir = tmpdir("cli_rejects_a_damaged_snapshot");
    let snap = dir.join("n.json");
    assert!(cli()
        .args(["generate", "tiny", "7", snap.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    // Point the last adjacency entry, which ends the neighbor array, at a
    // vertex that does not exist.
    let text = std::fs::read_to_string(&snap).unwrap();
    let end = text.find("],\"edges\"").expect("neighbor array");
    let start = text[..end].rfind(',').unwrap() + 1;
    std::fs::write(&snap, format!("{}999999{}", &text[..start], &text[end..])).unwrap();
    for args in [vec!["stats"], vec!["select", "maxsg", "20"], vec!["audit"]] {
        let mut full = vec![args[0], snap.to_str().unwrap()];
        full.extend(&args[1..]);
        let out = cli().args(&full).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("error:") && err.contains("csr.ids-in-range"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
