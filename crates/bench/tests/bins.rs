//! Smoke tests: every table/figure/extension binary runs to completion
//! at tiny scale and prints its headline sections. The golden-snapshot
//! tests at the bottom go further: the `--record` JSON of `table3`,
//! `fig2a` and the other recorded bins at tiny scale / fixed seed must
//! reproduce the checked-in records under `tests/goldens/` number for
//! number (floats at relative 1e-9), and the stdout of `table2`,
//! `table4`, `table5`, `fig5bc`, `ext_resilience` and `ext_sla` must
//! match byte for byte, so an accidental semantic change to the
//! evaluators fails loudly instead of silently shifting results.
//! Regenerate after an *intentional* change
//! with `UPDATE_GOLDENS=1 cargo test -p bench --test bins golden`.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

macro_rules! smoke {
    ($name:ident, $binenv:expr, $needle:expr) => {
        #[test]
        fn $name() {
            let text = run($binenv, &["tiny", "7"]);
            assert!(
                text.contains($needle),
                "{} output missing '{}':\n{}",
                $binenv,
                $needle,
                text
            );
        }
    };
}

smoke!(
    table1_runs,
    env!("CARGO_BIN_EXE_table1"),
    "alliance size vs coverage"
);
smoke!(table3_runs, env!("CARGO_BIN_EXE_table3"), "ASes with IXPs");
smoke!(fig1_runs, env!("CARGO_BIN_EXE_fig1"), "scale-free");
smoke!(fig3_runs, env!("CARGO_BIN_EXE_fig3"), "corr(PR, gain)");
smoke!(fig4_runs, env!("CARGO_BIN_EXE_fig4"), "core (p99+)");
smoke!(
    fig5a_runs,
    env!("CARGO_BIN_EXE_fig5a"),
    "composition of the"
);
smoke!(
    econ_runs,
    env!("CARGO_BIN_EXE_econ"),
    "Stackelberg equilibrium"
);
smoke!(
    ext_bgp_runs,
    env!("CARGO_BIN_EXE_ext_bgp"),
    "default paths dominated"
);
smoke!(
    ext_bandwidth_runs,
    env!("CARGO_BIN_EXE_ext_bandwidth"),
    "per-demand"
);
smoke!(
    ext_econ_runs,
    env!("CARGO_BIN_EXE_ext_econ"),
    "profit x cov"
);
smoke!(
    ext_evolution_runs,
    env!("CARGO_BIN_EXE_ext_evolution"),
    "jaccard"
);
smoke!(
    ext_chaos_runs,
    env!("CARGO_BIN_EXE_ext_chaos"),
    "certificate:"
);
smoke!(
    ext_evolve_runs,
    env!("CARGO_BIN_EXE_ext_evolve"),
    "maintenance_checksum:"
);

#[test]
fn fig2a_runs_with_reduced_iterations() {
    let text = run(env!("CARGO_BIN_EXE_fig2a"), &["tiny", "7", "20"]);
    assert!(text.contains("mean SC size"), "{text}");
}

#[test]
fn fig2b_runs() {
    let text = run(env!("CARGO_BIN_EXE_fig2b"), &["tiny", "7"]);
    assert!(text.contains("Panel 1"), "{text}");
    assert!(text.contains("ASesWithIXPs"), "{text}");
}

#[test]
fn calibrate_runs() {
    let text = run(env!("CARGO_BIN_EXE_calibrate"), &["tiny", "7"]);
    assert!(text.contains("greedy MCB"), "{text}");
}

/// `--port` and `--index` are brokerd's own flags: any other bin rejects
/// them as unknown, and brokerd rejects a port it cannot parse or bind.
/// Each case is an error line and exit 2, never a panic, before any
/// topology is generated.
#[test]
fn serving_flags_are_brokerd_only() {
    let rejects = |bin: &str, args: &[&str], needle: &str| {
        let out = Command::new(bin).args(args).output().expect("spawn bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    };
    let table1 = env!("CARGO_BIN_EXE_table1");
    let engine_bench = env!("CARGO_BIN_EXE_engine_bench");
    let brokerd = env!("CARGO_BIN_EXE_brokerd");
    rejects(table1, &["tiny", "7", "--port", "0"], "'--port'");
    rejects(engine_bench, &["--index", "i.bri"], "'--index'");
    rejects(engine_bench, &["--scale", "tiny"], "'--scale'");
    rejects(brokerd, &["tiny", "7", "--port", "http"], "'http'");
    rejects(brokerd, &["--port", "70000"], "'70000'");
    rejects(brokerd, &["--port", "-1"], "'-1'");
    let held = broker_net::proto::Listener::bind(0).expect("hold a port");
    let port = held.port().expect("held port").to_string();
    rejects(
        brokerd,
        &["tiny", "7", "--port", &port],
        &format!("error: cannot listen on port {port}: "),
    );
}

// ---------------------------------------------------------------------
// Golden-snapshot tests
// ---------------------------------------------------------------------

/// Maximum relative divergence tolerated between a recorded float and
/// its golden counterpart. Everything recorded is deterministic (fixed
/// seed, thread-count-invariant evaluators), so this only absorbs
/// cross-platform libm noise.
const REL_EPS: f64 = 1e-9;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

/// Recursively assert structural + numeric equality of two JSON values.
/// Numbers compare at [`REL_EPS`] relative tolerance; everything else
/// must match exactly, including object key order (our serializer is
/// deterministic, so order drift is itself a regression).
fn assert_json_close(at: &str, got: &serde_json::Value, want: &serde_json::Value) {
    if let (Some(a), Some(b)) = (got.as_f64(), want.as_f64()) {
        let scale = 1.0f64.max(a.abs()).max(b.abs());
        assert!(
            (a - b).abs() <= REL_EPS * scale,
            "{at}: {a} differs from golden {b} (rel eps {REL_EPS})"
        );
        return;
    }
    match (got.as_object(), want.as_object()) {
        (Some(g), Some(w)) => {
            let gk: Vec<&str> = g.iter().map(|(k, _)| k.as_str()).collect();
            let wk: Vec<&str> = w.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(gk, wk, "{at}: object keys diverge from golden");
            for ((k, gv), (_, wv)) in g.iter().zip(w) {
                assert_json_close(&format!("{at}.{k}"), gv, wv);
            }
            return;
        }
        (None, None) => {}
        _ => panic!("{at}: value kind diverges from golden"),
    }
    match (got.as_array(), want.as_array()) {
        (Some(g), Some(w)) => {
            assert_eq!(g.len(), w.len(), "{at}: array length diverges from golden");
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                assert_json_close(&format!("{at}[{i}]"), gv, wv);
            }
            return;
        }
        (None, None) => {}
        _ => panic!("{at}: value kind diverges from golden"),
    }
    // Scalars (strings, bools, nulls) and anything else: exact equality.
    assert_eq!(got, want, "{at}: diverges from golden");
}

/// Run `bin` with `--record` into a temp dir and compare the produced
/// `<id>.tiny.json` against `tests/goldens/<id>.tiny.json`. With
/// `UPDATE_GOLDENS=1` the golden is (re)written instead and the test
/// passes vacuously.
fn check_golden(bin: &str, id: &str, args: &[&str]) {
    let tmp = std::env::temp_dir().join(format!("bench-golden-{id}-{}", std::process::id()));
    let tmp_str = tmp.to_str().expect("temp dir path is UTF-8").to_string();
    let mut full: Vec<&str> = args.to_vec();
    full.extend_from_slice(&["--record", &tmp_str]);
    run(bin, &full);
    let produced = tmp.join(format!("{id}.tiny.json"));
    let got_text = std::fs::read_to_string(&produced)
        .unwrap_or_else(|e| panic!("reading recorded {}: {e}", produced.display()));
    let _ = std::fs::remove_dir_all(&tmp);

    let golden_path = goldens_dir().join(format!("{id}.tiny.json"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&golden_path, &got_text).expect("write golden");
        eprintln!("updated {}", golden_path.display());
        return;
    }
    let want_text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1",
            golden_path.display()
        )
    });
    let got: serde_json::Value = serde_json::from_str(&got_text).expect("recorded JSON parses");
    let want: serde_json::Value = serde_json::from_str(&want_text).expect("golden JSON parses");
    assert_json_close(id, &got, &want);
}

/// Run `bin tiny 7` and compare its stdout byte for byte against
/// `tests/goldens/<id>.tiny.txt`. These bins print their timings to
/// stderr, so stdout is a pure function of scale and seed. With
/// `UPDATE_GOLDENS=1` the golden is (re)written instead.
fn check_stdout_golden(bin: &str, id: &str) {
    let got = run(bin, &["tiny", "7"]);
    let golden_path = goldens_dir().join(format!("{id}.tiny.txt"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&golden_path, &got).expect("write golden");
        eprintln!("updated {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1",
            golden_path.display()
        )
    });
    assert_eq!(got, want, "{id} stdout diverged from golden");
}

#[test]
fn table2_stdout_matches_golden() {
    check_stdout_golden(env!("CARGO_BIN_EXE_table2"), "table2");
}

#[test]
fn table5_stdout_matches_golden() {
    // Broker ranking: pins the vertex names a topology derives.
    check_stdout_golden(env!("CARGO_BIN_EXE_table5"), "table5");
}

#[test]
fn table4_stdout_matches_golden() {
    // Free vs alliance l-hop curves: pins `lhop_curve`.
    check_stdout_golden(env!("CARGO_BIN_EXE_table4"), "table4");
}

#[test]
fn fig5bc_stdout_matches_golden() {
    // Directional connectivity: pins directional source sampling.
    check_stdout_golden(env!("CARGO_BIN_EXE_fig5bc"), "fig5bc");
}

#[test]
fn ext_resilience_stdout_matches_golden() {
    // Broker-failure traces (targeted, random, l-hop) and greedy repair.
    check_stdout_golden(env!("CARGO_BIN_EXE_ext_resilience"), "ext_resilience");
}

#[test]
fn ext_sla_stdout_matches_golden() {
    // Session replay and the failover/monitor path search.
    check_stdout_golden(env!("CARGO_BIN_EXE_ext_sla"), "ext_sla");
}

#[test]
fn table3_matches_golden_snapshot() {
    // --threads 2 exercises the parallel executor; the evaluators are
    // thread-count invariant, so the record must not depend on it.
    check_golden(
        env!("CARGO_BIN_EXE_table3"),
        "table3",
        &["tiny", "7", "--threads", "2"],
    );
}

#[test]
fn fig2a_matches_golden_snapshot() {
    check_golden(env!("CARGO_BIN_EXE_fig2a"), "fig2a", &["tiny", "7", "20"]);
}

#[test]
fn ext_chaos_matches_golden_snapshot() {
    // The chaos trace fans out per epoch; --threads 2 proves the record
    // is thread-count invariant like every other evaluator.
    check_golden(
        env!("CARGO_BIN_EXE_ext_chaos"),
        "ext_chaos",
        &["tiny", "7", "--threads", "2"],
    );
}

#[test]
fn ext_evolve_matches_golden_snapshot() {
    // The per-epoch ledger (coverage, gaps, swaps, checksum) must be
    // bit-stable; --threads 2 pins thread-count invariance on top.
    check_golden(
        env!("CARGO_BIN_EXE_ext_evolve"),
        "ext_evolve",
        &["tiny", "7", "--threads", "2"],
    );
}

#[test]
fn ext_plan_matches_golden_snapshot() {
    // Planner benchmark: per-transition DAG shape (steps, width, depth,
    // makespan model) and the cross-thread execution checksum.
    // --threads 2 proves the record is thread-count invariant — the bin
    // itself additionally sweeps threads 1/2/4/7 and asserts the
    // execution checksums agree.
    check_golden(
        env!("CARGO_BIN_EXE_ext_plan"),
        "ext_plan",
        &["tiny", "7", "--threads", "2"],
    );
}

#[test]
fn ext_plan_golden_rejects_injected_step_reorder() {
    // A reordered step lands in a different execution layer, which
    // moves its contribution inside the per-step FNV fold — so a step
    // reorder always shows up as a changed plan_checksum, and swapping
    // two transitions permutes the per-transition shape arrays. The
    // golden must bite on both.
    let golden_path = goldens_dir().join("ext_plan.tiny.json");
    let text = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", golden_path.display()));
    let want: serde_json::Value = serde_json::from_str(&text).expect("golden JSON parses");

    fn data_entries(v: &mut serde_json::Value) -> &mut Vec<(String, serde_json::Value)> {
        let serde_json::Value::Object(entries) = v else {
            panic!("golden root is not an object");
        };
        let data = entries
            .iter_mut()
            .find(|(k, _)| k == "data")
            .map(|(_, v)| v)
            .expect("golden has a data field");
        let serde_json::Value::Object(data) = data else {
            panic!("golden data is not an object");
        };
        data
    }

    // Checksum flip: the signature of a reordered step.
    let mut got = want.clone();
    let sum = data_entries(&mut got)
        .iter_mut()
        .find(|(k, _)| k == "plan_checksum")
        .map(|(_, v)| v)
        .expect("golden records a plan checksum");
    let serde_json::Value::Str(s) = sum else {
        panic!("plan checksum is not a string");
    };
    let flipped = if s.starts_with('0') { "f" } else { "0" };
    s.replace_range(0..1, flipped);
    let panicked = std::panic::catch_unwind(|| assert_json_close("ext_plan", &got, &want)).is_err();
    assert!(panicked, "a checksum flip must fail the plan golden");

    // Transition swap: rotate one shape array by one slot.
    let mut got = want.clone();
    let steps = data_entries(&mut got)
        .iter_mut()
        .find(|(k, _)| k == "steps")
        .map(|(_, v)| v)
        .expect("golden records per-transition step counts");
    let serde_json::Value::Array(steps) = steps else {
        panic!("steps is not an array");
    };
    assert!(
        steps.windows(2).any(|w| w[0] != w[1]),
        "step counts are all equal; rotating them would not perturb anything"
    );
    steps.rotate_left(1);
    let panicked = std::panic::catch_unwind(|| assert_json_close("ext_plan", &got, &want)).is_err();
    assert!(panicked, "a transition reorder must fail the plan golden");
}

#[test]
fn serve_bench_matches_golden_snapshot() {
    // serve_bench writes BENCH_serve.json into its CWD, so run it from
    // the temp dir; the --record payload is timing-free (counts,
    // checksums and digests only), which is what the golden pins.
    let tmp = std::env::temp_dir().join(format!("bench-golden-serve-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let tmp_str = tmp.to_str().expect("temp dir path is UTF-8");
    let out = Command::new(env!("CARGO_BIN_EXE_serve_bench"))
        .args([
            "tiny",
            "7",
            "--queries",
            "4000",
            "--threads",
            "2",
            "--record",
            tmp_str,
        ])
        .current_dir(&tmp)
        .output()
        .expect("spawn serve_bench");
    assert!(
        out.status.success(),
        "serve_bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got_text = std::fs::read_to_string(tmp.join("serve_bench.tiny.json"))
        .expect("serve_bench record exists");
    let _ = std::fs::remove_dir_all(&tmp);

    let golden_path = goldens_dir().join("serve_bench.tiny.json");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&golden_path, &got_text).expect("write golden");
        eprintln!("updated {}", golden_path.display());
        return;
    }
    let want_text = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1",
            golden_path.display()
        )
    });
    let got: serde_json::Value = serde_json::from_str(&got_text).expect("recorded JSON parses");
    let want: serde_json::Value = serde_json::from_str(&want_text).expect("golden JSON parses");
    assert_json_close("serve_bench", &got, &want);
}

#[test]
fn serve_bench_golden_rejects_perturbed_hit_rate() {
    // The serve golden must bite on its own floats too: nudge the
    // recorded hit rate past REL_EPS and the comparison must panic.
    let golden_path = goldens_dir().join("serve_bench.tiny.json");
    let text = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", golden_path.display()));
    let want: serde_json::Value = serde_json::from_str(&text).expect("golden JSON parses");
    let mut got = want.clone();
    let serde_json::Value::Object(entries) = &mut got else {
        panic!("golden root is not an object");
    };
    let data = entries
        .iter_mut()
        .find(|(k, _)| k == "data")
        .map(|(_, v)| v)
        .expect("golden has a data field");
    let serde_json::Value::Object(data) = data else {
        panic!("golden data is not an object");
    };
    let rate = data
        .iter_mut()
        .find(|(k, _)| k == "hit_rate")
        .map(|(_, v)| v)
        .expect("golden records a hit rate");
    let serde_json::Value::Float(f) = rate else {
        panic!("hit rate is not a float");
    };
    *f += 1e-6;
    let panicked =
        std::panic::catch_unwind(|| assert_json_close("serve_bench", &got, &want)).is_err();
    assert!(panicked, "a 1e-6 perturbation must fail the serve golden");
}

/// Drive the fixed request script against the brokerd on `port`, then
/// shut it down, and render every reply's Debug form, one per line.
fn brokerd_session(port: u16) -> String {
    use broker_net::proto::{Conn, Request};

    let mut conn = Conn::connect(port).expect("connect to brokerd");
    let mut transcript = String::new();
    let script: &[(&str, Request)] = &[
        ("hello", Request::Hello),
        ("query-hit", Request::Query { s: 0, t: 1, l: 6 }),
        (
            "query-miss",
            Request::Query {
                s: 0,
                t: 9_999_999,
                l: 6,
            },
        ),
        (
            "batch",
            Request::Batch(vec![(0, 1, 6), (1, 0, 1), (2, 2, 3)]),
        ),
        ("stats", Request::Stats),
    ];
    for (label, req) in script {
        let reply = conn.request(req).expect("scripted request");
        transcript.push_str(&format!("{label}: {reply:?}\n"));
    }
    // One raw malformed frame mid-session: the error reply is part of
    // the pinned wire behaviour.
    conn.send_raw(&[1, 0, 0, 0, 0x7f]).expect("send bad opcode");
    let reply = conn
        .read_response()
        .expect("error reply")
        .expect("connection stays open");
    transcript.push_str(&format!("bad-opcode: {reply:?}\n"));
    let bye = conn.request(&Request::Shutdown).expect("shutdown");
    transcript.push_str(&format!("shutdown: {bye:?}\n"));
    transcript
}

/// Run the scripted session against a brokerd started with `args` and
/// wait for it to exit cleanly.
fn brokerd_transcript(args: &[&str]) -> String {
    let (mut child, port, drain) = spawn_brokerd(args);
    let transcript = brokerd_session(port);
    let status = child.wait().expect("brokerd exit status");
    assert!(status.success(), "brokerd exited with {status}");
    drain.join().expect("drain thread");
    transcript
}

fn brokerd_golden() -> String {
    let golden_path = goldens_dir().join("brokerd_session.txt");
    std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1",
            golden_path.display()
        )
    })
}

#[test]
fn brokerd_scripted_session_matches_golden() {
    // Drive a fixed request script against a real brokerd process and
    // pin the Debug rendering of every reply. The transcript is fully
    // deterministic (tiny scale, fixed seed, scripted order), so it
    // doubles as a wire-compatibility golden: any change to opcodes,
    // field layouts or reply semantics shows up as a diff here.
    let transcript = brokerd_transcript(&["tiny", "7", "--port", "0"]);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let golden_path = goldens_dir().join("brokerd_session.txt");
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&golden_path, &transcript).expect("write golden");
        eprintln!("updated {}", golden_path.display());
        return;
    }
    assert_eq!(
        transcript,
        brokerd_golden(),
        "brokerd wire transcript diverged from golden"
    );
}

/// `brokerd --index PATH` serves a saved BRI2 blob, which it decodes
/// with `ReachIndex::from_bytes`. A blob built the way brokerd builds
/// in process (tiny scale, seed 7, the middle budget, MaxSG, max_l 6)
/// must answer the script exactly as the golden session does, and a
/// missing blob is an error line and exit 2.
#[test]
fn brokerd_serves_a_saved_index_like_its_own_build() {
    let rc = bench::RunConfig::parse(["tiny", "7"].map(String::from)).expect("tiny run config");
    let net = rc.internet();
    let g = net.graph();
    let sel = brokerset::max_subgraph_greedy(g, rc.budgets(g.node_count())[1]);
    let index = brokerset::ReachIndex::build(g, sel.brokers(), 6, 1);
    let dir =
        std::env::temp_dir().join(format!("bench-brokerd-saved-index-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let blob = dir.join("tiny.bri");
    index.save(&blob).expect("save the index");
    let blob_str = blob.to_str().expect("temp path is UTF-8");
    let transcript = brokerd_transcript(&["--index", blob_str, "--port", "0"]);

    let missing = dir.join("missing.bri");
    let out = Command::new(env!("CARGO_BIN_EXE_brokerd"))
        .args(["--index", missing.to_str().expect("UTF-8"), "--port", "0"])
        .output()
        .expect("spawn brokerd");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: loading index"), "{stderr}");
    assert_eq!(
        transcript,
        brokerd_golden(),
        "a saved index served differently from brokerd's own build"
    );
}

/// Start brokerd with `args` (which pick an ephemeral port); returns the
/// child, its port and the thread that keeps draining its stdout (so
/// brokerd never blocks on a full pipe).
fn spawn_brokerd(args: &[&str]) -> (std::process::Child, u16, std::thread::JoinHandle<()>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_brokerd"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn brokerd");
    let stdout = child.stdout.take().expect("brokerd stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let port: u16 = loop {
        let line = lines
            .next()
            .expect("brokerd exited before listening")
            .expect("read brokerd stdout");
        if let Some(rest) = line.strip_prefix("brokerd: listening on 127.0.0.1:") {
            break rest.parse().expect("port parses");
        }
    };
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, port, drain)
}

#[cfg(target_os = "linux")]
#[test]
fn brokerd_releases_closed_connection_threads() {
    // Each connection gets its own thread with a 2 MiB stack. A daemon
    // that kept every finished thread's handle until shutdown would grow
    // by over 512 MiB of address space across these 256 connections.
    use broker_net::proto::{Conn, Request};

    fn vm_size_kib(pid: u32) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmSize:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmSize line")
    }
    let hello = |port: u16| {
        let mut conn = Conn::connect(port).expect("connect to brokerd");
        conn.request(&Request::Hello).expect("hello");
    };

    let (mut child, port, drain) = spawn_brokerd(&["tiny", "7", "--port", "0"]);
    hello(port);
    let before = vm_size_kib(child.id());
    for _ in 0..256 {
        hello(port);
    }
    let grown_mib = vm_size_kib(child.id()).saturating_sub(before) / 1024;
    let mut conn = Conn::connect(port).expect("connect to brokerd");
    conn.request(&Request::Shutdown).expect("shutdown");
    drop(conn);
    assert!(child.wait().expect("brokerd exit status").success());
    drain.join().expect("drain thread");
    assert!(
        grown_mib < 256,
        "brokerd VmSize grew by {grown_mib} MiB over 256 closed connections"
    );
}

#[test]
fn golden_comparison_rejects_off_by_one() {
    // Prove the golden actually bites: perturb one recorded float by
    // more than REL_EPS and the comparison must panic.
    let golden_path = goldens_dir().join("ext_chaos.tiny.json");
    let text = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", golden_path.display()));
    let want: serde_json::Value = serde_json::from_str(&text).expect("golden JSON parses");
    let mut got = want.clone();
    let serde_json::Value::Object(entries) = &mut got else {
        panic!("golden root is not an object");
    };
    let data = entries
        .iter_mut()
        .find(|(k, _)| k == "data")
        .map(|(_, v)| v)
        .expect("golden has a data field");
    let serde_json::Value::Object(data) = data else {
        panic!("golden data is not an object");
    };
    let sat = data
        .iter_mut()
        .find(|(k, _)| k == "saturated")
        .map(|(_, v)| v)
        .expect("golden records a saturated curve");
    let serde_json::Value::Array(curve) = sat else {
        panic!("saturated curve is not an array");
    };
    let serde_json::Value::Float(f) = &mut curve[0] else {
        panic!("saturated curve entry is not a float");
    };
    *f += 1e-6;
    let panicked =
        std::panic::catch_unwind(|| assert_json_close("ext_chaos", &got, &want)).is_err();
    assert!(panicked, "a 1e-6 perturbation must fail the golden check");
}
