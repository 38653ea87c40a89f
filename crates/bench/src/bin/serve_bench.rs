//! `serve_bench` — closed-loop benchmark of the `brokerd` query plane.
//!
//! Builds the hop-bounded reachability index for the scaled synthetic
//! topology, serves it over the real TCP protocol ([`broker_net::proto`])
//! from an in-process server, and drives a deterministic synthetic
//! query stream against it in batch frames, measuring:
//!
//! - **cold vs warm index**: time to build the index from the graph vs
//!   time to restore it from its serialized `BRI1` bytes (plus a served
//!   sweep over each — the answers must be identical);
//! - **latency/throughput**: per-query and per-batch p50/p99 and QPS at
//!   server worker counts {1, 2, 4, 0 = all cores};
//! - **the scan alone**: `scan_ns_per_query`, the time of
//!   [`ReachIndex::query`] over the canonical stream on one thread with
//!   no TCP, so index gains show apart from socket costs. At quarter
//!   scale it must be at most [`SCAN_FLOOR_NS`] on every host;
//! - **hit rate under chaos**: a scripted 12-epoch fault schedule is
//!   applied to the index ([`ReachIndex::apply_state`]), recording per
//!   epoch the shards rebuilt/kept/deactivated and the hit rate over a
//!   fixed query sample, with each epoch's sample answers differentially
//!   checked against the exact msbfs oracle ([`brokerset::exact_query`]).
//!
//! **Every answer is checksum-audited**: the FNV fingerprint of the
//! served answer stream must be identical across all server thread
//! counts and across the cold vs warm index, and (at tiny/quarter
//! scale) a prefix of the stream must match the exact two-source msbfs
//! evaluation bit for bit.
//!
//! Results maintain `BENCH_serve.json` at the repo root as a `scales`
//! array (same read-modify-write convention as `BENCH_engine.json`).
//! The committed quarter entry is produced by the headline run:
//!
//! ```sh
//! cargo run --release -p bench --bin serve_bench -- quarter --threads 0
//! ```
//!
//! which drives >= 1,000,000 queries (5 sweeps x 200,000). `--queries N`
//! rescales the total (the CI smoke uses 10,000), and `--record DIR`
//! writes the deterministic, timing-free subset of the results for the
//! golden-snapshot test.
//!
//! `--attach PORT` switches to client-only mode: instead of starting an
//! in-process server, the canonical stream is driven against an already
//! running `brokerd` on that port (which must serve the same
//! scale/seed), the answers are checksum-asserted against the local
//! exact oracle, and a `SHUTDOWN` frame is sent at the end. This is the
//! `ci.sh` serve smoke.

use bench::{header, ArgExtras, RunConfig};
use broker_net::proto::{self, Request, Response, ServeCounters};
use brokerset::{answers_checksum, exact_query, max_subgraph_greedy, ReachIndex, StitchAnswer};
use netgraph::{par, FaultSchedule, FaultState, Graph, NodeId, NodeSet};
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Hop cap of the served index — matches `brokerd` so the two binaries
/// agree on answers for the same scale/seed.
const MAX_L: usize = 6;
/// Queries per `BATCH` frame in the closed loop.
const BATCH: usize = 512;
/// Default total queries across all sweeps (the acceptance floor).
const DEFAULT_QUERIES: usize = 1_000_000;
/// Floor on the scan: at quarter scale (247 brokers)
/// `scan_ns_per_query` must not exceed it, on every host. The query
/// (broker-pair lookups, then a 32-position chunked scan on a hit) reads
/// ~70–135 ns there on a 2-vCPU Xeon, so this leaves headroom for slower
/// hosts. A scalar per-position hit scan read 215–360 ns on the same
/// host, so the floor catches it only on a slow run.
const SCAN_FLOOR_NS: f64 = 250.0;

/// The deterministic synthetic workload: uniform (s, t) pairs with a
/// uniform hop bound in 1..=MAX_L, from a seeded ChaCha8 stream.
fn gen_queries(n: usize, count: usize, seed: u64) -> Vec<(u32, u32, u16)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32),
                rng.gen_range(1..=MAX_L as u16),
            )
        })
        .collect()
}

/// A scripted 12-epoch mixed fault schedule: broker defections, node
/// and edge failures, then staged recovery — deterministic in the seed.
fn chaos_schedule(g: &Graph, brokers: &NodeSet, seed: u64) -> FaultSchedule {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xc4a05);
    let mut sched = FaultSchedule::new(g.node_count());
    let roster: Vec<NodeId> = brokers.iter().collect();
    // Three brokers defect early and rejoin late.
    for i in 0..3usize {
        let b = roster[rng.gen_range(0..roster.len())];
        sched.fail_broker(1 + i as u32, b);
        sched.recover_broker(8 + i as u32, b);
    }
    // Plain nodes go down mid-schedule.
    for i in 0..4usize {
        let v = NodeId(rng.gen_range(0..g.node_count() as u32));
        sched.fail_node(3 + (i as u32 % 3), v);
        sched.recover_node(10, v);
    }
    // A few concrete edges get cut and spliced back.
    for _ in 0..4usize {
        let u = NodeId(rng.gen_range(0..g.node_count() as u32));
        if let Some(&v) = g.neighbors(u).first() {
            sched.fail_edge(5, u, v);
            sched.recover_edge(11, u, v);
        }
    }
    sched.set_horizon(12);
    sched
}

/// The in-process scan: [`ReachIndex::query`] over `queries` on this
/// thread, no TCP. Returns the median of five passes in ns per query and
/// the answer checksum.
fn scan_ns_per_query(index: &ReachIndex, queries: &[(u32, u32, u16)]) -> (f64, u64) {
    let mut passes = Vec::with_capacity(5);
    let mut answers: Vec<Option<StitchAnswer>> = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        answers = queries
            .iter()
            .map(|&(s, t, l)| index.query(NodeId(s), NodeId(t), l.into()))
            .collect();
        passes.push(t0.elapsed().as_secs_f64() * 1e9 / queries.len().max(1) as f64);
    }
    passes.sort_by(f64::total_cmp);
    (passes[passes.len() / 2], answers_checksum(answers))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i.min(sorted.len() - 1)]
}

/// One served sweep: drive `queries` against a fresh in-process server
/// evaluating batches at `threads` workers, closed-loop (send one batch
/// frame, wait for its answers, repeat). Returns the answers in stream
/// order plus the latency samples.
struct SweepResult {
    answers: Vec<Option<StitchAnswer>>,
    wall_s: f64,
    batch_us: Vec<f64>,
}

fn serve_sweep(
    index: &Arc<ReachIndex>,
    queries: &[(u32, u32, u16)],
    threads: usize,
) -> SweepResult {
    let listener = proto::Listener::bind(0).expect("bind ephemeral listener");
    let port = listener.port().expect("bound port");
    let server_index = Arc::clone(index);
    let server = std::thread::spawn(move || {
        let counters = ServeCounters::new();
        // Single benchmark client: serve connections sequentially until
        // one of them asks for shutdown.
        loop {
            let Ok(conn) = listener.accept() else { break };
            match proto::serve(conn, &server_index, &counters, threads) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    eprintln!("serve_bench: server connection error: {e}");
                    break;
                }
            }
        }
    });

    let mut conn = proto::Conn::connect(port).expect("connect");
    let hello = conn.request(&Request::Hello).expect("hello");
    assert!(
        matches!(hello, Response::HelloOk { n, .. } if n as usize == index.node_count()),
        "unexpected handshake: {hello:?}"
    );
    let mut answers = Vec::with_capacity(queries.len());
    let mut batch_us = Vec::with_capacity(queries.len() / BATCH + 1);
    let t0 = Instant::now();
    for chunk in queries.chunks(BATCH) {
        let b0 = Instant::now();
        let resp = conn
            .request(&Request::Batch(chunk.to_vec()))
            .expect("batch round trip");
        batch_us.push(b0.elapsed().as_secs_f64() * 1e6);
        match resp {
            Response::BatchAnswers(batch) => {
                assert_eq!(batch.len(), chunk.len(), "answer count mismatch");
                answers.extend(batch);
            }
            other => panic!("expected batch answers, got {other:?}"),
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let bye = conn.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(bye, Response::Bye), "expected BYE, got {bye:?}");
    server.join().expect("server thread");
    SweepResult {
        answers,
        wall_s,
        batch_us,
    }
}

/// Client-only smoke against an external `brokerd`: drive the stream,
/// assert the checksum against the local exact oracle, shut it down.
fn attach_smoke(rc: &RunConfig, port: u16, queries: &[(u32, u32, u16)]) {
    let net = rc.internet();
    let g = net.graph();
    let n = g.node_count();
    let sel = max_subgraph_greedy(g, rc.budgets(n)[1]);
    // Sleep-free readiness: retry the connect until the listener is up,
    // then block on the HELLO reply — the reply itself is the readiness
    // signal, so no fixed delay is ever needed between daemon start and
    // the first query.
    let (mut conn, hello) = proto::Conn::handshake(port, 64).expect("handshake with brokerd");
    match hello {
        Response::HelloOk { n: served, k, .. } => {
            assert_eq!(served as usize, n, "brokerd serves a different topology");
            assert_eq!(k as usize, sel.len(), "brokerd serves a different roster");
        }
        other => panic!("unexpected handshake: {other:?}"),
    }
    let mut answers = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(BATCH) {
        match conn
            .request(&Request::Batch(chunk.to_vec()))
            .expect("batch round trip")
        {
            Response::BatchAnswers(batch) => answers.extend(batch),
            other => panic!("expected batch answers, got {other:?}"),
        }
    }
    let served_sum = answers_checksum(answers.iter().copied());
    let clear = FaultState::all_clear(n);
    let exact_sum =
        answers_checksum(queries.iter().map(|&(s, t, l)| {
            exact_query(g, sel.brokers(), &clear, NodeId(s), NodeId(t), l.into())
        }));
    assert_eq!(
        served_sum, exact_sum,
        "served answers diverge from the exact msbfs evaluation"
    );
    let stats = conn.request(&Request::Stats).expect("stats");
    println!("  brokerd stats after smoke: {stats:?}");
    let bye = conn.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(bye, Response::Bye), "expected BYE, got {bye:?}");
    println!(
        "  serve smoke passed: {} queries, checksum {served_sum:016x} == exact evaluation",
        queries.len()
    );
}

#[allow(clippy::too_many_lines)]
fn main() {
    let (rc, extras) = RunConfig::from_args_extended(
        ArgExtras {
            value_flags: &["--queries", "--attach"],
            max_positionals: 0,
        },
        " [--queries N] [--attach PORT]",
    );
    let queries_total: usize = match extras.flag("--queries") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: --queries expects a count, got '{v}'");
            std::process::exit(2);
        }),
        None => DEFAULT_QUERIES,
    };
    let attach: Option<u16> = extras.flag("--attach").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: --attach expects a port number, got '{v}'");
            std::process::exit(2);
        })
    });
    header("serve_bench", "closed-loop brokerd query-plane benchmark");

    if let Some(port) = attach {
        // Smoke mode: the topology is regenerated locally only to run
        // the exact oracle; the index lives in the external brokerd.
        let n = topology::InternetConfig::scaled(rc.scale).node_count();
        let queries = gen_queries(n, queries_total, rc.seed ^ 0x5e7e);
        attach_smoke(&rc, port, &queries);
        return;
    }

    let wall_start = Instant::now();
    let net = rc.internet();
    let g = net.graph();
    let n = g.node_count();
    let sel = max_subgraph_greedy(g, rc.budgets(n)[1]);
    let brokers = sel.brokers();
    let hw = par::resolve_threads(0);

    // Cold: build the index from the graph. Warm: restore it from its
    // serialized bytes. Both must answer identically.
    let t0 = Instant::now();
    let cold = ReachIndex::build(g, brokers, MAX_L, rc.threads);
    let build_s = t0.elapsed().as_secs_f64();
    let bytes = cold.to_bytes();
    let t0 = Instant::now();
    let warm = ReachIndex::from_bytes(&bytes).expect("warm reload of the index bytes");
    let load_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        cold.digest(),
        warm.digest(),
        "warm reload changed the index"
    );
    println!(
        "  index: {} brokers x {n} nodes, {} bytes; cold build {build_s:.3}s, warm load {load_s:.4}s",
        cold.broker_count(),
        bytes.len()
    );

    // 5 sweeps (warm at 4 worker counts + cold) share the total budget.
    let queries_per = (queries_total / 5).max(BATCH);
    let queries = gen_queries(n, queries_per, rc.seed ^ 0x5e7e);

    // Exact differential audit at tiny/quarter: a prefix of the stream
    // against the two-source msbfs oracle (checksummed, not sampled —
    // every compared answer must agree bit for bit).
    let oracle_len = match rc.scale {
        topology::Scale::Tiny => queries.len().min(2000),
        topology::Scale::Quarter => queries.len().min(1000),
        topology::Scale::Full => 0,
    };
    let clear = FaultState::all_clear(n);
    let oracle_sum = answers_checksum((0..oracle_len).map(|i| {
        let (s, t, l) = queries[i];
        exact_query(g, brokers, &clear, NodeId(s), NodeId(t), l.into())
    }));
    let index_prefix_sum = answers_checksum(
        queries[..oracle_len]
            .iter()
            .map(|&(s, t, l)| cold.query(NodeId(s), NodeId(t), l.into())),
    );
    if oracle_len > 0 {
        assert_eq!(
            index_prefix_sum, oracle_sum,
            "index answers diverge from the exact msbfs evaluation"
        );
        println!(
            "  oracle: first {oracle_len} answers == exact msbfs evaluation (checksum {oracle_sum:016x})"
        );
    }

    // The served sweeps. Rows keyed (index kind, server threads); all
    // answer checksums must agree.
    let warm_arc = Arc::new(warm);
    let cold_arc = Arc::new(cold);
    let mut rows = Vec::new();
    let mut stream_sum: Option<u64> = None;
    let sweeps: Vec<(&str, &Arc<ReachIndex>, usize)> = vec![
        ("warm", &warm_arc, 1),
        ("warm", &warm_arc, 2),
        ("warm", &warm_arc, 4),
        ("warm", &warm_arc, 0),
        ("cold", &cold_arc, 0),
    ];
    println!(
        "  closed loop: {} queries per sweep, batch {BATCH}:",
        queries.len()
    );
    for (kind, index, threads) in sweeps {
        let resolved = par::resolve_threads(threads);
        let res = serve_sweep(index, &queries, threads);
        let sum = answers_checksum(res.answers.iter().copied());
        match stream_sum {
            None => stream_sum = Some(sum),
            Some(prev) => assert_eq!(
                prev, sum,
                "answer stream changed across sweeps ({kind}, threads {threads})"
            ),
        }
        let hits = res.answers.iter().filter(|a| a.is_some()).count();
        let mut sorted = res.batch_us.clone();
        sorted.sort_by(f64::total_cmp);
        let (b50, b99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
        let (q50, q99) = (b50 / BATCH as f64, b99 / BATCH as f64);
        let qps = res.answers.len() as f64 / res.wall_s;
        println!(
            "    {kind:<4} threads {threads} ({resolved:2} workers)  p50 {q50:.2}us  p99 {q99:.2}us  {qps:>10.0} q/s"
        );
        rows.push(serde_json::json!({
            "index": kind,
            "threads": threads,
            "threads_resolved": resolved,
            "queries": res.answers.len(),
            "batch": BATCH,
            "wall_s": res.wall_s,
            "qps": qps,
            "p50_us": q50,
            "p99_us": q99,
            "batch_p50_us": b50,
            "batch_p99_us": b99,
            "hits": hits,
            "checksum": format!("{sum:016x}"),
        }));
    }
    let stream_sum = stream_sum.unwrap_or(0);
    let queries_driven = rows
        .iter()
        .map(|r| r["queries"].as_u64().unwrap_or(0))
        .sum::<u64>();
    let hits = rows[0]["hits"].as_u64().unwrap_or(0);
    let hit_rate = hits as f64 / queries.len().max(1) as f64;
    println!(
        "  {queries_driven} queries served total, hit rate {:.2}%, stream checksum {stream_sum:016x}",
        100.0 * hit_rate
    );
    if oracle_len > 0 {
        // The TCP path must agree with the local evaluation it mirrors.
        let served_prefix_sum = answers_checksum(
            queries[..oracle_len]
                .iter()
                .map(|&(s, t, l)| warm_arc.query(NodeId(s), NodeId(t), l.into())),
        );
        assert_eq!(
            served_prefix_sum, oracle_sum,
            "warm index diverged from oracle"
        );
    }

    // The scan alone, in process: it must answer exactly like the served
    // stream, and at quarter scale stay under the floor on every host.
    let (scan_ns, scan_sum) = scan_ns_per_query(&warm_arc, &queries);
    assert_eq!(
        scan_sum, stream_sum,
        "in-process scan diverges from the served answers"
    );
    let scan_floor = matches!(rc.scale, topology::Scale::Quarter).then_some(SCAN_FLOOR_NS);
    println!("  scan: {scan_ns:.1} ns per query in process, one thread");
    if let Some(floor) = scan_floor {
        assert!(
            scan_ns <= floor,
            "in-process scan takes {scan_ns:.1} ns per query, floor is {floor} ns"
        );
    }

    // Chaos phase: 12 scripted fault epochs applied to a copy of the
    // index, each differentially checked against the exact oracle over
    // a fixed sample, then full recovery back to the clear state.
    let sched = chaos_schedule(g, brokers, rc.seed);
    let chaos_sample = queries.len().min(4000);
    let diff_sample = match rc.scale {
        topology::Scale::Tiny => 300,
        topology::Scale::Quarter => 150,
        topology::Scale::Full => 0,
    }
    .min(chaos_sample);
    let mut chaos_idx = (*warm_arc).clone();
    let mut chaos_rows = Vec::new();
    println!("  chaos: {} epochs over the index:", sched.horizon());
    for epoch in 1..=sched.horizon() {
        let state = sched.state_at(epoch);
        let report = chaos_idx.apply_state(g, &state, rc.threads);
        let sample_answers: Vec<_> = queries[..chaos_sample]
            .iter()
            .map(|&(s, t, l)| chaos_idx.query(NodeId(s), NodeId(t), l.into()))
            .collect();
        let hits = sample_answers.iter().filter(|a| a.is_some()).count();
        let hit_rate = hits as f64 / chaos_sample.max(1) as f64;
        let sample_sum = answers_checksum(sample_answers.iter().copied());
        let exact_sum = answers_checksum(
            queries[..diff_sample]
                .iter()
                .map(|&(s, t, l)| exact_query(g, brokers, &state, NodeId(s), NodeId(t), l.into())),
        );
        let index_diff_sum = answers_checksum(sample_answers[..diff_sample].iter().copied());
        assert_eq!(
            index_diff_sum, exact_sum,
            "epoch {epoch}: invalidated index diverges from the exact evaluation"
        );
        println!(
            "    epoch {epoch:>2}: rebuilt {:>3}, kept {:>3}, deactivated {}, reactivated {}, hit rate {:>6.2}%",
            report.rebuilt,
            report.kept,
            report.deactivated,
            report.reactivated,
            100.0 * hit_rate
        );
        chaos_rows.push(serde_json::json!({
            "epoch": epoch,
            "dirty": report.dirty,
            "rebuilt": report.rebuilt,
            "kept": report.kept,
            "deactivated": report.deactivated,
            "reactivated": report.reactivated,
            "hits": hits,
            "hit_rate": hit_rate,
            "sample_checksum": format!("{sample_sum:016x}"),
        }));
    }
    // Recovery: back at all-clear the answers must equal the pristine
    // index's over the whole canonical stream.
    chaos_idx.apply_state(g, &clear, rc.threads);
    let recovered_sum = answers_checksum(
        queries
            .iter()
            .map(|&(s, t, l)| chaos_idx.query(NodeId(s), NodeId(t), l.into())),
    );
    assert_eq!(
        recovered_sum, stream_sum,
        "index did not recover the clear-state answers after the chaos schedule"
    );
    println!(
        "  chaos recovery: clear-state answers restored, {} shards invalidated in total",
        chaos_idx.shards_invalidated()
    );

    // Deterministic subset for the golden snapshot (no timings).
    let chaos_payload = serde_json::json!({
        "epochs": sched.horizon(),
        "sample": chaos_sample,
        "diff_sample": diff_sample,
        "rows": chaos_rows,
        "shards_invalidated_total": chaos_idx.shards_invalidated(),
    });
    let deterministic = serde_json::json!({
        "nodes": n,
        "brokers": sel.len(),
        "max_l": MAX_L,
        "queries_per_sweep": queries.len(),
        "batch": BATCH,
        "hits": hits,
        "hit_rate": hit_rate,
        "stream_checksum": format!("{stream_sum:016x}"),
        "oracle_len": oracle_len,
        "oracle_checksum": format!("{oracle_sum:016x}"),
        "index_bytes": bytes.len(),
        "index_digest": format!("{:016x}", warm_arc.digest()),
        "chaos": chaos_payload,
    });

    let entry = serde_json::json!({
        "scale": format!("{:?}", rc.scale).to_lowercase(),
        "seed": rc.seed,
        "threads": rc.threads,
        "queries_total": queries_driven,
        "index_build_s": build_s,
        "index_load_s": load_s,
        "rows": rows,
        "hardware_threads": hw,
        "scan_ns_per_query": scan_ns,
        "scan_floor_ns": scan_floor.map_or(serde_json::Value::Null, serde_json::Value::from),
        "deterministic": deterministic.clone(),
        "wall_s_total": wall_start.elapsed().as_secs_f64(),
    });

    // Read-modify-write the scales array, like BENCH_engine.json.
    let path = std::path::Path::new("BENCH_serve.json");
    let mut scales: Vec<serde_json::Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|v| {
            v.get("scales")
                .and_then(|s| s.as_array().map(|a| a.to_vec()))
        })
        .unwrap_or_default();
    scales.retain(|s| s["scale"] != entry["scale"]);
    scales.push(entry.clone());
    scales.sort_by_key(|s| s["deterministic"]["nodes"].as_u64().unwrap_or(0));
    let doc = serde_json::json!({"id": "serve_bench", "scales": scales});
    std::fs::write(path, serde_json::to_string_pretty(&doc).expect("serialize"))
        .expect("write BENCH_serve.json");
    println!("  wrote {}", path.display());
    rc.record("serve_bench", deterministic)
        .expect("--record write failed");
    rc.dump_obs("serve_bench").expect("--obs write failed");
}
