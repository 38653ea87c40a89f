//! Engine-layer speedup snapshot: arena-pooled vs allocating BFS,
//! sequential vs parallel exact l-hop evaluation, and the 64-lane
//! `netgraph::msbfs` kernel vs the historical one-BFS-per-source path.
//!
//! Maintains `BENCH_engine.json` at the repo root as a **`scales`
//! array**: each invocation measures one scale (tiny, quarter or full —
//! 52,079 nodes) and replaces that scale's entry, leaving the others in
//! place, so the file accumulates the whole sweep:
//!
//! ```sh
//! cargo run --release -p bench --bin engine_bench -- tiny
//! cargo run --release -p bench --bin engine_bench -- quarter
//! cargo run --release -p bench --bin engine_bench -- full
//! ```
//!
//! ## Methodology
//!
//! Every timing is a **median over repeated runs** (3 at tiny/quarter, 1
//! at full, where a single exact sweep is already seconds) of the same
//! closure on a generated topology, measured with a monotonic wall
//! clock. The msbfs-vs-per-source comparison times two implementations
//! of the *same* l-hop computation over the *same* source list:
//!
//! - **per-source** — the pre-msbfs evaluator, reproduced verbatim below
//!   (`per_source_curve`): one arena BFS per source over
//!   `DominatedView`, cumulative histogram per source;
//! - **msbfs** — `brokerset::lhop_curve_parallel`, which orders the
//!   sources by hub (a broker keys on itself, a non-broker on its
//!   highest-degree broker neighbour, ties by vertex id), batches 64
//!   consecutive sources into the bit lanes of a `u64` per adjacency
//!   pass and fans whole lane batches out on `netgraph::par`.
//!
//! At tiny scale the comparison is exact (every vertex a source); at
//! quarter/full it uses a fixed sampled source list so the deliberately
//! slow per-source baseline stays affordable — the *shipping* exact
//! curve is still timed separately (`lhop_exact_*`).
//!
//! Both paths run at each thread count in {1, 2, 0 = all cores}, one
//! JSON row per count with the **resolved** worker count
//! (`threads_resolved`). Rows stop at two threads plus the host's own
//! count: a row that asks for more workers than the host has times
//! oversubscription, not the executor. The exact curve is timed at one
//! thread and at `--threads` (`lhop_parallel_speedup`); threaded
//! timings are recorded, never asserted.
//!
//! ## Acceptance floor
//!
//! - full: MaxSG selection (`select_s`, single-threaded) under
//!   [`FULL_SELECT_FLOOR_S`], enforced (hard assert) on every host and
//!   recorded under `floors`.
//!
//! ## Identity witness
//!
//! `curve_checksum` is an FNV-1a hash over the exact bit patterns of the
//! shipping curve (and the per-source reference counts). The bin asserts
//! the curve is identical across thread counts 1/2/4/7. The
//! quarter-scale value is pinned: `ci.sh` checks it against the
//! committed `BENCH_engine.json` entry, so a change to the engine or its
//! always-on counters that perturbs a result fails there.
//!
//! Usage: `engine_bench [tiny|quarter|full] [seed] [--threads N]
//! [--obs PATH] [--record DIR]`.

use bench::{header, RunConfig};
use brokerset::{max_subgraph_greedy, SourceMode};
use netgraph::{
    fnv1a_words, par, with_arena, DominatedView, FullView, Graph, NodeId, NodeSet, TraversalArena,
};
use std::time::Instant;

/// Full-scale MaxSG selection must finish in under this many seconds.
const FULL_SELECT_FLOOR_S: f64 = 1.0;

/// Median wall-clock seconds over `reps` runs of `f`.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The pre-msbfs exact l-hop evaluator, kept verbatim as the timing
/// baseline: one arena BFS per source, fanned out in the same
/// fixed-size chunks through the same deterministic executor.
fn per_source_curve(
    g: &Graph,
    brokers: &NodeSet,
    max_l: usize,
    sources: &[NodeId],
    threads: usize,
) -> Vec<u64> {
    let parts = par::map_chunks(sources, par::DEFAULT_CHUNK, threads, |chunk| {
        let view = DominatedView::new(g, brokers);
        let mut cum = vec![0u64; max_l];
        with_arena(|arena| {
            for &s in chunk {
                arena.run_bounded(view, s, max_l as u32);
                let hist = arena.distance_histogram(max_l + 1);
                let mut acc = 0u64;
                for (l, slot) in cum.iter_mut().enumerate() {
                    acc += hist[l + 1] as u64;
                    *slot += acc;
                }
            }
        });
        cum
    });
    let mut cum = vec![0u64; max_l];
    for part in parts {
        for (c, p) in cum.iter_mut().zip(part) {
            *c += p;
        }
    }
    cum
}

fn main() {
    let rc = RunConfig::from_args();
    let wall_start = Instant::now();
    let t0 = Instant::now();
    let net = rc.internet();
    let generated_s = t0.elapsed().as_secs_f64();
    let g = net.graph();
    let n = g.node_count();
    header("engine_bench", "traversal engine speedup snapshot");

    let t0 = Instant::now();
    let sel = max_subgraph_greedy(g, rc.budgets(n)[2]);
    let select_s = t0.elapsed().as_secs_f64();
    let threads = par::resolve_threads(rc.threads);
    let hw = par::resolve_threads(0);
    const MAX_L: usize = 6;
    let scale_name = format!("{:?}", rc.scale).to_lowercase();
    let reps = match rc.scale {
        topology::Scale::Tiny | topology::Scale::Quarter => 3,
        topology::Scale::Full => 1,
    };

    // BFS: pooled arena (steady state, zero allocation) vs a fresh arena
    // per run (what every deleted ad-hoc BFS used to pay).
    let sweep = 200.min(n);
    let mut arena = TraversalArena::with_capacity(n);
    let pooled = median_secs(5, || {
        for s in 0..sweep {
            arena.run(FullView::new(g), NodeId(s as u32));
        }
    });
    let fresh = median_secs(5, || {
        for s in 0..sweep {
            let mut a = TraversalArena::new();
            a.run(FullView::new(g), NodeId(s as u32));
        }
    });

    // Exact l-hop curve on the shipping (msbfs) path: the executor's
    // headline fan-out. Timed sequential and at the requested thread
    // count.
    let seq = median_secs(reps, || {
        brokerset::lhop_curve_parallel(g, sel.brokers(), MAX_L, SourceMode::Exact, 1)
    });
    let par_s = median_secs(reps, || {
        brokerset::lhop_curve_parallel(g, sel.brokers(), MAX_L, SourceMode::Exact, threads)
    });
    let lhop_speedup = seq / par_s;

    // msbfs vs per-source over identical sources: exact at tiny, a fixed
    // sampled list at quarter/full (the per-source baseline exists to be
    // slow; sampling keeps the comparison affordable at 52k nodes).
    let cmp_mode = match rc.scale {
        topology::Scale::Tiny => SourceMode::Exact,
        topology::Scale::Quarter => SourceMode::Sampled {
            count: 1024,
            seed: rc.seed ^ 0xbe_ac41,
        },
        topology::Scale::Full => SourceMode::Sampled {
            count: 512,
            seed: rc.seed ^ 0xbe_ac41,
        },
    };
    let cmp_sources = cmp_mode.sources(g.node_count());

    // Correctness before timing: both evaluators must produce the same
    // curve over the comparison sources.
    let reference = per_source_curve(g, sel.brokers(), MAX_L, &cmp_sources, 1);
    let denom = cmp_sources.len() as f64 * (n as f64 - 1.0);
    let reference_fractions: Vec<f64> = reference.iter().map(|&c| c as f64 / denom).collect();
    let shipping = brokerset::lhop_curve_parallel(g, sel.brokers(), MAX_L, cmp_mode, 1);
    assert_eq!(
        shipping.fractions, reference_fractions,
        "msbfs l-hop curve diverged from the per-source reference"
    );

    // Bit-identity across thread counts 1/2/4/7 (and the requested
    // count), pinned on the exact shipping curve.
    let exact_base =
        par::assert_thread_invariant(par::SWEEP.into_iter().chain([rc.threads]), |t| {
            brokerset::lhop_curve_parallel(g, sel.brokers(), MAX_L, SourceMode::Exact, t)
        });

    let curve_checksum = fnv1a_words(
        exact_base
            .fractions
            .iter()
            .map(|f| f.to_bits())
            .chain(reference.iter().copied()),
    );
    println!("  curve_checksum: {curve_checksum:016x} (must match across threads)");

    let mut rows = Vec::new();
    println!(
        "  l-hop, msbfs vs per-source (max_l = {MAX_L}, {} sources):",
        cmp_sources.len()
    );
    for &t in &[1usize, 2, 0] {
        let resolved = par::resolve_threads(t);
        let per_source = median_secs(reps, || {
            per_source_curve(g, sel.brokers(), MAX_L, &cmp_sources, t)
        });
        let msbfs = median_secs(reps, || {
            brokerset::lhop_curve_parallel(g, sel.brokers(), MAX_L, cmp_mode, t)
        });
        let speedup = per_source / msbfs;
        println!(
            "    threads {t} ({resolved:2} workers)  per-source {per_source:.4}s  msbfs {msbfs:.4}s  speedup {speedup:.2}x"
        );
        rows.push(serde_json::json!({
            "threads": t,
            "threads_resolved": resolved,
            "lhop_per_source_s": per_source,
            "lhop_msbfs_s": msbfs,
            "msbfs_speedup": speedup,
        }));
    }
    let msbfs_par_speedup = rows
        .iter()
        .find(|r| r["threads"] == 0)
        .map(|r| r["msbfs_speedup"].as_f64().unwrap_or(0.0))
        .unwrap_or(0.0);

    // The single-thread acceptance floor, enforced on every host.
    let mut floors = Vec::new();
    if matches!(rc.scale, topology::Scale::Full) {
        assert!(
            select_s < FULL_SELECT_FLOOR_S,
            "full-scale MaxSG selection took {select_s:.3}s, floor is {FULL_SELECT_FLOOR_S}s"
        );
        floors.push(serde_json::json!({
            "metric": "select_s",
            "below": FULL_SELECT_FLOOR_S,
            "measured": select_s,
        }));
    }

    let bfs_speedup = fresh / pooled;
    println!("  bfs {sweep}-source sweep   pooled {pooled:.4}s  fresh {fresh:.4}s  speedup {bfs_speedup:.2}x");
    println!(
        "  exact l-hop curve     seq {seq:.4}s  par({threads}) {par_s:.4}s  speedup {lhop_speedup:.2}x"
    );

    let entry = serde_json::json!({
        "scale": scale_name.as_str(),
        "seed": rc.seed,
        "nodes": n,
        "brokers": sel.len(),
        "threads": rc.threads,
        "threads_resolved": threads,
        "generated_s": generated_s,
        "select_s": select_s,
        "bfs_sweep_sources": sweep,
        "bfs_pooled_s": pooled,
        "bfs_fresh_s": fresh,
        "bfs_pooled_speedup": bfs_speedup,
        "lhop_exact_seq_s": seq,
        "lhop_exact_par_s": par_s,
        "lhop_parallel_speedup": lhop_speedup,
        "hardware_threads": hw,
        "floors": floors,
        "compare_sources": cmp_sources.len(),
        "lhop_rows": rows,
        "msbfs_vs_per_source_par_speedup": msbfs_par_speedup,
        "curve_checksum": format!("{curve_checksum:016x}"),
        "wall_s_total": wall_start.elapsed().as_secs_f64(),
    });

    // Read-modify-write the scales array: replace this scale's entry,
    // keep the others, order by node count.
    let path = std::path::Path::new("BENCH_engine.json");
    let mut scales: Vec<serde_json::Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|v| {
            v.get("scales")
                .and_then(|s| s.as_array().map(|a| a.to_vec()))
        })
        .unwrap_or_default();
    scales.retain(|s| s["scale"] != scale_name.as_str());
    scales.push(entry.clone());
    scales.sort_by_key(|s| s["nodes"].as_u64().unwrap_or(0));
    let doc = serde_json::json!({
        "id": "engine_bench",
        "scales": scales,
    });
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench record");
    std::fs::write(path, json).expect("write BENCH_engine.json");
    println!(
        "  wrote {} ({} scale entries)",
        path.display(),
        doc["scales"].as_array().map_or(0, |a| a.len())
    );
    rc.record("engine_bench", entry)
        .expect("--record write failed");
    rc.dump_obs("engine_bench").expect("--obs write failed");
}
