//! Correctness suite for `netgraph::obs`: bucket math, counter wrap
//! semantics, snapshot determinism under the parallel executor, and the
//! exact values of the counters that summarize per-vertex work.
//!
//! Registry-touching tests serialize through [`REG_LOCK`] because metrics
//! are process-global and `cargo test` runs tests concurrently within
//! this binary.

use netgraph::graph::from_edges;
use netgraph::obs;
use netgraph::{msbfs, par, FullView, Graph, NodeId, NodeSet};
use routing::valleyfree::ReachOptions;
use routing::{valley_free_path, valley_free_reach, PolicyGraph};
use std::sync::Mutex;
use topology::{InternetConfig, Scale};

/// Serializes tests that reset / read the global metrics registry.
static REG_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    REG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A ring plus chords: large enough for several BFS levels, and dense
/// enough mid-run that `Direction::Auto` switches to bottom-up pull.
fn ring_with_chords(n: usize) -> Graph {
    from_edges(
        n,
        (0..n as u32).flat_map(|i| {
            [
                (NodeId(i), NodeId((i + 1) % n as u32)),
                (NodeId(i), NodeId((i + 7) % n as u32)),
            ]
        }),
    )
}

#[test]
fn bucket_boundaries_are_log2() {
    // Bucket 0 is the exact-zero bucket; bucket i >= 1 spans
    // [2^(i-1), 2^i - 1].
    assert_eq!(obs::bucket_index(0), 0);
    assert_eq!(obs::bucket_index(1), 1);
    assert_eq!(obs::bucket_index(2), 2);
    assert_eq!(obs::bucket_index(3), 2);
    assert_eq!(obs::bucket_index(4), 3);
    assert_eq!(obs::bucket_index(7), 3);
    assert_eq!(obs::bucket_index(8), 4);
    assert_eq!(obs::bucket_index(u64::MAX), 64);
    for i in 0..obs::HISTOGRAM_BUCKETS {
        let low = obs::bucket_low(i);
        assert_eq!(obs::bucket_index(low), i, "lower bound of bucket {i}");
        if i >= 1 {
            // The value just below the bound belongs to the previous bucket.
            assert_eq!(obs::bucket_index(low - 1), i - 1, "below bucket {i}");
        }
    }
}

#[test]
fn macros_expand_to_unit() {
    // counter! and histogram! evaluate to `()`; span! yields a guard.
    let () = netgraph::counter!("obs_test.unit");
    let () = netgraph::counter!("obs_test.unit", 3);
    let () = netgraph::histogram!("obs_test.unit_hist", 5);
    let _guard = netgraph::span!("obs_test.unit_span");
}

#[test]
fn counter_wraps_on_overflow() {
    let _g = lock();
    obs::reset();
    let () = netgraph::counter!("obs_test.overflow", u64::MAX);
    let () = netgraph::counter!("obs_test.overflow", 2);
    // fetch_add wraps: MAX + 2 == 1.
    assert_eq!(obs::snapshot().counter("obs_test.overflow"), Some(1));
}

#[test]
fn histogram_records_land_in_documented_buckets() {
    let _g = lock();
    obs::reset();
    for v in [0u64, 1, 1, 3, 8, 1023] {
        let () = netgraph::histogram!("obs_test.hist", v);
    }
    let snap = obs::snapshot();
    let h = snap
        .histogram("obs_test.hist")
        .expect("histogram registered");
    assert_eq!(h.count, 6);
    assert_eq!(h.sum, 1036, "sum of 0 + 1 + 1 + 3 + 8 + 1023");
    let bucket = |low: u64| {
        h.buckets
            .iter()
            .find(|b| b.low == low)
            .map_or(0, |b| b.count)
    };
    assert_eq!(bucket(0), 1, "the zero sample");
    assert_eq!(bucket(1), 2, "the two 1s");
    assert_eq!(bucket(2), 1, "3 lands in [2, 3]");
    assert_eq!(bucket(8), 1, "8 lands in [8, 15]");
    assert_eq!(bucket(512), 1, "1023 lands in [512, 1023]");
    // Only non-empty buckets are reported, ascending by lower bound.
    assert_eq!(h.buckets.len(), 5);
    assert!(h.buckets.windows(2).all(|w| w[0].low < w[1].low));
    assert!((h.mean() - 1036.0 / 6.0).abs() < 1e-9);
}

/// The same msbfs + par workload at every thread count must produce the
/// same thread-count-invariant counters: the executor's chunking is
/// fixed, so work-shaped metrics may not depend on worker count.
#[test]
fn snapshot_counters_are_thread_count_invariant() {
    let _g = lock();
    let n = 256;
    let g = ring_with_chords(n);
    let sources: Vec<NodeId> = g.nodes().collect();

    let run = |threads: usize| {
        obs::reset();
        let totals = par::map_chunks(&sources, msbfs::LANES, threads, |batch| {
            msbfs::with_msbfs(|arena| arena.run(FullView::new(&g), batch, u32::MAX, |_| {}))
        });
        let total: u64 = totals.iter().sum();
        assert_eq!(total, (n * n) as u64, "every lane reaches every vertex");
        let snap = obs::snapshot();
        [
            "msbfs.runs",
            "msbfs.levels",
            "msbfs.push_expansions",
            "msbfs.pull_expansions",
            "par.jobs",
            "par.chunks",
        ]
        .map(|name| snap.counter(name))
    };

    let base = run(1);
    assert_eq!(base[0], Some((n / msbfs::LANES) as u64), "msbfs.runs");
    assert_eq!(base[5], Some((n / msbfs::LANES) as u64), "par.chunks");
    assert!(base[1].unwrap_or(0) > 0, "levels counted");
    for threads in [2usize, 4, 7] {
        assert_eq!(run(threads), base, "threads = {threads}");
    }
}

/// `msbfs.pull_expansions` is the number of vertices the bottom-up
/// levels gather for. The value is pinned from the per-vertex count the
/// kernel kept before it was folded into the pull loop.
#[test]
fn pull_expansions_are_pinned() {
    let _g = lock();
    let g = ring_with_chords(1000);
    let sources: Vec<NodeId> = g.nodes().step_by(16).take(msbfs::LANES).collect();
    obs::reset();
    msbfs::with_msbfs(|arena| arena.run(FullView::new(&g), &sources, u32::MAX, |_| {}));
    let snap = obs::snapshot();
    assert_eq!(snap.counter("msbfs.pull_expansions"), Some(71878));
    assert_eq!(snap.counter("msbfs.push_expansions"), Some(63));
}

/// `valleyfree.state_expansions` is the number of `(vertex, phase)`
/// states whose out-edges `valley_free_reach` and `valley_free_path`
/// walk. The value is pinned from the per-state count the view kept
/// before it moved to one add per traversal; the workload covers
/// unbounded, hop-bounded and broker-dominated reach, and paths that
/// hit, start at their target, or find nothing.
#[test]
fn valley_free_state_expansions_are_pinned() {
    let _g = lock();
    let net = InternetConfig::scaled(Scale::Tiny).generate(7);
    let pg = PolicyGraph::new(&net);
    let n = net.graph().node_count();
    let brokers = NodeSet::from_iter_with_capacity(n, net.graph().nodes().step_by(5));
    let sources: Vec<NodeId> = net.graph().nodes().step_by(n / 12).collect();
    obs::reset();
    let mut found = 0;
    let mut missed = 0;
    for &src in &sources {
        valley_free_reach(&pg, src, ReachOptions::default());
        valley_free_reach(
            &pg,
            src,
            ReachOptions {
                max_hops: Some(2),
                ..ReachOptions::default()
            },
        );
        valley_free_reach(
            &pg,
            src,
            ReachOptions {
                brokers: Some(&brokers),
                ..ReachOptions::default()
            },
        );
        for &dst in &sources {
            match valley_free_path(&pg, src, dst) {
                Some(_) => found += 1,
                None => missed += 1,
            }
        }
    }
    assert!(
        found > sources.len() && missed > 0,
        "{found} found, {missed} missed"
    );
    let snap = obs::snapshot();
    assert_eq!(snap.counter("valleyfree.state_expansions"), Some(37683));
}

#[test]
fn snapshot_json_is_deterministic_and_wellformed() {
    let _g = lock();
    obs::reset();
    let () = netgraph::counter!("obs_test.json_b", 2);
    let () = netgraph::counter!("obs_test.json_a", 1);
    let () = netgraph::histogram!("obs_test.json_h", 9);
    let a = obs::snapshot();
    let b = obs::snapshot();
    assert_eq!(a, b, "back-to-back snapshots of quiescent state agree");
    assert_eq!(a.to_json(), b.to_json());
    // Merged-by-name output is name-sorted regardless of record order.
    let names: Vec<&str> = a
        .counters
        .iter()
        .map(|c| c.name.as_str())
        .filter(|n| n.starts_with("obs_test.json"))
        .collect();
    assert_eq!(names, ["obs_test.json_a", "obs_test.json_b"]);
    // The emitted JSON must parse with the workspace JSON reader.
    let parsed: serde_json::Value =
        serde_json::from_str(&a.to_json()).expect("snapshot JSON parses");
    assert_eq!(parsed["counters"]["obs_test.json_a"].as_u64(), Some(1));
    assert_eq!(
        parsed["histograms"]["obs_test.json_h"]["count"].as_u64(),
        Some(1)
    );
}

#[test]
fn reset_zeroes_but_keeps_registration() {
    let _g = lock();
    obs::reset();
    let () = netgraph::counter!("obs_test.reset_me", 41);
    obs::reset();
    // Still listed (the name survives), but back to zero.
    assert_eq!(obs::snapshot().counter("obs_test.reset_me"), Some(0));
}
