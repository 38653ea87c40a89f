//! Property tests of the l-hop curve over many msbfs lane batches.
//!
//! `lhop_curve_parallel` evaluates its sources in hub order, 64 to a
//! batch, and computes per-source finals only for a partial sample. Its
//! curve must still equal, bit for bit, a plain loop of one bounded
//! arena BFS per source in sample order (the pre-msbfs evaluator that
//! engine_bench times as its baseline):
//!
//! - exact `fractions` equal the oracle's cumulative pair counts over
//!   `n (n − 1)`, and the exact standard error is `Some(0.0)`;
//! - sampled `fractions` and `std_error` equal the oracle's over the
//!   same sample, with the finals summed in sample order.
//!
//! Graphs have 65 to 300 vertices plus up to 15 isolated ones, so every
//! exact curve spans several batches and the lane order is exercised.
//! Broker sets are empty, everything, or a random subset.

use brokerset::connectivity::{sample_std_error, LhopCurve};
use brokerset::{lhop_curve_parallel, SourceMode};
use netgraph::{
    barabasi_albert, erdos_renyi_gnm, with_arena, DominatedView, Graph, GraphBuilder, NodeId,
    NodeSet,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random ER (`kind` 0) or BA (`kind` 1) graph on `n` vertices with
/// `iso` isolated vertices appended, and a broker set that is empty
/// (`b_kind` 0), every vertex (1), or each vertex with probability
/// `b_pct` % (2).
fn instance(
    n: usize,
    kind: u8,
    density: usize,
    iso: usize,
    b_kind: u8,
    b_pct: u32,
    seed: u64,
) -> (Graph, NodeSet) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = if kind == 0 {
        erdos_renyi_gnm(n, density * n, &mut rng)
    } else {
        barabasi_albert(n, density, &mut rng)
    };
    let total = n + iso;
    let mut b = GraphBuilder::new(total);
    for (u, v) in base.edges() {
        b.add_edge(u, v);
    }
    let g = b.build();
    let brokers = match b_kind {
        0 => NodeSet::new(total),
        1 => NodeSet::full(total),
        _ => NodeSet::from_iter_with_capacity(
            total,
            g.nodes().filter(|_| rng.gen_range(0..100u32) < b_pct),
        ),
    };
    (g, brokers)
}

/// The per-source oracle: one bounded arena BFS per source over the
/// dominated view, in `sources` order. Returns the cumulative pair
/// counts and each source's final reach fraction.
fn per_source(
    g: &Graph,
    brokers: &NodeSet,
    max_l: usize,
    sources: &[NodeId],
) -> (Vec<u64>, Vec<f64>) {
    let n = g.node_count();
    let view = DominatedView::new(g, brokers);
    let mut cum = vec![0u64; max_l];
    let mut finals = Vec::with_capacity(sources.len());
    with_arena(|arena| {
        for &s in sources {
            arena.run_bounded(view, s, max_l as u32);
            let hist = arena.distance_histogram(max_l + 1);
            let mut acc = 0u64;
            for (l, slot) in cum.iter_mut().enumerate() {
                acc += hist[l + 1] as u64;
                *slot += acc;
            }
            finals.push(acc as f64 / (n as f64 - 1.0));
        }
    });
    (cum, finals)
}

/// The curve the oracle implies for `mode`.
fn oracle_curve(g: &Graph, brokers: &NodeSet, max_l: usize, mode: SourceMode) -> LhopCurve {
    let n = g.node_count();
    let sources = mode.sources(n);
    let (cum, finals) = per_source(g, brokers, max_l, &sources);
    let denom = sources.len() as f64 * (n as f64 - 1.0);
    LhopCurve {
        fractions: cum.iter().map(|&c| c as f64 / denom).collect(),
        std_error: sample_std_error(&finals, n),
        sources: sources.len(),
    }
}

/// A curve as bit patterns, so `0.0` vs `-0.0` or a NaN would show.
fn bits(c: &LhopCurve) -> (Vec<u64>, Option<u64>, usize) {
    (
        c.fractions.iter().map(|f| f.to_bits()).collect(),
        c.std_error.map(f64::to_bits),
        c.sources,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact curves over several batches equal the per-source oracle
    /// bit for bit, at one thread and at three.
    #[test]
    fn exact_curve_matches_per_source_oracle(n in 65usize..=300,
                                             kind in 0u8..2,
                                             density in 1usize..4,
                                             iso in 0usize..16,
                                             b_kind in 0u8..3,
                                             b_pct in 1u32..40,
                                             max_l in 1usize..7,
                                             seed in 0u64..1_000_000) {
        let (g, brokers) = instance(n, kind, density, iso, b_kind, b_pct, seed);
        let want = bits(&oracle_curve(&g, &brokers, max_l, SourceMode::Exact));
        prop_assert_eq!(want.1, Some(0.0f64.to_bits()));
        for threads in [1, 3] {
            let got = lhop_curve_parallel(&g, &brokers, max_l, SourceMode::Exact, threads);
            prop_assert_eq!(&bits(&got), &want, "threads {}", threads);
        }
    }

    /// Sampled curves equal the oracle over the same sample: fractions,
    /// and the standard error summed in sample order, bit for bit.
    #[test]
    fn sampled_curve_matches_per_source_oracle(n in 65usize..=300,
                                               kind in 0u8..2,
                                               density in 1usize..4,
                                               iso in 0usize..16,
                                               b_kind in 0u8..3,
                                               b_pct in 1u32..40,
                                               max_l in 1usize..7,
                                               count in 1usize..400,
                                               seed in 0u64..1_000_000) {
        let (g, brokers) = instance(n, kind, density, iso, b_kind, b_pct, seed);
        let mode = SourceMode::Sampled { count, seed: seed ^ 0x5eed };
        let want = bits(&oracle_curve(&g, &brokers, max_l, mode));
        for threads in [1, 3] {
            let got = lhop_curve_parallel(&g, &brokers, max_l, mode, threads);
            prop_assert_eq!(&bits(&got), &want, "threads {}", threads);
        }
    }
}
