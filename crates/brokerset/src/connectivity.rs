//! l-hop and saturated E2E connectivity under B-dominating paths.
//!
//! A path is **B-dominating** when every hop (edge) has at least one
//! endpoint in the broker set `B`. The paper evaluates a candidate set by
//! the operator `B_A · A` — erase every adjacency entry whose row *and*
//! column lie outside `B` — and counts nonzero entries of its powers
//! (Section 5.2). The surviving edge set is exactly
//! `E_B = {(u, v) ∈ E : u ∈ B ∨ v ∈ B}`, so instead of matrix powers we
//! run BFS over `E_B`:
//!
//! - **saturated connectivity** (l → ∞) — connected components of
//!   `(V, E_B)`, `O(|V| + |E|)`;
//! - **l-hop curves** `F_B(l)` — one hop-bounded BFS per source, run 64
//!   sources at a time as the lanes of a bit-parallel [`msbfs`] batch
//!   with sources that share a hub, either exact (all sources) or
//!   estimated from a uniform source sample with the standard error
//!   reported.

use netgraph::components::Components;
use netgraph::{
    msbfs, par, with_msbfs, DominatedView, Graph, GraphView, NodeId, NodeSet, UnionFind,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// How to choose BFS sources for l-hop evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceMode {
    /// Every vertex is a source: exact but `O(n(n + m))`.
    Exact,
    /// A uniform sample of sources (without replacement), seeded for
    /// reproducibility. Curves are unbiased estimates.
    Sampled {
        /// Number of source vertices.
        count: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Saturated-connectivity summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectivityReport {
    /// Fraction of ordered vertex pairs `(u, v)`, `u ≠ v`, joined by some
    /// B-dominating path (the paper's "saturated E2E connectivity").
    pub fraction: f64,
    /// Number of connected ordered pairs.
    pub connected_pairs: u64,
    /// All ordered pairs `n(n − 1)`.
    pub total_pairs: u64,
    /// Size of the largest component of the dominated edge graph.
    pub giant: usize,
    /// Number of brokers evaluated.
    pub broker_count: usize,
}

impl SourceMode {
    /// Resolve the mode into the concrete BFS source list over the
    /// vertices `0..n`.
    pub fn sources(self, n: usize) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = (0..n).map(NodeId::from).collect();
        if let SourceMode::Sampled { count, seed } = self {
            all.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
            all.truncate(count.max(1).min(n));
        }
        all
    }
}

/// One-sigma standard error of the mean of a without-replacement source
/// sample: Bessel-corrected sample variance with the finite-population
/// correction `(1 - m/n)`.
///
/// Returns `Some(0.0)` when the sample is exhaustive (`m == population`)
/// and `None` for a single sample — the error is unknowable there, and
/// `serde_json` would serialize the old `f64::INFINITY` sentinel as
/// `null` anyway, so the option is the honest (and round-trippable)
/// encoding.
pub fn sample_std_error(values: &[f64], population: usize) -> Option<f64> {
    let m = values.len();
    if m >= population {
        return Some(0.0);
    }
    if m < 2 {
        return None;
    }
    let mean = values.iter().sum::<f64>() / m as f64;
    let var = values.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (m - 1) as f64;
    let fpc = 1.0 - m as f64 / population as f64;
    Some((var * fpc / m as f64).sqrt())
}

/// Level-synchronous BFS over `view` from `sources`, returning the
/// cumulative reach histogram (`cum[l]` = total vertices reached within
/// `l + 1` hops, summed over sources). When `finals` is given, each
/// source's final reach fraction is appended to it in source order.
///
/// Sources are traversed in 64-lane [`msbfs`] batches: one adjacency
/// pass per level serves 64 sources at once, which is what makes
/// [`SourceMode::Exact`] affordable beyond toy scales. All accumulated
/// quantities are per-level set cardinalities (integers), so the result
/// is byte-identical to the historical one-arena-BFS-per-source loop,
/// and the order of `sources` and their batch boundaries are invisible
/// in `cum`: each lane only ever contributes its own counts. A final is
/// a per-source division of that source's own count. Only a sampled
/// curve's standard error reads finals, so other callers pass `None` and
/// skip their per-batch sweep over the lane masks.
pub(crate) fn run_sources_over<V: GraphView + Copy>(
    view: V,
    n: usize,
    max_l: usize,
    sources: &[NodeId],
    mut finals: Option<&mut Vec<f64>>,
) -> Vec<u64> {
    netgraph::counter!("connectivity.sources_evaluated", sources.len() as u64);
    let mut cum = vec![0u64; max_l];
    with_msbfs(|arena| {
        for batch in sources.chunks(msbfs::LANES) {
            // level_pairs[l] = pairs first connected at exactly l + 1
            // hops, summed over the batch's lanes (level 0 is each
            // source discovering itself, excluded from pair counts).
            let mut level_pairs = vec![0u64; max_l];
            arena.run(view, batch, max_l as u32, |wf| {
                let l = wf.level() as usize;
                if l >= 1 {
                    level_pairs[l - 1] += wf.new_pairs();
                }
            });
            let mut acc = 0u64;
            for (slot, &pairs) in cum.iter_mut().zip(&level_pairs) {
                acc += pairs;
                *slot += acc;
            }
            if let Some(finals) = finals.as_deref_mut() {
                let reach = arena.lane_reach();
                for &r in reach.iter().take(batch.len()) {
                    let acc = u64::from(r.saturating_sub(1));
                    finals.push(acc as f64 / (n as f64 - 1.0));
                }
            }
        }
    });
    cum
}

/// The order [`lhop_curve_parallel`] evaluates `sources` in, as positions
/// into `sources`: grouped by hub, so that the 64 lanes of a batch share
/// most of their dominated-edge ball and each level's adjacency pass
/// serves them together.
///
/// A broker keys on itself. A non-broker's dominated edges all lead to
/// brokers, so it keys on its highest-degree broker neighbour (the
/// smallest id among equals), or on `u32::MAX` when it has none. Equal
/// keys order by vertex id. The order depends on the graph, the broker
/// set and the sample only, never on the thread count.
fn hub_order(g: &Graph, brokers: &NodeSet, sources: &[NodeId]) -> Vec<u32> {
    let key: Vec<u32> = g
        .nodes()
        .map(|v| {
            if brokers.contains(v) {
                return v.0;
            }
            g.neighbors(v)
                .iter()
                .filter(|&&b| brokers.contains(b))
                .max_by_key(|&&b| (g.degree(b), Reverse(b.0)))
                .map_or(u32::MAX, |b| b.0)
        })
        .collect();
    let mut order: Vec<u32> = (0..sources.len() as u32).collect();
    order.sort_unstable_by_key(|&p| {
        let s = sources[p as usize];
        (key[s.index()], s.0)
    });
    order
}

/// Connected components of `(V, E_B)` where
/// `E_B = {(u, v) : u ∈ B ∨ v ∈ B}`.
pub fn dominated_components(g: &Graph, brokers: &NodeSet) -> Components {
    let mut uf = UnionFind::new(g.node_count());
    for b in brokers.iter() {
        for &v in g.neighbors(b) {
            uf.union(b.index(), v.index());
        }
    }
    uf.into_components()
}

/// Saturated E2E connectivity of a broker set (the l → ∞ value the
/// paper's headline 53.14 / 85.41 / 99.29 % numbers refer to).
pub fn saturated_connectivity(g: &Graph, brokers: &NodeSet) -> ConnectivityReport {
    let n = g.node_count() as u64;
    let comps = dominated_components(g, brokers);
    let connected = comps.connected_ordered_pairs();
    let total = n.saturating_mul(n.saturating_sub(1));
    ConnectivityReport {
        fraction: if total == 0 {
            0.0
        } else {
            connected as f64 / total as f64
        },
        connected_pairs: connected,
        total_pairs: total,
        giant: comps.giant().map_or(0, |(_, s)| s),
        broker_count: brokers.len(),
    }
}

/// An l-hop connectivity curve: `curve[l - 1]` = (estimated) fraction of
/// ordered pairs joined by a B-dominating path of length ≤ l.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LhopCurve {
    /// Cumulative fractions for l = 1 ..= max_l.
    pub fractions: Vec<f64>,
    /// One-sigma error of the final point: `Some(0.0)` for exact
    /// evaluation, `None` when unknowable (single-source samples).
    pub std_error: Option<f64>,
    /// Sources used.
    pub sources: usize,
}

impl LhopCurve {
    /// Fraction at hop bound `l` (1-based); saturates at the last value.
    pub fn at(&self, l: usize) -> f64 {
        if self.fractions.is_empty() || l == 0 {
            0.0
        } else {
            self.fractions[(l - 1).min(self.fractions.len() - 1)]
        }
    }
}

/// Compute `F_B(l)` for `l = 1 ..= max_l`:
/// [`lhop_curve_parallel`] on one thread.
///
/// With `brokers = NodeSet::full(n)` this degenerates to the free-path
/// curve ("ASesWithIXPs" in Fig. 2b / Table 3).
pub fn lhop_curve(g: &Graph, brokers: &NodeSet, max_l: usize, mode: SourceMode) -> LhopCurve {
    lhop_curve_parallel(g, brokers, max_l, mode, 1)
}

/// Compute `F_B(l)` for `l = 1 ..= max_l` on `threads` workers
/// (`0` = all hardware threads) via [`netgraph::par`]; the result is
/// *bit-identical* at every thread count.
///
/// Sources are evaluated in hub order: a broker keys on its own id, a
/// non-broker on its highest-degree broker neighbour, and equal keys go
/// by vertex id. The fan-out unit is one msbfs **lane batch** of 64
/// consecutive sources in that order, so every work item feeds the
/// 64-lane kernel a full batch of sources that share a hub. Batch
/// boundaries are fixed by the order and
/// [`msbfs::LANES`] (never by `threads`), and the cumulative histogram
/// merge is integer-additive, so the result is invariant both to the
/// thread count *and* to how batches are grouped into executor chunks,
/// which makes [`par::adaptive_chunk`] sizing safe here. A partial
/// sample's per-source finals, which feed its standard error, are put
/// back in sample order before [`sample_std_error`] sums them. Worker
/// panics propagate to the caller.
pub fn lhop_curve_parallel(
    g: &Graph,
    brokers: &NodeSet,
    max_l: usize,
    mode: SourceMode,
    threads: usize,
) -> LhopCurve {
    let n = g.node_count();
    if n < 2 || max_l == 0 {
        return LhopCurve {
            fractions: vec![0.0; max_l],
            std_error: Some(0.0),
            sources: 0,
        };
    }
    let sources = mode.sources(n);
    let n_sources = sources.len();
    // The standard error of an exhaustive evaluation is 0 whatever the
    // finals hold, so only a partial sample computes them.
    let want_finals = n_sources < n;
    let order = hub_order(g, brokers, &sources);
    let view = DominatedView::new(g, brokers);
    let batches_per_chunk = par::adaptive_chunk(n_sources.div_ceil(msbfs::LANES), threads);
    let (cum, finals) = par::map_reduce(
        &order,
        batches_per_chunk * msbfs::LANES,
        threads,
        |chunk| {
            let mut cum = vec![0u64; max_l];
            let mut finals = Vec::new();
            let mut lanes = [NodeId(0); msbfs::LANES];
            for batch in chunk.chunks(msbfs::LANES) {
                for (lane, &p) in lanes.iter_mut().zip(batch) {
                    *lane = sources[p as usize];
                }
                let batch_cum = run_sources_over(
                    view,
                    n,
                    max_l,
                    &lanes[..batch.len()],
                    want_finals.then_some(&mut finals),
                );
                for (acc, c) in cum.iter_mut().zip(batch_cum) {
                    *acc += c;
                }
            }
            (cum, finals)
        },
        (vec![0u64; max_l], Vec::new()),
        |(mut cum, mut finals), (partial_cum, partial_finals)| {
            for (acc, c) in cum.iter_mut().zip(partial_cum) {
                *acc += c;
            }
            finals.extend(partial_finals);
            (cum, finals)
        },
    );

    let denom = n_sources as f64 * (n as f64 - 1.0);
    let fractions: Vec<f64> = cum.iter().map(|&c| c as f64 / denom).collect();
    let std_error = if want_finals {
        let mut in_sample_order = vec![0.0; n_sources];
        for (&p, f) in order.iter().zip(finals) {
            in_sample_order[p as usize] = f;
        }
        sample_std_error(&in_sample_order, n)
    } else {
        Some(0.0)
    };
    LhopCurve {
        fractions,
        std_error,
        sources: n_sources,
    }
}

/// Check whether a specific path is B-dominating: every consecutive hop
/// has an endpoint in `brokers` (and every hop is an actual edge).
pub fn is_dominating_path(g: &Graph, brokers: &NodeSet, path: &[NodeId]) -> bool {
    if path.is_empty() {
        return false;
    }
    path.windows(2)
        .all(|w| g.has_edge(w[0], w[1]) && (brokers.contains(w[0]) || brokers.contains(w[1])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;

    fn path_graph(n: u32) -> Graph {
        from_edges(n as usize, (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))))
    }

    fn set(capacity: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_iter_with_capacity(capacity, ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn middle_broker_dominates_short_path() {
        // 0-1-2: B = {1} dominates both edges.
        let g = path_graph(3);
        let r = saturated_connectivity(&g, &set(3, &[1]));
        assert_eq!(r.fraction, 1.0);
        assert_eq!(r.connected_pairs, 6);
        assert_eq!(r.giant, 3);
    }

    #[test]
    fn adjacent_nonbrokers_are_cut() {
        // 0-1-2-3: B = {1}: edge 2-3 undominated -> 3 isolated.
        let g = path_graph(4);
        let r = saturated_connectivity(&g, &set(4, &[1]));
        assert_eq!(r.giant, 3);
        assert_eq!(r.connected_pairs, 6);
        assert!((r.fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_broker_set_disconnects_everything() {
        let g = path_graph(4);
        let r = saturated_connectivity(&g, &NodeSet::new(4));
        assert_eq!(r.fraction, 0.0);
        assert_eq!(r.giant, 1);
    }

    #[test]
    fn full_broker_set_equals_plain_connectivity() {
        let g = path_graph(5);
        let r = saturated_connectivity(&g, &NodeSet::full(5));
        assert_eq!(r.fraction, 1.0);
    }

    #[test]
    fn lhop_curve_exact_on_path() {
        // 0-1-2-3 all brokers: distances known.
        let g = path_graph(4);
        let curve = lhop_curve(&g, &NodeSet::full(4), 3, SourceMode::Exact);
        // l=1: 6 ordered pairs of 12; l=2: 10; l=3: 12.
        assert!((curve.at(1) - 0.5).abs() < 1e-12);
        assert!((curve.at(2) - 10.0 / 12.0).abs() < 1e-12);
        assert!((curve.at(3) - 1.0).abs() < 1e-12);
        assert!((curve.at(99) - 1.0).abs() < 1e-12); // saturates
        assert_eq!(curve.std_error, Some(0.0));
    }

    #[test]
    fn lhop_respects_domination() {
        // 0-1-2-3, B = {1}: from 0 reach 1 (l=1), 2 (l=2); never 3.
        let g = path_graph(4);
        let curve = lhop_curve(&g, &set(4, &[1]), 5, SourceMode::Exact);
        // Connected ordered pairs among {0,1,2}: 6 of 12 total.
        assert!((curve.at(5) - 0.5).abs() < 1e-12);
        let sat = saturated_connectivity(&g, &set(4, &[1]));
        assert!((curve.at(5) - sat.fraction).abs() < 1e-12);
    }

    #[test]
    fn lhop_monotone_and_bounded() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let g = netgraph::barabasi_albert(120, 3, &mut rng);
        let b = crate::greedy::greedy_mcb(&g, 10);
        let curve = lhop_curve(&g, b.brokers(), 6, SourceMode::Exact);
        for w in curve.fractions.windows(2) {
            assert!(w[1] >= w[0] - 1e-15);
        }
        assert!(curve.at(6) <= 1.0 + 1e-12);
    }

    #[test]
    fn sampled_close_to_exact() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let g = netgraph::barabasi_albert(400, 3, &mut rng);
        let b = crate::greedy::greedy_mcb(&g, 25);
        let exact = lhop_curve(&g, b.brokers(), 5, SourceMode::Exact);
        let sampled = lhop_curve(
            &g,
            b.brokers(),
            5,
            SourceMode::Sampled {
                count: 150,
                seed: 9,
            },
        );
        assert!(
            (exact.at(5) - sampled.at(5)).abs() < 0.05,
            "exact {} sampled {}",
            exact.at(5),
            sampled.at(5)
        );
        assert!(sampled.std_error.is_some_and(|se| se > 0.0));
        assert_eq!(sampled.sources, 150);
    }

    #[test]
    fn sampled_curve_deterministic() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let g = netgraph::barabasi_albert(200, 2, &mut rng);
        let b = crate::greedy::greedy_mcb(&g, 10);
        let mode = SourceMode::Sampled { count: 50, seed: 3 };
        assert_eq!(
            lhop_curve(&g, b.brokers(), 4, mode),
            lhop_curve(&g, b.brokers(), 4, mode)
        );
    }

    #[test]
    fn saturated_equals_lhop_limit() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let g = netgraph::erdos_renyi_gnm(80, 160, &mut rng);
        let b = crate::greedy::greedy_mcb(&g, 8);
        let sat = saturated_connectivity(&g, b.brokers());
        let curve = lhop_curve(&g, b.brokers(), 80, SourceMode::Exact);
        assert!((sat.fraction - curve.at(80)).abs() < 1e-12);
    }

    #[test]
    fn dominating_path_checks() {
        let g = path_graph(4);
        let b = set(4, &[1]);
        assert!(is_dominating_path(
            &g,
            &b,
            &[NodeId(0), NodeId(1), NodeId(2)]
        ));
        // Hop 2-3 has no broker endpoint.
        assert!(!is_dominating_path(
            &g,
            &b,
            &[NodeId(1), NodeId(2), NodeId(3)]
        ));
        // Not an edge.
        assert!(!is_dominating_path(&g, &b, &[NodeId(0), NodeId(2)]));
        // Empty path is not a path.
        assert!(!is_dominating_path(&g, &b, &[]));
        // Singleton is trivially dominating.
        assert!(is_dominating_path(&g, &b, &[NodeId(3)]));
    }

    #[allow(clippy::needless_range_loop)]
    /// Literal implementation of the paper's Section 5.2 operator: erase
    /// adjacency entries whose row AND column are outside B, then count
    /// nonzero entries of I + A' + A'^2 + ... + A'^l (boolean powers).
    fn masked_matrix_lhop(g: &Graph, brokers: &NodeSet, l: usize) -> u64 {
        let n = g.node_count();
        let mut a = vec![vec![false; n]; n];
        for (u, v) in g.edges() {
            if brokers.contains(u) || brokers.contains(v) {
                a[u.index()][v.index()] = true;
                a[v.index()][u.index()] = true;
            }
        }
        // reach = boolean (I + A')^l
        let mut reach: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| i == j).collect()).collect();
        for _ in 0..l {
            let mut next = reach.clone();
            for i in 0..n {
                for k in 0..n {
                    if reach[i][k] {
                        for (j, &akj) in a[k].iter().enumerate() {
                            if akj {
                                next[i][j] = true;
                            }
                        }
                    }
                }
            }
            reach = next;
        }
        let mut count = 0u64;
        for i in 0..n {
            for j in 0..n {
                if i != j && reach[i][j] {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn bfs_matches_masked_matrix_operator() {
        // The dominated-edge BFS must agree with the paper's matrix
        // formulation exactly, for every l, on random graphs.
        for seed in 0..6u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = netgraph::erdos_renyi_gnm(18, 30, &mut rng);
            let sel = crate::greedy::greedy_mcb(&g, 4);
            let total = 18u64 * 17;
            for l in 1..=5usize {
                let matrix = masked_matrix_lhop(&g, sel.brokers(), l);
                let curve = lhop_curve(&g, sel.brokers(), l, SourceMode::Exact);
                let bfs_pairs = (curve.at(l) * total as f64).round() as u64;
                assert_eq!(
                    matrix, bfs_pairs,
                    "seed {seed}, l={l}: matrix {matrix} vs bfs {bfs_pairs}"
                );
            }
        }
    }

    #[test]
    fn degenerate_graphs() {
        let g = from_edges(1, std::iter::empty());
        let r = saturated_connectivity(&g, &NodeSet::full(1));
        assert_eq!(r.fraction, 0.0);
        assert_eq!(r.total_pairs, 0);
        let curve = lhop_curve(&g, &NodeSet::full(1), 3, SourceMode::Exact);
        assert_eq!(curve.fractions, vec![0.0, 0.0, 0.0]);
    }
}
