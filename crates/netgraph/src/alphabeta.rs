//! (α, β)-graph property estimation (Definition 2 of the paper).
//!
//! A graph is an (α, β)-graph when `Prob[d(u, v) ≤ β] ≥ α` over uniformly
//! random vertex pairs. The AS-level Internet is a (0.99, 4)-graph, which
//! is what makes Algorithm 2's broker-stitching step cheap. Exact
//! evaluation needs all-pairs BFS (`O(n(n + m))`); for the 52k-node
//! topology we estimate by sampling sources, with the standard-error bound
//! reported alongside.

use crate::msbfs::{self, with_msbfs};
use crate::view::FullView;
use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution of pairwise hop distances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopHistogram {
    /// `counts[d]` = number of ordered pairs at distance exactly `d`
    /// (distance 0, i.e. `u == u`, is excluded).
    pub counts: Vec<u64>,
    /// Ordered pairs that are disconnected.
    pub unreachable: u64,
    /// Ordered pairs sampled/evaluated in total (`counts` sum + unreachable).
    pub total_pairs: u64,
    /// Number of BFS sources used (== n for exact evaluation).
    pub sources: usize,
}

impl HopHistogram {
    /// `Prob[d(u,v) ≤ beta]` over the evaluated pairs.
    fn prob_within(&self, beta: usize) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        let within: u64 = self.counts.iter().take(beta + 1).sum();
        within as f64 / self.total_pairs as f64
    }

    /// Cumulative distribution: `cdf()[d]` = fraction of pairs within `d`
    /// hops.
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                if self.total_pairs == 0 {
                    0.0
                } else {
                    acc as f64 / self.total_pairs as f64
                }
            })
            .collect()
    }
}

/// Exact hop histogram via all-sources BFS. `O(n(n + m))` — fine up to a
/// few thousand vertices; use [`hop_histogram_sampled`] beyond.
fn hop_histogram(g: &Graph) -> HopHistogram {
    let sources: Vec<NodeId> = g.nodes().collect();
    histogram_for_sources(g, &sources)
}

/// Hop histogram estimated from `samples` uniformly chosen BFS sources
/// (without replacement). Unbiased for pair-distance probabilities.
pub fn hop_histogram_sampled<R: Rng>(g: &Graph, samples: usize, rng: &mut R) -> HopHistogram {
    let mut sources: Vec<NodeId> = g.nodes().collect();
    sources.shuffle(rng);
    sources.truncate(samples.max(1).min(g.node_count()));
    histogram_for_sources(g, &sources)
}

fn histogram_for_sources(g: &Graph, sources: &[NodeId]) -> HopHistogram {
    let n = g.node_count();
    let mut counts: Vec<u64> = Vec::new();
    let mut unreachable = 0u64;
    let view = FullView::new(g);
    // 64 sources per msbfs batch: counts[d] accumulates each wavefront's
    // pair count (level 0 is the sources themselves, excluded), and each
    // lane's unreached remainder is `n` minus its discoveries.
    with_msbfs(|arena| {
        for batch in sources.chunks(msbfs::LANES) {
            let discovered = arena.run(view, batch, u32::MAX, |wf| {
                let d = wf.level() as usize;
                if d == 0 {
                    return;
                }
                if counts.len() <= d {
                    counts.resize(d + 1, 0);
                }
                counts[d] += wf.new_pairs();
            });
            unreachable += batch.len() as u64 * n as u64 - discovered;
        }
    });
    let total = counts.iter().sum::<u64>() + unreachable;
    HopHistogram {
        counts,
        unreachable,
        total_pairs: total,
        sources: sources.len(),
    }
}

/// Outcome of an (α, β) estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaBetaEstimate {
    /// Estimated `Prob[d(u, v) ≤ β]`.
    pub alpha: f64,
    /// The β the estimate was taken at.
    pub beta: usize,
    /// One-sigma sampling error (0 when evaluated exactly).
    pub std_error: f64,
    /// Whether the graph satisfies Definition 2 at the requested level.
    pub satisfied: bool,
}

/// Estimate whether `g` is an (`alpha`, `beta`)-graph.
///
/// Uses `samples` BFS sources (all of them if `samples ≥ n`). The standard
/// error reported treats sources as i.i.d. — a slight approximation, but
/// tight in practice for `samples ≥ 100` on well-mixed graphs.
pub fn estimate_alpha<R: Rng>(
    g: &Graph,
    alpha: f64,
    beta: usize,
    samples: usize,
    rng: &mut R,
) -> AlphaBetaEstimate {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    let hist = if samples >= g.node_count() {
        hop_histogram(g)
    } else {
        hop_histogram_sampled(g, samples, rng)
    };
    let p = hist.prob_within(beta);
    let std_error = if samples >= g.node_count() || hist.total_pairs == 0 {
        0.0
    } else {
        (p * (1.0 - p) / hist.sources as f64).sqrt()
    };
    AlphaBetaEstimate {
        alpha: p,
        beta,
        std_error,
        satisfied: p >= alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path_graph(n: u32) -> Graph {
        from_edges(n as usize, (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))))
    }

    #[test]
    fn exact_histogram_on_path() {
        // Path of 4: ordered pairs at d=1: 6, d=2: 4, d=3: 2.
        let hist = hop_histogram(&path_graph(4));
        assert_eq!(hist.counts[1], 6);
        assert_eq!(hist.counts[2], 4);
        assert_eq!(hist.counts[3], 2);
        assert_eq!(hist.unreachable, 0);
        assert_eq!(hist.total_pairs, 12);
        assert!((hist.prob_within(2) - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_unreachable() {
        let g = from_edges(4, [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        let hist = hop_histogram(&g);
        assert_eq!(hist.counts[1], 4);
        assert_eq!(hist.unreachable, 8);
    }

    #[test]
    fn clique_is_one_beta_graph() {
        let mut edges = vec![];
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((NodeId(i), NodeId(j)));
            }
        }
        let g = from_edges(6, edges);
        let est = estimate_alpha(&g, 1.0, 1, usize::MAX, &mut ChaCha8Rng::seed_from_u64(1));
        assert!(est.satisfied);
        assert_eq!(est.alpha, 1.0);
        assert_eq!(est.std_error, 0.0);
    }

    #[test]
    fn sampled_estimate_close_to_exact() {
        let g = crate::barabasi_albert(500, 3, &mut ChaCha8Rng::seed_from_u64(5));
        let exact = hop_histogram(&g).prob_within(3);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let est = estimate_alpha(&g, 0.5, 3, 200, &mut rng);
        assert!(
            (est.alpha - exact).abs() < 0.05,
            "sampled {} vs exact {exact}",
            est.alpha
        );
        assert!(est.std_error > 0.0);
    }

    #[test]
    fn cdf_monotone() {
        let g = crate::barabasi_albert(200, 2, &mut ChaCha8Rng::seed_from_u64(3));
        let cdf = hop_histogram(&g).cdf();
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0] - 1e-15);
        }
        assert!(cdf.last().copied().unwrap_or(0.0) <= 1.0 + 1e-12);
    }

    #[test]
    fn empty_histogram_behaves() {
        let hist = HopHistogram {
            counts: vec![],
            unreachable: 0,
            total_pairs: 0,
            sources: 0,
        };
        assert_eq!(hist.prob_within(4), 0.0);
        assert!(hist.cdf().is_empty());
    }
}
