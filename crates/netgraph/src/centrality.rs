//! Degree, PageRank and k-core centralities.
//!
//! The paper's Degree-Based (DB) and PageRank-Based (PRB) baseline broker
//! selections rank vertices by these scores (Section 5.1), Fig. 3 studies
//! the correlation between PageRank and marginal connectivity gain, and
//! Fig. 4's "network core vs edge" reading of broker placement is captured
//! here by the k-core decomposition (coreness).

use crate::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// Configuration for [`pagerank`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageRankConfig {
    /// Damping factor, conventionally 0.85.
    pub damping: f64,
    /// Stop when the L1 change between iterations drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

/// Power-iteration PageRank on the undirected graph (each undirected edge
/// acts as two directed edges). Dangling (isolated) vertices redistribute
/// their mass uniformly. Scores sum to 1.
///
/// The paper (Section 6.1) notes that on an undirected graph the PageRank
/// distribution is statistically close to the degree distribution — a fact
/// the unit tests check on a star graph.
///
/// ```
/// use netgraph::{graph::from_edges, NodeId, pagerank, PageRankConfig};
/// let g = from_edges(3, [(0, 1), (1, 2)].map(|(a, b)| (NodeId(a), NodeId(b))));
/// let pr = pagerank(&g, PageRankConfig::default());
/// assert!(pr[1] > pr[0]); // middle vertex dominates
/// assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
pub fn pagerank(g: &Graph, cfg: PageRankConfig) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        (0.0..1.0).contains(&cfg.damping),
        "damping must be in [0, 1), got {}",
        cfg.damping
    );
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..cfg.max_iterations {
        let mut dangling_mass = 0.0;
        next.iter_mut().for_each(|x| *x = 0.0);
        for (v, &rv) in rank.iter().enumerate() {
            let deg = g.degree(NodeId::from(v));
            if deg == 0 {
                dangling_mass += rv;
            } else {
                let share = rv / deg as f64;
                for &u in g.neighbors(NodeId::from(v)) {
                    next[u.index()] += share;
                }
            }
        }
        let base = (1.0 - cfg.damping) * uniform + cfg.damping * dangling_mass * uniform;
        let mut delta = 0.0;
        for (r, nx) in rank.iter_mut().zip(&next) {
            let new = base + cfg.damping * nx;
            delta += (new - *r).abs();
            *r = new;
        }
        if delta < cfg.tolerance {
            break;
        }
    }
    rank
}

/// k-core decomposition: `coreness(g)[v]` is the largest `k` such that `v`
/// belongs to a subgraph in which every vertex has degree ≥ `k`.
///
/// Linear-time bucket algorithm (Batagelj–Zaveršnik). High-coreness
/// vertices form the "network core" of Fig. 4; stubs have coreness 1.
pub fn coreness(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut deg: Vec<u32> = (0..n).map(|v| g.degree(NodeId::from(v)) as u32).collect();
    let max_deg = deg.iter().max().copied().unwrap_or(0) as usize;

    // Bucket sort vertices by degree.
    let mut bin = vec![0u32; max_deg + 2];
    for &d in &deg {
        bin[d as usize + 1] += 1;
    }
    for i in 1..bin.len() {
        bin[i] += bin[i - 1];
    }
    let mut pos = vec![0u32; n]; // position of vertex in `vert`
    let mut vert = vec![0u32; n]; // vertices sorted by degree
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            let d = deg[v] as usize;
            pos[v] = cursor[d];
            vert[cursor[d] as usize] = v as u32;
            cursor[d] += 1;
        }
    }

    let mut core = deg.clone();
    for i in 0..n {
        let v = vert[i] as usize;
        core[v] = deg[v];
        for &u in g.neighbors(NodeId::from(v)) {
            let u = u.index();
            if deg[u] > deg[v] {
                // Move u one bucket down: swap it with the first vertex of
                // its current bucket, then decrement its degree.
                let du = deg[u] as usize;
                let pu = pos[u] as usize;
                let pw = bin[du] as usize; // first position of bucket du
                let w = vert[pw] as usize;
                if u != w {
                    vert.swap(pu, pw);
                    pos[u] = pw as u32;
                    pos[w] = pu as u32;
                }
                bin[du] += 1;
                deg[u] -= 1;
            }
        }
    }
    core
}

/// Vertices sorted by a score, descending, ties broken by ascending id.
///
/// Used by the DB/PRB baselines: `top_by_score(&scores, k)` are the `k`
/// highest-scoring vertices.
pub fn top_by_score<T: PartialOrd + Copy>(scores: &[T], k: usize) -> Vec<NodeId> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // Incomparable scores (NaN) sort as equal, falling back to the id
    // tiebreak, so the ordering stays total and the sort cannot panic.
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order.into_iter().take(k).map(NodeId::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;

    fn star(n: u32) -> Graph {
        from_edges(n as usize, (1..n).map(|i| (NodeId(0), NodeId(i))))
    }

    #[test]
    fn pagerank_star_center_dominates() {
        let g = star(11);
        let pr = pagerank(&g, PageRankConfig::default());
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for leaf in 1..11 {
            assert!(pr[0] > pr[leaf]);
        }
        // All leaves symmetric.
        for leaf in 2..11 {
            assert!((pr[1] - pr[leaf]).abs() < 1e-12);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pagerank_empty_and_isolated() {
        let g = from_edges(0, std::iter::empty());
        assert!(pagerank(&g, PageRankConfig::default()).is_empty());

        let g = from_edges(3, std::iter::empty());
        let pr = pagerank(&g, PageRankConfig::default());
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for v in 0..3 {
            assert!((pr[v] - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_correlates_with_degree_undirected() {
        // Barbell-ish: hub 0 with 5 leaves, hub 6 with 2 leaves, bridge.
        let mut edges: Vec<(NodeId, NodeId)> = (1..6).map(|i| (NodeId(0), NodeId(i))).collect();
        edges.push((NodeId(0), NodeId(6)));
        edges.push((NodeId(6), NodeId(7)));
        edges.push((NodeId(6), NodeId(8)));
        let g = from_edges(9, edges);
        let pr = pagerank(&g, PageRankConfig::default());
        assert!(pr[0] > pr[6]);
        assert!(pr[6] > pr[7]);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn pagerank_rejects_bad_damping() {
        let g = star(3);
        pagerank(
            &g,
            PageRankConfig {
                damping: 1.5,
                ..Default::default()
            },
        );
    }

    #[test]
    fn coreness_clique_plus_tail() {
        // K4 on {0,1,2,3} with a tail 3-4-5.
        let mut edges = vec![];
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                edges.push((NodeId(i), NodeId(j)));
            }
        }
        edges.push((NodeId(3), NodeId(4)));
        edges.push((NodeId(4), NodeId(5)));
        let g = from_edges(6, edges);
        let core = coreness(&g);
        assert_eq!(&core[0..4], &[3, 3, 3, 3]);
        assert_eq!(core[4], 1);
        assert_eq!(core[5], 1);
    }

    #[test]
    fn coreness_cycle_is_two() {
        let g = from_edges(5, (0..5).map(|i| (NodeId(i), NodeId((i + 1) % 5))));
        assert!(coreness(&g).iter().all(|&c| c == 2));
    }

    #[test]
    fn coreness_empty_and_isolated() {
        assert!(coreness(&from_edges(0, std::iter::empty())).is_empty());
        assert_eq!(coreness(&from_edges(2, std::iter::empty())), vec![0, 0]);
    }

    #[test]
    fn top_by_score_orders_and_breaks_ties() {
        let scores = [0.5, 0.9, 0.9, 0.1];
        let top = top_by_score(&scores, 3);
        assert_eq!(top, vec![NodeId(1), NodeId(2), NodeId(0)]);
        assert_eq!(top_by_score(&scores, 0), Vec::<NodeId>::new());
        assert_eq!(top_by_score(&scores, 10).len(), 4);
    }
}
