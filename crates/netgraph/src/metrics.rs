//! Structural metrics: clustering coefficient, degree-distribution
//! statistics, degree assortativity and diameter estimation.
//!
//! Fig. 1 of the paper characterizes the AS-level Internet as a
//! scale-free, layered network with IXPs at core and edge; these metrics
//! are what that characterization is made of.

use crate::traverse::with_arena;
use crate::view::FullView;
use crate::{Graph, NodeId};
use serde::{Deserialize, Serialize};

/// Local clustering coefficient of every vertex (triangles over wedges).
fn clustering_coefficients(g: &Graph) -> Vec<f64> {
    g.nodes()
        .map(|v| {
            let nb = g.neighbors(v);
            let d = nb.len();
            if d < 2 {
                return 0.0;
            }
            let mut tri = 0usize;
            for (i, &a) in nb.iter().enumerate() {
                for &b in &nb[i + 1..] {
                    if g.has_edge(a, b) {
                        tri += 1;
                    }
                }
            }
            2.0 * tri as f64 / (d * (d - 1)) as f64
        })
        .collect()
}

/// Mean local clustering coefficient.
pub fn mean_clustering(g: &Graph) -> f64 {
    let c = clustering_coefficients(g);
    if c.is_empty() {
        0.0
    } else {
        c.iter().sum::<f64>() / c.len() as f64
    }
}

/// Degree-distribution summary for scale-free characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Minimum, mean and maximum degree.
    pub min: usize,
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: usize,
    /// Hill estimator of the power-law tail exponent over the top
    /// `tail_count` degrees (α in `P[D > d] ~ d^(-α)`); `None` when the
    /// tail is too short.
    pub tail_exponent: Option<f64>,
    /// Number of samples the Hill estimate used.
    pub tail_count: usize,
}

/// Compute [`DegreeStats`], estimating the tail exponent over the top
/// `tail_fraction` of degrees (e.g. 0.05).
pub fn degree_stats(g: &Graph, tail_fraction: f64) -> DegreeStats {
    let mut degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    if degrees.is_empty() {
        return DegreeStats {
            min: 0,
            mean: 0.0,
            max: 0,
            tail_exponent: None,
            tail_count: 0,
        };
    }
    degrees.sort_unstable();
    let min = degrees[0];
    let max = degrees.last().copied().unwrap_or(min);
    let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
    let k = ((degrees.len() as f64 * tail_fraction) as usize).min(degrees.len() - 1);
    let tail_exponent = if k >= 8 {
        // Hill estimator: alpha = k / sum(ln(x_i / x_min_tail)).
        let tail = &degrees[degrees.len() - k..];
        let x_min = tail[0].max(1) as f64;
        let s: f64 = tail.iter().map(|&d| ((d.max(1)) as f64 / x_min).ln()).sum();
        if s > 0.0 {
            Some(k as f64 / s)
        } else {
            None
        }
    } else {
        None
    };
    DegreeStats {
        min,
        mean,
        max,
        tail_exponent,
        tail_count: k,
    }
}

/// Degree assortativity (Pearson correlation of degrees across edges).
///
/// The Internet is famously *disassortative* (hubs attach to low-degree
/// stubs, r < 0); ER graphs sit near 0. Returns `None` when fewer than
/// two edges or zero variance.
pub fn degree_assortativity(g: &Graph) -> Option<f64> {
    if g.edge_count() < 2 {
        return None;
    }
    // Pearson over the directed edge list (each undirected edge both
    // ways, the standard convention).
    let mut sx = 0.0f64;
    let mut sxx = 0.0f64;
    let mut sxy = 0.0f64;
    let m2 = (2 * g.edge_count()) as f64;
    for (u, v) in g.edges() {
        let (du, dv) = (g.degree(u) as f64, g.degree(v) as f64);
        sx += du + dv;
        sxx += du * du + dv * dv;
        sxy += 2.0 * du * dv;
    }
    let mean = sx / m2;
    let var = sxx / m2 - mean * mean;
    if var <= 1e-15 {
        return None;
    }
    let cov = sxy / m2 - mean * mean;
    Some(cov / var)
}

/// Lower-bound the diameter with double-sweep BFS (exact on trees, very
/// tight on Internet-like graphs). Returns `None` for empty graphs.
pub fn diameter_lower_bound(g: &Graph) -> Option<u32> {
    if g.is_empty() {
        return None;
    }
    with_arena(|arena| {
        // Sweep 1 from vertex 0 (its component).
        arena.run(FullView::new(g), NodeId(0));
        let far = g
            .nodes()
            .filter_map(|v| arena.distance(v).map(|d| (d, v)))
            .max()?
            .1;
        arena.run(FullView::new(g), far);
        g.nodes().filter_map(|v| arena.distance(v)).max()
    })
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
    fn clustering_triangle_and_path() {
        let tri = from_edges(
            3,
            [(0, 1), (1, 2), (0, 2)].map(|(a, b)| (NodeId(a), NodeId(b))),
        );
        assert_eq!(clustering_coefficients(&tri), vec![1.0, 1.0, 1.0]);
        assert!((mean_clustering(&tri) - 1.0).abs() < 1e-12);
        let p = path_graph(3);
        assert_eq!(clustering_coefficients(&p), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn ws_clusters_more_than_er() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let ws = crate::watts_strogatz(300, 3, 0.05, &mut rng);
        let er = crate::erdos_renyi_gnm(300, ws.edge_count(), &mut rng);
        assert!(mean_clustering(&ws) > 3.0 * mean_clustering(&er));
    }

    #[test]
    fn degree_stats_scale_free_tail() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = crate::barabasi_albert(2000, 3, &mut rng);
        let s = degree_stats(&g, 0.05);
        assert_eq!(s.min, 3);
        assert!(s.max > 50);
        let alpha = s.tail_exponent.expect("tail long enough");
        // BA tail exponent (CCDF) is ~2; Hill on finite samples lands
        // loosely around it.
        assert!((1.0..4.0).contains(&alpha), "alpha {alpha}");
    }

    #[test]
    fn degree_stats_empty_and_tiny() {
        let g = from_edges(0, std::iter::empty());
        let s = degree_stats(&g, 0.1);
        assert_eq!(s.max, 0);
        assert!(s.tail_exponent.is_none());
        let g = path_graph(5);
        assert!(degree_stats(&g, 0.5).tail_exponent.is_none()); // tail < 8
    }

    #[test]
    fn assortativity_signs() {
        // Star: hubs connect only to leaves -> strongly disassortative.
        let star = from_edges(8, (1..8).map(|i| (NodeId(0), NodeId(i))));
        let r = degree_assortativity(&star).unwrap();
        assert!(r < -0.9, "star assortativity {r}");
        // Regular cycle: zero variance -> None.
        let cyc = from_edges(6, (0..6).map(|i| (NodeId(i), NodeId((i + 1) % 6))));
        assert!(degree_assortativity(&cyc).is_none());
        // Single edge: too few edges.
        let e = from_edges(2, [(NodeId(0), NodeId(1))]);
        assert!(degree_assortativity(&e).is_none());
        // BA graphs trend non-positive.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ba = crate::barabasi_albert(500, 3, &mut rng);
        let r = degree_assortativity(&ba).unwrap();
        assert!(r < 0.1, "BA assortativity {r}");
    }

    #[test]
    fn diameter_path_exact() {
        assert_eq!(diameter_lower_bound(&path_graph(7)), Some(6));
        assert_eq!(
            diameter_lower_bound(&from_edges(0, std::iter::empty())),
            None
        );
        assert_eq!(
            diameter_lower_bound(&from_edges(1, std::iter::empty())),
            Some(0)
        );
    }
}
