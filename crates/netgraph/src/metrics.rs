//! Structural metrics: betweenness centrality, clustering coefficient,
//! degree-distribution statistics and diameter estimation.
//!
//! Fig. 1 of the paper characterizes the AS-level Internet as a
//! scale-free, layered network with IXPs at core and edge; these metrics
//! are what that characterization is made of, and they also power the
//! betweenness-based selection baseline.

use crate::msbfs::{self, with_msbfs};
use crate::traverse::{with_arena, TraversalArena};
use crate::view::FullView;
use crate::{par, Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Brandes betweenness centrality (unweighted).
///
/// With `sources = None` every vertex seeds a BFS (exact, `O(nm)`);
/// otherwise only the sampled sources do, giving the standard unbiased
/// estimate scaled by `n / |sources|`. Sequential; see
/// [`betweenness_threaded`] for the parallel entry point (identical
/// results by the executor's determinism contract).
pub fn betweenness<R: Rng>(g: &Graph, sources: Option<usize>, rng: &mut R) -> Vec<f64> {
    betweenness_threaded(g, sources, rng, 1)
}

/// [`betweenness`] with the per-source fan-out run on `threads` workers
/// (`0` = all hardware threads) via [`crate::par`]. Bit-identical across
/// thread counts: seeds are chunked at a fixed size and per-chunk partial
/// centrality vectors are merged in chunk-index order.
pub fn betweenness_threaded<R: Rng>(
    g: &Graph,
    sources: Option<usize>,
    rng: &mut R,
    threads: usize,
) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let seeds: Vec<NodeId> = match sources {
        None => g.nodes().collect(),
        Some(s) => {
            let mut all: Vec<NodeId> = g.nodes().collect();
            all.shuffle(rng);
            all.truncate(s.max(1).min(n));
            all
        }
    };
    let scale = n as f64 / seeds.len() as f64;

    let mut centrality = par::map_reduce(
        &seeds,
        par::DEFAULT_CHUNK,
        threads,
        |chunk| {
            let mut centrality = vec![0.0f64; n];
            let mut sigma = vec![0.0f64; n];
            let mut delta = vec![0.0f64; n];
            with_arena(|arena| {
                for &s in chunk {
                    brandes_source(g, s, scale, arena, &mut sigma, &mut delta, &mut centrality);
                }
            });
            centrality
        },
        vec![0.0f64; n],
        |mut acc, part| {
            for (c, p) in acc.iter_mut().zip(part) {
                *c += p;
            }
            acc
        },
    );
    // Undirected graphs count each pair twice.
    centrality.iter_mut().for_each(|c| *c /= 2.0);
    centrality
}

/// One Brandes round: BFS from `s` on the engine arena, path counts in
/// visit order, dependency accumulation in reverse visit order.
fn brandes_source(
    g: &Graph,
    s: NodeId,
    scale: f64,
    arena: &mut TraversalArena,
    sigma: &mut [f64],
    delta: &mut [f64],
    centrality: &mut [f64],
) {
    arena.run(FullView::new(g), s);
    let order = arena.visit_order();
    // Path counts. BFS order guarantees every vertex at distance d - 1 is
    // processed before any at distance d, so `sigma` of all predecessors
    // is final when we read it. Stale values from earlier rounds are never
    // read: predecessors are reached this round, hence assigned below.
    sigma[s.index()] = 1.0;
    for &v in &order[1..] {
        let dv = arena.distance(v).unwrap_or(0);
        let mut sv = 0.0;
        for &u in g.neighbors(v) {
            if arena.distance(u).is_some_and(|du| du + 1 == dv) {
                sv += sigma[u.index()];
            }
        }
        sigma[v.index()] = sv;
    }
    // Dependency accumulation in reverse BFS order.
    for &w in order.iter().rev() {
        let dw = arena.distance(w).unwrap_or(0);
        for &v in g.neighbors(w) {
            if arena.distance(v).is_some_and(|dv| dv + 1 == dw) {
                delta[v.index()] += sigma[v.index()] / sigma[w.index()] * (1.0 + delta[w.index()]);
            }
        }
        if w != s {
            centrality[w.index()] += scale * delta[w.index()];
        }
    }
    // Reset only what this round touched; `delta` accumulates with `+=`.
    for &v in order {
        delta[v.index()] = 0.0;
    }
}

/// Local clustering coefficient of every vertex (triangles over wedges).
pub fn clustering_coefficients(g: &Graph) -> Vec<f64> {
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

/// Closeness centrality: `(reachable - 1) ² / ((n - 1) · Σ d(v, u))`
/// (Wasserman–Faust normalization, robust to disconnected graphs).
///
/// With `sources = Some(s)` the distance sums are estimated from `s`
/// sampled BFS *targets* — acceptable for ranking, exact when
/// `sources = None`.
pub fn closeness<R: Rng>(g: &Graph, sources: Option<usize>, rng: &mut R) -> Vec<f64> {
    closeness_threaded(g, sources, rng, 1)
}

/// [`closeness`] with the per-target fan-out run on `threads` workers
/// (`0` = all hardware threads) via [`crate::par`]. The per-vertex
/// distance sums are integer-valued, so the chunk-ordered merge is exact
/// and results match the sequential path bit for bit.
pub fn closeness_threaded<R: Rng>(
    g: &Graph,
    sources: Option<usize>,
    rng: &mut R,
    threads: usize,
) -> Vec<f64> {
    let n = g.node_count();
    if n <= 1 {
        return vec![0.0; n];
    }
    // BFS from sampled "targets" accumulates, for every vertex v, the sum
    // of distances target->v — by symmetry that estimates v's distance
    // sum.
    let targets: Vec<NodeId> = match sources {
        None => g.nodes().collect(),
        Some(s) => {
            let mut all: Vec<NodeId> = g.nodes().collect();
            all.shuffle(rng);
            all.truncate(s.max(1).min(n));
            all
        }
    };
    let scale = n as f64 / targets.len() as f64;
    let (dist_sum, reach_cnt) = par::map_reduce(
        &targets,
        par::DEFAULT_CHUNK,
        threads,
        |chunk| {
            let mut dist_sum = vec![0.0f64; n];
            let mut reach_cnt = vec![0u32; n];
            // Each chunk is at most one 64-lane msbfs batch (DEFAULT_CHUNK =
            // LANES); a vertex discovered at `level` by `c` lanes contributes
            // `level` to `c` distance sums at once. The increments are small
            // integers (exact in f64), so grouping lanes cannot change the
            // accumulated bits versus the historical one-BFS-per-target loop.
            with_msbfs(|arena| {
                for batch in chunk.chunks(msbfs::LANES) {
                    arena.run(FullView::new(g), batch, u32::MAX, |wf| {
                        let level = wf.level();
                        if level == 0 {
                            return; // self pairs, excluded
                        }
                        wf.for_each_new(|v, lanes| {
                            let c = lanes.count();
                            dist_sum[v.index()] += f64::from(level * c);
                            reach_cnt[v.index()] += c;
                        });
                    });
                }
            });
            (dist_sum, reach_cnt)
        },
        (vec![0.0f64; n], vec![0u32; n]),
        |(mut ds_acc, mut rc_acc), (ds, rc)| {
            for i in 0..n {
                ds_acc[i] += ds[i];
                rc_acc[i] += rc[i];
            }
            (ds_acc, rc_acc)
        },
    );
    (0..n)
        .map(|v| {
            let sum = dist_sum[v] * scale;
            let reach = (reach_cnt[v] as f64 * scale).min((n - 1) as f64);
            if sum <= 0.0 {
                0.0
            } else {
                (reach * reach) / ((n - 1) as f64 * sum)
            }
        })
        .collect()
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
    fn betweenness_path_center() {
        // Path of 5: exact betweenness 0, 3, 4, 3, 0.
        let g = path_graph(5);
        let b = betweenness(&g, None, &mut ChaCha8Rng::seed_from_u64(1));
        let expect = [0.0, 3.0, 4.0, 3.0, 0.0];
        for (i, &e) in expect.iter().enumerate() {
            assert!((b[i] - e).abs() < 1e-9, "vertex {i}: {} vs {e}", b[i]);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn betweenness_star_hub() {
        let g = from_edges(5, (1..5).map(|i| (NodeId(0), NodeId(i))));
        let b = betweenness(&g, None, &mut ChaCha8Rng::seed_from_u64(1));
        // Hub lies on all C(4,2) = 6 pairs.
        assert!((b[0] - 6.0).abs() < 1e-9);
        for leaf in 1..5 {
            assert!(b[leaf].abs() < 1e-9);
        }
    }

    #[test]
    fn betweenness_sampled_close_to_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = crate::barabasi_albert(200, 3, &mut rng);
        let exact = betweenness(&g, None, &mut rng);
        let approx = betweenness(&g, Some(100), &mut rng);
        // Rank agreement on the top vertex.
        let top_exact = exact
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let mut order: Vec<usize> = (0..200).collect();
        order.sort_by(|&a, &b| approx[b].partial_cmp(&approx[a]).unwrap());
        assert!(
            order[..5].contains(&top_exact),
            "sampled betweenness misses the top hub"
        );
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
    fn closeness_path_center_and_star() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Path of 5: center is closest to everyone.
        let g = path_graph(5);
        let c = closeness(&g, None, &mut rng);
        assert!(c[2] > c[1] && c[1] > c[0]);
        assert!((c[0] - c[4]).abs() < 1e-12); // symmetry
                                              // Star: hub maximal (closeness 1 under W-F normalization).
        let star = from_edges(6, (1..6).map(|i| (NodeId(0), NodeId(i))));
        let cs = closeness(&star, None, &mut rng);
        assert!((cs[0] - 1.0).abs() < 1e-12);
        for leaf in 1..6 {
            assert!(cs[leaf] < cs[0]);
        }
    }

    #[test]
    fn closeness_disconnected_and_trivial() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = from_edges(4, [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        let c = closeness(&g, None, &mut rng);
        // Each pair member reaches 1 of 3 others at distance 1:
        // (1*1)/(3*1) = 1/3.
        for cv in c.iter().take(4) {
            assert!((cv - 1.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(
            closeness(&from_edges(1, std::iter::empty()), None, &mut rng),
            vec![0.0]
        );
    }

    #[test]
    fn closeness_sampled_ranks_hub_first() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = crate::barabasi_albert(300, 3, &mut rng);
        let exact = closeness(&g, None, &mut rng);
        let approx = closeness(&g, Some(80), &mut rng);
        let top_exact = crate::top_by_score(&exact, 1)[0];
        let top5: Vec<NodeId> = crate::top_by_score(&approx, 5);
        assert!(
            top5.contains(&top_exact),
            "sampled closeness misses the hub"
        );
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
