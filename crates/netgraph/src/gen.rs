//! Random-graph generators: Erdős–Rényi, Watts–Strogatz, Barabási–Albert.
//!
//! Table 3 of the paper compares l-hop connectivity across "ER-Random",
//! "WS-Small-World" and "BA-Scale-free" graphs sharing the vertex count of
//! the AS topology. All generators take an explicit RNG, so runs are
//! reproducible with a fixed seed.

use crate::{Graph, GraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly.
///
/// Matches an observed topology's node *and* edge counts, which is how the
/// Table 3 baselines were constructed ("the same vertex sets ... but the
/// edge sets are generated according to the topologies' features").
///
/// # Panics
///
/// Panics if `m` exceeds the number of distinct vertex pairs.
pub fn erdos_renyi_gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_edges,
        "G(n={n}, m={m}) infeasible: at most {max_edges} edges"
    );
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if chosen.insert(key) {
            b.add_edge(NodeId::from(key.0), NodeId::from(key.1));
        }
    }
    b.build()
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors on
/// each side (so degree `2k`), each lattice edge rewired with probability
/// `beta` to a uniform random endpoint.
///
/// # Panics
///
/// Panics if `2k ≥ n` or `beta ∉ [0, 1]`.
pub fn watts_strogatz<R: Rng>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(n > 2 * k, "Watts–Strogatz requires n > 2k (n={n}, k={k})");
    assert!(
        (0.0..=1.0).contains(&beta),
        "beta must be in [0, 1], got {beta}"
    );
    let mut b = GraphBuilder::with_capacity(n, n * k);
    let mut present = std::collections::BTreeSet::new();
    // Lattice edges (u, u + j mod n) for j = 1..=k.
    for u in 0..n {
        for j in 1..=k {
            let v = (u + j) % n;
            let key = (u.min(v), u.max(v));
            if !present.insert(key) {
                continue;
            }
            let (mut a, mut c) = (u, v);
            if rng.gen_bool(beta) {
                // Rewire the far endpoint uniformly, avoiding self loops
                // and duplicates; keep the lattice edge if no slot found
                // quickly (standard practical WS behaviour).
                for _ in 0..16 {
                    let w = rng.gen_range(0..n);
                    let cand = (u.min(w), u.max(w));
                    if w != u && !present.contains(&cand) {
                        present.remove(&key);
                        present.insert(cand);
                        a = cand.0;
                        c = cand.1;
                        break;
                    }
                }
            }
            b.add_edge(NodeId::from(a), NodeId::from(c));
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: start from a clique of
/// `m0 = m` vertices; each new vertex attaches `m` edges to existing
/// vertices chosen proportionally to degree.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "BA attachment count m must be >= 1");
    assert!(n > m, "BA requires n > m (n={n}, m={m})");
    let mut b = GraphBuilder::with_capacity(n, n * m);
    // `targets` holds one entry per half-edge endpoint: sampling uniformly
    // from it realizes degree-proportional selection.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    // Seed clique on m vertices (for m = 1, a single vertex).
    for u in 0..m {
        for v in (u + 1)..m {
            b.add_edge(NodeId::from(u), NodeId::from(v));
            endpoints.push(u as u32);
            endpoints.push(v as u32);
        }
    }
    if m == 1 {
        endpoints.push(0); // lone seed vertex gets a virtual half-edge
    }
    for new in m..n {
        // A sorted Vec keeps iteration order deterministic (HashSet order
        // would leak RandomState into the generated graph's RNG stream).
        let mut picked: Vec<u32> = Vec::with_capacity(m);
        while picked.len() < m {
            // The pool always holds the seed half-edges, so `choose` only
            // returns `None` on an impossible empty pool; bail rather
            // than spin.
            let Some(&t) = endpoints.choose(rng) else {
                break;
            };
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        picked.sort_unstable();
        for &t in &picked {
            b.add_edge(NodeId::from(new), NodeId(t));
            endpoints.push(new as u32);
            endpoints.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn gnm_exact_edge_count() {
        let g = erdos_renyi_gnm(50, 100, &mut rng());
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 100);
    }

    #[test]
    fn gnm_full_graph() {
        let g = erdos_renyi_gnm(5, 10, &mut rng());
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn gnm_too_many_edges_panics() {
        erdos_renyi_gnm(3, 4, &mut rng());
    }

    #[test]
    fn ws_degree_regular_without_rewiring() {
        let g = watts_strogatz(20, 3, 0.0, &mut rng());
        assert_eq!(g.edge_count(), 60);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 6);
        }
    }

    #[test]
    fn ws_rewired_preserves_edge_count_roughly() {
        let g = watts_strogatz(100, 2, 0.3, &mut rng());
        // Rewiring may occasionally fail to find a slot and keep the
        // lattice edge; edge count stays within [n*k - slack, n*k].
        assert!(g.edge_count() <= 200 && g.edge_count() >= 190);
    }

    #[test]
    #[should_panic(expected = "n > 2k")]
    fn ws_rejects_dense_lattice() {
        watts_strogatz(6, 3, 0.1, &mut rng());
    }

    #[test]
    fn ba_edge_count_and_hub_emergence() {
        let n = 400;
        let m = 3;
        let g = barabasi_albert(n, m, &mut rng());
        // Clique: m(m-1)/2 = 3 edges; each of (n - m) newcomers adds m.
        assert_eq!(g.edge_count(), 3 + (n - m) * m);
        let mut degs: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Scale-free: the top hub should be far above the mean degree.
        let mean = g.mean_degree();
        assert!(
            degs[0] as f64 > 4.0 * mean,
            "hub degree {} vs mean {mean}",
            degs[0]
        );
        // Newcomers attach m distinct edges: minimum degree is m.
        assert!(*degs.last().unwrap() >= m);
    }

    #[test]
    fn ba_m1_is_tree() {
        let g = barabasi_albert(50, 1, &mut rng());
        assert_eq!(g.edge_count(), 49);
        let comps = crate::connected_components(&g);
        assert_eq!(comps.count(), 1);
    }

    #[test]
    fn generators_deterministic_under_seed() {
        let a = barabasi_albert(100, 2, &mut ChaCha8Rng::seed_from_u64(7));
        let b = barabasi_albert(100, 2, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = erdos_renyi_gnm(100, 200, &mut ChaCha8Rng::seed_from_u64(9));
        let d = erdos_renyi_gnm(100, 200, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(c, d);
    }
}
