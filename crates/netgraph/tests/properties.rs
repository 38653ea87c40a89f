//! Property-based tests of the graph substrate's core invariants.

use netgraph::{
    bfs_distances, connected_components, coreness, graph::from_edges, Graph, GraphBuilder, NodeId,
    NodeSet,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_edges(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges)
}

fn build(n: u32, edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

proptest! {
    /// Handshake lemma: degree sum equals twice the edge count.
    #[test]
    fn handshake(edges in arb_edges(30, 120)) {
        let g = build(30, &edges);
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// Adjacency symmetry: u in N(v) iff v in N(u), and has_edge agrees.
    #[test]
    fn symmetry(edges in arb_edges(25, 100)) {
        let g = build(25, &edges);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                prop_assert!(g.neighbors(v).contains(&u));
                prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
                prop_assert_ne!(u, v, "self-loop survived the builder");
            }
        }
    }

    /// Neighbor lists are strictly sorted (sorted + deduplicated).
    #[test]
    fn neighbors_sorted_unique(edges in arb_edges(25, 150)) {
        let g = build(25, &edges);
        for v in g.nodes() {
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    /// BFS distances satisfy the triangle property along edges:
    /// |d(u) - d(v)| <= 1 for every edge when both are reached.
    #[test]
    fn bfs_edge_lipschitz(edges in arb_edges(25, 100), src in 0u32..25) {
        let g = build(25, &edges);
        let d = bfs_distances(&g, NodeId(src));
        for (u, v) in g.edges() {
            if let (Some(du), Some(dv)) = (d[u.index()], d[v.index()]) {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u}, {v}): {du} vs {dv}");
            } else {
                // One endpoint reached implies the other is too.
                prop_assert!(d[u.index()].is_none() && d[v.index()].is_none());
            }
        }
    }

    /// Components partition the vertex set, and sizes sum to n.
    #[test]
    fn components_partition(edges in arb_edges(30, 90)) {
        let g = build(30, &edges);
        let c = connected_components(&g);
        prop_assert_eq!(c.sizes.iter().sum::<usize>(), 30);
        for (u, v) in g.edges() {
            prop_assert_eq!(c.label[u.index()], c.label[v.index()]);
        }
    }

    /// Coreness is sandwiched by degree and is edge-monotone at the top:
    /// core(v) <= deg(v), and the max coreness never exceeds max degree.
    #[test]
    fn coreness_bounds(edges in arb_edges(25, 120)) {
        let g = build(25, &edges);
        let core = coreness(&g);
        for v in g.nodes() {
            prop_assert!(core[v.index()] as usize <= g.degree(v));
        }
    }

    /// NodeSet algebra agrees with a model HashSet.
    #[test]
    fn nodeset_matches_model(a in proptest::collection::hash_set(0u32..80, 0..40),
                             b in proptest::collection::hash_set(0u32..80, 0..40)) {
        let mut sa = NodeSet::new(80);
        for &x in &a { sa.insert(NodeId(x)); }
        let mut sb = NodeSet::new(80);
        for &x in &b { sb.insert(NodeId(x)); }

        prop_assert_eq!(sa.len(), a.len());
        prop_assert_eq!(sa.union_len(&sb), a.union(&b).count());

        let mut i = sa.clone();
        i.intersect_with(&sb);
        prop_assert_eq!(i.len(), a.intersection(&b).count());
        let mut d = sa.clone();
        d.difference_with(&sb);
        prop_assert_eq!(d.len(), a.difference(&b).count());

        // Iteration ascending and consistent with membership.
        let listed: Vec<u32> = sa.iter().map(|v| v.0).collect();
        let mut sorted: Vec<u32> = a.iter().copied().collect();
        sorted.sort_unstable();
        prop_assert_eq!(listed, sorted);
    }

    /// Induced subgraph preserves exactly the edges inside the kept set.
    #[test]
    fn induced_subgraph_edge_faithful(edges in arb_edges(20, 60),
                                      keep in proptest::collection::hash_set(0u32..20, 1..15)) {
        let g = build(20, &edges);
        let mut mask = NodeSet::new(20);
        for &v in &keep { mask.insert(NodeId(v)); }
        let (sub, map) = g.induced_subgraph(&mask);
        prop_assert_eq!(sub.node_count(), keep.len());
        // Every subgraph edge maps to an original edge within `keep`.
        let mut count = 0usize;
        for (u, v) in sub.edges() {
            prop_assert!(g.has_edge(map[u.index()], map[v.index()]));
            count += 1;
        }
        // And every original inside-edge survives.
        let inside = g.edges().filter(|&(u, v)| mask.contains(u) && mask.contains(v)).count();
        prop_assert_eq!(count, inside);
    }
}

#[test]
fn generators_connected_reasonably() {
    // BA is connected by construction; ER at this density nearly so.
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let ba = netgraph::barabasi_albert(300, 2, &mut rng);
    assert_eq!(connected_components(&ba).count(), 1);
    let g = from_edges(4, [(0, 1), (2, 3)].map(|(a, b)| (NodeId(a), NodeId(b))));
    assert_eq!(connected_components(&g).count(), 2);
}
