//! Property tests of the traversal engine: every [`GraphView`] BFS must
//! match a naive reference implementation built straight from the view's
//! documented edge/vertex predicate, on random graphs and random masks.
//!
//! The reference deliberately shares no code with the engine (hand-rolled
//! queue, `HashMap` distances) so a bug in the arena bookkeeping — epoch
//! reuse, parent tracking, depth bounds — cannot cancel out.

use netgraph::{
    undirected_key, with_arena, DominatedView, FullView, Graph, GraphBuilder, GraphView,
    MaskedView, NodeId, NodeSet, TraversalArena,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

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

fn node_set(n: usize, ids: &HashSet<u32>) -> NodeSet {
    NodeSet::from_iter_with_capacity(n, ids.iter().map(|&i| NodeId(i)))
}

/// Naive bounded BFS over `(node_ok, edge_ok)` predicates: the semantics
/// each view documents, implemented without the engine.
#[expect(
    clippy::disallowed_types,
    reason = "R6: the oracle BFS shares no code with the engine under test"
)]
fn reference_bfs(
    g: &Graph,
    src: NodeId,
    max_depth: u32,
    node_ok: impl Fn(NodeId) -> bool,
    edge_ok: impl Fn(NodeId, NodeId) -> bool,
) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    if !node_ok(src) {
        return dist;
    }
    dist[src.index()] = Some(0);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].unwrap();
        if du >= max_depth {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v.index()].is_none() && node_ok(v) && edge_ok(u, v) {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Engine distances via a pooled arena, as a comparable vector.
fn engine_bfs<V: GraphView>(view: &V, src: NodeId, max_depth: u32) -> Vec<Option<u32>> {
    with_arena(|arena| {
        arena.run_bounded(view, src, max_depth);
        (0..view.node_count())
            .map(|v| arena.distance(NodeId(v as u32)))
            .collect()
    })
}

proptest! {
    /// FullView BFS equals the unfiltered reference at every depth bound.
    #[test]
    fn full_view_matches_reference(edges in arb_edges(24, 90), src in 0u32..24,
                                   depth in 0u32..6) {
        let g = build(24, &edges);
        let eng = engine_bfs(&FullView::new(&g), NodeId(src), depth);
        let refd = reference_bfs(&g, NodeId(src), depth, |_| true, |_, _| true);
        prop_assert_eq!(eng, refd);
    }

    /// DominatedView BFS equals the reference with the paper's edge
    /// predicate `u ∈ B ∨ v ∈ B`.
    #[test]
    fn dominated_view_matches_reference(edges in arb_edges(24, 90), src in 0u32..24,
                                        brokers in proptest::collection::hash_set(0u32..24, 0..12)) {
        let g = build(24, &edges);
        let b = node_set(24, &brokers);
        let eng = engine_bfs(&DominatedView::new(&g, &b), NodeId(src), u32::MAX);
        let refd = reference_bfs(&g, NodeId(src), u32::MAX,
            |_| true,
            |u, v| b.contains(u) || b.contains(v));
        prop_assert_eq!(eng, refd);
    }

    /// MaskedView over DominatedView (the failover-planning composition)
    /// equals the reference with both masks applied on top of E_B;
    /// a failed source reaches nothing.
    #[test]
    fn masked_view_matches_reference(edges in arb_edges(20, 70), src in 0u32..20,
                                     brokers in proptest::collection::hash_set(0u32..20, 0..14),
                                     dead in proptest::collection::hash_set(0u32..20, 0..6),
                                     cut in proptest::collection::vec((0u32..20, 0u32..20), 0..10)) {
        let g = build(20, &edges);
        let b = node_set(20, &brokers);
        let failed_nodes = node_set(20, &dead);
        let failed_edges: BTreeSet<(u32, u32)> = cut
            .iter()
            .map(|&(x, y)| undirected_key(NodeId(x), NodeId(y)))
            .collect();
        let view = MaskedView::new(
            DominatedView::new(&g, &b),
            Some(&failed_nodes),
            Some(&failed_edges),
        );
        let eng = engine_bfs(&view, NodeId(src), u32::MAX);
        let refd = reference_bfs(&g, NodeId(src), u32::MAX,
            |v| !failed_nodes.contains(v),
            |u, v| (b.contains(u) || b.contains(v))
                && !failed_edges.contains(&undirected_key(u, v)));
        prop_assert_eq!(eng, refd);
    }

    /// `run_to_target` finds a target at the true shortest target
    /// distance, and `path_to` returns a genuine shortest path in the
    /// view: correct endpoints, every hop a surviving edge, length equal
    /// to the BFS distance.
    #[test]
    fn target_search_and_path(edges in arb_edges(20, 70), src in 0u32..20, dst in 0u32..20,
                              brokers in proptest::collection::hash_set(0u32..20, 0..14)) {
        let g = build(20, &edges);
        let b = node_set(20, &brokers);
        let view = DominatedView::new(&g, &b);
        let refd = reference_bfs(&g, NodeId(src), u32::MAX,
            |_| true,
            |u, v| b.contains(u) || b.contains(v));

        let mut arena = TraversalArena::new();
        let hit = arena.run_to_target(view, NodeId(src), |v| v == NodeId(dst));
        match refd[dst as usize] {
            None => prop_assert_eq!(hit, None),
            Some(d) => {
                prop_assert_eq!(hit, Some(NodeId(dst)));
                let path = arena.path_to(NodeId(dst)).expect("path to reached target");
                prop_assert_eq!(path.first().copied(), Some(NodeId(src)));
                prop_assert_eq!(path.last().copied(), Some(NodeId(dst)));
                prop_assert_eq!(path.len() as u32, d + 1);
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                    prop_assert!(b.contains(w[0]) || b.contains(w[1]));
                }
            }
        }
    }

    /// Arena reuse is invisible: running on graph A, then B, then A again
    /// gives the same answers as a fresh arena on A.
    #[test]
    fn arena_reuse_is_stateless(edges_a in arb_edges(18, 60), edges_b in arb_edges(25, 80),
                                src in 0u32..18) {
        let ga = build(18, &edges_a);
        let gb = build(25, &edges_b);
        let mut fresh = TraversalArena::new();
        fresh.run(FullView::new(&ga), NodeId(src));
        let want: Vec<Option<u32>> = ga.nodes().map(|v| fresh.distance(v)).collect();

        let mut reused = TraversalArena::new();
        reused.run(FullView::new(&ga), NodeId(src));
        reused.run(FullView::new(&gb), NodeId(0));
        reused.run(FullView::new(&ga), NodeId(src));
        let got: Vec<Option<u32>> = ga.nodes().map(|v| reused.distance(v)).collect();
        prop_assert_eq!(got, want);
    }
}
