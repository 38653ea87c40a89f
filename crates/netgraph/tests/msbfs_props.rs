//! Property tests of the 64-lane msbfs kernel: every lane of a batched
//! run must match the per-source engine BFS on the same [`GraphView`],
//! for every view type, in both expansion directions, at any depth
//! bound. The per-source engine is itself pinned to a naive reference in
//! `engine_props.rs`, so agreement here transitively pins msbfs to the
//! documented view semantics.

use netgraph::{
    msbfs_distances, undirected_key, with_arena, with_msbfs, DominatedView, FullView, Graph,
    GraphBuilder, GraphView, MaskedView, MsBfsArena, NodeId, NodeSet,
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

/// Engine distances via a pooled per-source arena, as a comparable
/// vector — the baseline every msbfs lane must reproduce.
fn engine_bfs<V: GraphView>(view: &V, src: NodeId, max_depth: u32) -> Vec<Option<u32>> {
    with_arena(|arena| {
        arena.run_bounded(view, src, max_depth);
        (0..view.node_count())
            .map(|v| arena.distance(NodeId(v as u32)))
            .collect()
    })
}

/// Batched distances with a forced expansion direction, mirroring
/// [`msbfs_distances`] (which always runs `Direction::Auto`).
fn msbfs_forced<V: GraphView>(
    view: &V,
    sources: &[NodeId],
    max_depth: u32,
    direction: netgraph::msbfs::Direction,
) -> Vec<Vec<Option<u32>>> {
    let n = view.node_count();
    let mut dist = vec![vec![None; n]; sources.len()];
    let mut arena = MsBfsArena::new();
    arena.run_with(view, sources, max_depth, direction, |wf| {
        let level = wf.level();
        wf.for_each_new(|v, lanes| {
            lanes.for_each_lane(|lane| dist[lane][v.index()] = Some(level));
        });
    });
    dist
}

fn sources_of(ids: &HashSet<u32>) -> Vec<NodeId> {
    let mut srcs: Vec<NodeId> = ids.iter().map(|&s| NodeId(s)).collect();
    srcs.sort_unstable();
    srcs
}

proptest! {
    /// FullView: each lane of an auto-direction batch equals its
    /// per-source engine run at every depth bound.
    #[test]
    fn full_view_lanes_match_engine(edges in arb_edges(24, 90),
                                    sources in proptest::collection::hash_set(0u32..24, 1..16),
                                    depth in 0u32..6) {
        let g = build(24, &edges);
        let srcs = sources_of(&sources);
        let view = FullView::new(&g);
        let mut dist = vec![vec![None; g.node_count()]; srcs.len()];
        with_msbfs(|arena| {
            arena.run(view, &srcs, depth, |wf| {
                let level = wf.level();
                wf.for_each_new(|v, lanes| {
                    lanes.for_each_lane(|lane| dist[lane][v.index()] = Some(level));
                });
            });
        });
        for (lane, &s) in srcs.iter().enumerate() {
            prop_assert_eq!(&dist[lane], &engine_bfs(&view, s, depth));
        }
    }

    /// DominatedView (the paper's E_B subgraph): batched lanes equal
    /// per-source runs, including sources outside any broker path.
    #[test]
    fn dominated_view_lanes_match_engine(edges in arb_edges(24, 90),
                                         sources in proptest::collection::hash_set(0u32..24, 1..16),
                                         brokers in proptest::collection::hash_set(0u32..24, 0..12)) {
        let g = build(24, &edges);
        let b = node_set(24, &brokers);
        let srcs = sources_of(&sources);
        let view = DominatedView::new(&g, &b);
        let dist = msbfs_distances(view, &srcs);
        for (lane, &s) in srcs.iter().enumerate() {
            prop_assert_eq!(&dist[lane], &engine_bfs(&view, s, u32::MAX));
        }
    }

    /// MaskedView over DominatedView (the failover composition): batched
    /// lanes equal per-source runs with node and edge failures applied,
    /// and failed sources seed nothing (all-`None` lanes).
    #[test]
    fn masked_view_lanes_match_engine(edges in arb_edges(20, 70),
                                      sources in proptest::collection::hash_set(0u32..20, 1..16),
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
        let srcs = sources_of(&sources);
        let dist = msbfs_distances(view, &srcs);
        for (lane, &s) in srcs.iter().enumerate() {
            prop_assert_eq!(&dist[lane], &engine_bfs(&view, s, u32::MAX));
        }
    }

    /// Forced top-down push and bottom-up pull produce the same
    /// distances as Auto — direction is a speed choice, never a result
    /// choice (the determinism argument in DESIGN.md). Batches hold up
    /// to all 64 lanes, and the views include a mask with failed
    /// vertices and cut edges, so pull gathers that stop once every
    /// unseen lane has arrived are checked against full push scatters.
    #[test]
    fn push_pull_and_auto_agree(edges in arb_edges(96, 400),
                                sources in proptest::collection::hash_set(0u32..96, 1..=64),
                                brokers in proptest::collection::hash_set(0u32..96, 0..48),
                                dead in proptest::collection::hash_set(0u32..96, 0..8),
                                cut in proptest::collection::vec((0u32..96, 0u32..96), 0..40),
                                depth in 0u32..6) {
        use netgraph::msbfs::Direction;
        let g = build(96, &edges);
        let b = node_set(96, &brokers);
        let failed_nodes = node_set(96, &dead);
        let failed_edges: BTreeSet<(u32, u32)> = cut
            .iter()
            .map(|&(x, y)| undirected_key(NodeId(x), NodeId(y)))
            .collect();
        let srcs = sources_of(&sources);
        let dominated = DominatedView::new(&g, &b);
        let masked = MaskedView::new(dominated, Some(&failed_nodes), Some(&failed_edges));
        let push = msbfs_forced(&dominated, &srcs, depth, Direction::Push);
        prop_assert_eq!(&push, &msbfs_forced(&dominated, &srcs, depth, Direction::Pull));
        prop_assert_eq!(&push, &msbfs_forced(&dominated, &srcs, depth, Direction::Auto));
        let push = msbfs_forced(&masked, &srcs, depth, Direction::Push);
        prop_assert_eq!(&push, &msbfs_forced(&masked, &srcs, depth, Direction::Pull));
        prop_assert_eq!(&push, &msbfs_forced(&masked, &srcs, depth, Direction::Auto));
    }

    /// Batch boundaries are invisible: splitting the same sources across
    /// two batches gives the same lanes as one batch. (The consumers
    /// rely on this when chunking source lists by [`netgraph::msbfs::LANES`].)
    #[test]
    fn batch_split_is_invisible(edges in arb_edges(24, 90),
                                sources in proptest::collection::hash_set(0u32..24, 2..16),
                                split in 1usize..15) {
        let g = build(24, &edges);
        let srcs = sources_of(&sources);
        let split = split.min(srcs.len() - 1);
        let view = FullView::new(&g);
        let whole = msbfs_distances(view, &srcs);
        let mut parts = msbfs_distances(view, &srcs[..split]);
        parts.extend(msbfs_distances(view, &srcs[split..]));
        prop_assert_eq!(whole, parts);
    }
}
