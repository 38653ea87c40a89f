//! Property tests of the fault-injection layer: at every epoch of a
//! random [`FaultSchedule`] over a random graph, traversal through a
//! [`MaskedView`] of the epoch's failed vertices and cut edges must
//! equal a naive BFS on an *explicitly rebuilt* surviving subgraph — a
//! `Graph` constructed from scratch out of the edges the schedule left
//! alive. The rebuild shares no masking code
//! with the view, so an error in the incremental state bookkeeping
//! (apply/recover, group expansion, epoch ordering) cannot cancel out.
//!
//! The serialization properties at the bottom pin the other half of the
//! contract: a schedule survives a JSON round trip *semantically* — the
//! reloaded schedule replays to bit-identical per-epoch states, and
//! random access (`state_at`) agrees with incremental `replay`.

use netgraph::msbfs::Direction;
use netgraph::{
    undirected_key, with_arena, with_msbfs, FaultGroup, FaultSchedule, FaultState, FullView, Graph,
    GraphBuilder, GraphView, MaskedView, NodeId,
};
use proptest::prelude::*;

const N: u32 = 16;

fn arb_edges(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges)
}

/// Element events as `(epoch, fail-or-recover, vertex)`; the middle
/// coordinate is a coin (`0` = recover, otherwise fail) because the
/// offline proptest stand-in has no boolean strategy.
fn arb_node_events(n: u32, max_epoch: u32) -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0..max_epoch, 0..2u32, 0..n), 0..8)
}

fn arb_edge_events(n: u32, max_epoch: u32) -> impl Strategy<Value = Vec<(u32, u32, u32, u32)>> {
    proptest::collection::vec((0..max_epoch, 0..2u32, 0..n, 0..n), 0..8)
}

fn arb_group_events(max_epoch: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..max_epoch, 0..2u32), 0..4)
}

/// Assemble a schedule from raw event material. Builder calls interleave
/// in this fixed order, so the within-epoch application order is a
/// deterministic function of the inputs.
fn build_schedule(
    n: u32,
    node_events: &[(u32, u32, u32)],
    edge_events: &[(u32, u32, u32, u32)],
    broker_events: &[(u32, u32, u32)],
    group_nodes: &[u32],
    group_edges: &[(u32, u32)],
    group_events: &[(u32, u32)],
) -> FaultSchedule {
    let mut s = FaultSchedule::new(n as usize);
    let gi = s.add_group(FaultGroup::new(
        "prop-group",
        group_nodes.iter().map(|&v| NodeId(v)).collect(),
        group_edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))),
    ));
    for &(e, fail, v) in node_events {
        if fail != 0 {
            s.fail_node(e, NodeId(v));
        } else {
            s.recover_node(e, NodeId(v));
        }
    }
    for &(e, fail, u, v) in edge_events {
        if fail != 0 {
            s.fail_edge(e, NodeId(u), NodeId(v));
        } else {
            s.recover_edge(e, NodeId(u), NodeId(v));
        }
    }
    for &(e, fail, v) in broker_events {
        if fail != 0 {
            s.fail_broker(e, NodeId(v));
        } else {
            s.recover_broker(e, NodeId(v));
        }
    }
    for &(e, fail) in group_events {
        if fail != 0 {
            s.fail_group(e, gi);
        } else {
            s.recover_group(e, gi);
        }
    }
    s
}

fn build(n: u32, edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

/// The surviving subgraph, rebuilt from scratch: same vertex set, only
/// the edges whose endpoints are up and whose key is uncut.
fn rebuild_survivors(g: &Graph, state: &FaultState) -> Graph {
    let mut b = GraphBuilder::new(g.node_count());
    for u in g.nodes() {
        if state.failed_nodes().contains(u) {
            continue;
        }
        for &v in g.neighbors(u) {
            if u <= v
                && !state.failed_nodes().contains(v)
                && !state.failed_edges().contains(&undirected_key(u, v))
            {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Hand-rolled queue BFS on the rebuilt subgraph — no engine code.
#[expect(
    clippy::disallowed_types,
    reason = "R6: the oracle BFS shares no code with the engine under test"
)]
fn reference_bfs(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    dist[src.index()] = Some(0u32);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].unwrap();
        for &v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Reference distances through the fault mask: all-`None` for a downed
/// source (the view refuses to seed it), otherwise BFS on the rebuilt
/// survivor graph, where downed vertices are isolated and stay `None`.
fn reference_masked(g: &Graph, state: &FaultState, src: NodeId) -> Vec<Option<u32>> {
    if state.failed_nodes().contains(src) {
        return vec![None; g.node_count()];
    }
    reference_bfs(&rebuild_survivors(g, state), src)
}

fn engine_distances<V: GraphView>(view: &V, src: NodeId) -> Vec<Option<u32>> {
    with_arena(|arena| {
        arena.run(view, src);
        (0..view.node_count())
            .map(|v| arena.distance(NodeId(v as u32)))
            .collect()
    })
}

/// Per-lane msbfs distances with a forced expansion direction.
fn msbfs_with<V: GraphView>(view: &V, sources: &[NodeId], dir: Direction) -> Vec<Vec<Option<u32>>> {
    let n = view.node_count();
    let mut dist = vec![vec![None; n]; sources.len()];
    with_msbfs(|arena| {
        arena.run_with(view, sources, u32::MAX, dir, |wf| {
            let level = wf.level();
            wf.for_each_new(|v, lanes| {
                lanes.for_each_lane(|lane| {
                    dist[lane][v.index()] = Some(level);
                });
            });
        });
    });
    dist
}

proptest! {
    /// Engine BFS through the epoch's mask equals naive BFS on the
    /// rebuilt surviving subgraph, at every epoch of the schedule.
    #[test]
    fn fault_mask_matches_rebuilt_subgraph(
        edges in arb_edges(N, 60),
        node_events in arb_node_events(N, 6),
        edge_events in arb_edge_events(N, 6),
        group_nodes in proptest::collection::vec(0..N, 0..4),
        group_edges in proptest::collection::vec((0..N, 0..N), 0..4),
        group_events in arb_group_events(6),
        src in 0..N,
    ) {
        let g = build(N, &edges);
        let schedule = build_schedule(
            N, &node_events, &edge_events, &[], &group_nodes, &group_edges, &group_events,
        );
        for epoch in 0..schedule.horizon() {
            let state = schedule.state_at(epoch);
            let view = MaskedView::new(
                FullView::new(&g),
                Some(state.failed_nodes()),
                Some(state.failed_edges()),
            );
            prop_assert_eq!(
                engine_distances(&view, NodeId(src)),
                reference_masked(&g, &state, NodeId(src)),
                "epoch {}", epoch
            );
        }
    }

    /// The 64-lane msbfs kernel agrees with the rebuilt subgraph in all
    /// three expansion directions. The mask removes whole vertices and
    /// undirected edges, so symmetry is preserved and pull stays valid.
    #[test]
    fn msbfs_matches_rebuilt_subgraph_in_all_directions(
        edges in arb_edges(N, 60),
        node_events in arb_node_events(N, 5),
        edge_events in arb_edge_events(N, 5),
        group_nodes in proptest::collection::vec(0..N, 0..4),
        group_edges in proptest::collection::vec((0..N, 0..N), 0..4),
        group_events in arb_group_events(5),
        sources in proptest::collection::hash_set(0..N, 1..5),
    ) {
        let g = build(N, &edges);
        let schedule = build_schedule(
            N, &node_events, &edge_events, &[], &group_nodes, &group_edges, &group_events,
        );
        let srcs: Vec<NodeId> = sources.iter().map(|&s| NodeId(s)).collect();
        for epoch in 0..schedule.horizon() {
            let state = schedule.state_at(epoch);
            let view = MaskedView::new(
                FullView::new(&g),
                Some(state.failed_nodes()),
                Some(state.failed_edges()),
            );
            prop_assert!(view.is_symmetric());
            let want: Vec<Vec<Option<u32>>> = srcs
                .iter()
                .map(|&s| reference_masked(&g, &state, s))
                .collect();
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                prop_assert_eq!(
                    &msbfs_with(&view, &srcs, dir),
                    &want,
                    "epoch {} direction {:?}", epoch, dir
                );
            }
        }
    }

    /// JSON round trip preserves the schedule exactly: equal value,
    /// bit-identical replay states, and `state_at` random access agrees
    /// with the incremental replay on both copies. Broker events ride
    /// along here — they never mask the graph, but they must survive
    /// serialization like everything else.
    #[test]
    fn serialized_schedule_replays_identically(
        node_events in arb_node_events(N, 6),
        edge_events in arb_edge_events(N, 6),
        broker_events in arb_node_events(N, 6),
        group_nodes in proptest::collection::vec(0..N, 0..4),
        group_edges in proptest::collection::vec((0..N, 0..N), 0..4),
        group_events in arb_group_events(6),
    ) {
        let schedule = build_schedule(
            N, &node_events, &edge_events, &broker_events,
            &group_nodes, &group_edges, &group_events,
        );
        let json = serde_json::to_string(&schedule).unwrap();
        let reloaded: FaultSchedule = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&reloaded, &schedule);

        let collect = |s: &FaultSchedule| {
            let mut states = Vec::new();
            s.replay(|st| states.push(st.clone()));
            states
        };
        let original = collect(&schedule);
        let replayed = collect(&reloaded);
        prop_assert_eq!(&original, &replayed);
        prop_assert_eq!(original.len() as u32, schedule.horizon());
        for (epoch, st) in original.iter().enumerate() {
            prop_assert_eq!(&schedule.state_at(epoch as u32), st);
        }
    }
}
