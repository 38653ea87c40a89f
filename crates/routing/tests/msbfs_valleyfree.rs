//! The msbfs kernel over the valley-free `(vertex, phase)` product
//! graph. [`ValleyFreeView`] is *directed* (`is_symmetric()` is false),
//! so this pins the push-only path: automatic direction selection must
//! never pull, and every lane must match the per-source engine BFS that
//! `valley_free_reach` uses.

use netgraph::{msbfs_distances, with_arena, Graph, GraphBuilder, GraphView, NodeId, NodeSet};
use proptest::prelude::*;
use routing::valleyfree::ReachOptions;
use routing::{PolicyGraph, ValleyFreeView};
use std::collections::HashSet;
use topology::{Internet, NodeKind, Relationship};

/// Assemble a policy graph from random undirected edges with random
/// transit/peering relationships (no IXPs — fabric vertices get their
/// own dedicated fixture test below via the generated topology).
fn policy_graph(n: u32, raw: &[(u32, u32, u8)]) -> PolicyGraph {
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut b = GraphBuilder::new(n as usize);
    let mut rels = Vec::new();
    for &(x, y, r) in raw {
        let (u, v) = if x < y { (x, y) } else { (y, x) };
        if u == v || !seen.insert((u, v)) {
            continue;
        }
        b.add_edge(NodeId(u), NodeId(v));
        let rel = match r % 3 {
            0 => Relationship::CustomerOfB,
            1 => Relationship::ProviderOfB,
            _ => Relationship::Peer,
        };
        rels.push((NodeId(u), NodeId(v), rel));
    }
    let g: Graph = b.build();
    let kinds = vec![NodeKind::Access; n as usize];
    let net = Internet::from_parts(g, kinds, rels);
    PolicyGraph::new(&net)
}

/// Per-source engine distances over the state graph — the baseline
/// `valley_free_reach` is built on.
fn engine_states(view: &ValleyFreeView<'_>, start: NodeId) -> Vec<Option<u32>> {
    with_arena(|arena| {
        arena.run_bounded(view, start, u32::MAX);
        (0..view.node_count())
            .map(|s| arena.distance(NodeId(s as u32)))
            .collect()
    })
}

fn arb_policy_edges(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
    proptest::collection::vec((0..n, 0..n, 0u8..=255), 0..max_edges)
}

proptest! {
    /// Each lane of a batched run over the directed state graph equals
    /// the per-source engine run from the same start state.
    #[test]
    fn valley_free_lanes_match_engine(raw in arb_policy_edges(12, 40),
                                      sources in proptest::collection::hash_set(0u32..12, 1..10)) {
        let pg = policy_graph(12, &raw);
        let view = ValleyFreeView::new(&pg, ReachOptions::default());
        prop_assert!(!view.is_symmetric(), "state graph must stay directed");

        let mut starts: Vec<NodeId> = sources
            .iter()
            .map(|&s| ValleyFreeView::start_state(NodeId(s)))
            .collect();
        starts.sort_unstable();
        let dist = msbfs_distances(view, &starts);
        for (lane, &start) in starts.iter().enumerate() {
            prop_assert_eq!(&dist[lane], &engine_states(&view, start));
        }
    }

    /// Same equivalence with a broker-domination filter on the hops —
    /// the composition `lhop`-style consumers would use.
    #[test]
    fn dominated_valley_free_lanes_match_engine(raw in arb_policy_edges(12, 40),
                                                sources in proptest::collection::hash_set(0u32..12, 1..10),
                                                brokers in proptest::collection::hash_set(0u32..12, 0..6)) {
        let pg = policy_graph(12, &raw);
        let bset = NodeSet::from_iter_with_capacity(12, brokers.iter().map(|&b| NodeId(b)));
        let opts = ReachOptions {
            brokers: Some(&bset),
            alliance: None,
            max_hops: None,
        };
        let view = ValleyFreeView::new(&pg, opts);

        let mut starts: Vec<NodeId> = sources
            .iter()
            .map(|&s| ValleyFreeView::start_state(NodeId(s)))
            .collect();
        starts.sort_unstable();
        let dist = msbfs_distances(view, &starts);
        for (lane, &start) in starts.iter().enumerate() {
            prop_assert_eq!(&dist[lane], &engine_states(&view, start));
        }
    }
}

/// Forcing bottom-up pull on the directed state graph must panic — the
/// kernel refuses rather than silently traversing reversed edges.
#[test]
#[should_panic(expected = "symmetric")]
fn pull_is_rejected_on_the_state_graph() {
    use netgraph::msbfs::Direction;
    let pg = policy_graph(4, &[(0, 1, 0), (1, 2, 2), (2, 3, 1)]);
    let view = ValleyFreeView::new(&pg, ReachOptions::default());
    let mut arena = netgraph::MsBfsArena::new();
    arena.run_with(
        view,
        &[ValleyFreeView::start_state(NodeId(0))],
        u32::MAX,
        Direction::Pull,
        |_| {},
    );
}

/// On a generated topology (IXP fabrics included), one 64-lane batch
/// reproduces `valley_free_reach` for every lane: project the lane's
/// state distances down to vertices and compare reach sets.
#[test]
fn batched_reach_matches_valley_free_reach_on_generated_topology() {
    use topology::{InternetConfig, Scale};

    let net = InternetConfig::scaled(Scale::Tiny).generate(2014);
    let pg = PolicyGraph::new(&net);
    let n = net.graph().node_count();
    let view = ValleyFreeView::new(&pg, ReachOptions::default());

    let vertices: Vec<NodeId> = net.graph().nodes().take(64).collect();
    let starts: Vec<NodeId> = vertices
        .iter()
        .map(|&v| ValleyFreeView::start_state(v))
        .collect();
    let dist = msbfs_distances(view, &starts);
    for (lane, &src) in vertices.iter().enumerate() {
        let mut reached = NodeSet::new(n);
        for (state, d) in dist[lane].iter().enumerate() {
            if d.is_some() {
                reached.insert(ValleyFreeView::vertex_of(NodeId(state as u32)));
            }
        }
        let want = routing::valley_free_reach(&pg, src, ReachOptions::default());
        assert_eq!(
            reached.iter().collect::<Vec<_>>(),
            want.iter().collect::<Vec<_>>(),
            "lane {lane} (source {src}) diverged from valley_free_reach"
        );
    }
}
